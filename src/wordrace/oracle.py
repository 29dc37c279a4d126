"""Independent ground-truth deciders, and the built-in corpus they judge.

These are deliberately group-specific and dumb: a normal form for the
infinite cyclic group, a rewriting normal form for the infinite dihedral
group, and plain table arithmetic for finite groups.  They are used by
tests and by the ``corpus`` subcommand, never by the solver, so a
disagreement localizes a bug.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .certificates import MultiplicationTable
from .tables import MissingImageError, eval_in_table
from .words import Word


def exponent_sum(w: Word, generator_index: int = 0) -> int:
    total = 0
    for x in w:
        if x >> 1 == generator_index:
            total += -1 if x & 1 else 1
    return total


def is_identity_z(w: Word) -> bool:
    """In Z = <a>, a word is the identity iff its exponent sum is 0."""
    return exponent_sum(w, 0) == 0


def dinf_normal_form(w: Word) -> Word:
    """Normal form in Dinf = <a,b | a^2, b^2>.

    Drop signs (a^-1 = a, b^-1 = b), then cancel adjacent equal letters
    until none remain; the result is the unique alternating word.
    """
    out = bytearray()
    for x in w:
        pos = x & ~1
        if out and out[-1] == pos:
            out.pop()
        else:
            out.append(pos)
    return bytes(out)


def is_identity_dinf(w: Word) -> bool:
    return dinf_normal_form(w) == b""


class TableGroup(NamedTuple("TableGroup", [("table", MultiplicationTable), ("images", tuple[int, ...])])):
    """A finite group given by its table plus generator images."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make: validate there too

    def __new__(cls, table: MultiplicationTable, images: tuple[int, ...]):
        r = table.order
        for e in images:
            if not 0 <= e < r:
                raise MissingImageError(f"image {e} out of range for order {r}")
        # The images must generate the whole table: walk x -> x.g from 0.
        cells, reached, inside = table.cells, [0], {0}
        for x in reached:  # also visits what is appended meanwhile
            for g in images:
                if (y := cells[x][g]) not in inside:
                    inside.add(y)
                    reached.append(y)
        if len(reached) != r:
            raise ValueError("generator images do not generate the table's group")
        return super().__new__(cls, table, images)

    def is_identity(self, w: Word) -> bool:
        return eval_in_table(self.table, self.images, w) == 0


class CorpusGroup(NamedTuple):
    """A named corpus entry: its presentation text, its oracle and the words it runs."""

    name: str
    presentation_text: str
    is_identity: Callable[[Word], bool]
    words: tuple[str, ...]


def zn_table(n: int) -> MultiplicationTable:
    """The cyclic group of order n as a table (identity 0, i.j = i+j mod n)."""
    return MultiplicationTable(
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    )


def corpus_groups() -> tuple[CorpusGroup, ...]:
    """The built-in corpus: Z, Dinf and small cyclic groups, each with the words it runs.

    Both arms certify a nonempty equal word of the finite Z3 and Z4, so they
    run only words that ``solve`` answers before a step, or finds not equal.
    """
    z3 = TableGroup(zn_table(3), (1,))
    z4 = TableGroup(zn_table(4), (1,))
    return (
        CorpusGroup("Z", "generators: a\n", is_identity_z, ("", "a", "aa", "aaa", "A", "AA", "AAA")),
        CorpusGroup("Dinf", "generators: a b\nrelator: aa\nrelator: bb\n", is_identity_dinf,
                    ("", "a", "b", "aa", "bb", "ab", "aB", "Ab", "ba", "abba", "aabb")),
        CorpusGroup("Z3", "generators: a\nrelator: aaa\n", z3.is_identity, ("", "a", "aa")),
        CorpusGroup("Z4", "generators: a\nrelator: aaaa\n", z4.is_identity, ("aa", "A")),
    )
