"""What a certificate is: its records, its tau modes and the table axioms.

The provers build their certificates from these and the verifier
(``certcheck``) checks them; this module imports only ``words``, so the
verifier's imports reach no prover code.

A table of order r is an r x r array ``cells[i][j] = k`` meaning u_i.u_j = u_k,
with element 0 pinned as the identity.  Valid tables satisfy the identity
row/column, the Latin-square property, and associativity; a finite associative
cancellative structure with identity is a group, so inverses need no separate
check.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Word

WORDS_MODE = "words"
LETTERS_MODE = "letters"


class DyckFactor(NamedTuple):
    conjugator: Word
    relator_index: int
    sign: int


class EqualityCertificate(NamedTuple):
    """Factors whose product's free reduction is letter-for-letter the target."""

    factors: tuple[DyckFactor, ...]
    target: Word


class MultiplicationTable(NamedTuple):
    cells: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.cells)


class FinitenessCertificate(NamedTuple):
    """An epimorphism witness: table, tau, coverage, and goal derivations.

    ``images[i]`` is the word tau(u_i); images[0] is empty in words mode.
    """

    table: MultiplicationTable
    images: tuple[Word, ...]
    mode: str
    coverage: dict[int, int] | None  # generator index -> witness element (words mode)
    equation_certs: dict[tuple[int, int], EqualityCertificate]
    coverage_certs: dict[int, EqualityCertificate]


def is_group_table(cells) -> tuple[bool, str | None]:
    """Check the three table invariants; report the first violation found."""
    r = len(cells)
    if r < 1:
        return False, "empty table"
    for i, row in enumerate(cells):
        if len(row) != r:
            return False, f"row {i} has length {len(row)}, expected {r}"
        for j, v in enumerate(row):
            if not 0 <= v < r:
                return False, f"cell ({i},{j}) value {v} out of range"
    for j in range(r):
        if cells[0][j] != j:
            return False, f"identity row violated at column {j}"
    for i in range(r):
        if cells[i][0] != i:
            return False, f"identity column violated at row {i}"
    for i in range(r):
        if len(set(cells[i])) != r:
            return False, f"row {i} is not a permutation"
    for j in range(r):
        if len({cells[i][j] for i in range(r)}) != r:
            return False, f"column {j} is not a permutation"
    # Light's test.  The j with (i.j).k = i.(j.k) for all i, k form a
    # subloop N.  Each pick is the least element the walk x -> x.g from 0 by
    # the earlier picks g has not reached.  While the picks lie in N, the
    # reached set is closed (s.(t.g) = (s.t).g): it is the subsquare they
    # generate, at most half the order if proper.  So the first pick outside
    # N fails, picks that all pass generate the table, and at most log2 r pass.
    picks, reached, inside = [], [0], {0}
    for j in range(1, r):
        if j in inside:
            continue
        for i in range(r):
            ij = cells[i][j]
            for k in range(r):
                if cells[ij][k] != cells[i][cells[j][k]]:
                    return False, f"associativity fails at ({i},{j},{k})"
        picks.append(j)
        for x in reached:  # also visits what is appended meanwhile
            for g in picks:
                if (y := cells[x][g]) not in inside:
                    inside.add(y)
                    reached.append(y)
    return True, None
