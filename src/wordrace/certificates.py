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


def generating_set(cells) -> tuple[int, ...]:
    """The greedy generating set of a Latin square with identity 0.

    Each pick is the least element outside the closure of 0 and the earlier
    picks under the product.  That closure is a subsquare, and a proper
    subsquare has at most half the order, so there are at most log2 r picks.
    """
    picks, closure, inside = [], [0], {0}
    for g in range(1, len(cells)):
        if g not in inside:
            picks.append(g)
            closure.append(g)
            inside.add(g)
            for n, x in enumerate(closure):  # also visits what is appended meanwhile
                for y in closure[: n + 1]:
                    for z in (cells[x][y], cells[y][x]):
                        if z not in inside:
                            inside.add(z)
                            closure.append(z)
    return tuple(picks)


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
    # Light's test: the elements j with (i.j).k = i.(j.k) for all i, k are
    # closed under the product, so checking a generating set suffices.
    for j in generating_set(cells):
        for i in range(r):
            ij = cells[i][j]
            for k in range(r):
                if cells[ij][k] != cells[i][cells[j][k]]:
                    return False, f"associativity fails at ({i},{j},{k})"
    return True, None
