"""What a certificate is: its records and its tau modes.

The provers build their certificates from these and the verifier
(``certcheck``) checks them; this module imports only ``words``, so the
verifier's imports reach no prover code.

A table of order r is an r x r array ``cells[i][j] = k`` meaning u_i.u_j = u_k.
It need not be a group table; ``certcheck.verify_finiteness`` says why.
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
