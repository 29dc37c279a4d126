"""The abelianization of a finitely presented group, as canonical vectors.

The abelianization of <S | R> is A = Z^k / L, where k = |S| and L is the
lattice spanned by the exponent-sum vectors of the relators.  ``hermite_basis``
brings the spanning vectors to Hermite normal form: rows in echelon form,
each pivot positive and every entry above a pivot reduced into [0, pivot).
Reducing a vector by those rows in order leaves each pivot coordinate in
[0, pivot); the result is its canonical form, and two vectors have the same
canonical form exactly when their difference lies in L.  See Sims,
*Computation with Finitely Presented Groups* (1994), ch. 8.

A word that is trivial in the group has an exponent-sum vector in L, so a
word whose vector is not in L is nontrivial in the group: the finiteness
arm uses this to drop candidates that can never complete.
"""

from __future__ import annotations

from .words import Word

Vector = tuple[int, ...]


def exponent_sums(w: Word, k: int) -> Vector:
    """The exponent sum of each of the k generators in the word."""
    sums = [0] * k
    for x in w:
        sums[x >> 1] += -1 if x & 1 else 1
    return tuple(sums)


def hermite_basis(vectors, k: int) -> list[Vector]:
    """The Hermite normal form basis of the lattice the vectors span in Z^k."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for c in range(k):
        live = [row for row in rows if row[c]]
        rows = [row for row in rows if not row[c]]
        while len(live) > 1:  # Euclid on column c
            live.sort(key=lambda row: abs(row[c]))
            pivot = live[0]
            reduced = [[x - row[c] // pivot[c] * y for x, y in zip(row, pivot)] for row in live[1:]]
            live = [pivot] + [row for row in reduced if row[c]]
            rows += [row for row in reduced if not row[c] and any(row)]
        if live:
            pivot = live[0] if live[0][c] > 0 else [-x for x in live[0]]
            for n, row in enumerate(basis):
                q = row[c] // pivot[c]
                basis[n] = [x - q * y for x, y in zip(row, pivot)]
            basis.append(pivot)
    return [tuple(row) for row in basis]


class Abelianization:
    """A = Z^k / L for the relators given; ``canonical`` names each class once."""

    def __init__(self, relators, k: int):
        self.k = k
        self.basis = hermite_basis([exponent_sums(w, k) for w in relators], k)
        self._pivots = [next(c for c, x in enumerate(row) if x) for row in self.basis]

    def canonical(self, v) -> Vector:
        """The canonical form of v: equal for two vectors iff they differ by L."""
        v = list(v)
        for row, c in zip(self.basis, self._pivots):
            q = v[c] // row[c]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def class_of(self, w: Word) -> Vector:
        """The canonical form of the word's exponent-sum vector."""
        return self.canonical(exponent_sums(w, self.k))
