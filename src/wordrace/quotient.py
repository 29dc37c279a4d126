"""Semi-decider for X != 1: exhibit the extended group as a finite quotient.

The certificate is a finite table T, an element-to-word assignment tau,
and derivations (in the extended presentation G1 = <S | X u R>) of every
table equation  tau(u_i) tau(u_j) tau(u_k)^-1  with u_i.u_j = u_k, plus,
in words mode, for every generator a, a coverage equation  a = tau(u_e)
for some witness element e.  Together these make u |-> [tau(u)] a
homomorphism T -> G1 whose image contains every generator class, so G1 is
a quotient of T and therefore finite.

Both tau modes run one engine, ``cosets.CosetEnumeration``: a coset
enumeration of G1 over its trivial subgroup that closes exactly when some
prefix of the relators presents a finite group, and whose table entries
carry proofs.  The arm, ``FinitenessTask``, is that enumeration with its
certificate on top.  A closed table of at most ``max_table_order`` cosets
yields the words-mode certificate: T is the table of that group H, tau
its shortlex transversal and every goal derivation is read off the
enumeration (``proofs.finiteness_certificate``; the goal words are those
of ``proofs.equation_words``).  A larger one, or one whose proofs are too
long to write out, yields nothing, and the arm waits, idle, for a relator.

The strict-fidelity mode ("letters") keeps the literal letter-valued
surjections: every element maps to a generator letter, the map is onto
the generators, and no coverage equations exist.  It translates the
words-mode certificate.  Let E_h be the generators whose class is h
(``coverage[g]`` gives each generator's class) and m = max |E_h|.  A
letter-valued certificate of order <= cap exists iff every E_h is nonempty
and |H| m <= cap:

- necessary: a letter-valued homomorphism T -> G1 has every generator in
  its image, so it is onto, and every fibre has |ker| elements; each fibre
  carries every generator of its class, so |ker| >= m and |T| >= |H| m;
- enough: T = H x Z/m works, element h m + z standing for (h, z), with
  image the generator E_h[z mod |E_h|].

Write w_g for the transversal word of the class of generator g,
images[coverage[g]].  The goal g_a g_b g_c^-1 of T is proved by the
product of cover(g_a), proving g_a w_a^-1; cover(g_b) conjugated by w_a;
the cell proof of (class of g_a, class of g_b), proving w_a w_b w_c^-1;
and cover(g_c) inverted, cover(g) being the coverage derivation of g (the
empty product where its goal word is empty).  Where no letter-valued
certificate exists the closed table yields nothing, and the arm waits, as
above the order cap, for a relator to join.

A certificate holds only what cannot be derived: the table, the images,
the coverage map (words mode) and one derivation per nonempty goal word.
Its record and the mode names are those of ``certificates``, which the
verifier shares; this module only builds certificates.
"""

from __future__ import annotations

from .certificates import LETTERS_MODE, WORDS_MODE, DyckFactor, EqualityCertificate, FinitenessCertificate, MultiplicationTable
from .cosets import CosetEnumeration
from .presentation import Presentation
from .proofs import equation_words, finiteness_certificate
from .words import concat

# The largest order of an emitted certificate's table, configurable per run:
# the closed coset table's order in words mode, times the most generators
# sharing one class in letters mode.  ``FinitenessTask.step`` applies it to
# closed tables only.  8 was sized for the blind (table, tau) search, now gone.
DEFAULT_MAX_TABLE_ORDER = 8


def _letters_certificate(words: FinitenessCertificate, max_table_order: int) -> FinitenessCertificate | None:
    """The letters-mode certificate of H x Z/m read off a words-mode one of H; None if none has order <= the cap."""
    h, coverage = words.table, words.coverage
    fibres = [[g for g in sorted(coverage) if coverage[g] == e] for e in range(h.order)]
    m = max(map(len, fibres))
    if not all(fibres) or h.order * m > max_table_order:
        return None
    gens = [fibre[z % len(fibre)] for fibre in fibres for z in range(m)]
    table = MultiplicationTable(tuple(
        tuple(h.cells[e][f] * m + (z + y) % m for f in range(h.order) for y in range(m))
        for e in range(h.order) for z in range(m)
    ))
    images = tuple(bytes((2 * g,)) for g in gens)

    def cover(g):
        cert = words.coverage_certs.get(g)
        return cert.factors if cert is not None else ()

    equation_certs = {}
    for i, j, goal in equation_words(table, images):
        a, b, c = gens[i], gens[j], gens[table.cells[i][j]]
        w_a = words.images[coverage[a]]
        cell = words.equation_certs.get((coverage[a], coverage[b]))
        factors = (
            *cover(a),
            *(DyckFactor(concat(w_a, t), n, s) for t, n, s in cover(b)),
            *(cell.factors if cell is not None else ()),
            *(DyckFactor(t, n, -s) for t, n, s in reversed(cover(c))),
        )
        equation_certs[(i, j)] = EqualityCertificate(factors, goal)
    return FinitenessCertificate(table, images, LETTERS_MODE, None, equation_certs, {})


class FinitenessTask(CosetEnumeration):
    """The finiteness arm: the coset enumeration, whose closed table it makes a certificate.

    In letters mode the certificate is translated by
    ``_letters_certificate``.  ``admitted`` reads 0: ``bench/layers.py``
    reads it on every step.
    """

    admitted = 0

    def __init__(
        self,
        extended: Presentation,
        mode: str = WORDS_MODE,
        max_table_order: int = DEFAULT_MAX_TABLE_ORDER,
    ):
        if not extended.extended:
            raise ValueError("presentation must be extended by the target word")
        if mode not in (WORDS_MODE, LETTERS_MODE):
            raise ValueError(f"unknown tau mode {mode!r}")
        super().__init__(extended)
        self.mode = mode
        self.max_table_order = max_table_order
        self.certificate: FinitenessCertificate | None = None

    def step(self) -> FinitenessCertificate | None:
        """One quantum of the arm, a step of the enumeration; the certificate once it is found."""
        if self.certificate is not None:
            raise ValueError("task already resolved")
        closed = CosetEnumeration.step(self)  # not super(), which would build a proxy object on every step
        if closed and self.live <= self.max_table_order:
            cert = finiteness_certificate(self._table, self._proof, self._rels, self.k2)
            if cert is not None:
                self.certificate = cert if self.mode == WORDS_MODE else _letters_certificate(cert, self.max_table_order)
        return self.certificate
