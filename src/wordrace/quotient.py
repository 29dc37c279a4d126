"""Semi-decider for X != 1: exhibit the extended group as a finite quotient.

The certificate is a finite table T, an element-to-word assignment tau,
and derivations (in the extended presentation G1 = <S | X u R>) of every
table equation  tau(u_i) tau(u_j) tau(u_k)^-1  with u_i.u_j = u_k, plus,
in words mode, for every generator a, a coverage equation  a = tau(u_e)
for some witness element e.  Together these make u |-> [tau(u)] a
homomorphism T -> G1 whose image contains every generator class, so G1 is
a quotient of T and therefore finite.

Two arms produce it, by tau mode.  In words mode (the default) tau is
word-valued and ``cosets.CosetEnumeration`` finds T: a coset enumeration
of G1 over its trivial subgroup that closes exactly when some prefix of
the relators presents a finite group, and whose table entries carry
proofs, so that T is that group's table, tau its shortlex transversal
and every goal derivation is read off the enumeration.

The strict-fidelity mode ("letters") keeps the literal letter-valued
surjections: every element maps to a generator letter, the map is onto
the generators, and no coverage equations exist.  Its candidates (table,
tau) are enumerated blind and dovetailed with one Dyck derivation stream
of G1: a candidate parks on its unresolved goal words, and each newly
assembled word wakes the candidates waiting on it.  Any derivable word is
assembled by infinitely many products, so a goal registered after its
first assembly is still reached.  When a finite relator list spanning the
exponent-sum lattice of G1 is known (an inline source, or a ``family:
powers`` source: X plus the inline prefix and the base words), admission
drops a candidate whose goals cannot all hold in the abelianization
A = Z^k / L of G1 (``_AbelianCheck``): such a goal word is nontrivial in G1
and the stream never assembles it.  A dropped candidate still takes its
admission step and index, so verdicts, step counts and certificates are
those of parking it.  Under a ``stream:`` source a relator still to come
can make any goal trivial, so there every candidate is parked.

A certificate holds only what cannot be derived: the table, the images,
the coverage map (words mode) and one derivation per nonempty goal word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import Abelianization, Vector
from .cosets import CosetEnumeration
from .derivation import EqualityCertificate, ProductStream
from .presentation import Presentation
from .tables import DEFAULT_MAX_TABLE_ORDER, MultiplicationTable, table_at_cursor
from .words import Word, concat, invert

WORDS_MODE = "words"
LETTERS_MODE = "letters"


@dataclass(frozen=True)
class FinitenessCertificate:
    """An epimorphism witness: table, tau, coverage, and goal derivations.

    ``images[i]`` is the word tau(u_i); images[0] is empty in words mode.
    """

    table: MultiplicationTable
    images: tuple[Word, ...]
    mode: str
    coverage: dict[int, int] | None  # generator index -> witness element (words mode)
    equation_certs: dict[tuple[int, int], EqualityCertificate]
    coverage_certs: dict[int, EqualityCertificate]


def equation_words(table: MultiplicationTable, images: tuple[Word, ...]):
    """The r*r reduced goal words tau(u_i) tau(u_j) tau(u_k)^-1, row-major.

    Empty results are trivially proved (the empty Dyck product derives them).
    """
    inverses = [invert(w) for w in images]
    return [
        (i, j, concat(concat(images[i], images[j]), inverses[k]))
        for i, row in enumerate(table.cells)
        for j, k in enumerate(row)
    ]


class _AbelianCheck:
    """Tells whether a candidate's cell goals can all hold in the abelianization A.

    A candidate passes when u |-> [tau(u)] is a homomorphism T -> A.  It is
    one iff [tau(u_0)] = 0 (all the order-1 table needs) and it respects the
    cells (x, s, x.s) for every x and every s in the table's generating set:
    [tau(x.y)] = [tau(x)] + [tau(y)] follows by induction on the length of
    y as a product of generators.  Classes are canonical vectors; image
    classes and sums are memoized.  Candidates of one table come in ``itertools.product`` order,
    mostly changing only their last images, so the table and the images up
    to max(i, j, k) of the last failing cell are kept: a candidate sharing
    them fails at once.
    """

    def __init__(self, abelianization: Abelianization):
        self._abelianization = abelianization
        self._word_classes: dict[Word, Vector] = {}
        self._sums: dict[tuple[Vector, Vector], Vector] = {}
        self._zero = abelianization.class_of(b"")
        self._dead: tuple = (None, ())  # (table, images[:L + 1]) of the last failing cell

    def _class_of(self, w: Word) -> Vector:
        c = self._word_classes.get(w)
        if c is None:
            c = self._word_classes[w] = self._abelianization.class_of(w)
        return c

    def passes(self, table: MultiplicationTable, images: tuple[Word, ...]) -> bool:
        dead_table, dead_prefix = self._dead
        if table is dead_table and images[: len(dead_prefix)] == dead_prefix:
            return False  # the last failing cell involves no changed element
        classes = [self._class_of(w) for w in images]
        if classes[0] != self._zero:  # the identity cell
            self._dead = (table, images[:1])
            return False
        sums = self._sums
        for s in table.generators:
            cs = classes[s]
            for x, row in enumerate(table.cells):
                cx = classes[x]
                c = sums.get((cx, cs))
                if c is None:
                    c = sums[cx, cs] = self._abelianization.canonical([a + b for a, b in zip(cx, cs)])
                if c != classes[row[s]]:
                    self._dead = (table, images[: max(x, s, row[s]) + 1])
                    return False
        return True


class _Candidate:
    """One admitted letters-mode (table, images) pair parked on its unresolved goals.

    ``pending`` counts its underived cell goal words; ``certs`` (goal word
    -> derivation) holds the resolved ones, in a dict made on first use.
    """

    __slots__ = ("table", "images", "pending", "certs")

    def __init__(self, table, images, pending):
        self.table = table
        self.images = images
        self.pending = pending
        self.certs = None


class FinitenessTask:
    """The finiteness arm: one ``step()`` per quantum, in either tau mode.

    In words mode a step is a step of the coset enumeration.  In letters
    mode steps follow one fixed cycle of ADMIT_PERIOD turns: ADMIT_PERIOD - 1
    derivation turns, each advancing the Dyck enumeration of the extended
    presentation by one quantum and waking any candidates waiting on the
    assembled word, then one admission of the next candidate from the
    graded (table cursor, image-tuple index) enumeration.  The first
    candidate whose goals are all discharged wins; ties break by admission
    order, so outcomes are deterministic.  ``admitted``, ``rejected`` and
    ``parked_count`` count letters-mode candidates, and ``coset_peak`` the
    coset slots words mode has held; each is 0 in the other mode.
    """

    ADMIT_PERIOD = 8

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
        self.extended = extended
        self.mode = mode
        self.max_table_order = max_table_order
        self.steps_taken = 0
        self.admitted = 0
        self.rejected = 0  # admissions that fail the abelian check and are not parked
        self.certificate: FinitenessCertificate | None = None
        self._parked: dict[int, _Candidate] = {}  # admission -> candidate
        if mode == WORDS_MODE:
            self.cosets = CosetEnumeration(extended, max_table_order)
            self._advance = self._enumerate
            return
        self.cosets = None
        self.stream = ProductStream(extended)
        self._waiters: dict[Word, list[int]] = {}  # goal word -> admissions waiting on it
        # Only a finite relator list spanning the exponent-sum lattice pins
        # down the abelianization of G1: a relator still to come from a
        # stream could make any goal word trivial.
        relators = extended.lattice_relators()
        self._abelian = None
        if relators is not None:
            self._abelian = _AbelianCheck(Abelianization(relators, extended.alphabet.k))
        self._candidates = self._candidate_stream()
        self._turns = itertools.cycle([self._derive] * (self.ADMIT_PERIOD - 1) + [self._admit])
        self._advance = self._race

    @property
    def parked_count(self) -> int:
        return len(self._parked)  # parked candidates are never discarded

    @property
    def spent(self) -> bool:
        """Whether no later step can return a certificate; reads state, pulls nothing.

        In words mode, once the coset table has closed without a certificate
        and no relator is left to join; in letters mode, never.
        """
        return self.cosets is not None and self.cosets.spent

    @property
    def coset_peak(self) -> int:
        return self.cosets.coset_peak if self.cosets is not None else 0

    def _enumerate(self) -> FinitenessCertificate | None:
        fields = self.cosets.step()
        return None if fields is None else FinitenessCertificate(mode=WORDS_MODE, **fields)

    def _race(self) -> FinitenessCertificate | None:
        winner = next(self._turns)()
        return None if winner is None else self._certificate(winner)

    def _candidate_stream(self):
        # Yields admission tuples (table cursor, index in the block, table,
        # images); yields None for an idle quantum when a grade opens
        # nothing new, and forever once the candidate space (finite under
        # the order cap) is exhausted.  The block of a table holds the
        # letter maps onto the generators, in itertools.product order.
        k = self.extended.alphabet.k
        letters = [bytes([2 * g]) for g in range(k)]
        pointers: dict[int, int] = {}
        for grade in itertools.count():
            bound = 1 << grade
            yielded = capped = more_possible = False
            for t in range(grade // 2 + 1):
                table = table_at_cursor(t, self.max_table_order)
                if table is None:
                    capped = True
                    break
                start = pointers.get(t, 0)
                size = k**table.order
                end = min(bound, size)
                block = itertools.product(letters, repeat=table.order)
                for idx, images in enumerate(itertools.islice(block, start, end), start):
                    if len(set(images)) == k:  # letter maps must be onto
                        yielded = True
                        yield (t, idx, table, images)
                pointers[t] = end
                more_possible = more_possible or end < size
            if capped and not more_possible:
                yield from itertools.repeat(None)
            if not yielded:
                yield None

    def _admit(self) -> _Candidate | None:
        admission = next(self._candidates)
        if admission is None:
            return None
        table, images = admission[2:]
        a = self.admitted
        self.admitted += 1
        if self._abelian is not None and not self._abelian.passes(table, images):
            self.rejected += 1  # some goal word is nontrivial in G1: never complete
            return None
        goals = {w for _, _, w in equation_words(table, images) if w}
        cand = self._parked[a] = _Candidate(table, images, len(goals))
        if not cand.pending:
            return cand
        for w in goals:
            self._waiters.setdefault(w, []).append(a)
        return None

    def _derive(self) -> _Candidate | None:
        ev = self.stream.next_event()
        if ev[0] != "product":
            return None
        word = ev[2]
        waiters = self._waiters.pop(word, None)
        if waiters is None:
            return None
        cert = EqualityCertificate(factors=ev[1], target=word)
        parked = self._parked
        winner = None
        for a in waiters:
            cand = parked[a]
            if cand.certs is None:
                cand.certs = {}
            cand.certs[word] = cert
            cand.pending -= 1
            if not cand.pending and (winner is None or a < winner):
                winner = a
        return None if winner is None else parked[winner]

    def _certificate(self, cand: _Candidate) -> FinitenessCertificate:
        table, images = cand.table, cand.images
        equation_certs = {(i, j): cand.certs[w] for i, j, w in equation_words(table, images) if w}
        return FinitenessCertificate(table, images, LETTERS_MODE, None, equation_certs, {})

    def step(self) -> FinitenessCertificate | None:
        """One quantum of the arm; the certificate once it is found."""
        if self.certificate is not None:
            raise ValueError("task already resolved")
        self.steps_taken += 1
        self.certificate = self._advance()
        return self.certificate
