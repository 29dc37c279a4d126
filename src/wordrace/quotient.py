"""Semi-decider for X != 1: exhibit the extended group as a finite quotient.

The search looks for a finite table T, an element-to-word assignment tau,
and derivations (in the extended presentation G1 = <S | X u R>) of every
table equation  tau(u_i) tau(u_j) tau(u_k)^-1  with u_i.u_j = u_k, plus,
for every generator a, a coverage equation  a = tau(u_e)  for some witness
element e.  Together these make u |-> [tau(u)] a homomorphism T -> G1
whose image contains every generator class, so G1 is a quotient of T and
therefore finite.  Completeness: when G1 is finite its own table with any
representative words works.

Tau is word-valued: element 0 is pinned to the empty word and the other
images range over nonempty reduced words of bounded length, the bound
growing without limit.  The literal letter-valued surjections appear as a
strict-fidelity mode ("letters"): every element maps to a generator
letter, the map is onto the generators, and no coverage equations exist.

All candidates over one extended presentation share a single derivation
stream.  A candidate parks on its unresolved goal words; each newly
assembled word wakes the candidates waiting on it.  Any derivable word is
assembled by infinitely many products, so a goal registered after its
first assembly is still reached; no candidate ever consumes derivation
budget by itself, which is what makes the dovetail affordable.

Most candidates can never complete, and when a finite relator list
spanning the exponent-sum lattice of G1 is known (an inline source, or a
``family: powers`` source: X plus the inline prefix and the base words)
admission drops them before building any goal word (``_AbelianCheck``).
A word trivial in G1 is trivial in its abelianization A = Z^k / L, L the
span of the relators' exponent-sum vectors (``abelian``).  So a candidate
is dead if u |-> [tau(u)] breaks some table cell in A, or, in words mode,
some generator class is the class of no image: a goal word is then
nontrivial in G1 and the Dyck stream never assembles it.  A dead candidate
still takes its admission step and index but is not parked, so verdicts,
step counts, winners and certificates are those of parking it.  The check
is sound only for a finite relator list spanning the lattice: under a
``stream:`` source a relator still to come can make any goal trivial, so
there every candidate is parked.

A long run can park tens of thousands of candidates, so they are kept
lean: one waiter map lists, for each goal word, (admission, g, e) entries
into one candidate map (g = -1 for a cell goal, else the coverage goal of
generator g by element e), a candidate counts its pending goals of both
kinds, and the winner's goal words are recomputed.
A certificate holds only what cannot be derived: the table, the images,
the coverage map (words mode) and one derivation per nonempty goal word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import Abelianization, Vector
from .derivation import EqualityCertificate, ProductStream
from .presentation import Presentation
from .tables import DEFAULT_MAX_TABLE_ORDER, MultiplicationTable, table_at_cursor
from .words import Word, concat, count_words_up_to, invert, word_at_index

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
    """Tells whether a candidate's goals can all hold in the abelianization A.

    A candidate passes when u |-> [tau(u)] is a homomorphism T -> A and each
    class of the ``generators`` given is the class of some image.  It is one
    iff [tau(u_0)] = 0 (all the order-1 table needs) and it respects the
    cells (x, s, x.s) for every x and every s in the table's generating set:
    [tau(x.y)] = [tau(x)] + [tau(y)] follows by induction on the length of
    y as a product of generators.  Classes are canonical vectors; image
    classes and sums are memoized.  Candidates of one table come in ``itertools.product`` order,
    mostly changing only their last images, so the table and the images up
    to max(i, j, k) of the last failing cell are kept: a candidate sharing
    them fails at once.
    """

    def __init__(self, abelianization: Abelianization, generators: list[Word]):
        self._abelianization = abelianization
        self._word_classes: dict[Word, Vector] = {}
        self._sums: dict[tuple[Vector, Vector], Vector] = {}
        self._coverage = [abelianization.class_of(gen) for gen in generators]
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
        present = set(classes)
        return all(c in present for c in self._coverage)


class _Candidate:
    """One admitted (table, images) pair parked on its unresolved goals.

    ``pending`` counts its underived cell goal words and the generators it
    has still to cover.  Only resolved goals are kept, in containers made on
    first use: ``certs`` (goal word -> derivation) and ``coverage``
    (generator -> the witness element whose goal was derived first).
    """

    __slots__ = ("table", "images", "pending", "certs", "coverage")

    def __init__(self, table, images, pending):
        self.table = table
        self.images = images
        self.pending = pending
        self.certs = None
        self.coverage = None


class FinitenessTask:
    """Dovetails candidate admission with the shared derivation stream.

    Steps follow one fixed cycle of ADMIT_PERIOD turns: ADMIT_PERIOD - 1
    derivation turns, each advancing the Dyck enumeration of the extended
    presentation by one quantum and waking any candidates waiting on the
    assembled word, then one admission of the next candidate from the
    graded (table cursor, length bound, image-tuple index) enumeration.  The
    first candidate whose goals are all discharged wins; ties break by
    admission order, so outcomes are deterministic.
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
        self.stream = ProductStream(extended)
        self.steps_taken = 0
        self.admitted = 0
        self.rejected = 0  # admissions that fail the abelian check and are not parked
        self.certificate: FinitenessCertificate | None = None
        self._parked: dict[int, _Candidate] = {}  # admission -> candidate
        # Goal word -> (admission, g, e): g = -1 for a cell goal, otherwise
        # the coverage goal g.tau(u_e)^-1 of generator g by element e.
        self._waiters: dict[Word, list[tuple[int, int, int]]] = {}
        # Letters mode has no coverage goals.
        self._generators = [bytes([2 * g]) for g in range(extended.alphabet.k)] if mode == WORDS_MODE else []
        # Only a finite relator list spanning the exponent-sum lattice pins
        # down the abelianization of G1: a relator still to come from a
        # stream could make any goal word trivial.
        relators = extended.lattice_relators()
        self._abelian = None
        if relators is not None:
            self._abelian = _AbelianCheck(Abelianization(relators, extended.alphabet.k), self._generators)
        self._candidates = self._candidate_stream()
        self._turns = itertools.cycle([self._derive] * (self.ADMIT_PERIOD - 1) + [self._admit])

    @property
    def parked_count(self) -> int:
        return len(self._parked)  # parked candidates are never discarded

    def _candidate_stream(self):
        # Yields admission tuples (table cursor, length bound, index in the
        # block, table, images); yields None for an idle quantum when a
        # grade opens nothing new, and forever once the candidate space is
        # provably exhausted (finite letters-mode space under the order cap).
        # A block (length bound, head, choices, repeat) holds the images
        # head + tail, tail in itertools.product(choices, repeat=repeat): letter
        # maps (bound 0), or the empty word and nonempty words up to the bound.
        alphabet = self.extended.alphabet
        k = alphabet.k
        letters_mode = self.mode == LETTERS_MODE
        letters = [bytes([2 * g]) for g in range(k)]
        image_words = [b""]  # word_at_index(n) at index n, grown with the length bound
        pointers: dict[tuple[int, int], int] = {}
        for grade in itertools.count():
            tmax = grade // 2
            lmax = max(1, grade // 2)
            bound = 1 << grade
            while not letters_mode and len(image_words) < count_words_up_to(lmax, k):
                image_words.append(word_at_index(len(image_words), alphabet))
            yielded = capped = more_possible = False
            for t in range(tmax + 1):
                table = table_at_cursor(t, self.max_table_order)
                if table is None:
                    capped = True
                    break
                if letters_mode:
                    blocks = [(0, (), letters, table.order)]
                else:
                    blocks = (
                        (n, (b"",), image_words[1 : count_words_up_to(n, k)], table.order - 1)
                        for n in range(1, lmax + 1)
                    )
                for length_bound, head, choices, repeat in blocks:
                    key = (t, length_bound)
                    start = pointers.get(key, 0)
                    size = len(choices) ** repeat
                    end = min(bound, size)
                    block = itertools.product(choices, repeat=repeat)
                    for idx, tail in enumerate(itertools.islice(block, start, end), start):
                        if not letters_mode or len(set(tail)) == k:  # letter maps must be onto
                            yielded = True
                            yield (t, length_bound, idx, table, head + tail)
                    pointers[key] = end
                    if end < size or not letters_mode:  # word-valued blocks grow with the length bound
                        more_possible = True
            if capped and not more_possible:
                yield from itertools.repeat(None)
            if not yielded:
                yield None

    def _admit(self) -> _Candidate | None:
        admission = next(self._candidates)
        if admission is None:
            return None
        table, images = admission[3:]
        a = self.admitted
        self.admitted += 1
        if self._abelian is not None and not self._abelian.passes(table, images):
            self.rejected += 1  # some goal word is nontrivial in G1: never complete
            return None
        goals = {w for _, _, w in equation_words(table, images) if w}
        # A generator that is an image has the empty goal g.tau(u_e)^-1: covered for free.
        to_cover = [g for g, gen in enumerate(self._generators) if gen not in images]
        cand = self._parked[a] = _Candidate(table, images, len(goals) + len(to_cover))
        if not cand.pending:
            return cand
        waiters = self._waiters
        cell = (a, -1, -1)
        for w in goals:
            waiters.setdefault(w, []).append(cell)
        inverses = [invert(image) for image in images] if to_cover else []
        for g in to_cover:
            for e, inv in enumerate(inverses):
                waiters.setdefault(concat(self._generators[g], inv), []).append((a, g, e))
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
        for a, g, e in waiters:
            cand = parked[a]
            if g >= 0:  # a coverage goal: the first derived witness covers g
                if cand.coverage is None:
                    cand.coverage = {}
                elif g in cand.coverage:
                    continue
                cand.coverage[g] = e
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
        coverage = None
        coverage_certs = {}
        if self.mode == WORDS_MODE:
            coverage = {}
            for g, gen in enumerate(self._generators):
                if gen in images:
                    coverage[g] = images.index(gen)
                else:
                    e = coverage[g] = cand.coverage[g]
                    coverage_certs[g] = cand.certs[concat(gen, invert(images[e]))]
        return FinitenessCertificate(table, images, self.mode, coverage, equation_certs, coverage_certs)

    def step(self) -> FinitenessCertificate | None:
        """One dovetail quantum: a derivation step or a candidate admission."""
        if self.certificate is not None:
            raise ValueError("task already resolved")
        self.steps_taken += 1
        winner = next(self._turns)()
        if winner is not None:
            self.certificate = self._certificate(winner)
            return self.certificate
        return None
