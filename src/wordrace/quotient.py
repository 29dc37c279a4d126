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
lean: waiter lists hold admission indices into one candidate map, a
candidate counts its pending goals, and the winner's cell goal words are
recomputed.
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

    A candidate passes when u |-> [tau(u)] respects every table cell in A,
    [tau(u_i)] + [tau(u_j)] = [tau(u_k)], and every generator class is the
    class of some image (only the ``generators`` given need covering).
    The candidate stream walks image tuples in ``itertools.product`` order,
    so consecutive candidates of one table mostly differ only in the images
    of their last elements.  The check keeps the classes of the last
    candidate's images and the lowest max(i, j, k) of a cell that fails for
    them, so a candidate that changes only elements above that level fails
    without any cell work; otherwise, from the first element d whose image
    changed, only the cells with max(i, j, k) >= d are checked again.  Each
    table's cells are sorted by max(i, j, k) once, and ``starts[d]``
    (d <= r) is the first cell with max(i, j, k) >= d.
    A class is a canonical vector; image classes and sums are memoized.
    """

    def __init__(self, abelianization: Abelianization, generators: list[Word]):
        self._abelianization = abelianization
        self._word_classes: dict[Word, Vector] = {}
        self._sums: dict[tuple[Vector, Vector], Vector] = {}
        self._coverage = [abelianization.class_of(gen) for gen in generators]
        self._orders: dict[MultiplicationTable, tuple] = {}  # table -> (cells, starts)
        self._table = None
        self._images: tuple[Word, ...] = ()
        self._cells: list[tuple[int, int, int]] = []
        self._starts: list[int] = []
        self._classes: list[Vector] = []
        self._failing = 0  # lowest max(i, j, k) of a failing cell; r if none fails

    def _class_of(self, w: Word) -> Vector:
        c = self._word_classes.get(w)
        if c is None:
            c = self._word_classes[w] = self._abelianization.class_of(w)
        return c

    def _sum(self, x: Vector, y: Vector) -> Vector:
        c = self._sums[x, y] = self._abelianization.canonical([a + b for a, b in zip(x, y)])
        return c

    def passes(self, table: MultiplicationTable, images: tuple[Word, ...]) -> bool:
        r = len(images)
        d = 0
        if table is self._table:
            previous = self._images
            while d < r and images[d] == previous[d]:
                d += 1
        else:
            self._table = table
            order = self._orders.get(table)
            if order is None:
                cells = [(i, j, k) for i, row in enumerate(table.cells) for j, k in enumerate(row)]
                cells.sort(key=max)
                starts = [sum(max(cell) < level for cell in cells) for level in range(r + 1)]
                order = self._orders[table] = (cells, starts)
            self._cells, self._starts = order
        self._images = images
        if self._failing < d:
            return False  # the failing cell involves no changed element
        classes = self._classes
        classes[d:] = [self._class_of(w) for w in images[d:]]
        cells = self._cells
        sums = self._sums
        for n in range(self._starts[d], len(cells)):
            i, j, k = cells[n]
            s = sums.get((classes[i], classes[j]))
            if s is None:
                s = self._sum(classes[i], classes[j])
            if s != classes[k]:
                self._failing = max(i, j, k)
                return False
        self._failing = r
        present = set(classes)
        return all(c in present for c in self._coverage)


class _Candidate:
    """One admitted (table, images) pair parked on its unresolved goals.

    It counts its underived cell goal words and uncovered generators, and
    keeps derivations only of resolved goals: ``eq_certs`` (word -> cert,
    made on first use) and ``cov_resolved`` (generator -> (element, cert)).
    """

    __slots__ = ("admission", "table", "images", "mode", "pending", "eq_certs", "uncovered", "cov_resolved")

    def __init__(self, admission, table, images, mode):
        self.admission = admission
        self.table = table
        self.images = images
        self.mode = mode
        self.pending = 0
        self.eq_certs = None
        self.uncovered = 0
        self.cov_resolved = None

    def complete(self) -> bool:
        return not self.pending and not self.uncovered

    def to_certificate(self) -> FinitenessCertificate:
        equation_certs = {
            (i, j): self.eq_certs[w] for i, j, w in equation_words(self.table, self.images) if w != b""
        }
        coverage = None
        coverage_certs = {}
        if self.mode == WORDS_MODE:
            resolved = sorted(self.cov_resolved.items())
            coverage = {g: e for g, (e, _) in resolved}
            coverage_certs = {g: c for g, (_, c) in resolved if c is not None}
        return FinitenessCertificate(
            table=self.table,
            images=self.images,
            mode=self.mode,
            coverage=coverage,
            equation_certs=equation_certs,
            coverage_certs=coverage_certs,
        )


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
        self._waiters: dict[Word, list[int]] = {}  # goal word -> admissions
        self._cov_waiters: dict[Word, list[tuple[int, int, int]]] = {}  # -> (admission, g, e)
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
        self.admitted += 1
        if self._abelian is not None and not self._abelian.passes(table, images):
            self.rejected += 1  # some goal word is nontrivial in G1: never complete
            return None
        cand = _Candidate(self.admitted - 1, table, images, self.mode)
        self._parked[cand.admission] = cand
        goals = {w for _, _, w in equation_words(table, images) if w}
        cand.pending = len(goals)
        uncovered = []
        if self.mode == WORDS_MODE:
            cand.cov_resolved = {}
            for g, gen in enumerate(self._generators):
                if gen in images:  # the goal g.tau(u_e)^-1 is empty: covered for free
                    cand.cov_resolved[g] = (images.index(gen), None)
                else:
                    uncovered.append(g)
            cand.uncovered = len(uncovered)
        if cand.complete():
            return cand
        for w in goals:
            self._waiters.setdefault(w, []).append(cand.admission)
        if uncovered:
            inverses = [invert(image) for image in images]
            for g in uncovered:
                gen = self._generators[g]
                for e, inv in enumerate(inverses):
                    self._cov_waiters.setdefault(concat(gen, inv), []).append((cand.admission, g, e))
        return None

    def _derive(self) -> _Candidate | None:
        ev = self.stream.next_event()
        if ev[0] != "product":
            return None
        word = ev[2]
        eq_waiters = self._waiters.pop(word, ())
        cov_waiters = self._cov_waiters.pop(word, ())
        if not eq_waiters and not cov_waiters:
            return None
        cert = EqualityCertificate(factors=ev[1], target=word)
        parked = self._parked
        winner = None
        for a in eq_waiters:
            cand = parked[a]
            if cand.eq_certs is None:
                cand.eq_certs = {}
            cand.eq_certs[word] = cert
            cand.pending -= 1
            if cand.complete() and (winner is None or a < winner):
                winner = a
        for a, g, e in cov_waiters:
            cand = parked[a]
            if g not in cand.cov_resolved:
                cand.cov_resolved[g] = (e, cert)
                cand.uncovered -= 1
                if cand.complete() and (winner is None or a < winner):
                    winner = a
        return None if winner is None else parked[winner]

    def step(self) -> FinitenessCertificate | None:
        """One dovetail quantum: a derivation step or a candidate admission."""
        if self.certificate is not None:
            raise ValueError("task already resolved")
        self.steps_taken += 1
        winner = next(self._turns)()
        if winner is not None:
            self.certificate = winner.to_certificate()
            return self.certificate
        return None
