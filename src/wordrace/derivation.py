"""Semi-decider for W = 1: fair enumeration of products of conjugated relators.

A word equals 1 in <S | R> iff its free reduction coincides letter for
letter with the reduction of some product  t_1 R_{i_1}^{e_1} t_1^-1 ...
t_s R_{i_s}^{e_s} t_s^-1.  The enumeration is graded by stages: stage n
covers all products with factor count <= n, relator index <= n and
conjugator length <= n that were not covered by stage n-1, ordered within
a stage by factor count and then lexicographically by the per-factor key
(relator index, sign with + before -, conjugator index).  Stage 0 holds
exactly the empty product.  Relators are pulled from the source exactly
when a stage first needs them; an exhausted source just stops growing the
relator-index bound, and is not asked again.  Relators already pulled never
change, so each stage extends the previous stage's list of nonempty
relators by the newly available ones instead of re-reading them all.

Zero exponents are not enumerated: an identity factor reduces away, so
products over e in {+1,-1} with varying factor count assemble the same
set of words without redundant candidates.  Relators that are empty words
are skipped for the same reason.

A product is its tuple of factors (conjugator, relator index, sign), and
an equality certificate is that tuple plus the target word.  The stage
of a product and the relators it cites follow from the factors, so
neither is stored.

The equality arm, ``EqualityTask``, is a ``ProductStream`` that takes one
event per step and compares each product with its target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .presentation import Presentation
from .words import Word, concat, conjugate, count_words_up_to, invert, reduce_word, word_at_index


class DyckFactor(NamedTuple):
    conjugator: Word
    relator_index: int
    sign: int


@dataclass(frozen=True)
class EqualityCertificate:
    """Factors whose product's free reduction is letter-for-letter the target."""

    factors: tuple[DyckFactor, ...]
    target: Word


class ProductStream:
    """Stateful enumerator over all Dyck products of one presentation.

    ``next_event()`` performs one quantum of work and returns either
    ``("product", factors, assembled_word)`` or ``("stage", n)`` when the
    enumeration crosses into stage n.  The events come from one generator
    that, for n = 0, 1, ..., sets ``stage``, pulls the relators stage n
    needs, yields the stage event and then the stage's products.  The order
    of the product events is fixed by the presentation alone, and every
    product occurs exactly once.
    """

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.stage = -1
        self._conj_words: list[Word] = []
        self._avail = 0  # relators pulled so far: the settled prefix
        self._nonempty: list[tuple[int, Word]] = []  # its nonempty relators
        self._exhausted = False
        self._events = self._all_events()

    def next_event(self):
        return next(self._events)

    def _all_events(self):
        self.stage = 0
        yield ("stage", 0)
        yield ("product", (), b"")
        for n in itertools.count(1):
            self.stage = n
            entries = self._begin_stage(n)
            yield ("stage", n)
            if not entries:
                continue  # an empty stage, as on a relator-free presentation
            for m in range(1, n + 1):
                skippable = m <= n - 1  # all-old products this short were in stage n-1
                for factors, word, old in _prefixes(entries, m):
                    if not (skippable and old):
                        yield ("product", factors, word)

    def _begin_stage(self, n: int):
        # Pulls the relators stage n >= 1 needs; returns its (old, word, factor) entries.
        p = self.presentation
        prev_avail = self._avail
        if not self._exhausted:
            avail = p.available(n + 1)
            self._exhausted = avail < n + 1
            for i in range(prev_avail, avail):
                rel = p.relator(i)
                if rel != b"":
                    self._nonempty.append((i, rel))
            self._avail = avail
        nonempty = self._nonempty
        if not nonempty:
            return []
        k = p.alphabet.k
        want = count_words_up_to(n, k)
        while len(self._conj_words) < want:
            self._conj_words.append(word_at_index(len(self._conj_words), p.alphabet))
        old_conj = count_words_up_to(n - 1, k)
        entries = []
        for rel_idx, rel in nonempty:
            inv_rel = invert(rel)
            for sign, body in ((1, rel), (-1, inv_rel)):
                for conj_idx in range(want):
                    t = self._conj_words[conj_idx]
                    entries.append(
                        (
                            rel_idx < prev_avail and conj_idx < old_conj,
                            conjugate(t, body),
                            DyckFactor(t, rel_idx, sign),
                        )
                    )
        return entries


def _prefixes(entries, depth):
    # Products of depth entries as (factors, reduced word, all old), in itertools.product
    # order, depth first so that each reduced prefix is computed once for its extensions.
    if depth == 0:
        yield (), b"", True
        return
    for factors, word, old in _prefixes(entries, depth - 1):
        for e_old, e_word, factor in entries:
            yield factors + (factor,), concat(word, e_word), old and e_old


class EqualityTask(ProductStream):
    """The equality arm: the product stream, one event per step, compared with the target.

    Steps that cross a stage boundary do bookkeeping only; the following
    steps assemble candidates.  Deterministic given (presentation, target).
    """

    def __init__(self, presentation: Presentation, target: Word):
        super().__init__(presentation)
        self.target = reduce_word(target)
        self.steps_taken = 0
        self.idle = 0  # steps certain to return None: math.inf once the stages left are all empty
        self.certificate: EqualityCertificate | None = None

    @property
    def spent(self) -> bool:
        """Whether no later step can return a certificate."""
        return self.idle == math.inf

    def skip(self, k: int) -> None:
        """Count k idle steps without taking them."""
        if not 0 <= k <= self.idle:
            raise ValueError("only idle steps can be skipped")
        self.steps_taken += k

    def step(self) -> EqualityCertificate | None:
        """Advance one quantum; return a certificate once the target is found."""
        if self.certificate is not None:
            raise ValueError("task already resolved")
        self.steps_taken += 1
        ev = self.next_event()
        if ev[0] == "product":
            if ev[2] == self.target:
                self.certificate = EqualityCertificate(factors=ev[1], target=self.target)
                return self.certificate
        elif self._exhausted and not self._nonempty:  # a stage >= 1 found no relator
            self.idle = math.inf
        return None
