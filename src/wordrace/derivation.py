"""Semi-decider for W = 1: the equality arm, and the Dyck products of a presentation.

A word equals 1 in <S | R> iff its free reduction is that of some product
t_1 R_{i_1}^{e_1} t_1^-1 ... t_s R_{i_s}^{e_s} t_s^-1; an equality
certificate is the tuple of factors (conjugator, relator index, sign) plus
the target word.

The equality arm, ``EqualityTask``, is a ``cosets.CosetEnumeration`` of G
whose path, defined first from coset 0, is X; after every step that is
not idle the arm traces X along it.  Once X leads from coset 0 back to it
(on a closed table too), the entry proofs along the way prove X, and
cancelled they are the certificate (Havas and Ramsay, "Proving a group
trivial made easy", 2000).

``ProductStream`` enumerates the Dyck products themselves by stages: stage
n holds the products with factor count, relator index and conjugator
length <= n not in stage n-1, by factor count and then lexicographically
by (relator index, sign with + first, conjugator index).  Stage 0 is the
empty product; the relators a stage needs are pulled when it begins.
Zero exponents and empty relators are not enumerated.  No race arm runs
this plain product loop of Kuznetsov's semi-decider; it stays in the
library because the benchmark's tracer wraps its ``next_event`` by name.
"""

from __future__ import annotations

import itertools
import operator

from .certificates import DyckFactor, EqualityCertificate
from .cosets import CosetEnumeration
from .presentation import Presentation
from .proofs import MAX_RAW_FACTORS, _expand, _size, cat
from .words import Word, concat_all, conjugate, count_words_up_to, invert, reduce_word, word_at_index


class ProductStream:
    """Stateful enumerator over all Dyck products of one presentation.

    ``next_event()`` performs one quantum of work and returns either
    ``("product", factors, assembled_word)`` or ``("stage", n)`` when the
    enumeration crosses into stage n.  The events come from one generator
    that, for n = 0, 1, ..., sets ``stage``, pulls the relators stage n
    needs, yields the stage event and then the stage's products.  The order
    of the product events is fixed by the presentation alone, and every
    product occurs exactly once.  No solve runs it (see the module notes).
    """

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.stage = -1
        self._events = self._all_events()

    def next_event(self):
        return next(self._events)

    def _all_events(self):
        p, k = self.presentation, self.presentation.alphabet.k
        self.stage = 0
        yield ("stage", 0)
        yield ("product", (), b"")
        avail, exhausted = 0, False
        for n in itertools.count(1):
            self.stage = n
            old_avail, avail = avail, (avail if exhausted else p.available(n + 1))
            exhausted = avail < n + 1  # a source that falls short is not asked again
            rels = [(i, rel) for i in range(avail) if (rel := p.relator(i)) != b""]
            yield ("stage", n)
            if not rels:
                continue  # an empty stage, as on a relator-free presentation
            old_conj = count_words_up_to(n - 1, k)
            conjugators = [word_at_index(c, p.alphabet) for c in range(count_words_up_to(n, k))]
            entries = [
                (i < old_avail and c < old_conj, conjugate(t, body), DyckFactor(t, i, sign))
                for i, rel in rels
                for sign, body in ((1, rel), (-1, invert(rel)))
                for c, t in enumerate(conjugators)
            ]
            for m in range(1, n + 1):
                for combo in itertools.product(entries, repeat=m):
                    old, words, factors = zip(*combo)
                    if m == n or not all(old):  # all-old and shorter: in stage n-1
                        yield ("product", factors, concat_all(words))


class EqualityTask(CosetEnumeration):
    """The equality arm: a coset enumeration of G that defines the path of X from coset 0 first.

    ``idle``, ``spent`` and ``skip`` are the enumeration's, and X is its
    ``_path``: the cosets X passes are the first to scan the relators, so a
    consequence with long conjugators is proved where X runs.  Each step
    resumes the trace of X where the last one stopped.
    """

    def __init__(self, presentation: Presentation, target: Word):
        super().__init__(presentation)
        self.target = self._path = reduce_word(target)
        self.certificate: EqualityCertificate | None = None
        self._at = (0, 0)  # (f, i): X[:i] leads from coset 0 to f
        self._large = None  # the table proofs along X when they were last too large to write out

    def step(self) -> EqualityCertificate | None:
        """Advance one quantum; return a certificate once X leads from coset 0 back to it."""
        if self.certificate is not None:
            raise ValueError("task already resolved")
        if self.idle:
            return CosetEnumeration.step(self)
        CosetEnumeration.step(self)
        f, i = self._at
        word = self.target
        if i < len(word) or self._parent[f] != f:
            if self._parent[f] != f:  # a coincidence killed f: trace again
                f, i = 0, 0
            while i < len(word) and (d := self._table[f][word[i]]) >= 0:
                f, i = d, i + 1
            self._at = f, i
        if i < len(word) or f:  # X does not lead from coset 0 back to it yet
            return None
        return self._certify()

    def _certify(self):
        """The certificate from the proofs along X, unless they are too large to write out."""
        table, word, k2 = self._table, self.target, self.k2
        stored, f = [], 0
        for x in word:
            if f < 0:  # a coincidence is still moving the entries along the way
                return None
            stored.append(table[f][k2 + x])
            f = table[f][x]
        if f:
            return None
        if self._large is not None and all(map(operator.is_, stored, self._large)):
            return None  # the same proofs, still too large
        memo = {}
        if sum(_size(p, memo) for p in stored) > MAX_RAW_FACTORS:  # inv(p) is as large as p
            self._large = stored
            return None  # too large to write out
        self.certificate = EqualityCertificate(_expand(cat(*self._walk(0, word)), {}), word)
        return self.certificate
