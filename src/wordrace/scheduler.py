"""Races the two semi-deciders under fair deterministic alternation.

Arm 1 tries to prove X = 1 in the given presentation; arm 2 tries to
prove X != 1 by exhibiting the extended group <S | X u R> as a finite
quotient.  The arms alternate in quanta, arm 1 first, so their step
counts never differ by more than one quantum: the schedule is one lazy
sequence of turns, each arm's step ``quantum`` times, cycled and cut after
the step budget.  Under the just-infinite hypothesis exactly one arm
terminates.  Without it (the hypothesis is a caller-supplied promise) a
bounded run may exhaust its budget, and on a finite group both arms can
terminate: there a not-equal verdict proves only that <S | X u R> is
finite, which it is whatever X is.

A step is one EqualityTask quantum (one Dyck candidate assembled and
compared, or one stage advance) or one FinitenessTask quantum.  The word
is freely reduced first and the trivial case X = 1 is answered with the
empty-product certificate before either arm touches a relator, so a hung
relator stream cannot block a trivially true query.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .derivation import EqualityCertificate, EqualityTask
from .presentation import Presentation, extend
from .quotient import WORDS_MODE, FinitenessCertificate, FinitenessTask
from .tables import DEFAULT_MAX_TABLE_ORDER
from .words import Word, is_word_over, reduce_word

EQUAL = "equal"
NOT_EQUAL = "not-equal"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Budget:
    """Total step allowance across both arms; None means run until resolved."""

    max_total_steps: int | None = 1_000_000
    quantum: int = 1

    def __post_init__(self):
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1")
        if self.max_total_steps is not None and self.max_total_steps < 0:
            raise ValueError("budget must be >= 0 or unlimited")


@dataclass(frozen=True)
class Outcome:
    verdict: str
    certificate: EqualityCertificate | FinitenessCertificate | None
    steps_equal_arm: int
    steps_finite_arm: int


def solve(
    p: Presentation,
    x: Word,
    budget: Budget = Budget(),
    tau_mode: str = WORDS_MODE,
    max_table_order: int = DEFAULT_MAX_TABLE_ORDER,
) -> Outcome:
    """Decide X = 1 in the presented group, returning a checkable witness."""
    if p.extended:
        raise ValueError("solve expects an unextended presentation")
    if not is_word_over(x, p.alphabet):
        raise ValueError("word is not over the presentation's alphabet")
    target = reduce_word(x)
    if target == b"":
        return Outcome(EQUAL, EqualityCertificate(factors=(), target=b""), 0, 0)

    arm1 = EqualityTask(p, target)
    arm2 = FinitenessTask(extend(p, target), mode=tau_mode, max_table_order=max_table_order)
    # Turns are the arms' bound step methods: one ``arm.step()`` call site
    # seeing both arm classes would defeat CPython's per-site specialization.
    steps = itertools.cycle((arm1.step, arm2.step))
    turns = itertools.chain.from_iterable(map(itertools.repeat, steps, itertools.repeat(budget.quantum)))
    if budget.max_total_steps is not None:
        turns = itertools.islice(turns, budget.max_total_steps)
    for step in turns:
        cert = step()
        if cert is not None:
            verdict = EQUAL if isinstance(cert, EqualityCertificate) else NOT_EQUAL
            return Outcome(verdict, cert, arm1.steps_taken, arm2.steps_taken)
    return Outcome(EXHAUSTED, None, arm1.steps_taken, arm2.steps_taken)
