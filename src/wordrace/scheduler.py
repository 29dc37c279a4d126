"""Races the two semi-deciders under fair deterministic alternation.

Arm 1 tries to prove X = 1 in the given presentation; arm 2 tries to
prove X != 1 by exhibiting the extended group <S | X u R> as a finite
quotient.  The arms alternate in quanta, arm 1 first, so their step
counts never differ by more than one quantum: turn t, for t below the
step budget, is one step of arm t // quantum mod 2.  Under the
just-infinite hypothesis exactly one arm terminates.  Without it (the
hypothesis is a caller-supplied promise) a bounded run may exhaust its
budget, and on a finite group both arms can terminate: there a not-equal
verdict proves only that <S | X u R> is finite, true whatever X is.

An arm can be ``spent``: no later step of it can return a certificate, as
the equality arm once the source is exhausted with no nonempty relator, or
a coset table closed on an exhausted source without a certificate (where X
does not lead from coset 0 back to it, above the order cap, or, in letters
mode, with no letter-valued one).  An arm is retired at the step that
spends it: the other then runs alone over the turns the alternation gives
it; the spent arm's turns are counted, not taken, and so are the live
arm's ``idle`` steps, those certain to return None (math.inf when spent),
one ``skip`` per window.  With both arms spent a bounded run ends at once,
exhausted, and an unbounded one runs for ever.  Outcomes are those of
taking every turn, since every later step of a spent arm returns None:
the turn cycle splits the budget, or the turns up to the winning step,
between the arms.

Each arm is its engine, a ``CosetEnumeration``: of G for the equality
arm, which traces X from coset 0 after each step, and of the extended
group for the finiteness arm.  A step is one step of either.  The word
is freely reduced first and the trivial case X = 1 is answered with the
empty-product certificate before either arm touches a relator, so a hung
relator stream cannot block a trivially true query.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

from .certificates import WORDS_MODE, EqualityCertificate, FinitenessCertificate
from .derivation import EqualityTask
from .presentation import Presentation, extend
from .quotient import DEFAULT_MAX_TABLE_ORDER, FinitenessTask
from .words import Word, is_word_over, reduce_word

EQUAL = "equal"
NOT_EQUAL = "not-equal"
EXHAUSTED = "exhausted"


class Budget(NamedTuple("Budget", [("max_total_steps", int | None), ("quantum", int)])):
    """Total step allowance across both arms; None means run until resolved."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make: validate there too

    def __new__(cls, max_total_steps: int | None = 1_000_000, quantum: int = 1):
        if not (type(quantum) is int and quantum >= 1):
            raise ValueError("quantum must be >= 1 (an int)")
        if max_total_steps is not None and not (type(max_total_steps) is int and max_total_steps >= 0):
            raise ValueError("budget must be >= 0 (an int) or unlimited")
        return super().__new__(cls, max_total_steps, quantum)


class Outcome(NamedTuple):
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
    if not (type(max_table_order) is int and max_table_order >= 1):  # below 1, no table is ever emitted
        raise ValueError("max_table_order must be >= 1 (an int)")
    target = reduce_word(x)
    if target == b"":
        return Outcome(EQUAL, EqualityCertificate(factors=(), target=b""), 0, 0)

    arms = (EqualityTask(p, target), FinitenessTask(extend(p, target), mode=tau_mode, max_table_order=max_table_order))
    q, limit = budget.quantum, budget.max_total_steps
    for t in itertools.count() if limit is None else range(limit):
        arm = arms[a := t // q % 2]
        if (cert := arm.step()) is not None:
            return _resolved(cert, a, arm.steps_taken, q)
        if arm.idle == math.inf:  # spent: the other arm runs alone, counting each idle window with one skip
            arm = arms[a := 1 - a]
            end = math.inf if limit is None else _split(limit, q)[a]  # its steps when the budget runs out
            while arm.steps_taken < end:
                for step in itertools.islice(itertools.repeat(arm.step), min(end - arm.steps_taken, sys.maxsize)):
                    if (cert := step()) is not None:
                        return _resolved(cert, a, arm.steps_taken, q)
                    if arm.idle:
                        break
                if (k := min(arm.idle, end - arm.steps_taken)) < math.inf:
                    arm.skip(k)  # else unbounded with both arms spent: the race runs for ever
            break
    return Outcome(EXHAUSTED, None, *_split(limit, q))


def _split(turns: int, quantum: int) -> tuple[int, int]:
    """The steps of each arm in the first ``turns`` turns of the alternation."""
    rounds, rest = divmod(turns, 2 * quantum)
    equal = rounds * quantum + min(quantum, rest)
    return equal, turns - equal


def _resolved(cert, a: int, s: int, quantum: int) -> Outcome:
    """The outcome of arm a's certificate at its step s: both arms' steps over the turns up to that one."""
    rounds, rest = divmod(s - 1, quantum)  # step s is step ``rest`` (from 0) of arm a's turn in round ``rounds``
    turns = (2 * rounds + a) * quantum + rest + 1
    return Outcome((EQUAL, NOT_EQUAL)[a], cert, *_split(turns, quantum))
