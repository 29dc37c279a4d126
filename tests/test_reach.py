"""The reach ledger: pinned queries on the paper's groups, decided at default flags.

Each group's queries run under one budget of 2*10^5 steps, 10^5 per arm.
A wrong verdict fails, and so does a certificate that does not verify, in
memory or read back from its document.  The number of decided queries per
group must reach its floor: a change that decides more raises the floor.
Run with ``pytest tests/test_reach.py -s`` to see each decided query's
steps per arm and seconds.
"""

import time

import pytest

from wordrace.certcheck import (
    parse_certificate,
    serialize_equality,
    serialize_finiteness,
    verify_equality,
    verify_equality_document,
    verify_finiteness,
    verify_finiteness_document,
)
from wordrace.presentation import Presentation, RelatorSource, extend, parse_presentation
from wordrace.scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.words import alphabet, parse_word

BUDGET = Budget(200_000)

GRIGORCHUK = alphabet("abcd")
SIGMA = {"a": "aca", "b": "d", "c": "b", "d": "c"}  # Lysenok's substitution


def lysenok_relators():
    """sigma^i((ad)^4) and sigma^i((adacac)^4) for i = 0, 1, ...; all letters are positive, so every word is reduced."""
    words = ["ad" * 4, "adacac" * 4]
    while True:
        yield from (parse_word(w, GRIGORCHUK) for w in words)
        words = ["".join(SIGMA[x] for x in w) for w in words]


def grigorchuk():
    """Lysenok's presentation of Grigorchuk's group: aa, bb, cc, dd, bcd inline, then the sigma iterates."""
    inline = [parse_word(w, GRIGORCHUK) for w in ("aa", "bb", "cc", "dd", "bcd")]
    return Presentation(GRIGORCHUK, RelatorSource(inline, lysenok_relators()))


def dinf():
    return parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n")


# (group, presentation, floor, [(word, truth)]): the truths are pinned from
# an oracle by automaton sections (Grigorchuk) and by normal forms (Dinf).
LEDGER = [
    ("grigorchuk", grigorchuk, 7, [
        *((w, NOT_EQUAL) for w in ("b", "ad", "ab", "abab", "acac", "adad", "ab" * 4)),
        *((w, EQUAL) for w in ("bcbc", "ad" * 4, "ac" * 8, "abac" * 8, "ab" * 16)),
    ]),
    ("dinf", dinf, 0, [("ab" * n, NOT_EQUAL) for n in (5, 16, 32)]),
]


def check_certificate(p, fresh, x, outcome):
    """The outcome's certificate verifies as a record over p, and read back from its document over fresh."""
    if outcome.verdict == EQUAL:
        ok, why = verify_equality(outcome.certificate, p, x)
        assert ok, why
        doc = parse_certificate(serialize_equality(outcome.certificate, p), p.alphabet)
        ok, why = verify_equality_document(doc, fresh, x)
    else:
        ok, why = verify_finiteness(outcome.certificate, extend(p, x))
        assert ok, why
        doc = parse_certificate(serialize_finiteness(outcome.certificate, extend(p, x)), p.alphabet)
        ok, why = verify_finiteness_document(doc, extend(fresh, x))
    assert ok, why


@pytest.mark.parametrize("group, presentation, floor, queries", LEDGER, ids=[row[0] for row in LEDGER])
def test_reach(group, presentation, floor, queries):
    decided = 0
    for word, truth in queries:
        p = presentation()
        x = parse_word(word, p.alphabet)
        start = time.perf_counter()
        outcome = solve(p, x, BUDGET)
        seconds = time.perf_counter() - start
        if outcome.verdict == EXHAUSTED:
            continue
        assert outcome.verdict == truth, (group, word)
        check_certificate(p, presentation(), x, outcome)
        decided += 1
        print(f"\n{group} {word}: {outcome.verdict} in {outcome.steps_equal_arm} + {outcome.steps_finite_arm} steps,"
              f" {seconds:.3f} s", end="")
    print(f"\n{group}: {decided} of {len(queries)} decided (floor {floor})")
    assert decided >= floor
