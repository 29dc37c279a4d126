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
from wordrace.tables import is_group_table
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


# Steinberg's presentation of SL(3,Z) (Milnor, Introduction to Algebraic
# K-Theory, section 10): a..f stand for x12 x13 x21 x23 x31 x32, with
# [x, y] = x y x^-1 y^-1.  The relators are [x_ij, x_jl] x_il^-1,
# [x_ij, x_kl] for j != k and i != l, and (x12 x21^-1 x12)^4.
SL3_UNITS = {"a": (0, 1), "b": (0, 2), "c": (1, 0), "d": (1, 2), "e": (2, 0), "f": (2, 1)}
SL3_RELATORS = "adADB bfBFA cbCBD deDEC eaEAF fcFCE abAB afAF bdBD cdCD ceCE efEF aCaaCaaCaaCa".split()


def sl3():
    return parse_presentation("generators: a b c d e f\n" + "".join(f"relator: {w}\n" for w in SL3_RELATORS))


def sl3_matrix(word):
    """The 3x3 integer matrix of a word over a..f, capitals inverse: x_ij is I + E_ij."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for x in word:
        i, j = SL3_UNITS[x.lower()]
        for row in m:  # times I +- E_ij on the right: column j gains +- column i
            row[j] += row[i] if x.islower() else -row[i]
    return m


def heis(m, n):
    """[x12^m, x23^n] x13^-mn, which is 1 in SL(3,Z) and no relator."""
    return "a" * m + "d" * n + "A" * m + "D" * n + "B" * (m * n)


# (group, presentation, floor, [(word, truth)]): the truths are pinned from
# an oracle by automaton sections (Grigorchuk), by normal forms (Dinf) and
# by the matrices above (SL(3,Z), checked by test_sl3_truths).
LEDGER = [
    ("grigorchuk", grigorchuk, 7, [
        *((w, NOT_EQUAL) for w in ("b", "ad", "ab", "abab", "acac", "adad", "ab" * 4)),
        *((w, EQUAL) for w in ("bcbc", "ad" * 4, "ac" * 8, "abac" * 8, "ab" * 16)),
    ]),
    ("dinf", dinf, 0, [("ab" * n, NOT_EQUAL) for n in (5, 16, 32)]),
    ("sl3", sl3, 7, [
        *((heis(m, n), EQUAL) for m, n in ((1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (1, 5), (3, 3), (4, 4))),
        *((w, NOT_EQUAL) for w in ("aa", "aCaaCa", "a", "abc")),
    ]),
]


def check_certificate(p, fresh, x, outcome):
    """The outcome's certificate verifies as a record over p, and read back from its document over fresh.

    The verifier asks only that a finiteness table be closed under its
    goals; the prover still emits group tables.
    """
    if outcome.verdict == EQUAL:
        ok, why = verify_equality(outcome.certificate, p, x)
        assert ok, why
        doc = parse_certificate(serialize_equality(outcome.certificate, p), p.alphabet)
        ok, why = verify_equality_document(doc, fresh, x)
    else:
        assert is_group_table(outcome.certificate.table.cells) == (True, None)
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


def test_sl3_truths():
    identity = sl3_matrix("")
    assert all(sl3_matrix(w) == identity for w in SL3_RELATORS)
    [(_, _, _, queries)] = [row for row in LEDGER if row[0] == "sl3"]
    assert [(w, EQUAL if sl3_matrix(w) == identity else NOT_EQUAL) for w, _ in queries] == queries
