"""The two-arm race: verdicts, fairness, determinism."""

import pytest

from wordrace.certcheck import verify_equality, verify_finiteness
from wordrace.oracle import is_identity_dinf, is_identity_z
from wordrace.presentation import extend, parse_presentation
from wordrace.scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.words import parse_word

Z = "generators: a\n"
DINF = "generators: a b\nrelator: aa\nrelator: bb\n"


def test_empty_word_short_circuits():
    p = parse_presentation(Z)
    out = solve(p, b"", Budget(10))
    assert out.verdict == EQUAL
    assert out.steps_equal_arm == 0 and out.steps_finite_arm == 0
    assert out.certificate.factors == ()


def test_empty_word_does_not_touch_relators():
    # A stream that can never be spawned must not be consulted.
    p = parse_presentation("generators: a\nstream: /nonexistent/binary\n")
    out = solve(p, parse_word("aA", p.alphabet), Budget(10))
    assert out.verdict == EQUAL


def test_z_cubed_not_equal():
    p = parse_presentation(Z)
    x = parse_word("aaa", p.alphabet)
    out = solve(p, x, Budget(1_000_000))
    assert out.verdict == NOT_EQUAL
    assert out.certificate.table.order == 3
    ok, why = verify_finiteness(out.certificate, extend(p, x))
    assert ok, why


def test_dinf_relator_equal():
    p = parse_presentation(DINF)
    x = parse_word("aa", p.alphabet)
    out = solve(p, x, Budget(1_000_000))
    assert out.verdict == EQUAL
    ok, why = verify_equality(out.certificate, p, x)
    assert ok, why


def test_free_group_exhausts():
    p = parse_presentation("generators: a b\n")
    out = solve(p, parse_word("a", p.alphabet), Budget(10_000))
    assert out.verdict == EXHAUSTED
    assert out.certificate is None
    assert out.steps_equal_arm + out.steps_finite_arm == 10_000


@pytest.mark.parametrize("quantum", [1, 7, 64])
def test_fairness_within_one_quantum(quantum):
    p = parse_presentation(DINF)
    for text in ("a", "ab", "aa", "abab"):
        out = solve(p, parse_word(text, p.alphabet), Budget(2_000_000, quantum))
        assert abs(out.steps_equal_arm - out.steps_finite_arm) <= quantum, text


def test_fairness_at_exhaustion():
    p = parse_presentation("generators: a b\n")
    out = solve(p, parse_word("a", p.alphabet), Budget(9_999, quantum=4))
    assert abs(out.steps_equal_arm - out.steps_finite_arm) <= 4


def test_determinism():
    def run():
        p = parse_presentation(DINF)
        return solve(p, parse_word("abab", p.alphabet), Budget(2_000_000))

    a, b = run(), run()
    assert a == b


def test_oracle_agreement_small_corpus():
    p = parse_presentation(Z)
    for n in range(-3, 4):
        text = ("a" if n > 0 else "A") * abs(n)
        out = solve(p, parse_word(text, p.alphabet), Budget(1_000_000))
        assert (out.verdict == EQUAL) == is_identity_z(parse_word(text, p.alphabet))

    d = parse_presentation(DINF)
    for text in ("", "a", "b", "ab", "aa", "abba", "aB"):
        w = parse_word(text, d.alphabet)
        out = solve(d, w, Budget(2_000_000))
        assert (out.verdict == EQUAL) == is_identity_dinf(w), text


def test_rejects_extended_presentation():
    p = extend(parse_presentation(Z), parse_word("a", parse_presentation(Z).alphabet))
    with pytest.raises(ValueError):
        solve(p, b"", Budget(10))


def test_rejects_foreign_word():
    p = parse_presentation(Z)
    with pytest.raises(ValueError):
        solve(p, parse_word("ab", parse_presentation(DINF).alphabet), Budget(10))


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(quantum=0)
    with pytest.raises(ValueError):
        Budget(-1)


def test_exhausted_split_follows_the_turn_cycle():
    # Turns run q steps of the equality arm, then q of the finiteness arm,
    # and so on, cut after B steps: with B = 2qf + m the equality arm has
    # taken fq + min(m, q) steps and the finiteness arm the rest.
    p = parse_presentation("generators: a b\n")
    x = parse_word("a", p.alphabet)
    for quantum in range(1, 5):
        for total in range(26):
            f, m = divmod(total, 2 * quantum)
            out = solve(p, x, Budget(total, quantum))
            assert out.verdict == EXHAUSTED
            assert (out.steps_equal_arm, out.steps_finite_arm) == (
                f * quantum + min(m, quantum),
                f * quantum + max(0, m - quantum),
            ), (total, quantum)


def test_huge_quantum_costs_nothing_up_front():
    p = parse_presentation("generators: a b\n")
    out = solve(p, parse_word("a", p.alphabet), Budget(10, quantum=10**12))
    assert out.verdict == EXHAUSTED
    assert (out.steps_equal_arm, out.steps_finite_arm) == (10, 0)
