"""The words-mode finiteness arm: proof-carrying coset enumeration."""

import math
import sys

import pytest

from helpers import prove_finite
from wordrace import proofs
from wordrace.certcheck import (
    parse_certificate,
    serialize_finiteness,
    verify_finiteness,
    verify_finiteness_document,
)
from wordrace.cosets import COSET_BASE, COSET_RATE, JOIN_STEPS
from wordrace.oracle import is_identity_dinf, is_identity_z
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import FinitenessTask
from wordrace.scheduler import EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.words import parse_word

Z = "generators: a\n"
DINF = "generators: a b\nrelator: aa\nrelator: bb\n"


def coset_limit(steps):
    return COSET_BASE + COSET_RATE * math.isqrt(steps)


def round_trip(text, x, cert):
    """serialize -> parse_certificate -> verify_finiteness_document over a fresh parse."""
    p = parse_presentation(text)
    doc_text = serialize_finiteness(cert, extend(p, x))
    doc = parse_certificate(doc_text, p.alphabet)
    fresh = parse_presentation(text)
    ok, why = verify_finiteness_document(doc, extend(fresh, doc.target))
    assert ok, why
    assert serialize_finiteness(doc.certificate, extend(fresh, doc.target)) == doc_text


def test_coset_count_stays_under_the_limit():
    # G1 = F2/<<a>> = Z never closes: the table grows only as the limit
    # lets it, to under a thousand cosets after 500k steps.
    p = parse_presentation("generators: a b\n")
    task = FinitenessTask(extend(p, parse_word("a", p.alphabet)))
    for n in range(1, 500_001):
        assert task.step() is None
        if n % 10_000 == 0:
            assert task.coset_peak <= coset_limit(n), n
    assert task.coset_peak == coset_limit(500_000) < 1_000
    assert task.admitted == 0


@pytest.mark.parametrize(
    "text, word, order",
    [
        (Z, "aaaaaaa", 7),
        (Z, "AAAAAAA", 7),
        (Z, "aaaaaaaa", 8),
        (Z, "AAAAAAAA", 8),
        (DINF, "ababab", 6),
        (DINF, "abababab", 8),
        (DINF, "abaBAB", 6),
        (DINF, "abABabAB", 8),
    ],
)
def test_reach_queries_are_decided(text, word, order):
    # These exhausted 10^6 steps while the arm searched (table, tau) pairs blind.
    p = parse_presentation(text)
    x = parse_word(word, p.alphabet)
    out = solve(p, x, Budget())
    assert out.verdict == NOT_EQUAL
    assert not (is_identity_z(x) if text == Z else is_identity_dinf(x))
    assert out.certificate.table.order == order
    round_trip(text, x, out.certificate)


def test_order_above_the_cap_emits_nothing():
    p = parse_presentation(Z)
    x = parse_word("a" * 9, p.alphabet)
    out = solve(p, x, Budget())
    assert out.verdict == EXHAUSTED
    assert out.steps_equal_arm + out.steps_finite_arm == 1_000_000
    out = solve(p, x, Budget(), max_table_order=9)
    assert out.verdict == NOT_EQUAL
    assert out.certificate.table.order == 9
    round_trip(Z, x, out.certificate)


@pytest.mark.parametrize(
    "text, word, order",
    [
        ("generators: a b\nrelator: aa\nrelator: bbb\n", "abababab", 24),  # S4
        ("generators: a b\nrelator: aa\nrelator: bbb\n", "ababababab", 60),  # A5
        ("generators: a\nrelator: aaaaaaa\n", "aa", 1),
        (DINF, "aaa", 2),
        ("generators: a b c\nrelator: Cacbab\nrelator: Caaccb\n", "acBBB", 6),
    ],
    ids=["s4", "a5", "z7-aa", "dinf-aaa", "z6"],
)
def test_coincidences_and_unshortened_edges(text, word, order):
    # The first two close only through coincidences.  In the next two the
    # relators repeat the loop a.a^-1 at every coset, so no relator cycle
    # settles it and its proof is the enumeration's own.  The last needs
    # enumeration proofs of entries for inverse letters, which are made
    # when read.
    p = parse_presentation(text)
    extended = extend(p, parse_word(word, p.alphabet))
    cert = prove_finite(extended, 10_000, max_table_order=order)
    assert cert is not None
    assert cert.table.order == order
    ok, why = verify_finiteness(cert, extended)
    assert ok, why


def test_long_enumeration_proofs_are_not_written_out(monkeypatch):
    # Dinf/aaa closes at order 2 but needs the enumeration's own proof of
    # the loop a; with no room for it, the closure emits nothing.
    extended = extend(parse_presentation(DINF), parse_word("aaa", parse_presentation(DINF).alphabet))
    monkeypatch.setattr(proofs, "MAX_RAW_FACTORS", 0)
    task = FinitenessTask(extended)
    for _ in range(2_000):
        assert task.step() is None
    assert task.cosets.live == 2
    # Here the relators never settle the loops of the trivial group it
    # closes on, and their enumeration proofs run to millions of factors.
    p = parse_presentation("generators: a b c\nrelator: babcc\nfamily: powers CbcBCbac\n")
    task = FinitenessTask(extend(p, parse_word("C", p.alphabet)))
    for _ in range(20_000):
        assert task.step() is None
    assert task.cosets.live == 1


def test_family_relators_join_on_schedule():
    # aa and bb are the family's first two relators: G1 = <a, b | abab> is
    # infinite until bb joins after 2 * JOIN_STEPS steps; then it closes as
    # the Klein group.
    text = "generators: a b\nfamily: powers aa bb\n"
    p = parse_presentation(text)
    extended = extend(p, parse_word("abab", p.alphabet))
    task = FinitenessTask(extended)
    cert = None
    while cert is None:
        cert = task.step()
    assert 2 * JOIN_STEPS < task.steps_taken < 3 * JOIN_STEPS
    assert cert.table.order == 4
    assert p.source.pulled_count == 2
    round_trip(text, parse_word("abab", p.alphabet), cert)


def test_closed_table_above_the_cap_waits_for_a_relator():
    # <a | a^8> closes at order 8, above a cap of 4; once aaaa joins, it
    # collapses to Z/4.
    p = parse_presentation("generators: a\nfamily: powers aaaa\n")
    extended = extend(p, parse_word("a" * 8, p.alphabet))
    task = FinitenessTask(extended, max_table_order=4)
    for _ in range(JOIN_STEPS - 1):
        assert task.step() is None
    assert task.cosets.live == 8
    cert = None
    while cert is None:
        cert = task.step()
    assert cert.table.order == 4
    assert verify_finiteness(cert, extended)[0]


def test_stream_relators_join(tmp_path):
    script = tmp_path / "dinf.py"
    script.write_text('print("aa")\nprint("bb")\n')
    text = f"generators: a b\nstream: {sys.executable} {script}\n"
    p = parse_presentation(text)
    try:
        x = parse_word("abAB", p.alphabet)
        out = solve(p, x, Budget())
        assert out.verdict == NOT_EQUAL
        assert out.certificate.table.order == 4
        assert verify_finiteness(out.certificate, extend(p, x))[0]
    finally:
        p.close()


def test_identical_runs_give_identical_certificates():
    def run():
        p = parse_presentation(DINF)
        x = parse_word("abABabAB", p.alphabet)
        return serialize_finiteness(solve(p, x, Budget()).certificate, extend(p, x))

    assert run() == run()
