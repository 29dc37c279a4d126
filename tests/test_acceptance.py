"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance (budgets, table-order bounds, wall-clock limits)
is pinned here.
"""

import itertools
import random
import sys
import textwrap
import time
from contextlib import contextmanager

from wordrace.certcheck import (
    parse_certificate,
    serialize_equality,
    serialize_finiteness,
    verify_equality,
    verify_equality_document,
    verify_finiteness,
    verify_finiteness_document,
)
from helpers import prove_equal
from wordrace.derivation import DyckFactor, EqualityCertificate, ProductStream
from wordrace.oracle import TableGroup, exponent_sum, is_identity_dinf, is_identity_z, zn_table
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import FinitenessCertificate
from wordrace.scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.tables import MultiplicationTable, enumerate_tables, is_group_table
from wordrace.words import (
    alphabet,
    count_words_up_to,
    format_word,
    invert,
    parse_word,
    reduce_word,
    word_at_index,
)

A = alphabet("a")
AB = alphabet("ab")
Z_TEXT = "generators: a\n"
DINF_TEXT = "generators: a b\nrelator: aa\nrelator: bb\n"


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({description}): FAIL", flush=True)
        raise
    print(
        f"\ncriterion {number} ({description}): PASS [{time.monotonic() - start:.1f}s]",
        flush=True,
    )


def power_word(n):
    return parse_word(("a" if n > 0 else "A") * abs(n), A)


def test_criterion_1_z_corpus():
    with criterion(1, "Z corpus, X = a^n for n in -5..5"):
        start = time.monotonic()
        p = parse_presentation(Z_TEXT)
        for n in range(-5, 6):
            x = power_word(n)
            out = solve(p, x, Budget())
            expected = EQUAL if is_identity_z(x) else NOT_EQUAL
            assert (n == 0) == is_identity_z(x)
            assert out.verdict == expected, (n, out.verdict)
            if out.verdict == EQUAL:
                ok, why = verify_equality(out.certificate, p, x)
            else:
                ok, why = verify_finiteness(out.certificate, extend(p, x))
            assert ok, (n, why)
        assert time.monotonic() - start <= 60.0


def test_criterion_2_dinf_corpus():
    with criterion(2, "Dinf corpus, every reduced word of length <= 4"):
        start = time.monotonic()
        p = parse_presentation(DINF_TEXT)
        words = [word_at_index(n, AB) for n in range(count_words_up_to(4, 2))]
        assert len(words) == 161
        for x in words:
            out = solve(p, x, Budget())  # default budgets
            expected = EQUAL if is_identity_dinf(x) else NOT_EQUAL
            assert out.verdict == expected, format_word(x, AB)
            if out.verdict == EQUAL:
                ok, why = verify_equality(out.certificate, p, x)
            else:
                assert out.certificate.table.order <= 8, format_word(x, AB)
                ok, why = verify_finiteness(out.certificate, extend(p, x))
            assert ok, (format_word(x, AB), why)
        assert time.monotonic() - start <= 600.0


STREAM_SCRIPT = textwrap.dedent(
    """
    import sys

    def words(max_len):
        # reduced words over a, b in length-lex order: '' a A b B aa ab ...
        letters = "aAbB"
        frontier = [""]
        yield ""
        while True:
            nxt = []
            for w in frontier:
                for ch in letters:
                    if w and w[-1].swapcase() == ch:
                        continue
                    nxt.append(w + ch)
            for w in nxt:
                yield w
            frontier = nxt

    def conj(t, w):
        # plain string conjugation; receiver reduces on parse
        return t + w + "".join(ch.swapcase() for ch in reversed(t))

    emitted = 0
    for t in words(None):
        for base in ("aa", "bb"):
            sys.stdout.write(conj(t, base) + "\\n")
            sys.stdout.flush()
            emitted += 1
            if emitted > 10**7:
                raise SystemExit
    """
)


def test_criterion_3_stream_fidelity(tmp_path):
    with criterion(3, "never-terminating relator stream matches inline Dinf"):
        script = tmp_path / "dinf_stream.py"
        script.write_text(STREAM_SCRIPT)
        text = f"generators: a b\nstream: {sys.executable} {script}\n"
        for word_text, expected in (("aa", EQUAL), ("abab", NOT_EQUAL)):
            p = parse_presentation(text)
            try:
                x = parse_word(word_text, p.alphabet)
                out = solve(p, x, Budget())
                assert out.verdict == expected, (word_text, out.verdict)
                if expected == EQUAL:
                    ok, why = verify_equality(out.certificate, p, x)
                else:
                    assert out.certificate.table.order <= 8
                    ok, why = verify_finiteness(out.certificate, extend(p, x))
                assert ok, why
                # lazy prefix consumption of an infinite source
                assert p.source.pulled_count < 10_000
            finally:
                p.close()


def test_criterion_4_table_enumeration():
    with criterion(4, "isomorphism-class counts and table axioms, orders 1..8"):
        start = time.monotonic()
        counts = [len(enumerate_tables(r)) for r in range(1, 9)]
        assert counts == [1, 1, 1, 2, 1, 2, 1, 5]
        for r in range(1, 9):
            for t in enumerate_tables(r):
                ok, why = is_group_table(t.cells)
                assert ok, why
        for r in range(1, 7):
            reps = enumerate_tables(r)
            for t1, t2 in itertools.combinations(reps, 2):
                for perm in itertools.permutations(range(1, r)):
                    phi = (0,) + perm
                    moved = [[0] * r for _ in range(r)]
                    for i in range(r):
                        for j in range(r):
                            moved[phi[i]][phi[j]] = phi[t1.cells[i][j]]
                    assert tuple(map(tuple, moved)) != t2.cells
        assert time.monotonic() - start <= 60.0


def test_criterion_5_derivation_completeness_z3():
    with criterion(5, "derivation completeness in <a | a^3> at desk scale"):
        p = parse_presentation("generators: a\nrelator: aaa\n")
        good = [n for n in range(-6, 7) if n % 3 == 0]
        bad = [n for n in range(-6, 7) if n % 3 != 0]
        for n in good:
            cert = prove_equal(p, power_word(n), 10_000_000)
            assert cert is not None, n
        # exhaustively assemble stages <= 4: nothing with nonzero residue
        stream = ProductStream(p)
        assembled = set()
        while True:
            ev = stream.next_event()
            if ev[0] == "stage" and ev[1] > 4:
                break
            if ev[0] == "product":
                assert exponent_sum(ev[2]) % 3 == 0
                assembled.add(ev[2])
        for n in bad:
            assert power_word(n) not in assembled, n


def _mutate_equality(cert, rng):
    factors = list(cert.factors)
    target = cert.target
    kind = rng.choice(["sign", "index", "conj", "target"])
    if kind == "sign" and factors:
        i = rng.randrange(len(factors))
        f = factors[i]
        factors[i] = DyckFactor(f.conjugator, f.relator_index, -f.sign)
    elif kind == "index" and factors:
        i = rng.randrange(len(factors))
        f = factors[i]
        factors[i] = DyckFactor(f.conjugator, f.relator_index + rng.choice([1, 2]), f.sign)
    elif kind == "conj" and factors:
        i = rng.randrange(len(factors))
        f = factors[i]
        new = bytes([rng.randrange(4)]) + f.conjugator
        factors[i] = DyckFactor(reduce_word(new), f.relator_index, f.sign)
    else:
        letter = bytes([rng.randrange(4)])
        target = reduce_word(target + letter)
    return EqualityCertificate(tuple(factors), target)


def _mutate_finiteness(cert, rng):
    kind = rng.choice(["cell", "image", "cover", "nested-sign", "nested-index"])
    table, images, coverage = cert.table, cert.images, dict(cert.coverage)
    equation_certs = dict(cert.equation_certs)
    coverage_certs = dict(cert.coverage_certs)
    r = table.order
    if kind == "cell":
        cells = [list(row) for row in table.cells]
        i, j = rng.randrange(r), rng.randrange(r)
        cells[i][j] = (cells[i][j] + 1 + rng.randrange(r - 1)) % r if r > 1 else 0
        table = MultiplicationTable(tuple(map(tuple, cells)))
    elif kind == "image":
        images = list(images)
        i = rng.randrange(len(images))
        images[i] = reduce_word(images[i] + bytes([rng.randrange(2)]))
        images = tuple(images)
    elif kind == "cover":
        g = rng.choice(sorted(coverage))
        coverage[g] = (coverage[g] + 1) % r if r > 1 else coverage[g] + 1
    elif kind == "nested-sign" and equation_certs:
        cell = rng.choice(sorted(equation_certs))
        nested = equation_certs[cell]
        f = nested.factors[0]
        flipped = (DyckFactor(f.conjugator, f.relator_index, -f.sign),) + nested.factors[1:]
        equation_certs[cell] = EqualityCertificate(flipped, nested.target)
    elif kind == "nested-index" and equation_certs:
        cell = rng.choice(sorted(equation_certs))
        nested = equation_certs[cell]
        f = nested.factors[0]
        shifted = (DyckFactor(f.conjugator, f.relator_index + 1, f.sign),) + nested.factors[1:]
        equation_certs[cell] = EqualityCertificate(shifted, nested.target)
    return FinitenessCertificate(
        table=table,
        images=images,
        mode=cert.mode,
        coverage=coverage,
        equation_certs=equation_certs,
        coverage_certs=coverage_certs,
    )


def test_criterion_6_certificate_integrity():
    with criterion(6, "round-trip acceptance and mutation rejection"):
        start = time.monotonic()
        dinf = parse_presentation(DINF_TEXT)
        z = parse_presentation(Z_TEXT)

        # round trips: emitted certificates all verify, as objects and documents
        eq_certs = []
        for text in ("aa", "abba", "baab", "aabb"):
            x = parse_word(text, dinf.alphabet)
            out = solve(dinf, x, Budget())
            assert out.verdict == EQUAL
            ok, why = verify_equality(out.certificate, dinf, x)
            assert ok, why
            doc = parse_certificate(serialize_equality(out.certificate, dinf), dinf.alphabet)
            ok, why = verify_equality_document(doc, dinf, x)
            assert ok, why
            eq_certs.append(out.certificate)

        fin_certs = []
        for n in (1, 2, 3, 4):
            x = power_word(n)
            out = solve(z, x, Budget())
            assert out.verdict == NOT_EQUAL
            ext = extend(z, x)
            ok, why = verify_finiteness(out.certificate, ext)
            assert ok, why
            doc = parse_certificate(serialize_finiteness(out.certificate, ext), z.alphabet)
            ok, why = verify_finiteness_document(doc, extend(z, x))
            assert ok, why
            fin_certs.append((x, out.certificate))

        # mutation storm: rejected unless the mutant is re-validated by an oracle
        rng = random.Random(20260809)
        accepted_valid = 0
        for _ in range(120):
            base = rng.choice(eq_certs)
            mutant = _mutate_equality(base, rng)
            if mutant == base:
                continue
            ok, _ = verify_equality(mutant, dinf, mutant.target)
            if ok:
                # accidental validity: the oracle must confirm the target is 1
                assert is_identity_dinf(mutant.target)
                accepted_valid += 1

        z3_oracle = TableGroup(zn_table(3), (1,))
        for _ in range(120):
            x, base = rng.choice(fin_certs)
            mutant = _mutate_finiteness(base, rng)
            if mutant == base:
                continue
            ok, _ = verify_finiteness(mutant, extend(z, x))
            if ok:
                # accidental validity: every goal word must hold in Z/n
                n = exponent_sum(x)
                images = mutant.images
                cells = mutant.table.cells
                for i in range(mutant.table.order):
                    for j in range(mutant.table.order):
                        goal = images[i] + images[j] + invert(images[cells[i][j]])
                        assert exponent_sum(goal) % n == 0
                for g, e in mutant.coverage.items():
                    cover_goal = bytes([2 * g]) + invert(images[e])
                    assert exponent_sum(cover_goal) % n == 0
                accepted_valid += 1
        assert time.monotonic() - start <= 60.0


def test_criterion_7_fairness():
    with criterion(7, "per-arm step counts differ by at most one quantum"):
        cases = [
            (Z_TEXT, "aaa"),
            (Z_TEXT, "A"),
            (DINF_TEXT, "aa"),
            (DINF_TEXT, "abab"),
            (DINF_TEXT, "a"),
            ("generators: a b\n", "ab"),  # exhausts
        ]
        for quantum in (1, 3):
            for text, word_text in cases:
                p = parse_presentation(text)
                out = solve(
                    p,
                    parse_word(word_text, p.alphabet),
                    Budget(300_000, quantum=quantum),
                )
                assert abs(out.steps_equal_arm - out.steps_finite_arm) <= quantum, (
                    word_text,
                    quantum,
                    out,
                )


def test_criterion_8_non_hypothesis_exhaustion():
    with criterion(8, "free group of rank 2 exhausts a 10^6 budget"):
        start = time.monotonic()
        p = parse_presentation("generators: a b\n")
        out = solve(p, parse_word("a", p.alphabet), Budget(1_000_000))
        assert out.verdict == EXHAUSTED
        assert out.certificate is None
        assert out.steps_equal_arm + out.steps_finite_arm == 1_000_000
        assert out.steps_equal_arm == 500_000
        assert out.steps_finite_arm == 500_000
        assert time.monotonic() - start <= 120.0


def test_criterion_9_strict_vs_repaired_tau():
    with criterion(9, "letter-valued tau fails where word-valued tau succeeds"):
        z = parse_presentation(Z_TEXT)
        x = parse_word("aaa", z.alphabet)
        strict = solve(z, x, Budget(1_000_000), tau_mode="letters")
        assert strict.verdict != NOT_EQUAL
        assert strict.verdict == EXHAUSTED
        repaired = solve(z, x, Budget(1_000_000))
        assert repaired.verdict == NOT_EQUAL
        ok, why = verify_finiteness(repaired.certificate, extend(z, x))
        assert ok, why
