"""Dyck-product enumeration and the equality arm: soundness, fairness, completeness at desk scale."""

import itertools
import random

import pytest

from helpers import assemble, dyck_at_cursor, prove_equal
from wordrace.certcheck import relators_used_by, verify_equality
from wordrace import derivation
from wordrace.derivation import DyckFactor, EqualityTask, ProductStream
from wordrace.certificates import LETTERS_MODE, WORDS_MODE
from wordrace.cli import main
from wordrace.oracle import TableGroup, exponent_sum, is_identity_dinf, is_identity_z, zn_table
from wordrace.presentation import extend, parse_presentation
from wordrace.scheduler import EQUAL, NOT_EQUAL, solve
from wordrace.words import (
    Alphabet, concat_all, conjugate, count_words_up_to, format_word, invert, parse_word, reduce_word, word_at_index,
)

Z = "generators: a\n"
Z3 = "generators: a\nrelator: aaa\n"
DINF = "generators: a b\nrelator: aa\nrelator: bb\n"


def stream_products(presentation, max_stage):
    """Materialize all products of stages <= max_stage as (stage, factors, word)."""
    stream = ProductStream(presentation)
    out = []
    while True:
        ev = stream.next_event()
        if ev[0] == "stage":
            if ev[1] > max_stage:
                return out
            stage = ev[1]
        else:
            out.append((stage, ev[1], ev[2]))


def bounded_products(presentation, stage):
    """All factor tuples within (count, index, conjugator length) <= stage,
    generated directly and independently of ProductStream's order."""
    a = presentation.alphabet
    avail = presentation.available(stage + 1)
    conjugators = [word_at_index(n, a) for n in range(count_words_up_to(stage, a.k))]
    factors = [
        DyckFactor(t, i, s)
        for i in range(avail)
        if presentation.relator(i) != b""
        for s in (1, -1)
        for t in conjugators
    ]
    out = set()
    for m in range(stage + 1):
        for combo in itertools.product(factors, repeat=m):
            out.add(combo)
    return out


class TestAssemble:
    def test_single_factor(self):
        p = parse_presentation(DINF)
        assert assemble((DyckFactor(b"", 0, 1),), p) == parse_word("aa", p.alphabet)

    def test_conjugated_factor(self):
        p = parse_presentation(DINF)
        t = parse_word("b", p.alphabet)
        assert assemble((DyckFactor(t, 0, 1),), p) == parse_word("baaB", p.alphabet)

    def test_cancelling_pair(self):
        p = parse_presentation(DINF)
        assert assemble((DyckFactor(b"", 0, 1), DyckFactor(b"", 0, -1)), p) == b""

    def test_empty_product(self):
        p = parse_presentation(DINF)
        assert assemble((), p) == b""


class TestCursorEnumeration:
    def test_cursor_zero_is_empty_product(self):
        p = parse_presentation(Z3)
        assert dyck_at_cursor(0, p) == ()

    def test_first_nonempty_product_z3(self):
        p = parse_presentation(Z3)
        factors = dyck_at_cursor(1, p)
        assert factors == (DyckFactor(b"", 0, 1),)
        assert assemble(factors, p) == parse_word("aaa", p.alphabet)

    def test_stage_two_block_covers_all_bounded_products(self):
        p = parse_presentation(DINF)
        enumerated = stream_products(p, 2)
        factor_tuples = [factors for _, factors, _ in enumerated]
        assert len(factor_tuples) == len(set(factor_tuples)), "cursor map not injective"
        expected = bounded_products(parse_presentation(DINF), 2)
        assert set(factor_tuples) == expected

    @pytest.mark.parametrize("text,max_stage", [(DINF, 2), (Z3, 3)])
    def test_stage_grading_bounds(self, text, max_stage):
        p = parse_presentation(text)
        for n, factors, _ in stream_products(p, max_stage):
            assert len(factors) <= n
            for f in factors:
                assert f.relator_index <= n
                assert len(f.conjugator) <= n

    def test_relators_pulled_per_stage(self):
        p = parse_presentation("generators: a b\nfamily: powers aa bb\n")
        stream = ProductStream(p)
        while stream.stage < 3:
            stream.next_event()
        # stage 3 needs relators 0..3 and no more
        assert p.source.pulled_count == 4
        p.close()

    @pytest.mark.parametrize("text, pulled", [
        ("generators: a\nfamily: powers aa\n", [0, 2, 3, 4, 5]),
        # Empty inline relators keep the early stages free of products.
        ("generators: a\n" + "relator: aA\n" * 4 + "family: powers aa\n", [4, 4, 4, 4, 5, 6]),
    ], ids=["powers", "padded-powers"])
    def test_family_pulled_after_each_stage(self, text, pulled):
        # A source that is never exhausted gives one more relator per stage.
        p = parse_presentation(text)
        stream = ProductStream(p)
        seen = []
        while len(seen) < len(pulled):
            if stream.next_event()[0] == "stage":
                seen.append(p.pulled_count)
        assert seen == pulled

    @pytest.mark.parametrize("extension", [None, "a"])
    def test_exhausted_source_not_asked_again(self, extension):
        p = parse_presentation(Z)
        asked = []
        available = p.source.available

        def counted(upto):
            asked.append(upto)
            return available(upto)

        p.source.available = counted
        if extension is not None:
            p = extend(p, parse_word(extension, p.alphabet))
        stream = ProductStream(p)
        for _ in range(10_000):
            stream.next_event()
        assert len(asked) == 1  # stage 1 finds the source exhausted
        if extension is None:
            # Relator-free: every event after the empty product is a stage.
            assert stream.stage == 9_998


def reference_events(p):
    """The stream's events from the plain itertools.product loop, re-reducing every product."""
    k = p.alphabet.k
    prev_avail = 0
    yield ("stage", 0)
    yield ("product", (), b"")
    for n in itertools.count(1):
        yield ("stage", n)
        avail = p.available(n + 1)
        old_conj = count_words_up_to(n - 1, k)
        entries = []
        for i in range(avail):
            rel = p.relator(i)
            if rel == b"":
                continue
            for sign, body in ((1, rel), (-1, invert(rel))):
                for c in range(count_words_up_to(n, k)):
                    t = word_at_index(c, p.alphabet)
                    old = i < prev_avail and c < old_conj
                    entries.append((old, conjugate(t, body), DyckFactor(t, i, sign)))
        prev_avail = avail
        for m in range(1, n + 1):
            for combo in itertools.product(entries, repeat=m):
                if m <= n - 1 and all(e[0] for e in combo):
                    continue
                word = concat_all(e[1] for e in combo)
                yield ("product", tuple(e[2] for e in combo), word)


def test_no_solve_runs_the_product_stream(monkeypatch, capsys):
    def refuse(self, presentation):
        raise AssertionError("a solve built a ProductStream")

    monkeypatch.setattr(ProductStream, "__init__", refuse)
    with pytest.raises(AssertionError):
        ProductStream(parse_presentation(Z))

    def klein(w):  # D4 here is the Klein four-group: both exponent sums even
        return exponent_sum(w, 0) % 2 == 0 and exponent_sum(w, 1) % 2 == 0

    for text, word, mode, oracle in [
        (DINF, "abab", WORDS_MODE, is_identity_dinf),
        (DINF, "abba", WORDS_MODE, is_identity_dinf),
        (Z, "aaa", WORDS_MODE, is_identity_z),
        ("generators: a b\nfamily: powers aa bb\n", "abba", WORDS_MODE, is_identity_dinf),
        (DINF + "relator: abab\n", "a", LETTERS_MODE, klein),
    ]:
        p = parse_presentation(text)
        try:
            x = parse_word(word, p.alphabet)
            verdict = solve(p, x, tau_mode=mode).verdict
        finally:
            p.close()
        assert verdict == (EQUAL if oracle(x) else NOT_EQUAL), (text, word)
    assert main(["corpus"]) == 0


class TestStageOrder:
    @pytest.mark.parametrize("text, extension, events", [
        (DINF, "abAB", 50_000),
        (Z3, None, 20_000),  # reaches products of three factors
    ])
    def test_matches_product_loop(self, text, extension, events):
        p = parse_presentation(text)
        if extension is not None:
            p = extend(p, parse_word(extension, p.alphabet))
        stream = ProductStream(p)
        reference = reference_events(p)
        for n in range(events):
            assert stream.next_event() == next(reference), n


class TestSoundness:
    def test_all_assemblies_die_in_oracle_z3(self):
        p = parse_presentation(Z3)
        z3 = TableGroup(zn_table(3), (1,))
        for _, _, word in stream_products(p, 3):
            assert z3.is_identity(word)

    def test_all_assemblies_die_in_oracle_dinf(self):
        p = parse_presentation(DINF)
        for _, _, word in stream_products(p, 2):
            assert is_identity_dinf(word)


class TestStepEquality:
    def test_found_in_stage_one_block(self):
        p = parse_presentation(DINF)
        cert = prove_equal(p, parse_word("aa", p.alphabet), 100)
        assert cert is not None
        assert cert.factors == (DyckFactor(b"", 0, 1),)
        assert relators_used_by(cert) == 1

    def test_no_relators_never_found(self):
        p = parse_presentation(Z)
        task = EqualityTask(p, parse_word("a", p.alphabet))
        for _ in range(1000):
            assert task.step() is None
        assert task.steps_taken == 1000

    def test_empty_target_found_at_cursor_zero(self):
        p = parse_presentation(Z)
        cert = prove_equal(p, b"", 10)
        assert cert is not None
        assert cert.factors == ()
        assert relators_used_by(cert) == 0

    def test_extension_relator_proved_with_one_factor(self):
        base = parse_presentation(DINF)
        x = parse_word("abab", base.alphabet)
        cert = prove_equal(extend(base, x), x, 100)
        assert cert is not None
        assert cert.factors == (DyckFactor(b"", 0, 1),)

    def test_a6_two_factor_certificate(self):
        p = parse_presentation(Z3)
        cert = prove_equal(p, parse_word("aaaaaa", p.alphabet), 100_000)
        assert cert is not None
        assert len(cert.factors) == 2
        assert assemble(cert.factors, p) == parse_word("aaaaaa", p.alphabet)

    def test_exhausted_budget(self):
        p = parse_presentation(Z)
        assert prove_equal(p, parse_word("a", p.alphabet), 100_000) is None

    def test_step_after_resolution_rejected(self):
        p = parse_presentation(Z3)
        task = EqualityTask(p, parse_word("aaa", p.alphabet))
        while task.step() is None:
            pass
        with pytest.raises(ValueError):
            task.step()

    def test_determinism(self):
        p1 = parse_presentation(Z3)
        p2 = parse_presentation(Z3)
        c1 = prove_equal(p1, parse_word("aaaaaa", p1.alphabet), 100_000)
        c2 = prove_equal(p2, parse_word("aaaaaa", p2.alphabet), 100_000)
        assert c1 == c2


class TestCompletenessDeskScale:
    def test_z3_words_with_zero_residue_all_proved(self):
        p = parse_presentation(Z3)
        for n in (-6, -3, 0, 3, 6):
            text = ("a" if n > 0 else "A") * abs(n)
            cert = prove_equal(p, parse_word(text, p.alphabet), 1_000_000)
            assert cert is not None, n
            assert assemble(cert.factors, p) == parse_word(text, p.alphabet)

    def test_z3_nonzero_residue_never_assembled(self):
        p = parse_presentation(Z3)
        for _, _, word in stream_products(p, 4):
            assert exponent_sum(word) % 3 == 0

    def test_certificate_coherence(self):
        p = parse_presentation(DINF)
        t = parse_word("b", p.alphabet)
        goal = conjugate(t, parse_word("aa", p.alphabet))
        cert = prove_equal(p, goal, 10_000)
        assert cert is not None
        assert relators_used_by(cert) == max(f.relator_index for f in cert.factors) + 1


def random_word(rng, k, shortest, longest):
    """A reduced word over k generators, of length between shortest and longest."""
    while True:
        w = reduce_word(bytes(rng.randrange(2 * k) for _ in range(rng.randint(shortest, longest))))
        if len(w) >= shortest:
            return w


def test_random_consequences_are_decided_equal():
    """Completeness at desk scale: products of conjugated relators are proved equal, certificates and all.

    Each of 200 seeds draws a presentation over 2 or 3 generators with
    fewer relators than generators, of length 2 to 6, so that G is
    infinite and only the equality arm can win, and four products of 1 to
    4 of its relators, each inverted or not and conjugated by a word of
    length at most 3.
    """
    for seed in range(200):
        rng = random.Random(seed)
        k = rng.choice((2, 3))
        rels = [random_word(rng, k, 2, 6) for _ in range(rng.randint(1, k - 1))]
        a = Alphabet(tuple("abc"[:k]))
        p = parse_presentation(f"generators: {' '.join(a.generators)}\n"
                               + "".join(f"relator: {format_word(r, a)}\n" for r in rels))
        for _ in range(4):
            parts = []
            for _ in range(rng.randint(1, 4)):
                r = rng.choice(rels)
                parts.append(conjugate(random_word(rng, k, 0, 3), r if rng.random() < 0.5 else invert(r)))
            x = concat_all(parts)
            out = solve(p, x)
            assert out.verdict == EQUAL, (seed, format_word(x, a))
            assert verify_equality(out.certificate, p, x) == (True, "ok"), (seed, format_word(x, a))


@pytest.mark.parametrize("text, x, parent_steps", [
    ("generators: a b c\nrelator: BABCA\n", "ABBBABCAbbacbaba", 30_983),
    ("generators: a b c\nrelator: aCbCC\n", "aCbCCAbCbCCaBaccBcA", 165_875),
    ("generators: a b c\nrelator: AcaccA\nrelator: CCBAc\n", "baCabccABabbaCCACaBBA", 436_215),
])
def test_consequences_with_long_conjugators_are_decided_equal(text, x, parent_steps):
    """Products with conjugators of length 3, which a search from coset 0 alone ran out of budget on.

    The Dyck-product search decided them at equality step parent_steps;
    with the path of X defined first, the cosets it passes scan the
    relators early, and a few hundred steps suffice.
    """
    p = parse_presentation(text)
    w = parse_word(x, p.alphabet)
    out = solve(p, w)
    assert out.verdict == EQUAL
    assert out.steps_equal_arm <= 1000 < parent_steps
    assert verify_equality(out.certificate, p, w) == (True, "ok")


def test_a_trace_proof_above_the_cap_is_not_written_out(monkeypatch):
    p = parse_presentation(DINF)
    monkeypatch.setattr(derivation, "MAX_RAW_FACTORS", 1)
    assert prove_equal(p, parse_word("aa", p.alphabet), 1000).factors == (DyckFactor(b"", 0, 1),)
    assert prove_equal(p, parse_word("abba", p.alphabet), 1000) is None  # two factors at least


def test_a_proof_too_large_to_write_out_is_sized_once(monkeypatch):
    """Once X leads back to coset 0, the proofs along it are sized again only when they change."""
    p = parse_presentation(DINF)
    x = parse_word("abba", p.alphabet)
    monkeypatch.setattr(derivation, "MAX_RAW_FACTORS", 1)
    sized = []
    size = derivation._size
    monkeypatch.setattr(derivation, "_size", lambda node, memo: sized.append(node) or size(node, memo))
    task = EqualityTask(p, x)
    while not sized:
        assert task.step() is None
    for _ in range(20_000):
        assert task.step() is None
    assert len(sized) == len(x)
