"""Word primitives: reduction, inversion, concatenation, enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import letter
from wordrace.certcheck import verify_finiteness
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, FinitenessCertificate
from wordrace.scheduler import solve
from wordrace.tables import MultiplicationTable
from wordrace.words import (
    Alphabet,
    MalformedWordError,
    alphabet,
    concat,
    concat_all,
    conjugate,
    count_words,
    count_words_up_to,
    format_word,
    invert,
    parse_word,
    reduce_word,
    word_at_index,
)

A = alphabet("a")
AB = alphabet("ab")


def w(text, alph=AB):
    return parse_word(text, alph)


def all_reduced_words(alph, max_len):
    """Direct generation, independent of word_at_index."""
    out = [b""]
    frontier = [b""]
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            for x in range(2 * alph.k):
                if word and word[-1] == x ^ 1:
                    continue
                nxt.append(word + bytes([x]))
        out.extend(nxt)
        frontier = nxt
    return out


class TestReduce:
    def test_adjacent_cancellation(self):
        raw = bytes([letter(0, 1), letter(0, -1), letter(1, 1)])
        assert reduce_word(raw) == w("b")

    def test_nested_cancellation(self):
        raw = bytes([letter(0, 1), letter(1, 1), letter(1, -1), letter(0, -1)])
        assert reduce_word(raw) == b""

    def test_already_reduced(self):
        raw = bytes([letter(0, 1), letter(1, 1), letter(0, -1)])
        assert reduce_word(raw) == raw

    def test_out_of_range_letter(self):
        # reduce_word trusts its letters; every entry point for outside
        # input rejects a letter beyond the alphabet.
        with pytest.raises(MalformedWordError):
            parse_word("d", AB)
        p = parse_presentation("generators: a b\n")
        bad = bytes([letter(0, 1), letter(3, 1)])
        with pytest.raises(ValueError):
            extend(p, bad)
        with pytest.raises(ValueError):
            solve(p, bad)
        cert = FinitenessCertificate(
            table=MultiplicationTable(((0,),)), images=(bad,), mode=LETTERS_MODE,
            coverage=None, equation_certs={}, coverage_certs={},
        )
        assert verify_finiteness(cert, extend(p, w("a"))) == (False, "image 0 is not over the alphabet")

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=30))
    def test_idempotent(self, raw):
        once = reduce_word(bytes(raw))
        assert reduce_word(once) == once

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=20),
           st.lists(st.integers(min_value=0, max_value=3), max_size=20))
    def test_length_bounds(self, ur, vr):
        u, v = reduce_word(bytes(ur)), reduce_word(bytes(vr))
        n = len(concat(u, v))
        assert abs(len(u) - len(v)) <= n <= len(u) + len(v)


class TestInvertConcat:
    def test_invert_examples(self):
        assert invert(w("ab")) == w("BA")
        assert invert(b"") == b""
        assert invert(w("A")) == w("a")

    def test_invert_is_reduced(self):
        word = w("abA")
        assert reduce_word(invert(word)) == invert(word)

    def test_concat_examples(self):
        assert concat(w("ab"), w("Bc", alphabet("abc"))) == w("ac", alphabet("abc"))
        assert concat(b"", w("b")) == w("b")

    def test_concat_with_inverse_exhaustive_k2(self):
        for word in all_reduced_words(AB, 8):
            assert concat(word, invert(word)) == b""

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=16))
    def test_concat_with_inverse_random_k4(self, raw):
        word = reduce_word(bytes(raw))
        assert concat(word, invert(word)) == b""

    def test_conjugate_examples(self):
        assert conjugate(w("b"), w("aa")) == w("baaB")
        assert conjugate(w("a"), w("aa")) == w("aa")
        assert conjugate(b"", w("ab")) == w("ab")


reduced_k4 = st.lists(st.integers(min_value=0, max_value=7), max_size=12).map(
    lambda raw: reduce_word(bytes(raw))
)


class TestKernelAgainstReduce:
    """The cancellation kernel agrees with reducing the plain concatenation."""

    @given(reduced_k4, reduced_k4)
    def test_concat(self, u, v):
        assert concat(u, v) == reduce_word(u + v)

    @given(st.lists(reduced_k4, max_size=6))
    def test_concat_all(self, ws):
        assert concat_all(ws) == reduce_word(b"".join(ws))

    @given(reduced_k4, reduced_k4)
    def test_conjugate(self, t, w):
        assert conjugate(t, w) == reduce_word(t + w + invert(t))

    @given(reduced_k4)
    def test_invert_involution(self, w):
        assert invert(invert(w)) == w


class TestEnumeration:
    def test_first_words_k1(self):
        got = [word_at_index(n, A) for n in range(5)]
        assert got == [b"", parse_word("a", A), parse_word("A", A),
                       parse_word("aa", A), parse_word("AA", A)]

    def test_first_words_k2(self):
        got = [word_at_index(n, AB) for n in range(5)]
        assert got == [b"", w("a"), w("A"), w("b"), w("B")]

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError, match="index must be a natural number"):
            word_at_index(-1, AB)

    def test_injective_prefix(self):
        seen = {word_at_index(n, AB) for n in range(10_000)}
        assert len(seen) == 10_000

    @pytest.mark.parametrize("alph", [A, AB])
    def test_hits_every_short_word(self, alph):
        expected = set(all_reduced_words(alph, 4))
        got = {word_at_index(n, alph) for n in range(count_words_up_to(4, alph.k))}
        assert got == expected

    def test_length_lex_order(self):
        words = [word_at_index(n, AB) for n in range(200)]
        keys = [(len(word), word) for word in words]
        assert keys == sorted(keys)

    def test_counts_match_direct_generation(self):
        direct = all_reduced_words(AB, 5)
        by_len = {}
        for word in direct:
            by_len[len(word)] = by_len.get(len(word), 0) + 1
        for n in range(6):
            assert count_words(n, 2) == by_len[n]


class TestTextFormat:
    def test_round_trip(self):
        for text in ["", "a", "abA", "aBBa"]:
            assert format_word(w(text), AB) == text

    def test_parse_reduces(self):
        assert w("aA") == b""
        assert w("abBA") == b""

    def test_unknown_generator(self):
        with pytest.raises(MalformedWordError):
            parse_word("c", AB)
        with pytest.raises(MalformedWordError):
            parse_word("a b", AB)

    def test_alphabet_validation(self):
        with pytest.raises(MalformedWordError):
            Alphabet(())
        with pytest.raises(MalformedWordError):
            Alphabet(("a", "a"))
        with pytest.raises(MalformedWordError):
            Alphabet(("ab",))
        with pytest.raises(MalformedWordError):
            Alphabet(("A",))
