"""Oracle sanity: the corpus deciders must be right before anything else is."""

import itertools

import pytest

from wordrace.oracle import (
    TableGroup,
    dinf_normal_form,
    exponent_sum,
    is_identity_dinf,
    is_identity_z,
    zn_table,
)
from wordrace.tables import MissingImageError, eval_in_table
from wordrace.words import alphabet, parse_word, reduce_word

A = alphabet("a")
AB = alphabet("ab")


def test_z_examples():
    assert is_identity_z(b"")
    assert not is_identity_z(parse_word("aaa", A))
    assert is_identity_z(reduce_word(bytes([0, 1])))  # a a^-1 before reduction


def test_exponent_sum():
    assert exponent_sum(parse_word("aaA", A)) == 1
    assert exponent_sum(parse_word("AA", A)) == -2


def test_dinf_examples():
    assert is_identity_dinf(parse_word("aa", AB))
    assert not is_identity_dinf(parse_word("abab", AB))
    assert is_identity_dinf(parse_word("baab", AB))
    assert dinf_normal_form(parse_word("abab", AB)) == parse_word("abab", AB)


def all_letter_sequences(max_len):
    for n in range(max_len + 1):
        yield from itertools.product(range(4), repeat=n)


def test_dinf_rewriting_terminates_and_is_confluent():
    # All rewriting orders agree with the canonical left-to-right pass:
    # compare against an independent fixpoint rewriter on raw sequences.
    def rewrite_fixpoint(seq):
        items = [x & ~1 for x in seq]
        changed = True
        while changed:
            changed = False
            for i in range(len(items) - 1):
                if items[i] == items[i + 1]:
                    del items[i:i + 2]
                    changed = True
                    break
        return bytes(items)

    for seq in all_letter_sequences(7):
        word = bytes(seq)
        assert dinf_normal_form(word) == rewrite_fixpoint(word)


def test_dinf_normal_form_alternates_length_12():
    # Exhaustive over all reduced words of length <= 12 over {a, b}.
    frontier = [b""]
    for _ in range(12):
        nxt = []
        for w in frontier:
            for x in range(4):
                if w and w[-1] == x ^ 1:
                    continue
                nxt.append(w + bytes([x]))
        frontier = nxt
        for w in nxt:
            nf = dinf_normal_form(w)
            assert all(nf[i] != nf[i + 1] for i in range(len(nf) - 1))


def test_table_group_z3():
    z3 = TableGroup(zn_table(3), (1,))
    assert z3.is_identity(parse_word("aaa", A))
    assert not z3.is_identity(parse_word("a", A))


def test_table_group_klein():
    klein = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    from wordrace.tables import MultiplicationTable

    g = TableGroup(MultiplicationTable(klein), (1, 2))
    assert g.is_identity(parse_word("abab", AB))
    assert not g.is_identity(parse_word("ab", AB))


def test_table_group_rejects_nongenerating_images():
    with pytest.raises(ValueError):
        TableGroup(zn_table(4), (2,))  # <2> is a proper subgroup of Z4


def test_table_group_rejects_images_out_of_range():
    with pytest.raises(MissingImageError, match="image 3 out of range for order 3"):
        TableGroup(zn_table(3), (1, 3))


def test_oracle_agreement_z3_vs_exponent_sum():
    z3 = TableGroup(zn_table(3), (1,))
    words = [b""]
    frontier = [b""]
    for _ in range(8):
        nxt = []
        for w in frontier:
            for x in (0, 1):
                if w and w[-1] == x ^ 1:
                    continue
                nxt.append(w + bytes([x]))
        words.extend(nxt)
        frontier = nxt
    for w in words:
        assert z3.is_identity(w) == (exponent_sum(w) % 3 == 0)


def test_eval_in_table_examples():
    z3 = zn_table(3)
    assert eval_in_table(z3, (1,), parse_word("aaa", A)) == 0
    assert eval_in_table(z3, (1,), b"") == 0
    assert eval_in_table(z3, (1,), parse_word("A", A)) == 2
