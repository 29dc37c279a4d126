"""The one-pass finiteness certificate builder against the reference builder it replaced."""

import itertools

import pytest

import helpers
from helpers import certificate_fields_reference
from wordrace import proofs
from wordrace.certificates import WORDS_MODE, FinitenessCertificate
from wordrace.cosets import CosetEnumeration
from wordrace.oracle import is_identity_dinf
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import _letters_certificate
from wordrace.words import parse_word

Z = "generators: a\n"
DINF = "generators: a b\nrelator: aa\nrelator: bb\n"
A4B3 = "generators: a b\nrelator: aaaa\nrelator: bbb\n"


def closed_enumeration(text, word):
    """The coset enumeration of <S | R, X> for X = word, stepped until its table closes."""
    p = parse_presentation(text)
    e = CosetEnumeration(extend(p, parse_word(word, p.alphabet)))
    for _ in range(100_000):
        if e.step():
            return e
    raise AssertionError(f"{word} does not close")


def counted(entry_proof):
    """entry_proof, and the list of the entries it is asked for."""
    calls = []

    def read(c, x):
        calls.append((c, x))
        return entry_proof(c, x)

    return read, calls


def dinf_words(max_len):
    letters = "aAbB"
    for n in range(1, max_len + 1):
        for w in map("".join, itertools.product(letters, repeat=n)):
            if all(y.swapcase() != x for x, y in zip(w, w[1:])):  # reduced
                yield w


CASES = (
    [(DINF, w) for w in dinf_words(5) if not is_identity_dinf(parse_word(w, parse_presentation(DINF).alphabet))]
    + [(Z, "a" * n) for n in range(1, 65)]
    + [(DINF, "ab" * n) for n in range(1, 33)]  # orders 2..64
    + [(A4B3, "abab")]  # order 24
)


def test_builder_matches_the_reference_on_closed_tables():
    """Equal fields, equal cell order and equal letters-mode translations on every case."""
    for text, word in CASES:
        e = closed_enumeration(text, word)
        args = (e._table, e._proof, e._rels, e.k2)
        fields, reference = proofs.certificate_fields(*args), certificate_fields_reference(*args)
        assert fields == reference, word
        assert list(fields["equation_certs"]) == list(reference["equation_certs"]), word
        cert = FinitenessCertificate(mode=WORDS_MODE, **fields)
        letters = _letters_certificate(cert, 2 * cert.table.order)
        assert letters == _letters_certificate(FinitenessCertificate(mode=WORDS_MODE, **reference), 2 * cert.table.order)
        if letters is not None:
            assert proofs.equation_words(letters.table, letters.images) == helpers.equation_words(letters.table, letters.images)


def test_fallback_edges_match_the_reference_and_respect_the_cap(monkeypatch):
    # In Dinf with X = bbAB no relator cycle settles some edges of the
    # order-2 table, so they take the enumeration's own proofs; with no room
    # for those, neither builder emits anything.
    e = closed_enumeration(DINF, "bbAB")
    args = (e._table, e._proof, e._rels, e.k2)
    fields = proofs.certificate_fields(*args)
    assert fields is not None
    assert fields == certificate_fields_reference(*args)
    monkeypatch.setattr(proofs, "MAX_RAW_FACTORS", 0)
    assert proofs.certificate_fields(*args) is None
    assert certificate_fields_reference(*args) is None


@pytest.mark.parametrize(
    "text, word, order",
    [(Z, "a" * 64, 64), (DINF, "ab" * 16, 32), (A4B3, "abab", 24)],
    ids=["z64", "dinf-ab16", "a4b3-abab"],
)
def test_no_enumeration_proof_is_read_where_relator_cycles_settle_every_edge(text, word, order):
    """The reference reads the r - 1 tree entries' proofs for the transversal; the builder reads none."""
    e = closed_enumeration(text, word)
    assert e.live == order
    read, calls = counted(e._proof)
    certificate_fields_reference(e._table, read, e._rels, e.k2)
    assert len(calls) == order - 1
    read, calls = counted(e._proof)
    assert proofs.certificate_fields(e._table, read, e._rels, e.k2) is not None
    assert calls == []


def test_fallback_edges_read_no_more_enumeration_proofs_than_the_reference():
    e = closed_enumeration(DINF, "bbAB")
    read, reference_calls = counted(e._proof)
    certificate_fields_reference(e._table, read, e._rels, e.k2)
    read, calls = counted(e._proof)
    proofs.certificate_fields(e._table, read, e._rels, e.k2)
    assert len(reference_calls) == 4
    assert 0 < len(calls) <= len(reference_calls)


def reachable(roots):
    """The proof nodes reachable from roots, each once."""
    seen, todo = {}, [n for n in roots if n is not None]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            if n[0] != proofs._LEAF:
                todo += n[2:]
    return list(seen.values())


@pytest.mark.parametrize(
    "text, word, largest",
    [("generators: a b c\nrelator: babcc\nfamily: powers CbcBCbac\n", "C", 10**40), (DINF, "ababab", 1)],
    ids=["babcc", "dinf-ababab"],
)
def test_every_node_states_the_size_the_reference_fold_finds(text, word, largest):
    # The entry proofs and union-find proofs of a closed table, with all
    # they share; in the babcc case they run to over 10^40 factors.
    e = closed_enumeration(text, word)
    roots = [p for row in e._table if row for p in row[e.k2 :]] + e._uproof
    nodes, memo = reachable(roots), {}
    assert [n[1] for n in nodes] == [helpers._size(n, memo) for n in nodes]
    assert max(n[1] for n in nodes) > largest
