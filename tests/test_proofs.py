"""The one-pass finiteness certificate builder against the reference builder it replaced."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        assert_matches_the_reference(e, word)


def assert_matches_the_reference(e, label):
    """The builder's certificate of e's closed table is the reference's: cell order, goal words, letters translation."""
    args = (e._table, e._proof, e._rels, e.k2)
    cert, reference = proofs.finiteness_certificate(*args), certificate_fields_reference(*args)
    reference = FinitenessCertificate(mode=WORDS_MODE, **reference)
    assert cert == reference, label
    assert list(cert.equation_certs) == list(reference.equation_certs), label
    goals = [(i, j, w) for i, j, w in proofs.equation_words(cert.table, cert.images) if w]  # the goals' definition
    assert [(i, j, c.target) for (i, j), c in cert.equation_certs.items()] == goals, label
    letters = _letters_certificate(cert, 2 * cert.table.order)
    assert letters == _letters_certificate(reference, 2 * cert.table.order), label
    if letters is not None:
        words = (letters.table, letters.images)
        assert proofs.equation_words(*words) == helpers.equation_words(*words)


@st.composite
def small_presentations(draw):
    """(presentation text, X): at most 3 generators and 3 relators, X and each relator at most 6 letters."""
    k = draw(st.integers(1, 3))
    short = st.text("aAbBcC"[: 2 * k], min_size=1, max_size=3)
    # Powers of short words, up to 6 letters, give larger finite groups than free words do.
    word = st.text("aAbBcC"[: 2 * k], min_size=1, max_size=6) | short.flatmap(
        lambda w: st.integers(1, 6 // len(w)).map(lambda n: w * n)
    )
    relators = draw(st.lists(word, max_size=3))
    text = f"generators: {' '.join('abc'[:k])}\n" + "".join(f"relator: {r}\n" for r in relators)
    return text, draw(word)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_presentations())
def test_builder_matches_the_reference_on_generated_closed_tables(case):
    """The same on every table of order at most 64 that closes within 5,000 steps."""
    text, word = case
    p = parse_presentation(text)
    x = parse_word(word, p.alphabet)
    assume(x)
    e = CosetEnumeration(extend(p, x))
    assume(any(e.step() for _ in range(5000)) and e.live <= 64)
    assert_matches_the_reference(e, case)


def test_fallback_edges_match_the_reference_and_respect_the_cap(monkeypatch):
    # In Dinf with X = bbAB no relator cycle settles some edges of the
    # order-2 table, so they take the enumeration's own proofs; with no room
    # for those, neither builder emits anything.
    e = closed_enumeration(DINF, "bbAB")
    args = (e._table, e._proof, e._rels, e.k2)
    cert = proofs.finiteness_certificate(*args)
    assert cert is not None
    assert cert == FinitenessCertificate(mode=WORDS_MODE, **certificate_fields_reference(*args))
    monkeypatch.setattr(proofs, "MAX_RAW_FACTORS", 0)
    assert proofs.finiteness_certificate(*args) is None
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
    assert proofs.finiteness_certificate(e._table, read, e._rels, e.k2) is not None
    assert calls == []


def test_fallback_edges_read_no_more_enumeration_proofs_than_the_reference():
    e = closed_enumeration(DINF, "bbAB")
    read, reference_calls = counted(e._proof)
    certificate_fields_reference(e._table, read, e._rels, e.k2)
    read, calls = counted(e._proof)
    proofs.finiteness_certificate(e._table, read, e._rels, e.k2)
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
