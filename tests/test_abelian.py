"""The abelianization: Hermite bases and canonical forms of exponent-sum vectors."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from wordrace.abelian import Abelianization, exponent_sums, hermite_basis
from wordrace.presentation import extend, parse_presentation
from wordrace.words import parse_word


def in_span(v, gens, k):
    """Brute force, for k <= 2: is v an integer combination of gens?

    For a lattice L of full rank, m Z^k lies in L when m is the absolute
    determinant of two independent generators (k = 2) or a nonzero generator
    (k = 1), so v is in L iff v mod m is in the closure of the generators in
    (Z/m)^k.  Collinear generators span the line of some g; v must lie on
    that line, and then any nonzero entry of g is a multiple of L's index
    on the line, so the same closure decides.
    """
    gens = [g for g in gens if any(g)]
    if not gens:
        return not any(v)
    if k == 1:
        m = abs(gens[0][0])
    else:
        dets = [abs(g[0] * h[1] - g[1] * h[0]) for g, h in itertools.combinations(gens, 2)]
        m = next((d for d in dets if d), 0)
        if not m:
            g = gens[0]
            if v[0] * g[1] - v[1] * g[0]:
                return False
            m = abs(next(x for x in g if x))
    reached = {(0,) * k}
    frontier = list(reached)
    while frontier:
        u = frontier.pop()
        for g in gens:
            n = tuple((a + b) % m for a, b in zip(u, g))
            if n not in reached:
                reached.add(n)
                frontier.append(n)
    return tuple(x % m for x in v) in reached


def word_of(v):
    """The word g_0^v[0] g_1^v[1] ..., whose exponent-sum vector is v."""
    return b"".join(bytes([2 * g + (x < 0)]) * abs(x) for g, x in enumerate(v))


def vectors(k, bound):
    return st.tuples(*[st.integers(-bound, bound)] * k)


@st.composite
def lattice_and_pair(draw):
    k = draw(st.integers(1, 2))
    gens = draw(st.lists(vectors(k, 4), max_size=3))
    return k, gens, draw(vectors(k, 9)), draw(vectors(k, 9))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(lattice_and_pair())
def test_same_canonical_form_iff_difference_in_lattice(case):
    k, gens, u, v = case
    ab = Abelianization([word_of(g) for g in gens], k)
    diff = [a - b for a, b in zip(u, v)]
    assert (ab.canonical(u) == ab.canonical(v)) == in_span(diff, gens, k)
    assert ab.canonical(ab.canonical(u)) == ab.canonical(u)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(st.just(k), st.lists(vectors(k, 5), max_size=4))))
def test_hermite_basis_is_echelon_and_spans_the_same_lattice(case):
    k, gens = case
    basis = hermite_basis(gens, k)
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for t, (row, c) in enumerate(zip(basis, pivots)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in basis[:t])
    for g in gens:
        assert in_span(g, basis, k)
    for row in basis:
        assert in_span(row, gens, k)


def abelianization(text, word):
    p = extend(parse_presentation(text), parse_word(word, parse_presentation(text).alphabet))
    return Abelianization(p.lattice_relators(), p.alphabet.k)


def test_z_mod_a6_is_z6():
    ab = abelianization("generators: a\n", "aaaaaa")
    assert ab.basis == [(6,)]
    classes = [ab.canonical((n,)) for n in range(-12, 13)]
    assert len(set(classes)) == 6
    assert all((c == (0,)) == (n % 6 == 0) for n, c in zip(range(-12, 13), classes))


def test_dinf_mod_commutator_is_klein_four():
    ab = abelianization("generators: a b\nrelator: aa\nrelator: bb\n", "abAB")
    assert ab.basis == [(2, 0), (0, 2)]
    classes = {ab.canonical((x, y)) for x in range(-4, 5) for y in range(-4, 5)}
    assert classes == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_f2_mod_a_is_z():
    ab = abelianization("generators: a b\n", "a")
    assert ab.basis == [(1, 0)]
    assert ab.class_of(parse_word("abaB", parse_presentation("generators: a b\n").alphabet)) == (0, 0)
    assert len({ab.canonical((x, y)) for x in range(-3, 4) for y in range(-9, 10)}) == 19


def test_exponent_sums():
    ab_alphabet = parse_presentation("generators: a b\n").alphabet
    assert exponent_sums(parse_word("abAAbb", ab_alphabet), 2) == (-1, 3)
    assert exponent_sums(b"", 2) == (0, 0)


def test_lattice_relators_for_inline_and_family_sources():
    # An inline source gives every relator; a powers family gives its inline
    # prefix and base words, whose exponent sums are those of every conjugate
    # t.w.t^-1; a stream gives nothing, since any relator may still come.
    alph = parse_presentation("generators: a b\n").alphabet
    x = parse_word("ab", alph)
    inline = extend(parse_presentation("generators: a b\nrelator: aa\n"), x)
    assert inline.lattice_relators() == (x, parse_word("aa", alph))
    family = extend(parse_presentation("generators: a b\nrelator: aa\nfamily: powers bb abAB\n"), x)
    assert family.lattice_relators() == (x, parse_word("aa", alph), parse_word("bb", alph), parse_word("abAB", alph))
    pulled = [family.relator(i) for i in range(200)]  # X, aa, then conjugates of bb and abAB
    assert pulled[2:4] == [parse_word("bb", alph), parse_word("abAB", alph)]
    assert Abelianization(pulled, 2).basis == Abelianization(family.lattice_relators(), 2).basis
    stream = extend(parse_presentation("generators: a b\nrelator: aa\nstream: relator-command --count 3\n"), x)
    assert stream.lattice_relators() is None
