"""The finiteness arm: goal words, words-mode steps, letters-mode translation.

Both modes run the coset enumeration of ``cosets.py`` (see
``test_cosets.py``); letters mode reads its certificate off the words-mode
one, and is held here to a brute-force search over every table and letter
map up to the order cap.
"""

import random

import pytest

from helpers import letter_quotient_exists, prove_finite
from wordrace.certcheck import parse_certificate, serialize_finiteness, verify_finiteness, verify_finiteness_document
from wordrace.oracle import zn_table
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, FinitenessTask, equation_words
from wordrace.tables import MultiplicationTable, enumerate_tables
from wordrace.words import alphabet, parse_word, reduce_word

A = alphabet("a")
AB = alphabet("ab")
KLEIN = MultiplicationTable(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))


def w(text, alph=AB):
    return parse_word(text, alph)


class TestGoalWords:
    def test_trivial_table(self):
        t = enumerate_tables(1)[0]
        assert equation_words(t, (b"",)) == [(0, 0, b"")]

    def test_z3_goals(self):
        t = MultiplicationTable(zn_table(3).cells)
        images = (b"", w("a", A), w("aa", A))
        goals = dict(((i, j), word) for i, j, word in equation_words(t, images))
        assert goals[(1, 1)] == b""            # a.a.(aa)^-1
        assert goals[(2, 1)] == w("aaa", A)    # aa.a.empty^-1
        assert goals[(2, 2)] == w("aaa", A)    # aa.aa.a^-1
        assert len(goals) == 9

    def test_klein_goals(self):
        images = (b"", w("a"), w("b"), w("ab"))
        goals = dict(((i, j), word) for i, j, word in equation_words(KLEIN, images))
        assert goals[(1, 2)] == b""            # a.b.(ab)^-1
        assert goals[(3, 3)] == w("abab")      # ab.ab.empty^-1
        assert goals[(2, 1)] == w("baBA")

    def test_coverage_takes_the_edges_out_of_coset_0(self):
        # Dinf/ab is Z/2 with a = b: the images are the shortlex transversal
        # (empty, a), both generators lead from element 0 to element 1, and
        # only b, which is not the image a, needs a coverage proof.
        p = extend(parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n"), w("ab"))
        cert = prove_finite(p, 1_000)
        assert cert.images == (b"", w("a"))
        assert cert.coverage == {0: 1, 1: 1}
        assert list(cert.coverage_certs) == [1]
        assert cert.coverage_certs[1].target == w("bA")
        ok, why = verify_finiteness(cert, p)
        assert ok, why

    def test_coverage_goes_to_the_first_witness(self):
        # Z/a^3: the generator a is the image of element 1, which is where
        # its edge out of coset 0 leads, so it needs no coverage proof.
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        cert = prove_finite(p, 1_000)
        assert cert is not None
        assert cert.images == (b"", w("a", A), w("A", A))
        assert cert.coverage == {0: 1}
        assert cert.coverage_certs == {}
        ok, why = verify_finiteness(cert, p)
        assert ok, why


class TestStepFiniteness:
    def test_z_extended_by_a_succeeds_quickly(self):
        p = extend(parse_presentation("generators: a\n"), w("a", A))
        cert = prove_finite(p, 5_000)
        assert cert is not None
        assert cert.table.order == 1
        assert cert.images == (b"",)
        assert cert.coverage == {0: 0}
        # coverage goal was the word "a", proved by citing relator 0
        assert cert.coverage_certs[0].target == w("a", A)

    def test_z3_quotient(self):
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        cert = prove_finite(p, 200_000)
        assert cert is not None
        assert cert.table.order == 3

    def test_dinf_abab_klein(self):
        base = parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n")
        cert = prove_finite(extend(base, w("abab")), 2_000_000)
        assert cert is not None
        assert cert.table.order == 4

    def test_infinite_extension_runs_forever(self):
        p = extend(parse_presentation("generators: a b\n"), w("a"))
        task = FinitenessTask(p)
        for _ in range(20_000):
            assert task.step() is None

    def test_requires_extension(self):
        with pytest.raises(ValueError):
            FinitenessTask(parse_presentation("generators: a\n"))

    def test_unknown_tau_mode_is_rejected(self):
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        with pytest.raises(ValueError, match="unknown tau mode 'foo'"):
            FinitenessTask(p, mode="foo")

    def test_a_resolved_arm_takes_no_step(self):
        task = FinitenessTask(extend(parse_presentation("generators: a\n"), w("a", A)))
        while task.step() is None and task.steps_taken < 5_000:
            pass
        assert task.certificate is not None
        steps = task.steps_taken
        with pytest.raises(ValueError, match="task already resolved"):
            task.step()
        assert task.steps_taken == steps

    def test_identity_image_always_empty(self):
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        task = FinitenessTask(p)
        cert = None
        for _ in range(200_000):
            cert = task.step()
            if cert is not None:
                break
        assert cert is not None
        assert cert.images[0] == b""

    def test_determinism(self):
        def run():
            p = extend(parse_presentation("generators: a\n"), w("aaa", A))
            return prove_finite(p, 200_000)

        c1, c2 = run(), run()
        assert c1.table == c2.table
        assert c1.images == c2.images
        assert c1.coverage == c2.coverage
        assert c1.equation_certs == c2.equation_certs


def verify_both_ways(cert, text, x):
    """The certificate verifies as an object, and as a document over a fresh parse."""
    extended = extend(parse_presentation(text), x)
    ok, why = verify_finiteness(cert, extended)
    assert ok, why
    doc = parse_certificate(serialize_finiteness(cert, extended), extended.alphabet)
    ok, why = verify_finiteness_document(doc, extend(parse_presentation(text), x))
    assert ok, why


class TestLettersMode:
    def test_two_generators_in_one_class(self):
        # G1 = <b, c | bb, b = c> = Z/2 with a trivial: the classes are
        # {a} and {b, c}, so m = 2 and the table is Z/2 x Z/2, element
        # 2h + z imaging the z-th generator of class h.
        text = "generators: a b c\nrelator: bb\nrelator: bC\n"
        x = parse_word("a", alphabet("abc"))
        cert = prove_finite(extend(parse_presentation(text), x), 1_000, mode=LETTERS_MODE)
        assert cert.mode == LETTERS_MODE and cert.coverage is None and cert.coverage_certs == {}
        assert cert.table.cells == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        assert cert.images == tuple(parse_word(g, alphabet("abc")) for g in "aabc")
        verify_both_ways(cert, text, x)

    def test_matches_brute_force(self):
        # Seeded small inline presentations over up to three generators,
        # with caps up to 8: letters mode finds a certificate iff some table
        # of order <= cap has a letter map onto the generators that is a
        # homomorphism into G1.  Some need m >= 2.
        rng = random.Random(20_261_018)
        found = none = wider = 0
        for _ in range(150):
            k = rng.randint(1, 3)
            letters = "abc"[:k] + "ABC"[:k]
            words = ["".join(rng.choices(letters, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 4))]
            text = f"generators: {' '.join('abc'[:k])}\n" + "".join(f"relator: {r}\n" for r in words[1:])
            x = reduce_word(parse_word(words[0][:3], alphabet("abc"[:k])))
            cap = rng.randint(1, 8)
            if not x:
                continue
            extended = extend(parse_presentation(text), x)
            words_cert = prove_finite(extended, 3_000, max_table_order=cap)
            cert = prove_finite(extended, 3_000, mode=LETTERS_MODE, max_table_order=cap)
            assert (cert is not None) == letter_quotient_exists(words_cert, k, cap), (text, x, cap)
            if cert is None:
                none += 1
                continue
            found += 1
            wider += cert.table.order > words_cert.table.order
            assert cert.table.order <= cap
            # Letter images make every goal x.y.z^-1 nonempty, so every cell has a derivation.
            assert len(cert.equation_certs) == cert.table.order**2
            verify_both_ways(cert, text, x)
        assert found > 20 and none > 20 and wider > 0
