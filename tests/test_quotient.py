"""Finite-quotient search: goal words, assignment enumeration, the dovetail."""

import pytest

from wordrace.oracle import zn_table
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import (
    Assignment,
    FinitenessTask,
    assignment_at_cursor,
    assignment_block_size,
    coverage_words,
    equation_words,
    images_at_cursor,
    prove_finite,
    surjective_letter_images,
)
from wordrace.tables import MultiplicationTable, enumerate_tables
from wordrace.words import alphabet, parse_word

A = alphabet("a")
AB = alphabet("ab")
KLEIN = MultiplicationTable(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))


def w(text, alph=AB):
    return parse_word(text, alph)


class TestGoalWords:
    def test_trivial_table(self):
        t = enumerate_tables(1)[0]
        a = Assignment(t, (b"",))
        assert equation_words(t, a) == [(0, 0, b"")]

    def test_z3_goals(self):
        t = MultiplicationTable(zn_table(3).cells)
        a = Assignment(t, (b"", w("a", A), w("aa", A)))
        goals = dict(((i, j), word) for i, j, word in equation_words(t, a))
        assert goals[(1, 1)] == b""            # a.a.(aa)^-1
        assert goals[(2, 1)] == w("aaa", A)    # aa.a.empty^-1
        assert goals[(2, 2)] == w("aaa", A)    # aa.aa.a^-1
        assert len(goals) == 9

    def test_klein_goals(self):
        a = Assignment(KLEIN, (b"", w("a"), w("b"), w("ab")))
        goals = dict(((i, j), word) for i, j, word in equation_words(KLEIN, a))
        assert goals[(1, 2)] == b""            # a.b.(ab)^-1
        assert goals[(3, 3)] == w("abab")      # ab.ab.empty^-1
        assert goals[(2, 1)] == w("baBA")

    def test_coverage_words(self):
        p = parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n")
        a = Assignment(KLEIN, (b"", w("a"), w("b"), w("ab")))
        cov = dict(coverage_words(p, a, {0: 1, 1: 2}))
        assert cov[0] == b""
        assert cov[1] == b""
        cov2 = dict(coverage_words(p, a, {0: 3, 1: 0}))
        assert cov2[0] == w("aBA")
        assert cov2[1] == w("b")


class TestAssignmentEnumeration:
    def test_r1_single_assignment(self):
        t = enumerate_tables(1)[0]
        a, cov = assignment_at_cursor(0, t, A, 1)
        assert a.images == (b"",)
        assert cov == {0: 0}
        assert assignment_at_cursor(1, t, A, 1) is None

    def test_r2_l1_k1_block_of_four(self):
        t = enumerate_tables(2)[0]
        assert assignment_block_size(2, A, 1) == 4
        seen = []
        for n in range(4):
            a, cov = assignment_at_cursor(n, t, A, 1)
            assert a.images[0] == b""
            seen.append((a.images[1], cov[0]))
        assert seen == [(w("a", A), 0), (w("a", A), 1), (w("A", A), 0), (w("A", A), 1)]
        assert assignment_at_cursor(4, t, A, 1) is None

    def test_z3_assignment_in_l2_block(self):
        t = enumerate_tables(3)[0]
        target = (b"", w("a", A), w("aa", A))
        block = assignment_block_size(3, A, 2)
        found = any(
            assignment_at_cursor(n, t, A, 2)[0].images == target
            for n in range(block)
        )
        assert found

    def test_images_enumeration_covers_block(self):
        seen = set()
        n = 0
        while True:
            images = images_at_cursor(n, 3, A, 2)
            if images is None:
                break
            assert images[0] == b""
            assert all(img != b"" for img in images[1:])
            seen.add(images)
            n += 1
        assert len(seen) == n == 16  # (count_words_up_to(2) - 1)^2

    def test_surjective_letter_images(self):
        # k=2, r=2: 4 functions, 2 surjective
        onto = [surjective_letter_images(i, 2, AB) for i in range(4)]
        onto = [x for x in onto if x is not None]
        assert onto == [(w("a"), w("b")), (w("b"), w("a"))]


class TestStepFiniteness:
    def test_z_extended_by_a_succeeds_quickly(self):
        p = extend(parse_presentation("generators: a\n"), w("a", A))
        cert = prove_finite(p, 5_000)
        assert cert is not None
        assert cert.table.order == 1
        assert cert.assignment.images == (b"",)
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

    def test_identity_image_always_empty(self):
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        task = FinitenessTask(p, instrument=True)
        cert = None
        for _ in range(200_000):
            cert = task.step()
            if cert is not None:
                break
        assert cert is not None
        assert cert.assignment.images[0] == b""

    def test_determinism(self):
        def run():
            p = extend(parse_presentation("generators: a\n"), w("aaa", A))
            return prove_finite(p, 200_000)

        c1, c2 = run(), run()
        assert c1.table == c2.table
        assert c1.assignment == c2.assignment
        assert c1.coverage == c2.coverage
        assert c1.equation_certs == c2.equation_certs


class TestDovetailTotality:
    def test_candidate_space_visited(self):
        # Every (table cursor, length bound, index) triple within small
        # bounds is admitted after finitely many steps.
        p = extend(parse_presentation("generators: a b\n"), w("a"))
        task = FinitenessTask(p, instrument=True)
        wanted = {
            (t, L, i)
            for t in (0, 1)
            for L in (1,)
            for i in range(min(4, assignment_block_size(2, AB, 1)))
        }
        # table cursor 0 has order 1 (single empty-images candidate)
        wanted = {(0, 1, 0)} | {(1, 1, i) for i in range(4)}
        for _ in range(200_000):
            task.step()
            if wanted <= set(task.visited):
                break
        assert wanted <= set(task.visited)

    def test_admitted_images_follow_images_at_cursor(self):
        p = extend(parse_presentation("generators: a b\n"), w("a"))
        task = FinitenessTask(p, instrument=True)
        for _ in range(20_000):
            task.step()
        assert len(task.visited) == task.admitted > 2000
        for cand, (t, length_bound, idx) in zip(task._parked, task.visited):
            assert cand.images == images_at_cursor(idx, cand.table.order, AB, length_bound)

    def test_strict_mode_exhausts_finite_space(self):
        # k=1: one letter-valued map per table; the space under the order
        # cap is finite, after which admissions idle but never deadlock.
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        task = FinitenessTask(p, mode="letters", instrument=True)
        for _ in range(60_000):
            assert task.step() is None
        table_count = sum(len(enumerate_tables(r)) for r in range(1, 9))
        assert len(task.visited) == table_count
