"""The finiteness arm: goal words, the letters-mode dovetail, words-mode steps.

Words mode runs the coset enumeration of ``cosets.py`` (see
``test_cosets.py``); the admission, goal-ledger and abelian-check tests
here exercise the letters-mode candidate race, whose checks are the same
for word-valued images.
"""

import itertools
import random
import sys

import pytest

from helpers import prove_finite
from wordrace.abelian import Abelianization
from wordrace.certcheck import verify_finiteness
from wordrace.oracle import exponent_sum, zn_table
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, FinitenessTask, _AbelianCheck, equation_words
from wordrace.tables import MultiplicationTable, enumerate_tables
from wordrace.words import alphabet, count_words_up_to, parse_word, word_at_index

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


def admit_checked(task, admissions):
    """Admit letters-mode candidates; check the parked ones against a from-scratch build.

    Every admission the task draws from its candidate stream is recorded.
    Each parked candidate's pending count, and at the end the waiter map,
    are checked against the cell goal words of ``equation_words``.  Nothing
    is derived, so every registered waiter stays.  Returns the admitted
    (table, images) pairs.
    """
    waiters, seen = {}, []
    drawn = []
    task._candidates = (drawn.append(a) or a for a in task._candidates)
    while task.admitted < admissions:
        before = task.admitted
        task._admit()
        if task.admitted == before:
            continue  # an idle quantum
        table, images = drawn[-1][2:]
        seen.append((table, images))
        cand = task._parked.get(before)
        if cand is None:
            continue  # rejected by the abelian check; see TestAbelianCheck
        assert (cand.table, cand.images) == (table, images)
        assert cand.certs is None
        goals = {word for _, _, word in equation_words(table, images) if word}
        assert cand.pending == len(goals)
        for word in goals:
            waiters.setdefault(word, []).append(before)
    assert task.parked_count + task.rejected == task.admitted
    assert task._waiters == waiters
    return seen


class TestGoalLedger:
    @pytest.mark.parametrize(
        "text, word, admissions",
        [
            # One letter map per table on one generator: 14 up to order 8.
            ("generators: a\n", "aaaaa", 14),
            # 1,586 letter-valued maps onto two generators exist up to order 8.
            ("generators: a b\nrelator: aa\nrelator: bb\n", "abAB", 1500),
            ("generators: a b\n", "a", 1500),
            ("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n", "a", 1500),
        ],
        ids=["z-a5", "dinf-abAB", "f2-a", "d4-letters"],
    )
    def test_stream_matches_from_scratch(self, text, word, admissions):
        p = parse_presentation(text)
        task = FinitenessTask(extend(p, parse_word(word, p.alphabet)), mode=LETTERS_MODE)
        seen = admit_checked(task, admissions)
        tables = [table for table, _ in seen]
        assert any(t is not u for t, u in zip(tables, tables[1:]))  # the table switches

    def test_switch_and_repeat(self):
        # The abelian check keeps one dead prefix: the table and the images
        # up to max(i, j, k) of the last cell that failed.  A candidate of
        # that table agreeing with it on the prefix fails without cell work;
        # any other candidate (a repeat of a passing one, a change inside the
        # prefix, another table) is checked from scratch.  The images are
        # words, which the check handles as it does letters.
        z3 = MultiplicationTable(zn_table(3).cells)
        z4 = MultiplicationTable(zn_table(4).cells)
        klein = (b"", w("a"), w("B"), w("aB"))
        sequence = [
            (KLEIN, klein),
            (KLEIN, klein),
            (KLEIN, (b"", w("a"), w("ab"), w("aB"))),
            (KLEIN, (b"", w("A"), w("ab"), w("aB"))),
            (z3, (b"", w("ab"), w("b"))),
            (KLEIN, (b"", w("A"), w("ab"), w("aB"))),
            (KLEIN, (b"", w("A"), w("ab"), w("ab"))),
            (KLEIN, (b"", w("A"), w("b"), w("ab"))),
            (z4, (b"", w("a"), w("b"), w("a"))),
            (z4, (b"", w("a"), w("b"), w("b"))),
            (z4, (b"", w("a"), w("aa"), w("A"))),
            (KLEIN, klein),
            (KLEIN, (b"", w("a"), w("B"), w("a"))),
            (KLEIN, klein),
        ]
        p = extend(parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n"), w("abab"))
        task = FinitenessTask(p, mode=LETTERS_MODE)
        task._candidates = iter([(0, n, table, images) for n, (table, images) in enumerate(sequence)])
        assert admit_checked(task, len(sequence)) == sequence

        # G1 = Dinf/abab: L is 2Z x 2Z.  A candidate is parked iff every cell
        # goal word lies in L.
        def in_lattice(word):
            return exponent_sum(word, 0) % 2 == 0 and exponent_sum(word, 1) % 2 == 0

        parked = []
        for n, (table, images) in enumerate(sequence):
            alive = all(in_lattice(goal) for _, _, goal in equation_words(table, images))
            assert (n in task._parked) == alive, n
            parked.append(alive)
        # Passing, and again when repeated; failing at a cell that reaches
        # element 3, so a change of element 1 or of element 3 is checked
        # again; in Z4 failing at a cell up to element 2, failing again
        # without any cell work (only element 3 changed, outside the dead
        # prefix), then, after a change inside it, passing; back in the
        # Klein table, a change of the last element alone breaks a cell, and
        # the next one mends it.
        assert parked == [True, True, False, False, False, False, False, True, False, False, True, True, False, True]


class TestAssignmentEnumeration:
    def test_surjective_letter_images(self):
        # k=2: a letters-mode task admits exactly the maps onto {a, b}, in
        # lex order: 2 of the 4 at order 2 and 6 of the 8 at order 3.
        task = FinitenessTask(extend(parse_presentation("generators: a b\n"), w("a")), mode=LETTERS_MODE)
        admitted = {}
        for admission in itertools.islice(task._candidate_stream(), 10_000):
            if admission is not None:
                table, images = admission[2:]
                admitted.setdefault(table.order, []).append(images)
        a, b = w("a"), w("b")
        assert admitted[2] == [(a, b), (b, a)]
        assert admitted[3] == [(a, a, b), (a, b, a), (a, b, b), (b, a, a), (b, a, b), (b, b, a)]


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


class TestDovetailTotality:
    def test_candidate_space_visited(self):
        # Every (table cursor, index) pair of a letter map onto the
        # generators within small bounds is admitted after finitely many
        # steps.  Order 1 has no such map on two generators; order 2 has the
        # indices 1 and 2 of (a, a), (a, b), (b, a), (b, b), and order 3 all
        # but the first and the last of its eight.
        p = extend(parse_presentation("generators: a b\n"), w("a"))
        task = FinitenessTask(p, mode=LETTERS_MODE)
        wanted = {(1, 1), (1, 2)} | {(2, i) for i in range(1, 7)}
        visited = set()
        for admission in itertools.islice(task._candidate_stream(), 200_000 // task.ADMIT_PERIOD):
            if admission is not None:
                visited.add(admission[:2])
                if wanted <= visited:
                    break
        assert wanted <= visited

    def test_admitted_images_follow_product_order(self, tmp_path):
        # F2/a parks no candidate; with the relator of <a, b | [a, b]> coming
        # from a stream, G1 is still Z but every candidate is parked.  Both
        # admit all 1,586 letter maps onto {a, b} up to order 8, each the
        # index-th tuple of itertools.product over the letters.
        script = tmp_path / "commutator.py"
        script.write_text('print("abAB")\n')
        letters = [w("a"), w("b")]
        for text, all_parked in (
            ("generators: a b\n", False),
            (f"generators: a b\nstream: {sys.executable} {script}\n", True),
        ):
            p = parse_presentation(text)
            task = FinitenessTask(extend(p, w("a")), mode=LETTERS_MODE)
            try:
                for _ in range(20_000):
                    task.step()
            finally:
                p.close()
            assert task.admitted == 1586
            assert task.parked_count == (task.admitted if all_parked else 0)
            admissions = (a for a in task._candidate_stream() if a is not None)
            for n, (t, idx, table, images) in zip(range(task.admitted), admissions):
                assert images == next(itertools.islice(itertools.product(letters, repeat=table.order), idx, None))
                cand = task._parked.get(n)
                if cand is not None:
                    assert cand.table == table
                    assert cand.images == images

    def test_strict_mode_exhausts_finite_space(self):
        # k=1: one letter-valued map per table; the space under the order
        # cap is finite, after which admissions idle but never deadlock.
        p = extend(parse_presentation("generators: a\n"), w("aaa", A))
        task = FinitenessTask(p, mode="letters")
        for _ in range(60_000):
            assert task.step() is None
        table_count = sum(len(enumerate_tables(r)) for r in range(1, 9))
        assert task.admitted == table_count
        admissions = itertools.islice(task._candidate_stream(), 60_000 // task.ADMIT_PERIOD)
        assert sum(a is not None for a in admissions) == table_count


class TestAbelianCheck:
    # Each case states by hand when an exponent-sum vector v lies in L, the
    # span of the relator vectors (the oracle's letter-by-letter exponent
    # sums give v): Z/a^5 gives 5Z, Dinf/abAB gives 2Z x 2Z,
    # F2/a gives Z x 0, and D4/a (relators aa, bb, abab, a) gives Z x 2Z.
    @pytest.mark.parametrize(
        "text, word, admissions, in_lattice",
        [
            ("generators: a\n", "aaaaa", 14, lambda v: v[0] % 5 == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\n", "abAB", 1500,
             lambda v: v[0] % 2 == 0 and v[1] % 2 == 0),
            ("generators: a b\n", "a", 1500, lambda v: v[1] == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n", "a", 1500,
             lambda v: v[1] % 2 == 0),
            # One letter map per table up to order 8, all 14 dead; the
            # order-1 table's generating set is empty, so only its identity
            # cell a.a.a^-1 shows it.
            ("generators: a\n", "aa", 14, lambda v: v[0] % 2 == 0),
        ],
        ids=["z-a5", "dinf-abAB", "f2-a", "d4-letters", "z-aa-letters"],
    )
    def test_rejects_exactly_the_dead_candidates(self, text, word, admissions, in_lattice):
        # A candidate is dead when a cell goal word has its exponent-sum
        # vector outside L: that word is nontrivial in G1, so the candidate
        # can never complete.  The task must reject every dead candidate and
        # park every other one.
        p = parse_presentation(text)
        k = p.alphabet.k
        task = FinitenessTask(extend(p, parse_word(word, p.alphabet)), mode=LETTERS_MODE)

        def trivial_in_a(word):
            return in_lattice([exponent_sum(word, g) for g in range(k)])

        dead_count = 0
        stream = (a for a in task._candidate_stream() if a is not None)
        for n, admission in enumerate(itertools.islice(stream, admissions)):
            table, images = admission[2:]
            dead = not all(trivial_in_a(goal) for _, _, goal in equation_words(table, images))
            dead_count += dead
            while task.admitted == n:
                task._admit()  # idle quanta admit nothing
            assert (n not in task._parked) == dead, (table.cells, images)
        assert task.rejected == dead_count > 0

    @pytest.mark.parametrize(
        "text, word, word_images, in_lattice",
        [
            ("generators: a\n", "aa", True, lambda v: v[0] % 2 == 0),
            ("generators: a\n", "aaaaa", True, lambda v: v[0] % 5 == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\n", "abAB", True,
             lambda v: v[0] % 2 == 0 and v[1] % 2 == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n", "a", False,
             lambda v: v[1] % 2 == 0),
            # A = Z x Z/2, from b and c; the letter a is trivial in A.
            ("generators: a b c\nrelator: a\nrelator: cc\n", "bcBC", False,
             lambda v: v[1] == 0 and v[2] % 2 == 0),
        ],
        ids=["z-a2", "z-a5", "dinf-abAB", "d4-letters", "zz2-letters"],
    )
    def test_matches_every_cell(self, text, word, word_images, in_lattice):
        # Random sequences of (table, images), with repeats, one-element
        # changes and table switches, against all r^2 cells checked one by
        # one.  The images are letters, or nonempty words of length <= 2
        # with the identity's image pinned to the empty word.
        p = parse_presentation(text)
        k = p.alphabet.k
        check = _AbelianCheck(Abelianization(extend(p, parse_word(word, p.alphabet)).lattice_relators(), k))
        if word_images:
            choices = [word_at_index(n, p.alphabet) for n in range(1, count_words_up_to(2, k))]
        else:
            choices = [bytes([2 * g]) for g in range(k)]
        first = 1 if word_images else 0
        tables = [t for r in range(1, 7) for t in enumerate_tables(r)]
        rng = random.Random(20_251_018)
        vectors = {}

        def vector(word):
            if word not in vectors:
                vectors[word] = [exponent_sum(word, g) for g in range(k)]
            return vectors[word]

        def alive(table, images):
            v = [vector(image) for image in images]
            return all(
                in_lattice([x + y - z for x, y, z in zip(v[i], v[j], v[c])])
                for i, row in enumerate(table.cells)
                for j, c in enumerate(row)
            )

        def fresh(table):
            return (b"",) * first + tuple(rng.choice(choices) for _ in range(first, table.order))

        table = rng.choice(tables)
        images = fresh(table)
        verdicts = []
        for _ in range(3000):
            move = rng.random()
            if move < 0.1:
                table = rng.choice(tables)
                images = fresh(table)
            elif move < 0.2:  # look for a live candidate of this table
                for trial in (fresh(table) for _ in range(50)):
                    if alive(table, trial):
                        images = trial
                        break
            elif move < 0.8 and first < table.order:
                e = rng.randrange(first, table.order)
                images = images[:e] + (rng.choice(choices),) + images[e + 1 :]
            # otherwise a repeat
            expected = alive(table, images)
            assert check.passes(table, images) == expected, (table.cells, images)
            verdicts.append(expected)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_free_quotient_parks_nothing(self):
        # G1 = F2/<<a>> is Z, whose abelianization kills every letter map
        # onto {a, b}: a finite table maps to the torsion of Z, so every
        # image would be the trivial letter a.
        task = FinitenessTask(extend(parse_presentation("generators: a b\n"), w("a")), mode=LETTERS_MODE)
        for _ in range(20_000):
            assert task.step() is None
        assert task.admitted == 1586
        assert task.parked_count == 0
        assert task.rejected == task.admitted

    def test_family_source_prunes(self):
        # The inline prefix and the base words span the exponent-sum lattice
        # of every relator t.w.t^-1 the family will produce, so admission
        # prunes as on an inline source.
        p = parse_presentation("generators: a b\nfamily: powers aa bb abab\n")
        task = FinitenessTask(extend(p, w("a")), mode=LETTERS_MODE)
        cert = None
        while cert is None:
            cert = task.step()
        assert task.rejected > 0
        assert task.parked_count + task.rejected == task.admitted
        assert verify_finiteness(cert, task.extended)[0]

    def test_stream_source_parks_every_admission(self, tmp_path):
        # A relator still to come from a stream could make any goal trivial:
        # no rejection.  The same D4/a inline rejects all but 7 of the 263.
        script = tmp_path / "d4.py"
        script.write_text('print("aa")\nprint("bb")\nprint("abab")\n')
        p = parse_presentation(f"generators: a b\nstream: {sys.executable} {script}\n")
        try:
            task = FinitenessTask(extend(p, w("a")), mode=LETTERS_MODE)
            cert = None
            while cert is None:
                cert = task.step()
            assert task.admitted == 263
            assert task.parked_count == task.admitted
            assert task.rejected == 0
            assert verify_finiteness(cert, task.extended)[0]
        finally:
            p.close()
