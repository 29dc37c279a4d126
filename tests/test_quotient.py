"""Finite-quotient search: goal words, image enumeration, the dovetail."""

import itertools
import random
import sys

import pytest

from helpers import images_at_cursor, prove_finite
from wordrace.certcheck import verify_finiteness
from wordrace.oracle import exponent_sum, zn_table
from wordrace.presentation import extend, parse_presentation
from wordrace.quotient import (
    LETTERS_MODE,
    WORDS_MODE,
    FinitenessTask,
    equation_words,
)
from wordrace.tables import MultiplicationTable, enumerate_tables
from wordrace.words import alphabet, concat, count_words_up_to, invert, parse_word, word_at_index

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

    def test_coverage_words(self):
        # An admitted candidate parks each uncovered generator g on the
        # words g.tau(u_e)^-1 of every element e; a generator that is an
        # image is covered outright.
        p = extend(parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n"), w("abab"))
        task = FinitenessTask(p)
        images = (b"", w("a"), w("B"), w("aB"))
        task._candidates = iter([(0, 1, 0, KLEIN, images)])
        assert task._admit() is None
        cand = task._parked[0]
        goals = {word for _, _, word in equation_words(KLEIN, images) if word}
        assert cand.pending == len(goals) + 1  # the cell goals and generator b
        assert all(g != 0 for waiters in task._waiters.values() for _, g, _ in waiters)
        cov = {e: word for word, waiters in task._waiters.items() for _, g, e in waiters if g == 1}
        assert cov == {0: w("b"), 1: w("bA"), 2: w("bb"), 3: w("bbA")}

    def test_coverage_goes_to_the_first_witness(self):
        # tau hits the generator a at elements 1 and 2: element 1 covers it.
        p = extend(parse_presentation("generators: a\n"), w("a", A))
        task = FinitenessTask(p)
        admission = (0, 1, 0, MultiplicationTable(zn_table(3).cells), (b"", w("a", A), w("a", A)))
        task._candidates = itertools.chain([admission], itertools.repeat(None))
        for _ in range(10_000):
            cert = task.step()
            if cert is not None:
                break
        assert cert is not None
        assert cert.images == admission[4]
        assert cert.coverage == {0: 1}
        assert cert.coverage_certs == {}
        ok, why = verify_finiteness(cert, p)
        assert ok, why


def admit_checked(task, admissions):
    """Admit candidates; check the parked ones against a from-scratch build.

    Every admission the task draws from its candidate stream is recorded.
    Each parked candidate's pending count, and at the end the waiter map,
    are checked against the cell goal words of ``equation_words`` and the
    coverage words g.tau(u_e)^-1 built here.  Nothing is derived, so every
    registered waiter stays.  Returns the admitted (table, images) pairs.
    """
    waiters, seen = {}, []
    gens = [bytes([2 * g]) for g in range(task.extended.alphabet.k)] if task.mode == WORDS_MODE else []
    drawn = []
    task._candidates = (drawn.append(a) or a for a in task._candidates)
    while task.admitted < admissions:
        before = task.admitted
        task._admit()
        if task.admitted == before:
            continue  # an idle quantum
        table, images = drawn[-1][3:]
        seen.append((table, images))
        cand = task._parked.get(before)
        if cand is None:
            continue  # rejected by the abelian check; see TestAbelianCheck
        assert (cand.table, cand.images) == (table, images)
        assert cand.certs is None and cand.coverage is None
        goals = {word for _, _, word in equation_words(table, images) if word}
        to_cover = [g for g, gen in enumerate(gens) if gen not in images]
        assert cand.pending == len(goals) + len(to_cover)
        if not cand.pending:
            continue
        for word in goals:
            waiters.setdefault(word, []).append((before, -1, -1))
        for g in to_cover:
            for e, image in enumerate(images):
                waiters.setdefault(concat(gens[g], invert(image)), []).append((before, g, e))
    assert task.parked_count + task.rejected == task.admitted
    assert task._waiters == waiters
    return seen


class TestGoalLedger:
    @pytest.mark.parametrize(
        "text, word, mode, admissions",
        [
            ("generators: a\n", "aaaaa", WORDS_MODE, 3000),
            ("generators: a b\nrelator: aa\nrelator: bb\n", "abAB", WORDS_MODE, 3000),
            ("generators: a b\n", "a", WORDS_MODE, 3000),
            # 1,586 letter-valued maps onto two generators exist up to order 8.
            ("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n", "a", LETTERS_MODE, 1500),
        ],
        ids=["z-a5", "dinf-abAB", "f2-a", "d4-letters"],
    )
    def test_stream_matches_from_scratch(self, text, word, mode, admissions):
        p = parse_presentation(text)
        task = FinitenessTask(extend(p, parse_word(word, p.alphabet)), mode=mode)
        seen = admit_checked(task, admissions)
        tables = [table for table, _ in seen]
        assert any(t is not u for t, u in zip(tables, tables[1:]))  # the table switches

    def test_switch_and_repeat(self):
        # The abelian check keeps one dead prefix: the table and the images
        # up to max(i, j, k) of the last cell that failed.  A candidate of
        # that table agreeing with it on the prefix fails without cell work;
        # any other candidate (a repeat of a passing one, a change inside the
        # prefix, another table) is checked from scratch.
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
        task = FinitenessTask(p)
        task._candidates = iter([(0, 1, n, table, images) for n, (table, images) in enumerate(sequence)])
        assert admit_checked(task, len(sequence)) == sequence

        # G1 = Dinf/abab: L is 2Z x 2Z.  A candidate is parked iff every cell
        # goal word and some coverage word of each generator lie in L.
        def in_lattice(word):
            return exponent_sum(word, 0) % 2 == 0 and exponent_sum(word, 1) % 2 == 0

        parked = []
        for n, (table, images) in enumerate(sequence):
            alive = all(in_lattice(goal) for _, _, goal in equation_words(table, images)) and all(
                any(in_lattice(concat(gen, invert(image))) for image in images) for gen in (w("a"), w("b"))
            )
            assert (n in task._parked) == alive, n
            parked.append(alive)
        # Passing, and again when repeated; failing at a cell that reaches
        # element 3, so a change of element 1 or of element 3 is checked
        # again; in Z4 failing at a cell up to element 2, failing again
        # without any cell work (only element 3 changed, outside the dead
        # prefix), then, after a change inside it, on coverage alone; back
        # in the Klein table, a change of the last element alone breaks a
        # cell, and the next one mends it.
        assert parked == [True, True, False, False, False, False, False, True, False, False, False, True, False, True]


class TestAssignmentEnumeration:
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
        # k=2: a letters-mode task admits exactly the maps onto {a, b}, in
        # lex order: 2 of the 4 at order 2 and 6 of the 8 at order 3.
        task = FinitenessTask(extend(parse_presentation("generators: a b\n"), w("a")), mode=LETTERS_MODE)
        admitted = {}
        for admission in itertools.islice(task._candidate_stream(), 10_000):
            if admission is not None:
                table, images = admission[3:]
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
        # Every (table cursor, length bound, index) triple within small
        # bounds is admitted after finitely many steps.
        p = extend(parse_presentation("generators: a b\n"), w("a"))
        task = FinitenessTask(p)
        # table cursor 0 has order 1 (single empty-images candidate)
        wanted = {(0, 1, 0)} | {(1, 1, i) for i in range(4)}
        visited = set()
        for admission in itertools.islice(task._candidate_stream(), 200_000 // task.ADMIT_PERIOD):
            if admission is not None:
                visited.add(admission[:3])
                if wanted <= visited:
                    break
        assert wanted <= visited

    def test_admitted_images_follow_images_at_cursor(self, tmp_path):
        # F2/a parks no candidate; with the relator of <a, b | [a, b]> coming
        # from a stream, G1 is still Z but every candidate is parked.
        script = tmp_path / "commutator.py"
        script.write_text('print("abAB")\n')
        for text, all_parked in (
            ("generators: a b\n", False),
            (f"generators: a b\nstream: {sys.executable} {script}\n", True),
        ):
            p = parse_presentation(text)
            task = FinitenessTask(extend(p, w("a")))
            try:
                for _ in range(20_000):
                    task.step()
            finally:
                p.close()
            assert task.admitted > 2000
            assert task.parked_count == (task.admitted if all_parked else 0)
            admissions = (a for a in task._candidate_stream() if a is not None)
            for n, (t, length_bound, idx, table, images) in zip(range(task.admitted), admissions):
                assert images == images_at_cursor(idx, table.order, AB, length_bound)
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
        "text, word, mode, admissions, in_lattice",
        [
            ("generators: a\n", "aaaaa", WORDS_MODE, 3000, lambda v: v[0] % 5 == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\n", "abAB", WORDS_MODE, 3000,
             lambda v: v[0] % 2 == 0 and v[1] % 2 == 0),
            ("generators: a b\n", "a", WORDS_MODE, 3000, lambda v: v[1] == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n", "a", LETTERS_MODE, 1500,
             lambda v: v[1] % 2 == 0),
            # One letter map per table up to order 8, all 14 dead; the
            # order-1 table's generating set is empty, so only its identity
            # cell a.a.a^-1 shows it.
            ("generators: a\n", "aa", LETTERS_MODE, 14, lambda v: v[0] % 2 == 0),
        ],
        ids=["z-a5", "dinf-abAB", "f2-a", "d4-letters", "z-aa-letters"],
    )
    def test_rejects_exactly_the_dead_candidates(self, text, word, mode, admissions, in_lattice):
        # A candidate is dead when a cell goal word, or every coverage word
        # of some generator, has its exponent-sum vector outside L: that word
        # is nontrivial in G1, so the candidate can never complete.  The
        # task must reject every dead candidate and park every other one.
        p = parse_presentation(text)
        k = p.alphabet.k
        task = FinitenessTask(extend(p, parse_word(word, p.alphabet)), mode=mode)
        gens = [bytes([2 * g]) for g in range(k)] if mode == WORDS_MODE else []

        def trivial_in_a(word):
            return in_lattice([exponent_sum(word, g) for g in range(k)])

        dead_count = 0
        stream = (a for a in task._candidate_stream() if a is not None)
        for n, admission in enumerate(itertools.islice(stream, admissions)):
            table, images = admission[3:]
            dead = not all(trivial_in_a(goal) for _, _, goal in equation_words(table, images)) or any(
                not any(trivial_in_a(concat(gen, invert(image))) for image in images) for gen in gens
            )
            dead_count += dead
            while task.admitted == n:
                task._admit()  # idle quanta admit nothing
            assert (n not in task._parked) == dead, (table.cells, images)
        assert task.rejected == dead_count > 0

    @pytest.mark.parametrize(
        "text, word, mode, in_lattice",
        [
            ("generators: a\n", "aa", WORDS_MODE, lambda v: v[0] % 2 == 0),
            ("generators: a\n", "aaaaa", WORDS_MODE, lambda v: v[0] % 5 == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\n", "abAB", WORDS_MODE,
             lambda v: v[0] % 2 == 0 and v[1] % 2 == 0),
            ("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n", "a", LETTERS_MODE,
             lambda v: v[1] % 2 == 0),
            # A = Z x Z/2, from b and c; the letter a is trivial in A.
            ("generators: a b c\nrelator: a\nrelator: cc\n", "bcBC", LETTERS_MODE,
             lambda v: v[1] == 0 and v[2] % 2 == 0),
        ],
        ids=["z-a2", "z-a5", "dinf-abAB", "d4-letters", "zz2-letters"],
    )
    def test_matches_every_cell(self, text, word, mode, in_lattice):
        # Random sequences of (table, images), with repeats, one-element
        # changes and table switches, against all r^2 cells and the coverage
        # words checked one by one.
        p = parse_presentation(text)
        k = p.alphabet.k
        check = FinitenessTask(extend(p, parse_word(word, p.alphabet)), mode=mode)._abelian
        gens = [bytes([2 * g]) for g in range(k)] if mode == WORDS_MODE else []
        if mode == WORDS_MODE:
            choices = [word_at_index(n, p.alphabet) for n in range(1, count_words_up_to(2, k))]
        else:
            choices = [bytes([2 * g]) for g in range(k)]
        first = 1 if mode == WORDS_MODE else 0  # the identity's image is pinned in words mode
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
            ) and all(any(in_lattice(vector(concat(gen, invert(image)))) for image in images) for gen in gens)

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
        # G1 = F2/<<a>> is Z, whose abelianization kills every candidate.
        task = FinitenessTask(extend(parse_presentation("generators: a b\n"), w("a")))
        for _ in range(20_000):
            assert task.step() is None
        assert task.admitted > 2000
        assert task.parked_count == 0
        assert task.rejected == task.admitted

    def test_family_source_prunes(self):
        # The inline prefix and the base words span the exponent-sum lattice
        # of every relator t.w.t^-1 the family will produce, so admission
        # prunes as on an inline source.
        task = FinitenessTask(extend(parse_presentation("generators: a b\nfamily: powers aa bb\n"), w("abab")))
        cert = None
        while cert is None:
            cert = task.step()
        assert task.rejected > 0
        assert task.parked_count + task.rejected == task.admitted
        assert verify_finiteness(cert, task.extended)[0]

    def test_stream_source_parks_every_admission(self, tmp_path):
        # A relator still to come from a stream could make any goal trivial:
        # no rejection.
        script = tmp_path / "dinf.py"
        script.write_text('print("aa")\nprint("bb")\n')
        p = parse_presentation(f"generators: a b\nstream: {sys.executable} {script}\n")
        try:
            task = FinitenessTask(extend(p, w("abab")))
            cert = None
            while cert is None:
                cert = task.step()
            assert task.admitted > 1000
            assert task.parked_count == task.admitted
            assert task.rejected == 0
            assert verify_finiteness(cert, task.extended)[0]
        finally:
            p.close()
