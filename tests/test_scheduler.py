"""The two-arm race: verdicts, fairness, determinism, spent arms."""

import itertools
import math
import random
import shlex
import sys
from fractions import Fraction

import pytest

from helpers import PID_SCRIPT, race_reference, stream_presentation
from wordrace import cosets, scheduler
from wordrace.certcheck import verify_equality, verify_finiteness
from wordrace.derivation import EqualityTask
from wordrace.oracle import corpus_groups, is_identity_dinf, is_identity_z
from wordrace.presentation import Presentation, RelatorSource, extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, WORDS_MODE, FinitenessTask
from wordrace.scheduler import EQUAL, EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.words import alphabet, count_words_up_to, parse_word, word_at_index

Z = "generators: a\n"
DINF = "generators: a b\nrelator: aa\nrelator: bb\n"


def test_empty_word_short_circuits():
    p = parse_presentation(Z)
    out = solve(p, b"", Budget(10))
    assert out.verdict == EQUAL
    assert out.steps_equal_arm == 0 and out.steps_finite_arm == 0
    assert out.certificate.factors == ()


def test_empty_word_does_not_touch_relators():
    # A stream that can never be spawned must not be consulted.
    p = parse_presentation("generators: a\nstream: /nonexistent/binary\n")
    out = solve(p, parse_word("aA", p.alphabet), Budget(10))
    assert out.verdict == EQUAL


def test_z_cubed_not_equal():
    p = parse_presentation(Z)
    x = parse_word("aaa", p.alphabet)
    out = solve(p, x, Budget(1_000_000))
    assert out.verdict == NOT_EQUAL
    assert out.certificate.table.order == 3
    ok, why = verify_finiteness(out.certificate, extend(p, x))
    assert ok, why


def test_dinf_relator_equal():
    p = parse_presentation(DINF)
    x = parse_word("aa", p.alphabet)
    out = solve(p, x, Budget(1_000_000))
    assert out.verdict == EQUAL
    ok, why = verify_equality(out.certificate, p, x)
    assert ok, why


def test_free_group_exhausts():
    p = parse_presentation("generators: a b\n")
    out = solve(p, parse_word("a", p.alphabet), Budget(10_000))
    assert out.verdict == EXHAUSTED
    assert out.certificate is None
    assert out.steps_equal_arm + out.steps_finite_arm == 10_000


@pytest.mark.parametrize("quantum", [1, 7, 64])
def test_fairness_within_one_quantum(quantum):
    p = parse_presentation(DINF)
    for text in ("a", "ab", "aa", "abab"):
        out = solve(p, parse_word(text, p.alphabet), Budget(2_000_000, quantum))
        assert abs(out.steps_equal_arm - out.steps_finite_arm) <= quantum, text


def test_fairness_at_exhaustion():
    p = parse_presentation("generators: a b\n")
    out = solve(p, parse_word("a", p.alphabet), Budget(9_999, quantum=4))
    assert abs(out.steps_equal_arm - out.steps_finite_arm) <= 4


def test_determinism():
    def run():
        p = parse_presentation(DINF)
        return solve(p, parse_word("abab", p.alphabet), Budget(2_000_000))

    a, b = run(), run()
    assert a == b


def test_oracle_agreement_small_corpus():
    p = parse_presentation(Z)
    for n in range(-3, 4):
        text = ("a" if n > 0 else "A") * abs(n)
        out = solve(p, parse_word(text, p.alphabet), Budget(1_000_000))
        assert (out.verdict == EQUAL) == is_identity_z(parse_word(text, p.alphabet))

    d = parse_presentation(DINF)
    for text in ("", "a", "b", "ab", "aa", "abba", "aB"):
        w = parse_word(text, d.alphabet)
        out = solve(d, w, Budget(2_000_000))
        assert (out.verdict == EQUAL) == is_identity_dinf(w), text


def test_rejects_extended_presentation():
    p = extend(parse_presentation(Z), parse_word("a", parse_presentation(Z).alphabet))
    with pytest.raises(ValueError):
        solve(p, b"", Budget(10))


def test_rejects_foreign_word():
    p = parse_presentation(Z)
    with pytest.raises(ValueError):
        solve(p, parse_word("ab", parse_presentation(DINF).alphabet), Budget(10))


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(quantum=0)
    with pytest.raises(ValueError):
        Budget(-1)
    assert Budget(10, sys.maxsize + 1).quantum == sys.maxsize + 1  # any int >= 1
    # Non-integers would be taken as turn counts, or fail only deep inside solve.
    for bad in ((10.5,), (10.0,), (100, 2.0), ("10",), (True,), (False,), (10, True)):
        with pytest.raises(ValueError):
            Budget(*bad)


def test_max_table_order_validation():
    # A cap below 1 would hold back every table and spend the budget; a
    # non-integer one would compare as a cap all the same.
    p = parse_presentation(DINF)
    x = parse_word("abab", p.alphabet)
    for bad in (0, -3, 4.5, 8.0, "8", None, True, False):
        for word in (x, b""):
            with pytest.raises(ValueError, match="max_table_order"):
                solve(p, word, Budget(10), max_table_order=bad)
    assert solve(p, x, Budget(1000), max_table_order=4).verdict == NOT_EQUAL


def test_exhausted_split_follows_the_turn_cycle():
    # Turns run q steps of the equality arm, then q of the finiteness arm,
    # and so on, cut after B steps: with B = 2qf + m the equality arm has
    # taken fq + min(m, q) steps and the finiteness arm the rest.
    p = parse_presentation("generators: a b\n")
    x = parse_word("a", p.alphabet)
    for quantum in range(1, 5):
        for total in range(26):
            f, m = divmod(total, 2 * quantum)
            out = solve(p, x, Budget(total, quantum))
            assert out.verdict == EXHAUSTED
            assert (out.steps_equal_arm, out.steps_finite_arm) == (
                f * quantum + min(m, quantum),
                f * quantum + max(0, m - quantum),
            ), (total, quantum)


def test_huge_quantum_costs_nothing_up_front():
    p = parse_presentation("generators: a b\n")
    out = solve(p, parse_word("a", p.alphabet), Budget(10, quantum=10**12))
    assert out.verdict == EXHAUSTED
    assert (out.steps_equal_arm, out.steps_finite_arm) == (10, 0)


# -- spent arms: retired from the race with the outcome unchanged ----------

F2 = "generators: a b\n"
TRIVIAL_RELATORS = "generators: a b\nrelator: aA\nrelator: bB\n"
POWERS = "generators: a b\nfamily: powers aa bb\n"
Z10 = "generators: a\nrelator: aaaaaaaaaa\n"
Z3 = "generators: a\nrelator: aaa\n"
B_TRIVIAL = "generators: a b\nrelator: b\n"
STREAM_DINF = f"generators: a b\nstream: {shlex.quote(sys.executable)} -c \"print('aa'); print('bb')\"\n"

# (presentation, word, tau mode, whether a verdict exists), at the default order cap 8.
# "Retired" is by the abelianization, before the first turn.
RACES = {
    "f2-a": (F2, "a", WORDS_MODE, False),  # both arms are retired
    "trivial-relators-a": (TRIVIAL_RELATORS, "a", WORDS_MODE, False),  # both arms are retired
    "z-a9-cap8": (Z, "a" * 9, WORDS_MODE, False),  # the equality arm is retired, the finiteness arm spent
    "dinf-ab5": (DINF, "ab" * 5, WORDS_MODE, False),  # the equality arm is retired, the finiteness arm spent
    "dinf-abab": (DINF, "abab", WORDS_MODE, True),
    "dinf-aa": (DINF, "aa", WORDS_MODE, True),
    "powers-abab": (POWERS, "abab", WORDS_MODE, True),  # never spent
    "z-aaa-letters": (Z, "aaa", LETTERS_MODE, False),  # the equality arm is retired
    "z-a8": (Z, "a" * 8, WORDS_MODE, True),  # the finiteness arm wins alone at its step 17
    "z10-a40": (Z10, "a" * 40, WORDS_MODE, True),  # the equality arm wins at its step 70
    # The equality arm wins at its step 4, the finiteness arm would at its step 7.
    "z3-AAA": (Z3, "AAA", WORDS_MODE, True),
    "dinf-aba": (DINF, "aba", WORDS_MODE, True),  # only the equality arm is retired
    # Only the finiteness arm is retired, as G1 = <a, b | b, abA> maps onto Z; the equality arm wins.
    "b-trivial-abA": (B_TRIVIAL, "abA", WORDS_MODE, True),
    "powers-ab": (POWERS, "ab", WORDS_MODE, True),  # the equality arm is retired, from the base words
    "stream-dinf-aba": (STREAM_DINF, "aba", WORDS_MODE, True),  # a stream's lattice is unknown: none is retired
}

# Steps (r + 1)^2 at which the coset limit grows, with the F2 table full.
GROWTH_STEPS = (31**2, 40**2)


def growth_budget(steps, quantum):
    """The least budget that leaves the finiteness arm ``steps`` steps.

    With a quantum of 10^12 that is more turns than the reference can take,
    so there the budget is ``steps`` turns, all the equality arm's.
    """
    if quantum == 10**12:
        return steps
    rounds, rest = divmod(steps, quantum)
    return 2 * quantum * rounds + (quantum + rest if rest else 0)


# Budgets either side of 2^k - 1 turns up to 2^11, a spread of sizes that
# end inside a quantum, at its edge and past it.  The test adds the
# smallest budgets, one of about 10^4 that ends inside a quantum for every
# quantum but 1, one inside the second quantum, and one turn before, at and
# after each turn at which the strict alternation finds an arm spent.
CHECK_SIDES = sorted({b for k in range(1, 12) for b in (2**k - 2, 2**k)})


def spending_turns(p, x, quantum, mode, turns):
    """The turns, within the first ``turns`` of the strict alternation, after which an arm is first spent."""
    arms = (EqualityTask(p, x), FinitenessTask(extend(p, x), mode=mode))
    found = []
    for t in range(turns):
        arm = arms[t // quantum % 2]
        if arm.step() is not None:
            break
        found += [t + 1] * (sum(a.spent for a in arms) - len(found))
    return found


@pytest.mark.parametrize("quantum", [1, 2, 3, 7, 1500, 10**12])
@pytest.mark.parametrize("race", list(RACES), ids=list(RACES))
def test_solve_equals_the_strict_alternation(race, quantum):
    text, word, mode, decided = RACES[race]
    p = parse_presentation(text)
    x = parse_word(word, p.alphabet)

    def check(budget):
        expected = race_reference(p, x, budget, tau_mode=mode)
        assert solve(p, x, budget, tau_mode=mode) == expected, budget
        return expected

    totals = [0, 1, *CHECK_SIDES, 10_007]
    totals += [t + d for t in spending_turns(p, x, quantum, mode, 10_007) for d in (-1, 0, 1)]
    if race == "f2-a":
        totals += [growth_budget(s, quantum) for g in GROWTH_STEPS for s in (g - 1, g, g + 1)]
    if quantum < 10**12:
        totals.append(5 * quantum // 2)
        if decided:  # with a huge quantum the equality arm would first run 10^12 steps
            verdict = check(Budget(None, quantum))
            turns = verdict.steps_equal_arm + verdict.steps_finite_arm
            totals += [turns - 1, turns]  # the last budget without the verdict, the first with it
    for total in totals:
        check(Budget(total, quantum))


def equality_arm(text, word):
    p = parse_presentation(text)
    return EqualityTask(p, parse_word(word, p.alphabet))


def finiteness_arm(text, word, max_table_order=8):
    p = parse_presentation(text)
    return FinitenessTask(extend(p, parse_word(word, p.alphabet)), max_table_order=max_table_order)


def test_equality_arm_is_spent_once_its_first_step_finds_no_relator():
    arm = equality_arm(F2, "a")
    assert not arm.spent
    assert arm.step() is None  # the source is exhausted, with no relator to scan
    assert arm.spent


def test_equality_arm_with_trivial_relators_is_spent_at_its_first_step():
    arm = equality_arm(TRIVIAL_RELATORS, "a")  # aA and bB reduce to the empty word
    assert not arm.spent
    assert arm.step() is None
    assert arm.spent


@pytest.mark.parametrize("text", [DINF, POWERS], ids=["dinf", "powers"])
def test_equality_arm_with_relators_is_never_spent(text):
    arm = equality_arm(text, "ab" * 5)
    for _ in range(5000):
        assert arm.step() is None
        assert not arm.spent


def test_coset_arm_is_spent_at_the_first_join_check():
    # <a | a^9> closes with 9 cosets, above the cap, and no relator can join.
    arm = finiteness_arm(Z, "a" * 9)
    for _ in range(999):
        assert arm.step() is None
        assert not arm.spent
    assert arm.step() is None
    assert arm.spent


def test_coset_arm_is_not_spent_while_it_can_close():
    arm = finiteness_arm(DINF, "ab" * 5, max_table_order=10)
    while (cert := arm.step()) is None:
        assert not arm.spent
    assert cert.table.order == 10


def test_coset_arm_over_a_family_is_never_spent():
    arm = finiteness_arm(POWERS, "ab" * 5, max_table_order=1)  # closes at order 10 on the prefix
    for _ in range(5000):
        assert arm.step() is None
        assert not arm.spent


def test_letters_mode_arm_is_spent_without_a_letter_map():
    # <a | a^3> closes at order 3, but no generator is trivial, so no letter
    # map covers the identity: spent at the first join check.  D4 with X = a
    # is Z/2 over {a, b} and wins at once.
    p = parse_presentation(Z)
    arm = FinitenessTask(extend(p, parse_word("aaa", p.alphabet)), mode=LETTERS_MODE)
    for _ in range(999):
        assert arm.step() is None
        assert not arm.spent
    assert arm.step() is None
    assert arm.spent
    p = parse_presentation("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n")
    arm = FinitenessTask(extend(p, parse_word("a", p.alphabet)), mode=LETTERS_MODE)
    for _ in range(6):
        assert arm.step() is None
        assert not arm.spent
    assert arm.step().table.order == 2


def test_reading_spent_pulls_nothing(tmp_path):
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, PID_SCRIPT, pid_file, "forever")
    try:
        x = parse_word("ab" * 5, p.alphabet)  # G1 has order 10, above the cap
        arms = (EqualityTask(p, x), FinitenessTask(extend(p, x)))
        assert not any(arm.spent for arm in arms)
        assert [arm.idle for arm in arms] == [0, 0]
        assert not pid_file.exists() and p.pulled_count == 0
        for _ in range(3000):
            for arm in arms:
                arm.step()
        pulled = p.pulled_count
        assert pulled > 0
        assert not any(arm.spent for arm in arms)  # a never-ending stream
        assert all(arm.idle < math.inf for arm in arms)
        assert p.pulled_count == pulled
    finally:
        p.close()


def test_idle_windows_are_counted_not_taken(monkeypatch):
    # F2 with X = a, from a producer, whose lattice is unknown: no arm is
    # retired before the first turn, and once the table is full nearly every
    # finiteness step scans a relator cycle already closed.
    calls = 0
    step = FinitenessTask.step

    def counted(task):
        nonlocal calls
        calls += 1
        return step(task)

    monkeypatch.setattr(FinitenessTask, "step", counted)
    p = Presentation(alphabet("ab"), RelatorSource([], []))
    out = solve(p, parse_word("a", p.alphabet), Budget())
    assert (out.verdict, out.steps_equal_arm, out.steps_finite_arm) == (EXHAUSTED, 500_000, 500_000)
    assert 0 < calls < 10**4


def test_idle_windows_are_skipped_at_scale():
    # The alone phase's loop on F2's finiteness arm with X = a, to 10^8
    # steps: the table fills to COSET_BASE + isqrt(10^8) cosets, and each
    # idle window between the lookahead's open pairs is counted with one skip.
    p = parse_presentation(F2)
    arm = FinitenessTask(extend(p, parse_word("a", p.alphabet)))
    end, calls = 10**8, 0
    while arm.steps_taken < end:
        calls += 1
        assert arm.step() is None
        if arm.idle:
            arm.skip(min(arm.idle, end - arm.steps_taken))
    assert arm.steps_taken == end and not arm.spent
    assert arm.live == len(arm._table) == cosets.COSET_BASE + 10**4
    assert 6 * 10**4 < calls < 7 * 10**4


def test_equality_arm_wins_alone(monkeypatch):
    # G = <a | a^90, a^99> = Z/9 from a source whose relators join after 10
    # and 20 steps, and X = a^9.  G1 = Z/9 closes above the cap with no
    # relator to come, so the finiteness arm is spent at its step 40 and
    # retired there, as the race checks the arm it has just stepped; the
    # equality arm then runs alone and proves X from both relators at its
    # step 102.
    monkeypatch.setattr(cosets, "JOIN_STEPS", 10)
    finite_arm = []

    def capture(*args, **kwargs):
        finite_arm.append(FinitenessTask(*args, **kwargs))
        return finite_arm[-1]

    monkeypatch.setattr(scheduler, "FinitenessTask", capture)
    a = parse_word("a", alphabet("a"))
    p = Presentation(alphabet("a"), RelatorSource([], [a * 90, a * 99]))
    out = solve(p, a * 9, Budget())
    assert (out.verdict, out.steps_equal_arm, out.steps_finite_arm) == (EQUAL, 102, 101)
    (arm2,) = finite_arm
    assert arm2.spent and arm2.steps_taken == 40
    assert sorted(f.relator_index for f in out.certificate.factors) == [0, 1]
    ok, why = verify_equality(out.certificate, p, a * 9)
    assert ok, why


def test_only_idle_steps_of_the_equality_arm_can_be_skipped():
    arm = equality_arm(DINF, "ab")
    with pytest.raises(ValueError):
        arm.skip(1)
    arm = equality_arm(F2, "a")
    for _ in range(3):
        arm.step()
    assert arm.idle == math.inf
    arm.skip(10**15)
    assert arm.steps_taken == 10**15 + 3 and arm.spent


@pytest.mark.parametrize("text, word, budget, max_table_order, steps", [
    # The equality arm is spent first and the finiteness arm runs alone.
    (Z, "a" * 9, Budget(10**15 + 4, 3), 8, (5 * 10**14 + 3, 5 * 10**14 + 1)),
    # Z/4 closes in both arms, above the cap in the second: each is spent at
    # its step 1,000, on consecutive turns.
    ("generators: a\nrelator: aaaa\n", "aa", Budget(10**15), 1, (5 * 10**14, 5 * 10**14)),
], ids=["alone-phase", "spent-on-consecutive-turns"])
def test_both_arms_spent_ends_a_bounded_run_at_once(text, word, budget, max_table_order, steps):
    p = parse_presentation(text)
    out = solve(p, parse_word(word, p.alphabet), budget, max_table_order=max_table_order)
    assert out.verdict == EXHAUSTED
    assert (out.steps_equal_arm, out.steps_finite_arm) == steps


def test_an_arm_wins_alone_under_a_budget_above_maxsize(monkeypatch):
    # The budget leaves the arm that runs alone more steps than one slice of
    # the alone phase can hold.  <a> with X = a^8: the equality arm is spent
    # at once and the finiteness arm closes Z/8 alone at its step 17.
    p = parse_presentation(Z)
    out = solve(p, parse_word("a" * 8, p.alphabet), Budget(10**20))
    assert (out.verdict, out.steps_equal_arm, out.steps_finite_arm) == (NOT_EQUAL, 17, 17)
    # The race of test_equality_arm_wins_alone: the equality arm wins alone.
    monkeypatch.setattr(cosets, "JOIN_STEPS", 10)
    a = parse_word("a", alphabet("a"))
    p = Presentation(alphabet("a"), RelatorSource([], [a * 90, a * 99]))
    out = solve(p, a * 9, Budget(10**20))
    assert (out.verdict, out.steps_equal_arm, out.steps_finite_arm) == (EQUAL, 102, 101)


class Stepped(Exception):
    pass


def test_both_arms_spent_leave_an_unbounded_race_running(monkeypatch):
    # <a> with X = a^9 at the default cap: the equality arm is spent at once
    # and the finiteness arm at its step 1,000.  F2 with X = a: both arms
    # are retired before the first turn.  No arm can win, and with no
    # budget the race steps the finiteness arm for ever, past 10^4 calls.
    calls = 0
    step = FinitenessTask.step

    def counted(task):
        nonlocal calls
        calls += 1
        if calls > 10**4:
            raise Stepped
        return step(task)

    monkeypatch.setattr(FinitenessTask, "step", counted)
    for text, word in ((Z, "a" * 9), (F2, "a")):
        calls = 0
        p = parse_presentation(text)
        with pytest.raises(Stepped):
            solve(p, parse_word(word, p.alphabet), Budget(None))


# -- arms the abelianization retires ----------------------------------------


def test_retired_arms_take_one_step_each(monkeypatch):
    # F2 with X = a: a is outside the lattice L = 0 of F2's relators, and
    # G1 = <a, b | a> maps onto Z, so both arms are retired before the first
    # turn and each takes one step, its first, which returns at once.
    calls = 0
    step = cosets.CosetEnumeration.step

    def counted(task):
        nonlocal calls
        calls += 1
        return step(task)

    monkeypatch.setattr(cosets.CosetEnumeration, "step", counted)
    p = parse_presentation(F2)
    out = solve(p, parse_word("a", p.alphabet), Budget(10**15, 3))
    assert (out.verdict, out.steps_equal_arm, out.steps_finite_arm) == (EXHAUSTED, 5 * 10**14 + 1, 5 * 10**14 - 1)
    assert calls == 2


def test_retired_arm_pulls_nothing(tmp_path):
    # Over the powers family, X = ab retires the equality arm from the base
    # words alone: its one step pulls no relator, where a live arm's first
    # step pulls the first.
    p = parse_presentation(POWERS)
    assert solve(p, parse_word("ab", p.alphabet), Budget(1)).steps_equal_arm == 1
    assert p.pulled_count == 0
    assert solve(p, parse_word("abab", p.alphabet), Budget(1)).steps_equal_arm == 1
    assert p.pulled_count == 1
    # A stream is neither spawned nor read before the first turn.
    pid_file = tmp_path / "pid"
    p = stream_presentation(tmp_path, PID_SCRIPT, pid_file, "forever")
    try:
        assert solve(p, parse_word("aba", p.alphabet), Budget(0)).verdict == EXHAUSTED
        assert not pid_file.exists() and p.pulled_count == 0
    finally:
        p.close()


def in_box_lattice(vectors, radius):
    """The points of the lattice spanned by ``vectors`` reached from 0 in steps of +-each inside the box of ``radius``."""
    steps = {s for v in vectors if any(v) for s in (v, tuple(-e for e in v))}
    origin = (0,) * len(next(iter(vectors)))
    seen, todo = {origin}, [origin]
    while todo:
        u = todo.pop()
        for s in steps:
            w = tuple(a + b for a, b in zip(u, s))
            if w not in seen and max(map(abs, w)) <= radius:
                seen.add(w)
                todo.append(w)
    return seen


def rational_rank(vectors):
    """The rank of ``vectors`` over Q, by Gaussian elimination in fractions."""
    rows, rank = [[Fraction(e) for e in v] for v in vectors], 0
    for j in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def word_text(v, names):
    """A word with exponent-sum vector v over the generators ``names``."""
    return "".join((g if e > 0 else g.upper()) * abs(e) for g, e in zip(names, v))


def exponent_sums(text, names):
    return tuple(text.count(g) - text.count(g.upper()) for g in names)


@pytest.mark.parametrize("seed", range(30))
def test_lattice_against_a_closure_and_the_rational_rank(seed):
    # Up to 3 random relators of up to 3 letters over k <= 3 generators.
    # A point of the lattice within the box of radius R = 3 is a sum of
    # steps of norm <= 3 that, by the Steinitz lemma, some order keeps
    # within k * 3 + R of 0 all the way: the closure inside that box finds
    # every such point, and so decides membership exactly.
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    names = "abc"[:k]
    letters = names + names.upper()
    relators = ["".join(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(0, 3))]
    vectors = [exponent_sums(r, names) for r in relators]
    reach = in_box_lattice(vectors or [(0,) * k], 3 * k + 3)
    a = alphabet(names)
    words = tuple(parse_word(r, a) for r in relators)
    box = itertools.product(range(-3, 4), repeat=k)
    for v in box:
        if not any(v):
            continue
        outside, infinite = scheduler._hopeless(words, parse_word(word_text(v, names), a), k)
        assert outside == (v not in reach), (relators, v)
        assert infinite == (rational_rank([*vectors, v]) < k), (relators, v)


@pytest.mark.parametrize("group", corpus_groups(), ids=lambda g: g.name)
def test_a_retired_equality_arm_is_one_the_oracle_finds_not_equal(group):
    # Every reduced word of length <= 6 of the built-in corpus groups; on Z,
    # its own abelianization, the equality arm is retired on every
    # nonidentity word.
    p = parse_presentation(group.presentation_text)
    retired = 0
    for n in range(1, count_words_up_to(6, p.alphabet.k)):
        x = word_at_index(n, p.alphabet)
        outside, infinite = scheduler._hopeless(p.source.lattice, x, p.alphabet.k)
        assert not outside or not group.is_identity(x), x
        assert not infinite  # every group here has an abelianization of rank k
        retired += outside
    if group.name == "Z":
        assert retired == 12


CORPUS_ROWS = [(group, text) for group in corpus_groups() for text in group.words if text]


@pytest.mark.parametrize("group,text", CORPUS_ROWS, ids=[f"{g.name}-{t}" for g, t in CORPUS_ROWS])
def test_each_corpus_row_is_certified_by_the_one_arm_its_oracle_allows(group, text):
    # Each arm stepped alone: on a finite group both can certify an equal
    # word, and the race's verdict would then be whichever comes first.
    p = parse_presentation(group.presentation_text)
    x = parse_word(text, p.alphabet)
    certified = [any(arm.step() is not None for _ in range(2_000)) for arm in (EqualityTask(p, x), FinitenessTask(extend(p, x)))]
    assert certified == [group.is_identity(x), not group.is_identity(x)]
