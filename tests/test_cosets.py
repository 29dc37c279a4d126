"""The words-mode finiteness arm: proof-carrying coset enumeration."""

import hashlib
import math
import random
import sys

import pytest

from helpers import closed_run_reference, open_cosets, prove_finite
from wordrace import cosets, proofs
from wordrace.certcheck import (
    parse_certificate,
    serialize_finiteness,
    verify_finiteness,
    verify_finiteness_document,
)
from wordrace.cosets import COSET_BASE, JOIN_STEPS, CosetEnumeration
from wordrace.derivation import EqualityTask
from wordrace.oracle import is_identity_dinf, is_identity_z
from wordrace.presentation import Presentation, RelatorSource, extend, parse_presentation
from wordrace.quotient import LETTERS_MODE, WORDS_MODE, FinitenessTask
from wordrace.scheduler import EXHAUSTED, NOT_EQUAL, Budget, solve
from wordrace.words import alphabet, parse_word, reduce_word

Z = "generators: a\n"
DINF = "generators: a b\nrelator: aa\nrelator: bb\n"


def coset_limit(steps):
    return COSET_BASE + math.isqrt(steps)


def round_trip(text, x, cert):
    """serialize -> parse_certificate -> verify_finiteness_document over a fresh parse."""
    p = parse_presentation(text)
    doc_text = serialize_finiteness(cert, extend(p, x))
    doc = parse_certificate(doc_text, p.alphabet)
    fresh = parse_presentation(text)
    ok, why = verify_finiteness_document(doc, extend(fresh, doc.target))
    assert ok, why
    assert serialize_finiteness(doc.certificate, extend(fresh, doc.target)) == doc_text


def test_coset_count_stays_under_the_limit():
    # G1 = F2/<<a>> = Z never closes: the table grows only as the limit
    # lets it, to under a thousand cosets after 500k steps.
    p = parse_presentation("generators: a b\n")
    task = FinitenessTask(extend(p, parse_word("a", p.alphabet)))
    for n in range(1, 500_001):
        assert task.step() is None
        if n % 10_000 == 0:
            assert len(task._table) <= coset_limit(n), n
    assert len(task._table) == coset_limit(500_000) < 1_000
    assert task.admitted == 0


def test_the_coset_limit_cuts_the_path_of_x():
    # <a, b | aa> with X = (ab)^200: the equality arm defines one coset of
    # X's path per step, until at step 272 the live cosets reach the limit
    # 256 + isqrt(272) with 271 letters traced.  The path is not taken up
    # again: the enumeration goes on to scan the relator.
    p = parse_presentation("generators: a b\nrelator: aa\n")
    task = EqualityTask(p, parse_word("ab" * 200, p.alphabet))
    for n in range(1, 301):
        assert task.step() is None
        assert task.live <= coset_limit(n)
        if n == 272:
            assert task.live == coset_limit(n) and task._at == (271, 271)
    assert task._at == (271, 271)


@pytest.mark.parametrize(
    "text, word, order",
    [
        (Z, "aaaaaaa", 7),
        (Z, "AAAAAAA", 7),
        (Z, "aaaaaaaa", 8),
        (Z, "AAAAAAAA", 8),
        (DINF, "ababab", 6),
        (DINF, "abababab", 8),
        (DINF, "abaBAB", 6),
        (DINF, "abABabAB", 8),
    ],
)
def test_reach_queries_are_decided(text, word, order):
    # These exhausted 10^6 steps while the arm searched (table, tau) pairs blind.
    p = parse_presentation(text)
    x = parse_word(word, p.alphabet)
    out = solve(p, x, Budget())
    assert out.verdict == NOT_EQUAL
    assert not (is_identity_z(x) if text == Z else is_identity_dinf(x))
    assert out.certificate.table.order == order
    round_trip(text, x, out.certificate)


def test_order_above_the_cap_emits_nothing():
    p = parse_presentation(Z)
    x = parse_word("a" * 9, p.alphabet)
    out = solve(p, x, Budget())
    assert out.verdict == EXHAUSTED
    assert out.steps_equal_arm + out.steps_finite_arm == 1_000_000
    out = solve(p, x, Budget(), max_table_order=9)
    assert out.verdict == NOT_EQUAL
    assert out.certificate.table.order == 9
    round_trip(Z, x, out.certificate)


@pytest.mark.parametrize(
    "text, word, order",
    [
        ("generators: a b\nrelator: aa\nrelator: bbb\n", "abababab", 24),  # S4
        ("generators: a b\nrelator: aa\nrelator: bbb\n", "ababababab", 60),  # A5
        ("generators: a\nrelator: aaaaaaa\n", "aa", 1),
        (DINF, "aaa", 2),
        ("generators: a b c\nrelator: Cacbab\nrelator: Caaccb\n", "acBBB", 6),
    ],
    ids=["s4", "a5", "z7-aa", "dinf-aaa", "z6"],
)
def test_coincidences_and_unshortened_edges(text, word, order):
    # The first two close only through coincidences.  In the next two the
    # relators repeat the loop a.a^-1 at every coset, so no relator cycle
    # settles it and its proof is the enumeration's own.  The last needs
    # enumeration proofs of entries for inverse letters, which are made
    # when read.
    p = parse_presentation(text)
    extended = extend(p, parse_word(word, p.alphabet))
    cert = prove_finite(extended, 10_000, max_table_order=order)
    assert cert is not None
    assert cert.table.order == order
    ok, why = verify_finiteness(cert, extended)
    assert ok, why


def test_long_enumeration_proofs_are_not_written_out(monkeypatch):
    # Dinf/aaa closes at order 2 but needs the enumeration's own proof of
    # the loop a; with no room for it, the closure emits nothing.
    extended = extend(parse_presentation(DINF), parse_word("aaa", parse_presentation(DINF).alphabet))
    monkeypatch.setattr(proofs, "MAX_RAW_FACTORS", 0)
    task = FinitenessTask(extended)
    for _ in range(2_000):
        assert task.step() is None
    assert task.live == 2
    # Here the relators never settle the loops of the trivial group it
    # closes on, and their enumeration proofs run to millions of factors.
    p = parse_presentation("generators: a b c\nrelator: babcc\nfamily: powers CbcBCbac\n")
    task = FinitenessTask(extend(p, parse_word("C", p.alphabet)))
    for _ in range(20_000):
        assert task.step() is None
    assert task.live == 1


def test_family_relators_join_on_schedule():
    # aa and bb are the family's first two relators: G1 = <a, b | abab> is
    # infinite until bb joins after 2 * JOIN_STEPS steps; then it closes as
    # the Klein group.
    text = "generators: a b\nfamily: powers aa bb\n"
    p = parse_presentation(text)
    extended = extend(p, parse_word("abab", p.alphabet))
    task = FinitenessTask(extended)
    cert = None
    while cert is None:
        cert = task.step()
    assert 2 * JOIN_STEPS < task.steps_taken < 3 * JOIN_STEPS
    assert cert.table.order == 4
    assert p.source.pulled_count == 2
    round_trip(text, parse_word("abab", p.alphabet), cert)


def test_closed_table_above_the_cap_waits_for_a_relator():
    # <a | a^8> closes at order 8, above a cap of 4; once aaaa joins, it
    # collapses to Z/4.
    p = parse_presentation("generators: a\nfamily: powers aaaa\n")
    extended = extend(p, parse_word("a" * 8, p.alphabet))
    task = FinitenessTask(extended, max_table_order=4)
    for _ in range(JOIN_STEPS - 1):
        assert task.step() is None
    assert task.live == 8
    cert = None
    while cert is None:
        cert = task.step()
    assert cert.table.order == 4
    assert verify_finiteness(cert, extended)[0]


def test_stream_relators_join(tmp_path):
    script = tmp_path / "dinf.py"
    script.write_text('print("aa")\nprint("bb")\n')
    text = f"generators: a b\nstream: {sys.executable} {script}\n"
    p = parse_presentation(text)
    try:
        x = parse_word("abAB", p.alphabet)
        out = solve(p, x, Budget())
        assert out.verdict == NOT_EQUAL
        assert out.certificate.table.order == 4
        assert verify_finiteness(out.certificate, extend(p, x))[0]
    finally:
        p.close()


def test_identical_runs_give_identical_certificates():
    def run():
        p = parse_presentation(DINF)
        x = parse_word("abABabAB", p.alphabet)
        return serialize_finiteness(solve(p, x, Budget()).certificate, extend(p, x))

    assert run() == run()


# -- idle steps: counted, not taken, with the enumeration unchanged -------


def random_presentation(rng, families=False):
    """Up to three inline relators of length 1-6 over two or three generators, and a word of length 1-4.

    With ``families`` three in ten also get a ``family: powers`` of one
    base word of length 1-4, whose relators join the enumeration.
    """
    gens = rng.choice(["a b", "a b c"]).split()
    letters = gens + [g.upper() for g in gens]
    rels = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(0, 3))]
    text = f"generators: {' '.join(gens)}\n" + "".join(f"relator: {r}\n" for r in rels)
    if families and rng.random() < 0.3:
        text += f"family: powers {''.join(rng.choice(letters) for _ in range(rng.randint(1, 4)))}\n"
    return text, "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))


def random_extended(rng, families=False):
    """A random presentation extended by its word, drawn until the word is not trivial."""
    while True:
        text, word = random_presentation(rng, families)
        p = parse_presentation(text)
        x = parse_word(word, p.alphabet)
        if reduce_word(x):
            return text, word, extend(p, x)


def enumeration_digest(text, word, steps, every, mode=WORDS_MODE, max_table_order=8, skip=False, check=None):
    """SHA-256 of a finiteness arm's step results, and every ``every`` steps of its enumeration's state.

    The state is the live rows' entries and ``scanned``, the lookahead
    cursor, the live count and ``spent``.  With ``skip`` the idle steps are
    counted by ``skip`` and hashed as the Nones they stand for.  ``check``,
    if given, is called with the task after every step or skip.
    """
    p = parse_presentation(text)
    task = FinitenessTask(extend(p, parse_word(word, p.alphabet)), mode=mode, max_table_order=max_table_order)
    e = task
    h = hashlib.sha256()
    s = 0
    while s < steps:
        if skip and (k := min(task.idle, steps - s, every - s % every)):
            task.skip(k)
            h.update(b"-" * k)
            s += k
        else:
            s += 1
            out = task.step()
            h.update(b"-" if out is None else repr((out.table, out.images, out.coverage)).encode())
            if out is not None:
                break
        if check:
            check(task)
        if s % every == 0:
            live = [c for c in range(len(e._parent)) if e._parent[c] == c]
            h.update(repr([(c, e._table[c][: e.k2], e._scanned[c]) for c in live]).encode())
            h.update(repr((s, e._look, e.live, task.spent)).encode())
    return h.hexdigest()


# Captured before idle steps were counted instead of taken, by stepping every step.
STATE_GOLDEN = [
    pytest.param("generators: a b\n", "a", 200_000, 2000, WORDS_MODE, 8, COSET_BASE,
                 "2384c91d2ea244a7b4a768c6ad5df922c510fea8facff0bfa62518eecfaab967", id="f2-a"),
    pytest.param(DINF, "bbbb", 20_000, 500, WORDS_MODE, 8, COSET_BASE,
                 "4e55c0dbdc4e81e9ecef15d990aa7517180c9f9c18dd8010ba0322ff59cbc37a", id="dinf-bbbb"),
    # Ab joins at step 1,000, as an idle window ends: the cursor's jump over
    # the window counts the relators from before the join.
    pytest.param("generators: a b\nfamily: powers Ab\n", "A", 20_000, 250, WORDS_MODE, 8, COSET_BASE,
                 "4e283f1d656f79d4a1d9a2e83f979a67b1a74139bbf41d85dbc63345c702473d", id="powers-Ab-A"),
    pytest.param("generators: a b\nfamily: powers Ab\n", "A", 20_000, 250, WORDS_MODE, 0, COSET_BASE,
                 "14b3ffc8afa72fc0a5e012c649e54d98261fdbb6eb188356d616d62f8234f24b", id="powers-Ab-A-cap0"),
    pytest.param("generators: a b\nfamily: powers abAB\n", "a", 40_000, 500, WORDS_MODE, 8, COSET_BASE,
                 "0b666cec517532f95b40852196db11dfbe22597afe39b5e10f4742df29e0fc21", id="powers-abAB-a"),
    pytest.param(Z, "aaa", 3_000, 100, LETTERS_MODE, 8, COSET_BASE,
                 "60cc3f65ee0a2d8a3bf60044d3774d1bf793087f009959c71b7637d4dcbc0b4e", id="z-aaa-letters"),
    # Here idle runs reach the last slot, where the cursor wraps to slot 0.
    pytest.param("generators: a b\nfamily: powers b\n", "BAb", 3_000, 10, WORDS_MODE, 8, 8,
                 "840e99eb90b1afd104c447d42080e8026bc6bd678f6660fe358ba18f779331a5", id="powers-b-BAb-wrap"),
]


@pytest.fixture
def closed_runs(monkeypatch):
    """Checks every ``_closed_run`` call against a scan of every slot; the list of calls made."""
    closed_run = CosetEnumeration._closed_run
    calls = []

    def checked(e, d, n):
        out = closed_run(e, d, n)
        assert out == closed_run_reference(e, d, n), (e.extended, e.steps_taken, d, n)
        calls.append((d, n))
        return out

    monkeypatch.setattr(CosetEnumeration, "_closed_run", checked)
    return calls


@pytest.mark.parametrize("skip", [False, True], ids=["stepped", "skipped"])
@pytest.mark.parametrize("text, word, steps, every, mode, cap, base, digest", STATE_GOLDEN)
def test_enumeration_state_unchanged(monkeypatch, closed_runs, text, word, steps, every, mode, cap, base, digest, skip):
    monkeypatch.setattr(cosets, "COSET_BASE", base)
    assert enumeration_digest(text, word, steps, every, mode, cap, skip) == digest


@pytest.mark.parametrize("skip", [False, True], ids=["stepped", "skipped"])
@pytest.mark.parametrize(
    "base, seed, families, digest",
    [
        (12, 15, False, "3d6dc252c97025c7b4df9212a09117b09b7c809d5d79d9878f9737d3a4c22f7d"),
        (8, 21, True, "2e0df5486547a82f1edd3f2a08b196b4d4b706eeb1d15c5261c86a9f362414c1"),
    ],
    ids=["inline", "families"],
)
def test_enumeration_state_unchanged_on_random_presentations(monkeypatch, closed_runs, base, seed, families, digest, skip):
    # A small coset limit keeps these tables full, with coincidences, and
    # family relators join full tables.  Every idle window ends where a scan
    # of every slot says it does, and the open list, which that search
    # reads, is a recount's after every step, coincidences included.  A full
    # table has no free slot and every slot live, as the lookahead cursor
    # and the idle windows assume.
    monkeypatch.setattr(cosets, "COSET_BASE", base)

    def check_open(e):
        assert e._open == open_cosets(e), (e.extended, e.steps_taken)
        if e.live >= e._limit:
            assert not e._free and e.live == len(e._parent), (e.extended, e.steps_taken)

    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(40):
        text, word, _ = random_extended(rng, families)
        h.update(enumeration_digest(text, word, 3000, 50, skip=skip, check=check_open).encode())
    assert h.hexdigest() == digest
    assert len(closed_runs) > 1000


@pytest.mark.parametrize("base, seed, families", [(12, 15, False), (8, 21, True)], ids=["inline", "families"])
def test_representatives_are_built_reduced(monkeypatch, base, seed, families):
    # proofs._rep_word spells a representative chain without reducing it.
    # c.x is defined only while it is undefined, and a live coset defined as
    # p.y has c.y^-1 defined, a coincidence restoring that entry before it
    # returns, so no chain ends in a letter and its inverse.  Checked after
    # every step of the random presentations above; a chain never changes,
    # so each is spelled once, when it first appears on a live coset.
    monkeypatch.setattr(cosets, "COSET_BASE", base)
    rng = random.Random(seed)
    spelled = 0
    for _ in range(40):
        _, _, extended = random_extended(rng, families)
        e = CosetEnumeration(extended)
        seen = {}  # slot -> the chain spelled there
        for _ in range(3000):
            e.step()
            for c, rep in enumerate(e._rep):
                if seen.get(c) is not rep and e._parent[c] == c:
                    seen[c] = rep
                    w = proofs._rep_word(rep)
                    assert reduce_word(w) == w, (e.steps_taken, c)
                    spelled += 1
    assert spelled > 1500


def traces_closed(table, word, d):
    e = d
    for y in word:
        e = table[e][y]
        if e < 0:
            return False
    return e == d


def test_scanned_relators_trace_closed(monkeypatch):
    # The fact idle steps rest on: once n < scanned[d], relator n traces
    # closed at the live coset d, and it stays closed through every later
    # deduction, join and coincidence once processed.  While a coincidence
    # moves dead rows, one step each, entries are missing for a while.
    monkeypatch.setattr(cosets, "COSET_BASE", 12)
    rng = random.Random(1515)
    checked = 0
    for _ in range(60):
        _, _, extended = random_extended(rng)
        e = CosetEnumeration(extended)
        for target in sorted(rng.sample(range(1, 3000), 15)):
            while e.steps_taken < target or any(e._parent[g] not in (g, -1) for g in range(len(e._parent))):
                if e.idle and e.steps_taken < target and rng.random() < 0.5:
                    e.skip(min(e.idle, target - e.steps_taken))
                else:
                    e.step()
            for d in range(len(e._parent)):
                if e._parent[d] == d:
                    for n in range(e._scanned[d]):
                        assert traces_closed(e._table, e._rels[n][1], d), (extended, e.steps_taken, d, n)
                        checked += 1
    assert checked > 20_000


def test_only_idle_steps_can_be_skipped():
    p = parse_presentation("generators: a b\n")
    task = FinitenessTask(extend(p, parse_word("a", p.alphabet)))
    while not task.idle:
        task.step()
    k, steps = task.idle, task.steps_taken
    for wrong in (k + 1, -1):
        with pytest.raises(ValueError):
            task.skip(wrong)
    task.skip(k)
    assert task.steps_taken == steps + k and task.idle == 0


def test_bare_enumeration_without_relators_is_spent_at_once():
    # F2 has no relator and none to come: nothing is ever scanned.
    e = CosetEnumeration(parse_presentation("generators: a b\n"))
    assert e.step() is None
    assert e.spent and e.steps_taken == 1 and e.live == 1


def test_bare_enumeration_waits_for_its_first_relator():
    # aa, the family's first relator, joins at step JOIN_STEPS; until then
    # every step is idle, and after it the enumeration defines cosets.
    e = CosetEnumeration(parse_presentation("generators: a b\nfamily: powers aa\n"))
    joined = None
    for _ in range(5 * JOIN_STEPS):
        assert e.step() is None
        assert not e.spent
        if joined is None and e._rels:
            joined = e.steps_taken
    assert joined == JOIN_STEPS
    assert e.live > 1
    # Past the first join the clock doubles once per relator, empty or not:
    # aa joins at JOIN_STEPS, the empty relator takes the 2 * JOIN_STEPS
    # slot without joining, and bb joins at 4 * JOIN_STEPS.
    aa, bb = parse_word("aa", alphabet("ab")), parse_word("bb", alphabet("ab"))
    e = CosetEnumeration(Presentation(alphabet("ab"), RelatorSource([], [aa, b"", bb])))
    joins = {}
    for _ in range(5 * JOIN_STEPS):
        e.step()
        if len(e._rels) > len(joins):
            joins[e.steps_taken] = e._rels[-1]
    assert joins == {JOIN_STEPS: (0, aa), 4 * JOIN_STEPS: (2, bb)}


def test_closing_step_returns_true_once():
    # <a | a, aaa> is trivial: the table closes at one coset, and the step
    # that finds it closed returns True, not a certificate.  The next step
    # starts the idle wait for a join; the source is inline, so the join
    # finds it exhausted and the enumeration is spent from then on.
    p = parse_presentation("generators: a\nrelator: aaa\n")
    e = CosetEnumeration(extend(p, parse_word("a", p.alphabet)))
    while (out := e.step()) is None and e.steps_taken < JOIN_STEPS:
        pass
    assert out is True and e.live == 1
    assert e.step() is None and e.steps_taken + e.idle == JOIN_STEPS - 1 and not e.spent
    while e.steps_taken < 2 * JOIN_STEPS:
        assert e.step() is None
    assert e.spent
