"""The benchmark's layer tracer still fits the library it patches.

``bench/layers.py`` wraps library functions and methods by name.  A rename
or removal in ``src/`` would otherwise surface only in a traced benchmark
run; here it fails the test suite.
"""

import os
import sys

import pytest

from wordrace import derivation, quotient, tables
from wordrace.presentation import parse_presentation
from wordrace.quotient import LETTERS_MODE
from wordrace.scheduler import NOT_EQUAL, Budget, solve
from wordrace.words import parse_word

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

METRICS = {
    "words.calls", "words.letters", "words.self_s", "words.letters_per_s",
    "derivation.products.equal_arm", "derivation.products.finite_arm", "derivation.stages",
    "derivation.distinct_words", "derivation.distinct_ratio", "derivation.self_s",
    "derivation.products_per_s",
    "quotient.admissions", "quotient.admit_s", "quotient.admissions_per_s", "quotient.derive_s",
    "quotient.goal_words", "quotient.parked_peak",
    "tables.cursor_calls", "tables.max_order_reached",
    "presentation.calls", "presentation.self_s",
    "scheduler.equal_arm_s", "scheduler.finite_arm_s", "scheduler.overhead_s", "scheduler.solve_s",
}


@pytest.fixture
def layers():
    sys.path.insert(0, BENCH)
    try:
        import layers

        yield layers
    finally:
        sys.path.remove(BENCH)
        sys.modules.pop("layers", None)


def test_tracer_installs_and_counts(layers):
    originals = (derivation.ProductStream.next_event, quotient.FinitenessTask.step, quotient.equation_words)
    # Letters mode, whose translation builds its goal words with
    # equation_words.  Both arms are coset enumerations, which the tracer
    # does not count: no Dyck product is assembled, so the product and
    # distinct-word counters read 0, and only the arms' spans show.
    p = parse_presentation("generators: a b\nrelator: aa\nrelator: bb\nrelator: abab\n")
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        for text in ("a", "b"):
            out = solve(p, parse_word(text, p.alphabet), Budget(), tau_mode=LETTERS_MODE)
            assert out.verdict == NOT_EQUAL
            tracer.end_query()
    finally:
        tracer.uninstall()
    assert (derivation.ProductStream.next_event, quotient.FinitenessTask.step, quotient.equation_words) == originals

    metrics = tracer.metrics()
    assert set(metrics) == METRICS
    for name in (
        "quotient.goal_words",
        "presentation.calls",
        "words.calls",
        "scheduler.equal_arm_s",  # the spans on each arm's step
        "scheduler.finite_arm_s",
    ):
        assert metrics[name] > 0, name


@pytest.fixture
def pace():
    sys.path.insert(0, BENCH)
    try:
        import pace

        yield pace
    finally:
        sys.path.remove(BENCH)
        sys.modules.pop("pace", None)


class CountingPacer:
    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def test_pace_targets_are_called(pace):
    # bench/setup_probe.py paces set-up through tables.is_group_table, and
    # bench/run.py each solve through FinitenessTask.step.  paced() wraps
    # nothing once such a name is gone, and the pacer would then calibrate
    # only between the timed spans.
    p = parse_presentation("generators: a b\nrelator: aa\nrelator: bb\n")
    for owner, attr, work in (
        (tables, "is_group_table", lambda: tables.enumerate_tables(4)),
        (quotient.FinitenessTask, "step", lambda: solve(p, parse_word("abab", p.alphabet), Budget())),
    ):
        original = vars(owner)[attr]
        pacer = CountingPacer()
        undo = pace.paced(owner, attr, pacer)
        try:
            work()
        finally:
            undo()
        assert pacer.ticks > 0, attr
        assert vars(owner)[attr] is original
