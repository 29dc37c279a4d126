"""Per-layer timing for the traced run, from outside the library.

``LayerTracer.install()`` replaces public functions and methods of the
wordrace modules with timing wrappers, and ``uninstall()`` puts the
originals back.  Nothing under ``src/`` knows about it.  A function is
replaced in every wordrace module that bound it by name (``from .words
import concat_all``), so calls between modules are seen too.

Each wrapper opens a span around one call.  Spans nest through a stack:
a span's self time is its duration minus the durations of the spans it
directly contains, and a layer's self time is the sum over its spans.
Each wrapper charges its caller for its whole cost, bookkeeping included,
so self times leave out all but the extra call frame of tracing; the rest
shows in ``trace.overhead_s``.  Only totals are kept, not the spans
themselves, because the hot paths make millions of calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class LayerTracer:
    def __init__(self):
        self.inclusive = defaultdict(float)  # span name -> summed duration
        self.calls = defaultdict(int)  # span name -> call count
        self.self_s = defaultdict(float)  # layer -> summed self time
        self.count = defaultdict(int)  # named counters
        self.admit_s = 0.0
        self.derive_s = 0.0
        self.parked_peak = 0
        self.max_order = 0
        self.distinct_words = 0
        self._stack = [0.0]  # child-time accumulators of the open spans
        self._arm = "other"  # which race arm the current step belongs to
        self._seen = {}  # id(stream) -> (stream, set of assembled words)
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, layer, name, fn, enter=None, leave=None):
        stack = self._stack
        inclusive, calls, self_s = self.inclusive, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = clock()
            token = enter(*args) if enter is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                inclusive[name] += dur
                calls[name] += 1
                self_s[layer] += dur - child
            if leave is not None:
                leave(token, dur, args, result)
            # Charge the caller for the whole wrapper, so tracing bookkeeping
            # does not land in the caller's self time.
            stack[-1] += clock() - t_in
            return result

        return wrapper

    def _patch_function(self, module, attr, wrapper):
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "wordrace" or name.startswith("wordrace.")) and mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from wordrace import derivation, presentation, quotient, scheduler, tables, words

        count = self.count

        # words: the free-reduction kernel.  Letters are the input letters
        # of the reducing primitives; conjugate is counted as a call only,
        # since its letters pass through the invert and concat_all it calls.
        def letters(fn_letters):
            def enter(*args):
                count["words.letters"] += fn_letters(*args)

            return enter

        for attr, fn_letters in (
            ("concat", lambda u, v: len(u) + len(v)),
            ("reduce_word", lambda raw, alphabet=None: len(raw)),
            ("invert", len),
        ):
            span = self._span("words", attr, getattr(words, attr), enter=letters(fn_letters))
            self._patch_function(words, attr, span)
        self._patch_function(words, "conjugate", self._span("words", "conjugate", words.conjugate))

        timed_concat_all = self._span(
            "words", "concat_all", words.concat_all, enter=letters(lambda parts: sum(map(len, parts)))
        )

        def concat_all(parts):
            # Callers pass generators: materialize them so the letters can
            # be counted, before the span opens, so that the generator's own
            # work stays with its caller.
            return timed_concat_all(tuple(parts))

        self._patch_function(words, "concat_all", concat_all)

        # derivation: the Dyck product stream and the equality arm.
        def equal_step(task):
            self._arm = "equal_arm"

        self._patch_method(
            derivation.EqualityTask, "step",
            self._span("derivation", "EqualityTask.step", derivation.EqualityTask.step, enter=equal_step),
        )

        def next_event_done(token, dur, args, ev):
            if ev[0] == "product":
                count["derivation.products." + self._arm] += 1
                stream = args[0]
                entry = self._seen.get(id(stream))
                if entry is None:
                    entry = self._seen[id(stream)] = (stream, set())
                entry[1].add(ev[2])
            else:
                count["derivation.stages"] += 1

        self._patch_method(
            derivation.ProductStream, "next_event",
            self._span("derivation", "ProductStream.next_event", derivation.ProductStream.next_event,
                       leave=next_event_done),
        )

        # quotient: the finiteness arm.  An admission step is a step during
        # which the task's admitted count grew; every other step derives.
        def finite_step(task):
            self._arm = "finite_arm"
            return task.admitted

        def finite_step_done(admitted_before, dur, args, result):
            task = args[0]
            grew = task.admitted - admitted_before
            if grew:
                count["quotient.admissions"] += grew
                self.admit_s += dur
                self.parked_peak = max(self.parked_peak, task.parked_count)
            else:
                self.derive_s += dur

        self._patch_method(
            quotient.FinitenessTask, "step",
            self._span("quotient", "FinitenessTask.step", quotient.FinitenessTask.step,
                       enter=finite_step, leave=finite_step_done),
        )

        def goals_done(token, dur, args, cells):
            count["quotient.goal_words"] += len({w for _, _, w in cells if w})

        self._patch_function(
            quotient, "equation_words",
            self._span("quotient", "equation_words", quotient.equation_words, leave=goals_done),
        )

        # tables: the solver's cursor into the enumeration; enumeration
        # itself is timed per order during set-up.
        def cursor_done(token, dur, args, table):
            if table is not None:
                self.max_order = max(self.max_order, table.order)

        self._patch_function(
            tables, "table_at_cursor",
            self._span("tables", "table_at_cursor", tables.table_at_cursor, leave=cursor_done),
        )

        # presentation: relator sources.
        for attr in ("relator", "try_relator", "available"):
            self._patch_method(
                presentation.Presentation, attr,
                self._span("presentation", "Presentation." + attr, getattr(presentation.Presentation, attr)),
            )
        for attr in ("parse_presentation", "extend", "prefix_document"):
            self._patch_function(
                presentation, attr, self._span("presentation", attr, getattr(presentation, attr))
            )

        # scheduler: the race loop itself.
        self._patch_function(scheduler, "solve", self._span("scheduler", "solve", scheduler.solve))

    # -- per-query bookkeeping -------------------------------------------

    def end_query(self) -> None:
        """Fold the finished query's per-stream distinct-word sets."""
        self.distinct_words += sum(len(words) for _, words in self._seen.values())
        self._seen.clear()

    def metrics(self) -> dict:
        """Per-layer totals of the traced pass.

        Self times exclude the spans a layer's calls contain.  Rates divide
        by the time that produced the work: letters by the word kernel's
        self time, products by the inclusive time of ``next_event``,
        admissions by the inclusive time of admission steps.  The distinct
        ratio counts words new to their stream within one query.  Goal
        words are the distinct nonempty table equations of each admitted
        candidate; the parked peak is the largest ``parked_count`` reached.
        """
        c, inc, calls, self_s = self.count, self.inclusive, self.calls, self.self_s
        words_calls = sum(calls[n] for n in ("concat_all", "concat", "reduce_word", "invert", "conjugate"))
        products = c["derivation.products.equal_arm"] + c["derivation.products.finite_arm"]
        presentation_calls = sum(
            calls[n] for n in (
                "Presentation.relator", "Presentation.try_relator", "Presentation.available",
                "parse_presentation", "extend", "prefix_document",
            )
        )
        return {
            "words.calls": words_calls,
            "words.letters": c["words.letters"],
            "words.self_s": self_s["words"],
            "words.letters_per_s": _ratio(c["words.letters"], self_s["words"]),
            "derivation.products.equal_arm": c["derivation.products.equal_arm"],
            "derivation.products.finite_arm": c["derivation.products.finite_arm"],
            "derivation.stages": c["derivation.stages"],
            "derivation.distinct_words": self.distinct_words,
            "derivation.distinct_ratio": _ratio(self.distinct_words, products),
            "derivation.self_s": self_s["derivation"],
            "derivation.products_per_s": _ratio(products, inc["ProductStream.next_event"]),
            "quotient.admissions": c["quotient.admissions"],
            "quotient.admit_s": self.admit_s,
            "quotient.admissions_per_s": _ratio(c["quotient.admissions"], self.admit_s),
            "quotient.derive_s": self.derive_s,
            "quotient.goal_words": c["quotient.goal_words"],
            "quotient.parked_peak": self.parked_peak,
            "tables.cursor_calls": calls["table_at_cursor"],
            "tables.max_order_reached": self.max_order,
            "presentation.calls": presentation_calls,
            "presentation.self_s": self_s["presentation"],
            "scheduler.equal_arm_s": inc["EqualityTask.step"],
            "scheduler.finite_arm_s": inc["FinitenessTask.step"],
            "scheduler.overhead_s": self_s["scheduler"],
            "scheduler.solve_s": inc["solve"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
