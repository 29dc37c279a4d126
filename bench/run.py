"""wordrace benchmark: one workload, one fresh process, every metric by name.

    python3 bench/run.py --workload dinf-corpus --seed 1 --seconds 16 --trace 0

The run first measures cold set-up (import, presentation parse and
``enumerate_tables(1..8)``) in this process and then in two more fresh
interpreters, one after the other, and reports the median.  It then draws
the workload's queries from ``--seed`` (see ``workloads.py``) and runs them
one at a time, closed loop, one client, no extra threads.  Each query is
solved at the default budget, its verdict checked against the oracle, its
arm step counts checked for skew, and each certificate serialized, parsed
and verified against a freshly parsed presentation, as ``wordrace verify``
does.  A check that does not hold is recorded as a failed query, never
raised.

Times are in reference-speed seconds: the measured seconds with the shared
host's drift taken out by a calibration loop timed every 0.2 s of work,
inside long solves too (see ``pace.py``).  The traced run also reports the
raw clock readings as ``raw.*``.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the same queries run once untraced and once more with the
layer tracer of ``layers.py`` installed; the last line then reports the
per-layer metrics, and ``trace.overhead_s`` is the traced pass's raw wall
time minus the untraced pass's.  Lines before the last one list every
metric with its unit, the run metadata and a SHA-256 digest of the verdict
lines and certificate texts in query order, which is the same for the same
seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import setup_probe
from layers import LayerTracer
from pace import Pacer, paced
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many queries above it


class QueryFailure(Exception):
    """An outcome check that did not hold; recorded, never propagated."""


def run_pass(wr, workload, queries, pacer=None, tracer=None) -> dict:
    """Run every query once in order; return timings, counts and failures.

    With a pacer, the times are also given at reference speed (``solve_s``,
    ``wall_s``); the raw ones (``raw_*``) leave the calibration pauses out.
    """
    from wordrace import certcheck

    res = {
        "raw_solve_s": [], "steps_equal": 0, "steps_finite": 0, "certs": 0, "nested_certs": 0,
        "cert_bytes": 0, "serialize_s": 0.0, "parse_s": 0.0, "check_s": 0.0, "verify_s": 0.0,
        "pulled": 0, "failures": {},
    }
    budget = wr.Budget()  # the default: 10^6 steps, arms alternating one step at a time
    digest = hashlib.sha256()
    p = wr.parse_presentation(workload.presentation_text)
    clock = pacer.work_clock if pacer is not None else time.perf_counter
    spans = []
    # Every race alternates the arms, so finiteness steps reach inside each solve.
    unpace = paced(wr.FinitenessTask, "step", pacer) if pacer is not None else None
    try:
        if pacer is not None:
            pacer.calibrate()
            paused0 = pacer.paused
        wall0, cpu0 = clock(), time.process_time()
        for n, q in enumerate(queries):
            try:
                t0 = clock()
                try:
                    x = wr.parse_word(q.word, p.alphabet)
                    outcome = wr.solve(p, x, budget)
                finally:
                    spans.append((t0, clock()))
                res["steps_equal"] += outcome.steps_equal_arm
                res["steps_finite"] += outcome.steps_finite_arm
                digest.update(f"{q.word} {outcome.verdict} {outcome.steps_equal_arm} "
                              f"{outcome.steps_finite_arm}\n".encode())
                check_outcome(wr, q, budget, outcome)
                if outcome.verdict != wr.EXHAUSTED:
                    text = round_trip(wr, certcheck, workload, p, x, outcome, res)
                    digest.update(text.encode())
            except QueryFailure as exc:
                res["failures"][n] = f"{q.word or '(empty)'}: {exc}"
            except Exception:  # a crashing query is a failed query, not a crashed run
                res["failures"][n] = f"{q.word or '(empty)'}: exception\n{traceback.format_exc()}"
                digest.update(f"{q.word} error\n".encode())
            finally:
                if tracer is not None:
                    tracer.end_query()
                # A finished race leaves its finiteness task in a reference
                # cycle (up to hundreds of MB of parked candidates).  Collect
                # it here, inside wall_s, so its cost and memory land on the
                # query that made it, not at a random point of a later one.
                gc.collect()
                if pacer is not None:
                    pacer.tick()
        wall1 = clock()
        res["raw_wall_s"] = wall1 - wall0
        res["raw_cpu_s"] = time.process_time() - cpu0
        if pacer is not None:
            pacer.calibrate()
            res["raw_cpu_s"] -= pacer.paused - paused0  # calibration is CPU-bound too
            res["wall_s"] = pacer.ref_seconds(wall0, wall1)
            res["solve_s"] = [pacer.ref_seconds(a, b) for a, b in spans]
    finally:
        if unpace is not None:
            unpace()
        res["pulled"] += p.pulled_count
        p.close()
    res["raw_solve_s"] = [b - a for a, b in spans]
    res["digest"] = digest.hexdigest()
    return res


def check_outcome(wr, q, budget, outcome) -> None:
    skew = abs(outcome.steps_equal_arm - outcome.steps_finite_arm)
    if skew > budget.quantum:
        raise QueryFailure(f"arm step skew {skew} above the quantum {budget.quantum}")
    expected = wr.EXHAUSTED if q.is_identity is None else wr.EQUAL if q.is_identity else wr.NOT_EQUAL
    if outcome.verdict == wr.EXHAUSTED:
        if expected != wr.EXHAUSTED:
            raise QueryFailure(f"unexpected exhaustion, oracle says {expected}")
        spent = outcome.steps_equal_arm + outcome.steps_finite_arm
        if spent != budget.max_total_steps or outcome.certificate is not None:
            raise QueryFailure(f"exhausted after {spent} of {budget.max_total_steps} steps")
    elif outcome.verdict != expected:
        raise QueryFailure(f"verdict {outcome.verdict}, oracle says {expected}")


def round_trip(wr, certcheck, workload, p, x, outcome, res) -> str:
    """serialize -> parse_certificate -> verify_*_document on a fresh parse."""
    clock = time.perf_counter
    t0 = clock()
    target = wr.reduce_word(x)
    if outcome.verdict == wr.EQUAL:
        text = certcheck.serialize_equality(outcome.certificate, p)
    else:
        text = certcheck.serialize_finiteness(outcome.certificate, wr.extend(p, target))
    t1 = clock()
    fresh = wr.parse_presentation(workload.presentation_text)
    try:
        doc = certcheck.parse_certificate(text, fresh.alphabet)
        t2 = clock()
        if isinstance(doc, certcheck.EqualityDocument):
            ok, why = (doc.certificate.target == target, "certificate is for another word")
            if ok:
                ok, why = certcheck.verify_equality_document(doc, fresh, target)
        else:
            ok, why = (doc.target == target, "certificate is for another word")
            if ok:
                ok, why = certcheck.verify_finiteness_document(doc, wr.extend(fresh, doc.target))
            res["nested_certs"] += len(doc.equation_docs) + len(doc.coverage_docs)
    finally:
        res["pulled"] += fresh.pulled_count
        fresh.close()
    t3 = clock()
    res["certs"] += 1
    res["cert_bytes"] += len(text.encode())
    res["serialize_s"] += t1 - t0
    res["parse_s"] += t2 - t1
    res["check_s"] += t3 - t2
    res["verify_s"] += t3 - t0
    if not ok:
        raise QueryFailure(f"certificate rejected: {why}")
    return text


def tail(times) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND queries above it.

    With no more than TAIL_BEYOND queries no such percentile exists, and the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setups(workload) -> list:
    """One cold set-up in this process, then the rest in fresh interpreters, one at a time."""
    samples = [setup_probe.measure_setup(SRC, workload.presentation_text)]
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, probe, SRC, workload.presentation_text],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        samples.append(json.loads(proc.stdout))
    return samples


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wordrace", "__init__.py")):
        print(f"error: no wordrace sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}  # the metrics this run must report
    workload = WORKLOADS[args.workload]

    setups = measure_setups(workload)
    import wordrace as wr

    if not os.path.realpath(wr.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported wordrace from {wr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    queries = workload.queries(args.seed, args.seconds)
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }

    pacer = Pacer()
    base = run_pass(wr, workload, queries, pacer)
    failures = dict(base["failures"])
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = run_pass(wr, workload, queries, tracer=tracer)
        finally:
            tracer.uninstall()
        failures.update(traced["failures"])
        if traced["digest"] != base["digest"]:
            failures[-1] = "traced pass produced different outputs than the untraced pass"
        t0 = time.perf_counter()
        wr.enumerate_tables(9)
        enumerate_r9 = time.perf_counter() - t0

    steps = base["steps_equal"] + base["steps_finite"]
    value, pct = tail(base["solve_s"])
    if args.trace:
        layer = tracer.metrics()
        certs = base["certs"]
        metrics = {
            **layer,
            **{f"tables.enumerate_s.r{r}": statistics.median(s["enumerate_s"][r - 1] for s in setups)
               for r in setup_probe.ORDERS},
            "tables.enumerate_s.r9": enumerate_r9,
            "presentation.pulled": base["pulled"],
            "scheduler.steps_equal_arm": base["steps_equal"],
            "scheduler.steps_finite_arm": base["steps_finite"],
            "scheduler.steps_per_s": steps / layer["scheduler.solve_s"],
            "certcheck.certs": certs,
            "certcheck.nested_certs": base["nested_certs"],
            "certcheck.serialize_s": base["serialize_s"],
            "certcheck.parse_s": base["parse_s"],
            "certcheck.verify_ms_per_cert": 1000.0 * base["check_s"] / certs if certs else 0.0,
            "verify_s": base["verify_s"],
            "cert_bytes": base["cert_bytes"],
            "trace.overhead_s": traced["raw_wall_s"] - base["raw_wall_s"],
            "raw.setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "raw.wall_s": base["raw_wall_s"],
            "raw.cpu_s": base["raw_cpu_s"],
            "raw.solve_s_p50": statistics.median(base["raw_solve_s"]),
            "host.speed": pacer.median_weight(),
        }
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": base["wall_s"],
            "solve_s_p50": statistics.median(base["solve_s"]),
            "solve_s_tail": value,
            "steps_total": steps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for n in sorted(failures):
        print(f"FAILED {failures[n]}", file=sys.stderr)
    print("# " + json.dumps(meta, sort_keys=True))
    print(f"# queries: {len(queries)}  failed: {len(failures)}  "
          f"failed_frac: {len(failures) / len(queries)} of {len(queries)} queries")
    print(f"# solve_s_tail: p{pct:.1f} of {len(queries)} queries")
    print(f"# output digest: sha256:{base['digest']}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(queries),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
