"""Runs one workload in one fresh process and prints one canonical JSON
document on standard output.

``run.py`` starts this file with ``PYTHONPATH`` set to the checkout's
``src`` and single-threaded BLAS; run it through ``run.py``.  The process
is a single closed-loop caller: each operation starts when the previous
one has returned.

A pass runs every operation of the workload once and emits its reports
(sweep JSON and CSV, or the verify JSON) through ``dtl.report``.  Passes
repeat on the same inputs until the measuring window is spent.  Every
pass must emit the report digests of the first, the first must match
``digests.json`` when the seed is pinned there, and exact ids and verify
checks must pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

import dtl
from dtl import harness, report
from dtl.errors import LabError

import hostspeed
import spans
from workloads import WORKLOADS, Sweep

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")


def run_op(op, seed: int) -> tuple[str, bool, int]:
    """One operation: (report text, checks passed, witnesses kept)."""
    if isinstance(op, Sweep):
        spec = dtl.ExperimentSpec(
            op.inequality, dims=(op.dim,), depths=op.depths, trials=op.trials, seed=seed
        )
        rep = dtl.sweep(spec)
        text = report.canonical_json(rep.to_doc()) + report.sweep_csv(rep)
        return text, rep.passed or not rep.exact, len(rep.rows)
    doc = dtl.verify_suite("all", dim=op.dim, depth=op.depth, trials=op.trials, seed=seed)
    return report.canonical_json(doc), doc["passed"], 0


def run_pass(workload, seed: int) -> dict:
    """Every operation once.  Times cover the library calls and report
    emission, not the digesting; the host-speed reference is sampled
    before each operation and each trial, outside the timings.  Trial
    times are the run_trial calls of sweeps and the verify_suite calls."""
    wall = 0.0
    refs: list[float] = []
    trial_s: list[float] = []
    digests = []
    failed = 0
    kept = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        for op in workload.ops:
            hostspeed.sample(refs)
            samples: list[float] = []
            inside: list[float] = []
            t0 = time.perf_counter()
            try:
                with timed_trials(samples, inside):
                    text, ok, rows = run_op(op, seed)
            except LabError as exc:
                text, ok, rows = f"{type(exc).__name__}: {exc}", False, 0
            took = time.perf_counter() - t0 - sum(inside)
            wall += took
            refs += inside
            # a verify call is verify-all's unit of work: its latency stands
            # in for the trial latency of the sweep workloads
            trial_s += samples if isinstance(op, Sweep) else [took]
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            failed += not ok
            kept += rows
    hostspeed.sample(refs)
    return {
        "wall_s": wall,
        "trial_s": trial_s,
        "scale": hostspeed.scale(refs),
        "digests": digests,
        "failed": failed,
        "witnesses_kept": kept,
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
    }


def scaled_walls(passes: list[dict]) -> list[float]:
    """Each pass's time at nominal host speed."""
    return [p["wall_s"] * p["scale"] for p in passes]


def scaled_trials(passes: list[dict]) -> list[float]:
    """Every trial's time at nominal host speed."""
    return [t * p["scale"] for p in passes for t in p["trial_s"]]


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def run_window(workload, seed: int, seconds: float, on_pass=None) -> list[dict]:
    """Passes until the window is spent: at least two (one when the window
    is 0), and no pass is started that would likely end past the window."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if seconds == 0 or (len(passes) >= 2 and elapsed + typical > seconds):
            return passes


@contextlib.contextmanager
def timed_trials(samples: list[float], refs: list[float]):
    """Times every harness.run_trial call (sweeps and the exact suite),
    each after one host-speed sample."""
    original = harness.run_trial

    def timed(*args, **kwargs):
        hostspeed.sample(refs)
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        samples.append(time.perf_counter() - t0)
        return out

    harness.run_trial = timed
    try:
        yield
    finally:
        harness.run_trial = original


def summary(values: list[float], value: float, unit: str) -> dict:
    """A metric with its sample count and the quartiles of its samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": value, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def check_digests(passes: list[dict], workload: str, seed: int) -> list[str]:
    """Reasons the run's reports are wrong; empty when they are right.
    Every pass must emit the bytes of the first, and the first must match
    its pinned digest when the seed is pinned."""
    problems = []
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], start=1):
        if p["digests"] != first:
            problems.append(f"pass {i} reports differ from pass 0")
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh).get(workload, {}).get(str(seed))
    if pinned is not None and combined_digest(first) != pinned:
        problems.append(f"digest {combined_digest(first)} != pinned {pinned}")
    return problems


def outcome(passes: list[dict], problems: list[str], n_ops: int) -> dict:
    attempted = n_ops * len(passes)
    failed = attempted if problems else sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": len(passes),
        "digest": combined_digest(passes[0]["digests"]),
        "runtime_warnings_per_pass": statistics.median(
            p["runtime_warnings"] for p in passes
        ),
        "raw_wall_s": summary(
            [p["wall_s"] for p in passes], statistics.median(p["wall_s"] for p in passes), "s"
        ),
        "host_scale": summary(
            [p["scale"] for p in passes], statistics.median(p["scale"] for p in passes), "ratio"
        ),
    }


def untraced_run(workload, seed: int, seconds: float) -> dict:
    """wall_s is the median pass time, and the trial percentiles are over
    every trial of every pass, all at nominal host speed."""
    passes = run_window(workload, seed, seconds)
    walls = scaled_walls(passes)
    ms = [t * 1000.0 for t in scaled_trials(passes)]
    deciles = statistics.quantiles(ms, n=10)
    doc = outcome(passes, check_digests(passes, workload.name, seed), len(workload.ops))
    rss = peak_rss_mb()
    doc["metrics"] = {
        "wall_s": summary(walls, statistics.median(walls), "s"),
        "trial_ms_p50": summary(ms, statistics.median(ms), "ms"),
        "trial_ms_p90": summary(ms, deciles[8], "ms"),
        "peak_rss_mb": summary([rss], rss, "MB"),
    }
    return doc


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Half the window untraced, half traced: the per-layer table is the
    median over traced passes (times at nominal host speed), the overhead
    is the difference of the two halves' median pass times, and both
    halves must emit the same bytes."""
    units = spans.layer_units()
    untraced = run_window(workload, seed, seconds / 2)
    tables = []
    with spans.Tracer() as tracer:

        def reduce_pass(p: dict) -> None:
            table = spans.layer_metrics(tracer, p)
            tables.append(
                {k: v * p["scale"] if units[k] == "s" else v for k, v in table.items()}
            )
            tracer.reset()

        traced = run_window(workload, seed, seconds / 2, on_pass=reduce_pass)
    passes = untraced + traced
    problems = check_digests(passes, workload.name, seed)
    problems += [f"wrapper left behind: {name}" for name in spans.leftover_wrappers()]
    doc = outcome(passes, problems, len(workload.ops))
    metrics = {
        name: summary(
            [t[name] for t in tables], statistics.median(t[name] for t in tables), units[name]
        )
        for name in tables[0]
    }
    plain = statistics.median(scaled_walls(untraced))
    slow = statistics.median(scaled_walls(traced))
    metrics["trace.overhead_s"] = {
        "value": slow - plain,
        "unit": "s",
        "n": len(traced),
        "untraced_wall_s": plain,
        "traced_wall_s": slow,
    }
    doc["metrics"] = metrics
    return doc


def ladder_run() -> dict:
    """Deepest depth under 1 s/trial (mean of trials 0 and 1, which
    cover both measure kinds) for every registry id and dim; ungated."""
    caps = {1: 20, 2: 10}
    rows = []
    for ineq in dtl.registry_ids():
        for dim, cap in caps.items():
            spec = dtl.ExperimentSpec(ineq, dims=(dim,), trials=2)
            deepest, ms, stop = None, None, "cap"
            for depth in range(2, cap + 1):
                try:
                    t0 = time.perf_counter()
                    for trial in range(2):
                        dtl.run_trial(spec, dim, depth, trial)
                    per_trial = (time.perf_counter() - t0) * 500.0
                except dtl.ComplexityRefusal:
                    stop = "refused"
                    break
                except LabError as exc:
                    stop = f"{type(exc).__name__}: {exc}"
                    break
                if per_trial >= 1000.0:
                    stop = f"slow at L{depth}: {per_trial:.0f} ms"
                    break
                deepest, ms = depth, per_trial
            rows.append({"id": ineq, "dim": dim, "deepest": deepest, "ms": ms, "stop": stop})
            print(f"ladder {ineq} d{dim}: L{deepest} ({stop})", file=sys.stderr, flush=True)
    return {"ladder": rows}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", action="store_true")
    args = ap.parse_args(argv)
    if os.path.dirname(os.path.abspath(dtl.__file__)) != os.path.join(SRC, "dtl"):
        print(f"dtl imported from {dtl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.ladder:
        doc = ladder_run()
    elif args.workload is None:
        ap.error("--workload or --ladder is required")
    elif args.trace:
        doc = traced_run(WORKLOADS[args.workload], args.seed, args.seconds)
    else:
        doc = untraced_run(WORKLOADS[args.workload], args.seed, args.seconds)
    doc["versions"] = versions()
    sys.stdout.write(report.canonical_json(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
