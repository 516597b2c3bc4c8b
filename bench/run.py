"""Layered benchmark of dtl: four workloads through the public library.

Run from the repository root:

    python3 bench/run.py --workload family-sup --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1 --ladder --out bench/BENCH_x.json
    python3 bench/run.py --pin            # re-pin digests.json, seeds 0-9

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (fresh
interpreter to ``import dtl`` done, median of several starts), and from
one fresh worker process ``wall_s`` (median time of one pass over the
workload's operations, reports included), ``trial_ms_p50`` and
``trial_ms_p90`` (over every ``run_trial`` call of every pass; on
verify-all, over every ``verify_suite`` call) and ``peak_rss_mb``.
Times are scaled to a nominal host speed measured alongside them (see
``hostspeed.py``); the raw times are kept in the ``--out`` document.
``--trace 1`` is a separate run that wraps the library's public
functions (see ``spans.py``) and reports the per-layer table and the
tracing overhead.  ``--workload all`` runs every workload, each in its
own process, untraced and, with ``--trace 1``, traced as well.
``--ladder`` adds the ungated depth ladder: the deepest depth under
1 s/trial for every registry id and dim.

Every metric is printed with its unit and sample count, then the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (operations failed, so ``failed / attempted``
is the fail ratio) and ``metrics``.  ``--out`` writes the full result,
with machine, version and commit provenance, through
``dtl.report.canonical_json``.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 5
PIN_SEEDS = range(10)
END_TO_END = ("wall_s", "trial_ms_p50", "trial_ms_p90", "peak_rss_mb", "setup_s")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # numpy's OpenBLAS starts one thread per core; the lab is one caller
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def measure_setup() -> dict:
    """Fresh interpreter to `import dtl` done: the median of several
    starts, at nominal host speed (see hostspeed.py)."""
    times: list[float] = []
    refs: list[float] = []
    for _ in range(SETUP_STARTS):
        for _ in range(3):
            hostspeed.sample(refs)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import dtl"],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import dtl failed: {proc.stderr.strip()}")
    scale = hostspeed.scale(refs)
    scaled = [t * scale for t in times]
    q1, _, q3 = statistics.quantiles(scaled, n=4)
    return {
        "value": statistics.median(scaled), "unit": "s", "n": len(times), "q1": q1, "q3": q3,
        "raw_median_s": statistics.median(times), "host_scale": scale,
    }


def run_worker(args: list[str], timeout: float | None) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_result(label: str, res: dict) -> None:
    ops = f"{res['failed']}/{res['attempted']}"
    print(f"{label}: passes={res['passes']} failed/attempted={ops} digest={res['digest'][:16]}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")
    for name, m in res["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}")
    print(f"  {'fail_ratio':42s} {res['failed'] / res['attempted']:>14.6g} ratio")
    print(f"  {'numpy runtime warnings per pass':42s} {res['runtime_warnings_per_pass']:>14.6g}")


def workload_run(workload: str, seed: int, seconds: float, trace: int, deadline: float | None):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    timeout = None if deadline is None else deadline - time.monotonic()
    return run_worker(args, timeout)


def pin() -> None:
    """Re-pin digests.json from the current program (first pass of each
    pinned seed); an existing pin is dropped first so it cannot fail."""
    path = os.path.join(HERE, "digests.json")
    pinned: dict = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{}\n")
    for name in WORKLOADS:
        pinned[name] = {}
        for seed in PIN_SEEDS:
            res = run_worker(["--workload", name, "--seed", str(seed), "--seconds", "0"], None)
            if not res["correct"]:
                raise BenchError(f"{name} seed {seed}: {res['problems']}")
            pinned[name][str(seed)] = res["digest"]
            print(f"{name} seed {seed}: {res['digest']}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ladder", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dtl", "__init__.py")):
        print(f"no dtl sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin()
            return 0
        doc = {
            "benchmark": "dtl-layered",
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine(),
            "commit": commit(),
            "results": {},
        }
        results = doc["results"]
        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}

        def fold(key: str, res: dict, prefix: str) -> None:
            print_result(key, res)
            results[key] = res
            doc["versions"] = res.pop("versions")
            final["correct"] = final["correct"] and res["correct"]
            final["attempted"] += res["attempted"]
            final["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                final["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}

        if args.workload == "all":
            setup = measure_setup()
            for name in WORKLOADS:
                res = workload_run(name, args.seed, args.seconds, 0, None)
                res["metrics"]["setup_s"] = setup
                fold(name, res, name + ".")
                if args.trace:
                    fold(name + " traced", workload_run(name, args.seed, args.seconds, 1, None),
                         name + ".")
        else:
            deadline = time.monotonic() + 170.0
            if args.trace:
                fold(args.workload + " traced",
                     workload_run(args.workload, args.seed, args.seconds, 1, deadline), "")
            else:
                setup = measure_setup()
                res = workload_run(args.workload, args.seed, args.seconds, 0, deadline)
                res["metrics"]["setup_s"] = setup
                res["metrics"] = {k: res["metrics"][k] for k in END_TO_END}
                fold(args.workload, res, "")
        if args.ladder:
            ladder = run_worker(["--ladder"], None)
            doc["ladder"] = ladder["ladder"]
            for row in doc["ladder"]:
                print(f"  ladder {row['id']:26s} d{row['dim']} deepest L{row['deepest']}"
                      f" ({row['stop']})")
        if args.out:
            sys.path.insert(0, SRC)
            from dtl.report import canonical_json, write_text

            write_text(args.out, canonical_json(doc))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
