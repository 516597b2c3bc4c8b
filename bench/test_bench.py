"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import dtl

import run
import spans
import worker
from workloads import WORKLOADS, Sweep, Verify, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = Workload(
    "tiny",
    "one small op per layer group",
    ops=(
        Sweep("thm2.6", 1, (3, 4)),
        Sweep("thm1.2b", 1, (3, 4)),
        Sweep("hedberg-pointwise", 2, (3,)),
        Sweep("eq1.4-left", 1, (4,)),
        Verify(1, 3, trials=2),
    ),
)


def _bindings() -> dict:
    grid = sys.modules["dtl.grid"]
    out = {
        (owner.__name__, attr): val
        for owner in spans.dtl_modules()
        for attr, val in vars(owner).items()
        if callable(val)
    }
    out[("CubeAddr", "__post_init__")] = grid.CubeAddr.__dict__["__post_init__"]
    out[("TreeAggregate", "restricted")] = grid.TreeAggregate.__dict__["restricted"]
    return out


def test_traced_pass_matches_untraced_and_unwraps():
    plain = worker.run_pass(TINY, seed=3)
    before = _bindings()
    with spans.Tracer() as tracer:
        assert dtl.registry.morrey_norm is not before[("dtl.norms", "morrey_norm")]
        traced = worker.run_pass(TINY, seed=3)
        table = spans.layer_metrics(tracer, traced)
        recorded = list(tracer.spans)
    after = _bindings()
    assert spans.leftover_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    assert traced["digests"] == plain["digests"]
    assert traced["failed"] == plain["failed"] == 0
    for name in (
        "grid.cube_addr.count",
        "grid.restricted.calls",
        "operators.fractional_maximal.calls",
        "constants.cq_greedy.calls",
        "constants.certify_checks",
        "decompositions.stopping_parent.calls",
        "decompositions.sparse_members",
        "report.bytes",
    ):
        assert table[name] > 0, name
    assert 0 < table["constants.greedy_accept_ratio"] <= 1
    assert table["registry.refusals"] == 0

    # every span below a trial carries that trial's group id
    for sid, (name, start, end, parent, group) in enumerate(recorded):
        assert start <= end
        if name == "harness.run_trial":
            assert group == sid
        elif parent is not None:
            assert group == recorded[parent][4]


def test_digest_mismatch_fails_every_operation():
    good = {"digests": ["a", "b"], "failed": 0, "runtime_warnings": 0, "wall_s": 1.0, "scale": 1.0}
    bad = dict(good, digests=["a", "c"])
    problems = worker.check_digests([good, bad], "no-such-workload", 0)
    assert problems
    res = worker.outcome([good, bad], problems, n_ops=2)
    assert res["failed"] == res["attempted"] == 4
    assert not res["correct"]


def test_benchmark_json_lists_the_measured_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family-sup", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
