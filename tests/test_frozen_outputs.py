"""Operator and norm outputs pinned bit for bit.

Each digest is the sha256 of the raw float64 bytes (or the exact float
reprs and witness cubes) of one public path over seeded d1, d2 and d3
inputs with a zeroed subtree, atomic measures included; the inputs, the
pass and the digests live in tests/pins.py.  The benchmark's report
digests (bench/digests.json) are checked at seed 0.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pins
from dtl import (
    CubeAddr,
    KernelWeight,
    LeafField,
    RootSpec,
    aggregate,
    payload,
    read_input,
    sparse_integral_operator,
)
from dtl.report import canonical_json

_BENCH_RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_operator_and_norm_outputs_pinned():
    # every name the pass yields has a pin, and every pin holds
    names = dict.fromkeys(name for name, _ in pins.operator_pass())
    got = {name: pins.sha256(pins.build("operators", name)) for name in names}
    assert got == dict(pins.rows("operators"))


def test_sparse_operator_ignores_overflow_outside_family():
    # the leaf-0 branch's products overflow; the family avoids them
    root = RootSpec(1, 2)
    f = LeafField(root, [1e200, 1.0, 1.0, 1.0])
    kernel = KernelWeight.canonical(1.0, 2, 1)
    with np.errstate(over="ignore"):
        out = sparse_integral_operator([aggregate(f)] * 2, kernel, (CubeAddr(1, (1,)),))
    term = 0.25 * kernel.at_level(1, 1)
    assert out.values.tolist() == [0.0, 0.0, term, term]


def test_read_input_roundtrips_bits(tmp_path):
    path = tmp_path / "input.json"
    for root, fields, measures in pins.cases():
        for data in fields + measures:
            path.write_text(canonical_json(payload(data)))
            back = read_input(str(path))
            assert type(back) is type(data)
            if isinstance(data, LeafField):
                assert back.values.tobytes() == data.values.tobytes()
                continue
            assert back.kind == data.kind
            if data.kind == "density":
                assert back.density.tobytes() == data.density.tobytes()
            else:
                assert back.atoms == data.atoms


@pytest.mark.skipif(not _BENCH_RUN.exists(), reason="no bench/ next to tests/")
def test_bench_report_digests_hold_at_seed_zero():
    # one pass of every workload checks its report bytes against the
    # pinned digests, so a byte drift fails here before any timed run
    proc = subprocess.run(
        [sys.executable, str(_BENCH_RUN), "--workload", "all", "--seed", "0", "--seconds", "0"],
        cwd=_BENCH_RUN.parents[1], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0


@pytest.mark.skipif(not _BENCH_RUN.exists(), reason="no bench/ next to tests/")
@pytest.mark.parametrize("workload", ["family-sup", "verify-all"])
def test_bench_traced_pass_holds_at_seed_zero(workload):
    # the traced pass wraps the family searches by name and reads their
    # arguments, so it runs here on the two workloads that reach them
    proc = subprocess.run(
        [
            sys.executable, str(_BENCH_RUN), "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", "1",
        ],
        cwd=_BENCH_RUN.parents[1], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0
