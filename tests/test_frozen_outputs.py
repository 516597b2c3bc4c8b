"""Operator and norm outputs pinned bit for bit.

Each digest is the sha256 of the raw float64 bytes (or the exact float
reprs and witness cubes) of one public path over seeded d1, d2 and d3
inputs with a zeroed subtree, atomic measures included.  The digests
were recorded before these paths were folded onto shared helpers, so a
change in summation or multiplication order shows up here.  The testing
sup and its numerator tables are also pinned on one d1 L14 and one d2 L7
grid, with digests recorded before their one-layout rewrite.  The
benchmark's report digests (bench/digests.json) are checked at seed 0.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dtl import (
    CubeAddr,
    ExponentProfile,
    KernelWeight,
    LeafField,
    LeafMeasure,
    RootSpec,
    aggregate,
    build_sparse_family,
    dyadic_integral_operator,
    fractional_maximal,
    morrey_norm,
    multilinear_maximal,
    payload,
    product_morrey_norm,
    radon_morrey_norm,
    read_input,
    sparse_integral_operator,
)
from dtl.generators import FIELD_KINDS, generate_input
from dtl.norms import localized_maximal_integrals, maximal_testing_sup
from dtl.report import canonical_json

_BENCH_RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"

_GRIDS = ((1, 7), (2, 4), (3, 2))
# deeper than any naive oracle runs; only the testing sup is pinned there
_DEEP_GRIDS = ((1, 14), (2, 7))


def _inputs(root, seed):
    """Four fields and two measures on `root`, with the leaves of one
    seeded cube zeroed in the fields and the density, and its atoms
    dropped."""
    rng = np.random.default_rng([seed, root.dim, root.depth])
    level = int(rng.integers(1, root.depth + 1))
    index = tuple(int(i) for i in rng.integers(1 << level, size=root.dim))
    keep = np.ones(root.grid_shape)
    keep[CubeAddr(level, index).leaf_slices(root.depth)] = 0.0
    keep = keep.ravel()
    fields = [
        LeafField(root, generate_input(root, kind, seed + i).values * keep)
        for i, kind in enumerate(FIELD_KINDS)
    ]
    density = generate_input(root, "density-measure", seed).density * keep
    atoms = generate_input(root, "atom-measure", seed).atoms
    measures = [
        LeafMeasure(root, "density", density=density),
        LeafMeasure(root, "atomic", atoms=tuple(a for a in atoms if keep[a[0]])),
    ]
    return fields, measures


def _cases():
    for dim, depth in _GRIDS:
        root = RootSpec(dim, depth)
        for seed in range(3):
            yield root, *_inputs(root, seed)


def _digests() -> dict:
    out = {}

    def put(name, data):
        h = out.setdefault(name, hashlib.sha256())
        h.update(data.tobytes() if isinstance(data, np.ndarray) else repr(data).encode())

    def sup(res):
        return res.value, res.witness.level, res.witness.index

    def testing(data, betas, ps):
        agg = aggregate(data)
        for beta in betas:
            for p in ps:
                put("maximal_testing_sup", sup(maximal_testing_sup(agg, beta, p)))
                for table in localized_maximal_integrals(agg, beta, p):
                    put("localized_maximal_integrals", table)

    for root, fields, measures in _cases():
        n = root.dim
        aggs = [aggregate(f) for f in fields]
        for data in fields + measures:
            for alpha in (0.0, 0.3 * n, 0.7 * n):
                put("fractional_maximal", fractional_maximal(aggregate(data), alpha).values)
        for group in (aggs[:1], aggs[1:3], aggs[1:4]):
            m = len(group)
            put("multilinear_maximal", multilinear_maximal(group, 0.4 * m * n).values)
            table = [2.0 ** -k for k in range(root.depth + 1)]
            table[1] = 0.0
            kernels = (
                KernelWeight.canonical(0.5 * m * n, m, n),
                KernelWeight.from_table(table, m),
            )
            families = (
                build_sparse_family(group, root.root_cube()).cubes,
                list(root.cubes())[1::3] + list(root.cubes())[::5],
                (),
            )
            for kernel in kernels:
                put("dyadic_integral_operator", dyadic_integral_operator(group, kernel).values)
                for family in families:
                    op = sparse_integral_operator(group, kernel, family)
                    put("sparse_integral_operator", op.values)
        for f in fields:
            for p, p0 in ((1.3, 1.9), (2.0, 2.0), (0.7, 3.0)):
                put("morrey_norm", sup(morrey_norm(f, p, p0)))
        for m in (1, 2, 3):
            for low_p in (False, True)[: 1 + (m > 1)]:
                profile = ExponentProfile.default(m, n, low_p=low_p)
                # every ordering: the factors round differently in each
                for group in itertools.permutations(fields, m):
                    put("product_morrey_norm", sup(product_morrey_norm(list(group), profile)))
        for g in fields:
            for mu in measures:
                for q, q0 in ((2.0, 2.5), (1.0, 3.0)):
                    put("radon_morrey_norm", sup(radon_morrey_norm(g, q, q0, mu)))
        # the constant field's zeroed subtree makes exact ties between cubes
        for data in fields + measures:
            testing(data, (0.0, 0.3 * n, 0.7 * n), (1.3, 2.0, 3.0))
    for dim, depth in _DEEP_GRIDS:
        root = RootSpec(dim, depth)
        fields, measures = _inputs(root, 0)
        for data in fields[1:3] + measures:
            testing(data, (0.5 * dim,), (1.3, 2.0))
    return {name: h.hexdigest() for name, h in out.items()}


_PINNED = {
    "fractional_maximal": (
        "754d311add925cfc4e3369937bdc781d2426bbd82924715d624fc0919c1d170f"
    ),
    "multilinear_maximal": (
        "b327466b64fea930617e2de9e47343d79d345a5e40e36d27d0b7e8140a1b65da"
    ),
    "dyadic_integral_operator": (
        "8baa12d576b7c0057fa25a00dde0d9e95820191c91500d9461abf0c52a6095c1"
    ),
    "sparse_integral_operator": (
        "8bc5627898a9799fdbb6401c2c5a87e7817ffd12b93a63d1d428e666a619d444"
    ),
    "morrey_norm": (
        "7b86811a96b0054f826df56b3bc0cc59198e7dac98b38b1841a88b95e54ca20e"
    ),
    "product_morrey_norm": (
        "ceb4b586b38c3f5f1a29d7c8f2f1b1be52736f6da15fcaa2e247207e4b9a3374"
    ),
    "radon_morrey_norm": (
        "5cbc4dd501d981b73fc41171d0729e450d06e8e549213a4df493e036e999dcb1"
    ),
    "maximal_testing_sup": (
        "532b29b519de7a1811f063158bccafb9d2071f1073642ceb295c825a53655761"
    ),
    "localized_maximal_integrals": (
        "668f8767c47fc2aeff0c4ebcbc462fb1104f1ec890f7ac6ce4829a1b4e0f86a0"
    ),
}


def test_operator_and_norm_outputs_pinned():
    assert _digests() == _PINNED


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
    for root, fields, measures in _cases():
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
