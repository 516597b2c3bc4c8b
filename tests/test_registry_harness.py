"""Inequality registry, sweep harness, reports, figures, and the CLI."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from dtl import (
    ExponentProfile,
    LeafField,
    LeafMeasure,
    RootSpec,
    lebesgue_measure,
    payload,
)
from dtl.cli import main
from dtl.errors import BadKind, IoFailure, RegistryMiss
from dtl.harness import (
    EXACT_SUITE_IDS,
    EXACT_TOL,
    ExperimentSpec,
    growth_slope,
    ratio_of,
    run_trial,
    sweep,
    trial_seed,
    verify_suite,
)
from dtl.registry import evaluate_inequality, lookup, registry_ids
from dtl.report import canonical_json, constants_csv, sweep_csv, write_text

ALL_IDS = (
    "morrey-nesting",
    "eq1.4-left",
    "eq1.4-right",
    "morrey-lebesgue-identity",
    "discretization",
    "thm2.1a",
    "thm2.1b",
    "thm2.3",
    "lemma2.2a",
    "lemma2.2b",
    "thm2.4",
    "lemma2.5",
    "thm2.6",
    "thm1.1a",
    "thm1.1b",
    "thm1.2a",
    "thm1.2b",
    "thm4.1",
    "hedberg-pointwise",
    "eq4.1",
)


def test_registry_lists_every_id():
    assert registry_ids() == ALL_IDS
    for ineq_id in ALL_IDS:
        assert lookup(ineq_id).id == ineq_id
    with pytest.raises(RegistryMiss):
        lookup("thm9.9")


def test_measure_requirement_enforced():
    prof = ExponentProfile.default(1, 1)
    root = RootSpec(1, 2)
    f = LeafField(root, np.ones(4))
    with pytest.raises(RegistryMiss):
        evaluate_inequality("thm1.1a", prof, [f])


def test_flat_multilinear_trial_reproduces():
    prof = ExponentProfile.default(2, 2)
    root = RootSpec(2, 2)
    ones = [LeafField(root, np.ones(16)) for _ in range(2)]
    first = evaluate_inequality("thm1.2b", prof, ones, measure=lebesgue_measure(root))
    second = evaluate_inequality("thm1.2b", prof, ones, measure=lebesgue_measure(root))
    assert (first.lhs, first.rhs) == (second.lhs, second.rhs)
    # per-leaf kernel sum collapses to 1 + 1/2 + 1/4
    assert ratio_of(first.lhs, first.rhs) == pytest.approx(1.75, rel=1e-12)


def test_exact_identities_hold_in_sweeps():
    for ineq_id in EXACT_SUITE_IDS:
        rep = sweep(
            ExperimentSpec(ineq_id, dims=(1,), depths=(2, 3), trials=8, seed=1, m=1)
        )
        assert rep.exact
        assert rep.passed
        for row in rep.rows:
            assert row["max_ratio"] <= EXACT_TOL


def test_trial_seed_frozen_and_role_separated():
    assert trial_seed(7, 1, 3, 0, 10) == 1788701090
    seen = {trial_seed(7, 1, 3, 0, role) for role in (1, 2, 10, 11)}
    assert len(seen) == 4
    assert trial_seed(7, 1, 3, 0, 10) == trial_seed(7, 1, 3, 0, 10)


def test_growth_slope_hand_cases():
    assert growth_slope((0, 1, 2), (1.0, 2.0, 4.0)) == pytest.approx(math.log(2.0))
    assert growth_slope((2, 3), (1.0, math.inf)) == math.inf
    assert growth_slope((2,), (5.0,)) == 0.0
    assert growth_slope((2, 3, 4), (0.0, 0.0, 2.0)) == 0.0


def test_run_trial_shape():
    spec = ExperimentSpec("thm1.1a", dims=(1,), depths=(3,), trials=4, seed=2, m=1)
    doc = run_trial(spec, 1, 3, 0)
    assert sorted(doc) == ["extras", "inputs", "lhs", "ratio", "rhs", "trial"]
    assert doc["trial"] == 0
    assert doc["ratio"] == ratio_of(doc["lhs"], doc["rhs"])
    assert doc["inputs"]["fields"][0]["kind"] == "field"
    assert doc["inputs"]["measure"]["kind"] in ("density", "atomic")


def test_sweep_doc_and_determinism():
    spec = ExperimentSpec("thm1.1a", dims=(1,), depths=(2, 3), trials=5, seed=4, m=1)
    rep = sweep(spec)
    doc = rep.to_doc()
    assert sorted(doc) == [
        "depths",
        "dims",
        "exact",
        "inequality",
        "passed",
        "profile",
        "rows",
        "seed",
        "slopes",
        "trials",
    ]
    assert set(doc["slopes"]) == {"1"}
    for row in doc["rows"]:
        assert row["witness"]["ratio"] == row["max_ratio"]
    again = canonical_json(sweep(spec).to_doc())
    assert canonical_json(doc) == again


def test_verify_suites_pass_on_small_grids():
    for suite in ("exact", "sparse", "corona", "constants"):
        rep = verify_suite(suite, dim=1, depth=3, trials=6, seed=0)
        assert rep["passed"], rep
        assert rep["suites"][0]["suite"] == suite
        assert all(c["passed"] for c in rep["suites"][0]["checks"])
    with pytest.raises(BadKind):
        verify_suite("bogus")


def test_canonical_json_frozen_strings():
    assert canonical_json({"b": 1, "a": [1.5, 2, True, None]}) == (
        '{"b": 1, "a": [1.5, 2, true, null]}\n'
    )
    assert canonical_json({"x": math.inf, "y": math.nan}) == '{"x": Infinity, "y": NaN}\n'
    assert canonical_json({"s": 'he said "hi"\n'}) == '{"s": "he said \\"hi\\"\\u000a"}\n'
    assert canonical_json(0.1) == "0.10000000000000001\n"
    assert canonical_json({"v": 2.5606601717798214}) == '{"v": 2.5606601717798214}\n'


def test_sweep_csv_headers():
    one = sweep(ExperimentSpec("eq1.4-left", dims=(1,), depths=(2, 3), trials=3, m=1))
    assert sweep_csv(one) == "depth,max_ratio,slope\n2,1,0\n3,1,0\n"
    two = sweep(
        ExperimentSpec("eq1.4-left", dims=(1, 2), depths=(2, 3), trials=2, m=1)
    )
    assert sweep_csv(two) == (
        "dim,depth,max_ratio,slope\n1,2,1,0\n1,3,1,0\n2,2,1,0\n2,3,1,0\n"
    )


def test_constants_csv_frozen():
    from dtl import adams_constant, aggregate

    rep = adams_constant(aggregate(lebesgue_measure(RootSpec(1, 2))), 0.5)
    assert constants_csv([rep]) == (
        "name,value,mode,witness_level,witness_index\nadams,1,exact-scan,0,0\n"
    )


def test_write_text_failure(tmp_path):
    # a directory cannot be opened for writing
    with pytest.raises(IoFailure):
        write_text(str(tmp_path), "not a file")


def test_figure_bytes_stable(tmp_path):
    from dtl.figures import render_sweep_figure

    rep = sweep(ExperimentSpec("thm1.1a", dims=(1,), depths=(2, 3), trials=4, m=1))
    a, b = tmp_path / "a.png", tmp_path / "b.png"
    render_sweep_figure(rep, str(a))
    render_sweep_figure(rep, str(b))
    blob = a.read_bytes()
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    assert blob == b.read_bytes()


def test_cli_verify(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify", "--suite", "exact", "--dim", "1", "--depth", "3",
            "--trials", "5", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "verify" and doc["passed"]


def test_cli_sweep_writes_twin_files(tmp_path):
    args = [
        "sweep", "--ineq", "eq1.4-left", "--m", "1", "--dims", "1",
        "--depths", "2..3", "--trials", "4", "--seed", "1",
    ]
    first = tmp_path / "one" / "rep.csv"
    second = tmp_path / "two" / "rep.csv"
    first.parent.mkdir()
    second.parent.mkdir()
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second), "--no-plot"]) == 0
    assert first.with_suffix(".json").exists()
    assert first.with_suffix(".png").exists()
    assert not second.with_suffix(".png").exists()
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".json").read_bytes() == second.with_suffix(".json").read_bytes()
    doc = json.loads(first.with_suffix(".json").read_text())
    assert doc["inequality"] == "eq1.4-left"


def test_cli_decompose(tmp_path):
    root = RootSpec(1, 3)
    spike = LeafField(root, np.array([8.0, 8.0, 0, 0, 0, 0, 0, 0]))
    src = tmp_path / "field.json"
    src.write_text(json.dumps(payload(spike)))
    out = tmp_path / "sparse.json"
    assert main(["decompose", "sparse", "--input", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["is_sparse"]
    assert {"level": 0, "index": [0]} in doc["cubes"]
    assert {"level": 2, "index": [0]} in doc["cubes"]

    pair = tmp_path / "pair.json"
    nu = LeafMeasure(root, "density", density=np.full(8, 0.5))
    pair.write_text(json.dumps({"field": payload(spike), "measure": payload(nu)}))
    out2 = tmp_path / "corona.json"
    assert main(["decompose", "corona", "--input", str(pair), "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["kind"] == "corona-forest"
    assert doc2["members"][0]["cube"] == {"level": 0, "index": [0]}


def test_cli_constants(tmp_path):
    root = RootSpec(1, 3)
    rng = np.random.default_rng(9)
    mu = LeafMeasure(root, "density", density=rng.uniform(0.5, 2.0, 8))
    mpath = tmp_path / "mu.json"
    mpath.write_text(json.dumps(payload(mu)))
    ppath = tmp_path / "prof.json"
    ppath.write_text(json.dumps(ExponentProfile.default(1, 1).to_doc()))
    jout = tmp_path / "table.json"
    assert main(
        ["constants", "--measure", str(mpath), "--profile", str(ppath), "--out", str(jout)]
    ) == 0
    doc = json.loads(jout.read_text())
    names = [row["name"] for row in doc["rows"]]
    assert "adams" in names and "ks-testing" in names
    cout = tmp_path / "table.csv"
    assert main(
        [
            "constants", "--measure", str(mpath), "--profile", str(ppath),
            "--format", "csv", "--out", str(cout),
        ]
    ) == 0
    assert cout.read_text().startswith("name,value,mode,witness_level,witness_index\n")


def test_cli_failures_exit_two(tmp_path):
    missing = tmp_path / "nope.json"
    ppath = tmp_path / "prof.json"
    ppath.write_text(json.dumps(ExponentProfile.default(1, 1).to_doc()))
    assert main(["constants", "--measure", str(missing), "--profile", str(ppath)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", "sparse", "--input", str(bad)]) == 2
