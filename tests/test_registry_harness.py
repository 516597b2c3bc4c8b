"""Inequality registry, sweep harness, reports, figures, and the CLI."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import warnings
import zlib
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import pysum
from dtl import (
    CubeAddr,
    ExponentProfile,
    LeafField,
    LeafMeasure,
    RootSpec,
    aggregate,
    ingest,
    lebesgue_measure,
    payload,
)
import dtl.constants
import dtl.decompositions
import dtl.registry
from dtl import harness
from dtl.cli import main
from dtl.constants import _GrowingFamily, ap_characteristic
from dtl.decompositions import (
    SparseDomination,
    build_principal_cubes,
    build_sparse_family,
    classify_children,
    verify_sparse,
)
from dtl.errors import BadExponent, BadKind, IoFailure, NonFinite, RegistryMiss, ShapeMismatch
from dtl.harness import (
    EXACT_SUITE_IDS,
    EXACT_TOL,
    ExperimentSpec,
    RatioReport,
    growth_slope,
    ratio_of,
    run_trial,
    sweep,
    trial_seed,
    verify_suite,
)
from dtl.generators import FIELD_KINDS, generate_input
from dtl.norms import product_morrey_norm
from dtl.operators import KernelWeight, dyadic_integral_operator
from dtl.registry import evaluate_inequality, lookup, max_ratio, registry_ids
from dtl.report import canonical_json, constants_csv, sweep_csv, write_json, write_text

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


_JOINT_P_REFUSALS = (
    ("thm2.3", False, "needs p <= 1, got 1.2"),
    ("thm1.1a", True, "needs p > 1, got 0.8999999999999999"),
    ("thm1.1b", True, "needs p > 1, got 0.8999999999999999"),
    ("thm1.2a", False, "needs p <= 1, got 1.2"),
    ("thm1.2b", True, "needs p > 1, got 0.8999999999999999"),
)


@pytest.mark.parametrize("ineq_id,low_p,message", _JOINT_P_REFUSALS)
def test_joint_p_refusals(monkeypatch, ineq_id, low_p, message):
    prof = ExponentProfile.default(2, 1, low_p=low_p)
    root = RootSpec(1, 2)
    fields = [LeafField(root, np.ones(4)) for _ in range(2)]
    # the input checks come first
    with pytest.raises(RegistryMiss):
        evaluate_inequality(ineq_id, prof, fields)

    def no_work(*args, **kwargs):
        raise AssertionError("the joint-p refusal comes before any work")

    monkeypatch.setattr("dtl.registry.aggregate", no_work)
    with pytest.raises(BadExponent) as exc:
        evaluate_inequality(ineq_id, prof, fields, measure=lebesgue_measure(root))
    assert str(exc.value) == message


def test_spec_refuses_unknown_measure_kind():
    with pytest.raises(BadKind, match="unknown measure kind 'uniform'"):
        ExperimentSpec(
            "thm1.1a", dims=(1,), depths=(2,), trials=1, m=1, measure_kinds=("uniform",)
        )


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
    # a trial hands back its input objects; only a sweep serializes them
    spec = ExperimentSpec("thm1.1a", dims=(1,), depths=(3,), trials=4, seed=2, m=1)
    doc = run_trial(spec, 1, 3, 0)
    assert sorted(doc) == ["extras", "inputs", "lhs", "ratio", "rhs", "trial"]
    assert doc["trial"] == 0
    assert doc["ratio"] == ratio_of(doc["lhs"], doc["rhs"])
    field, measure = doc["inputs"]["fields"][0], doc["inputs"]["measure"]
    assert isinstance(field, LeafField)
    assert isinstance(measure, LeafMeasure)
    assert doc["inputs"]["g"] is None
    for x in (field, measure):
        text = canonical_json(payload(x))
        back = ingest(json.loads(text))
        assert back == x
        assert canonical_json(payload(back)) == text


@pytest.mark.parametrize(
    "spec,tied",
    [
        (ExperimentSpec("thm2.1a", dims=(1,), depths=(2, 3), trials=4, seed=0), False),
        (ExperimentSpec("thm2.4", dims=(1,), depths=(2, 3), trials=3, seed=1), False),
        # every trial reaches ratio 1.0: the first trial is the witness
        (ExperimentSpec("morrey-lebesgue-identity", dims=(1,), depths=(3,), trials=6), True),
    ],
)
def test_sweep_serializes_each_row_witness_once(monkeypatch, spec, tied):
    calls = []

    def counted(data):
        calls.append(data)
        return payload(data)

    monkeypatch.setattr(harness, "payload", counted)
    rep = sweep(spec)
    monkeypatch.undo()
    # one payload per input of each row's witness, none for the other trials
    kept_inputs = [row["witness"]["inputs"] for row in rep.rows]
    assert len(calls) == sum(
        len(w["fields"]) + (w["measure"] is not None) + (w["g"] is not None) for w in kept_inputs
    )
    for row in rep.rows:
        recs = [run_trial(spec, row["dim"], row["depth"], t) for t in range(spec.trials)]
        ratios = [rec["ratio"] for rec in recs]
        assert (ratios.count(max(ratios)) > 1) == tied
        kept = recs[ratios.index(max(ratios))]
        assert row["witness"]["trial"] == kept["trial"]
        assert row["max_ratio"] == row["witness"]["ratio"] == kept["ratio"]
        want = kept["inputs"]
        assert canonical_json(row["witness"]["inputs"]) == canonical_json({
            "fields": [payload(f) for f in want["fields"]],
            "measure": None if want["measure"] is None else payload(want["measure"]),
            "g": None if want["g"] is None else payload(want["g"]),
        })


def _spy_everywhere(monkeypatch, original) -> list:
    """Count the calls of a dtl function at every module binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dtl"):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_report_only_diagnostics_run_once_per_kept_row(monkeypatch):
    ap = _spy_everywhere(monkeypatch, dtl.constants.ap_characteristic)
    cert = _spy_everywhere(monkeypatch, dtl.decompositions.verify_sparse)
    rep = sweep(ExperimentSpec("thm2.1a", dims=(1, 2), depths=(2, 3), trials=4, seed=0))
    assert len(rep.rows) == len(ap) == len(cert) == 4
    ap.clear()
    cert.clear()
    rep = sweep(ExperimentSpec("thm1.1a", dims=(1,), depths=(2, 3), trials=4, seed=0))
    assert (len(ap), len(cert)) == (len(rep.rows), 0)
    ap.clear()
    sweep(ExperimentSpec("lemma2.2b", dims=(1, 2), depths=(2, 3), trials=4, seed=0))
    assert (len(ap), len(cert)) == (0, 0)


def _eager_extras(rec: dict) -> dict:
    """A trial's extras with the report-only diagnostics worked out from
    its inputs on the spot, the way a trial computed them before they
    were deferred."""
    fields, measure = rec["inputs"]["fields"], rec["inputs"]["measure"]
    eager = {}
    for key, val in rec["extras"].items():
        if key == "carleson":
            root = fields[0].root
            fam = build_sparse_family([aggregate(f) for f in fields], root.root_cube())
            val = verify_sparse(root, fam.cubes).carleson
        elif key == "ap_infinity":
            val = None
            if measure.kind == "density":
                w = LeafField(measure.root, measure.density)
                val = ap_characteristic(w, "infinity").value
        else:
            assert not callable(val), key
        eager[key] = val
    return eager


_DEFERRED = {
    "thm2.1a": ("carleson", "ap_infinity"),
    "thm2.1b": ("carleson", "ap_infinity"),
    "thm2.3": ("carleson", "ap_infinity"),
    "thm1.1a": ("ap_infinity",),
    "thm1.1b": ("ap_infinity",),
    "thm1.2a": ("ap_infinity",),
}


@pytest.mark.parametrize("ineq", ALL_IDS)
@pytest.mark.parametrize("dim,depth", [(1, 3), (2, 2)])
def test_kept_witness_extras_equal_an_eager_evaluation(ineq, dim, depth):
    spec = ExperimentSpec(ineq, dims=(dim,), depths=(depth,), trials=3, seed=1)
    (row,) = sweep(spec).rows
    rec = run_trial(spec, dim, depth, row["witness"]["trial"])
    deferred = [key for key, val in rec["extras"].items() if callable(val)]
    assert deferred == list(_DEFERRED.get(ineq, ()))
    got, want = row["witness"]["extras"], _eager_extras(rec)
    assert list(got) == list(want) == list(rec["extras"])
    assert got == want and canonical_json(got) == canonical_json(want)


def _as_lists(doc):
    """(doc with every array replaced by its tolist(), the number of
    arrays replaced)."""
    if isinstance(doc, np.ndarray):
        return doc.tolist(), 1
    if isinstance(doc, dict):
        pairs = [(key, _as_lists(val)) for key, val in doc.items()]
        return {key: val for key, (val, _) in pairs}, sum(n for _, (_, n) in pairs)
    if isinstance(doc, (list, tuple)):
        items = [_as_lists(val) for val in doc]
        return [val for val, _ in items], sum(n for _, n in items)
    return doc, 0


@pytest.mark.parametrize("ineq", ALL_IDS)
def test_witness_arrays_and_lists_emit_the_same_bytes(ineq):
    # the emitter's array paths against its element-by-element list path
    arrays = 0
    for dim, depth in ((1, 3), (2, 2)):
        doc = sweep(ExperimentSpec(ineq, dims=(dim,), depths=(depth,), trials=2)).to_doc()
        lists, found = _as_lists(doc)
        assert canonical_json(doc) == canonical_json(lists)
        arrays += found
    assert arrays >= 1


def test_eq14_names_an_overflowing_testing_power():
    # f = 1e200 has finite testing candidates whose p'-th powers overflow:
    # both sides of eq1.4 name that power, with no RuntimeWarning on the
    # way, where eq1.4-left scored a vacuous ratio 0 against an infinite rhs
    root = RootSpec(1, 4)
    f = LeafField(root, np.full(root.leaf_count, 1e200))
    profile = ExponentProfile.default(2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ineq in ("eq1.4-left", "eq1.4-right"):
            with pytest.raises(NonFinite, match="candidate to the power 6.0"):
                evaluate_inequality(ineq, profile, [f])


def test_morrey_lebesgue_identity_names_an_underflow():
    # f = 1e-200 under p0 = 1.8: every leaf's f^p0 underflows to 0, so
    # both norms are 0, and the identity scored a vacuous ratio 0 from
    # 0 = 0; it refuses naming the underflow, with no RuntimeWarning
    root = RootSpec(1, 4)
    f = LeafField(root, np.full(root.leaf_count, 1e-200))
    profile = ExponentProfile.default(1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="power 1.8 underflow"):
            evaluate_inequality("morrey-lebesgue-identity", profile, [f])
    # a zero field is no underflow: both norms are 0, and so is the score
    zero = LeafField(root, np.zeros(root.leaf_count))
    assert evaluate_inequality("morrey-lebesgue-identity", profile, [zero]).lhs == 0.0


def test_sweep_and_exact_suite_call_run_trial_through_the_module(monkeypatch):
    # the benchmark times trials by replacing harness.run_trial: every
    # trial of a sweep and of the exact suite must go through that name
    calls = []
    original = harness.run_trial

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counted)
    sweep(ExperimentSpec("thm1.2b", dims=(1, 2), depths=(2, 3), trials=3, seed=0))
    assert len(calls) == 2 * 2 * 3
    calls.clear()
    verify_suite("exact", dim=1, depth=3, trials=2, seed=0)
    assert len(calls) == len(EXACT_SUITE_IDS) * 2 == 4 * 2


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


def test_verify_suite_rejects_nonpositive_trials(tmp_path):
    for suite in ("sparse", "corona", "constants", "all"):
        for trials in (0, -3):
            with pytest.raises(BadKind, match="trials must be positive"):
                verify_suite(suite, dim=1, depth=3, trials=trials)
    out = tmp_path / "verify.json"
    for suite in ("sparse", "corona", "constants"):
        args = ["verify", "--suite", suite, "--trials", "0", "--out", str(out)]
        assert main(args) == 2
    assert not out.exists()


def test_negative_seed_is_refused():
    # trial_seed cannot take a negative seed; the run is refused up front
    with pytest.raises(BadKind, match="seed must be nonnegative, got -3"):
        ExperimentSpec("thm1.2b", dims=(1,), depths=(2,), trials=1, seed=-3)
    for suite in ("exact", "sparse", "corona", "constants", "all"):
        with pytest.raises(BadKind, match="seed must be nonnegative, got -1"):
            verify_suite(suite, dim=1, depth=2, trials=1, seed=-1)


def test_dim_below_one_is_refused_before_any_profile():
    # the refusal names the dim the caller gave, not a profile built from it
    for dim in (0, -1):
        with pytest.raises(ShapeMismatch, match=f"^dim must be >= 1, got {dim}$"):
            ExperimentSpec("thm1.2b", dims=(1, dim), depths=(2,), trials=1)
        for suite in ("exact", "sparse", "corona", "constants", "all"):
            with pytest.raises(ShapeMismatch, match=f"^dim must be >= 1, got {dim}$"):
                verify_suite(suite, dim=dim, depth=2, trials=1)


def test_verify_sparse_names_infinite_domination(monkeypatch):
    # the suite reads each trial's family from the domination it gets
    dominate = harness.sparse_dominate
    monkeypatch.setattr(
        harness,
        "sparse_dominate",
        lambda aggs, alpha: SparseDomination(dominate(aggs, alpha).family, math.inf),
    )
    rep = verify_suite("sparse", dim=1, depth=3, trials=3)
    checks = {c["check"]: c for c in rep["suites"][0]["checks"]}
    assert not checks["domination-constant-finite"]["passed"]
    assert checks["domination-constant-finite"]["max_constant"] == 0.0
    assert checks["stopping-families-certified"] == {
        "check": "stopping-families-certified", "passed": True, "violations": 0
    }
    assert not rep["passed"]


def _holed_generator(hole):
    """generate_input with the leaves of one cube zeroed (fields and
    densities) or emptied of atoms; the cube's level is hole mod
    (depth + 2), so level depth + 1 leaves the input whole."""

    def gen(root, kind, seed):
        data = generate_input(root, kind, seed)
        level = hole % (root.depth + 2)
        if level > root.depth:
            return data
        index = np.random.default_rng([seed, hole]).integers(0, 1 << level, size=root.dim)
        keep = np.ones(root.grid_shape)
        keep[CubeAddr(level, tuple(index.tolist())).leaf_slices(root.depth)] = 0.0
        keep = keep.ravel()
        if isinstance(data, LeafField):
            return LeafField(root, data.values * keep)
        if data.kind == "density":
            return LeafMeasure(root, "density", density=data.density * keep)
        atoms = tuple(a for a in data.atoms if keep[a[0]])
        return LeafMeasure(root, "atomic", atoms=atoms)

    return gen


def _verify_corona_oracle(dim, depth, trials, seed):
    """The corona suite with its stopping-parent bound and projection
    checks done one cube at a time by the oracles; inputs come from
    harness.generate_input, as in the suite."""
    root = RootSpec(dim, depth)
    base = root.root_cube()
    packing_bad = parent_bad = partition_bad = 0
    projection_worst = 0.0
    for trial in range(trials):
        h = harness.generate_input(
            root,
            FIELD_KINDS[trial % len(FIELD_KINDS)],
            trial_seed(seed, dim, depth, trial, harness._ROLE_FIELD0),
        )
        nu, measure = None, lebesgue_measure(root)
        if trial % 2:
            nu = measure = harness.generate_input(
                root,
                ("density-measure", "atom-measure")[(trial // 2) % 2],
                trial_seed(seed, dim, depth, trial, harness._ROLE_MEASURE),
            )
            if aggregate(nu).total <= 0:
                continue
        forest = harness.build_principal_cubes(h, nu, base)
        mass, weighted = aggregate(measure), aggregate(measure.weighted(h))
        for member in forest.members:
            kids_mass = sum(mass.sum_of(kid) for kid in forest.children[member])
            if 2.0 * kids_mass > mass.sum_of(member) * (1.0 + 1e-12):
                packing_bad += 1
        members = [(c.level, c.index) for c in forest.members]
        parent_bad += oracles.corona_parent_bound_violations(
            dim, depth, members, mass.levels, weighted.levels
        )
        f2 = harness.generate_input(
            root,
            FIELD_KINDS[(trial + 1) % len(FIELD_KINDS)],
            trial_seed(seed, dim, depth, trial, harness._ROLE_G),
        )
        f_forest = harness.build_principal_cubes(f2, None, base)
        projected = {}
        for member in forest.members:
            cls = classify_children(forest, f_forest, member)
            names = set(cls.at_child) | set(cls.inside) | set(cls.above)
            if len(names) != len(cls.at_child) + len(cls.inside) + len(cls.above):
                partition_bad += 1
            if names != set(forest.children[member]):
                partition_bad += 1
            proj = harness.corona_projection(f2, forest, member)
            projected[(member.level, member.index)] = aggregate(proj).levels
        projection_worst = max(
            projection_worst,
            oracles.corona_projection_error(
                dim, depth, members, aggregate(f2).levels, projected
            ),
        )
    return [
        {"check": "stopping-packing-factor-2", "passed": packing_bad == 0,
         "violations": packing_bad},
        {"check": "stopping-parent-bound", "passed": parent_bad == 0,
         "violations": parent_bad},
        {"check": "classification-partition", "passed": partition_bad == 0,
         "violations": partition_bad},
        {"check": "projection-preserves-integrals", "passed": projection_worst <= 1e-12,
         "max_relative_error": projection_worst},
    ]


_CORONA_GRIDS = (
    [(1, depth) for depth in range(7)]
    + [(2, depth) for depth in range(5)]
    + [(3, depth) for depth in range(3)]
)


def _reversed(build):
    """`build` with the leaves of its field argument (stopping forests) or
    of its result (projection) reversed, so that the stopping-parent bound
    and the projection check see real violations."""

    def flip(f):
        return LeafField(f.root, f.values[::-1])

    if build is harness.build_principal_cubes:
        return lambda f, nu, base: build(flip(f), nu, base)
    return lambda *args: flip(build(*args))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    grid=st.sampled_from(_CORONA_GRIDS),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2 ** 16),
    hole=st.integers(0, 40),
    mismatch=st.booleans(),
)
def test_verify_corona_matches_per_cube_oracle(grid, trials, seed, hole, mismatch):
    dim, depth = grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "generate_input", _holed_generator(hole))
        if mismatch:
            for name in ("build_principal_cubes", "corona_projection"):
                mp.setattr(harness, name, _reversed(getattr(harness, name)))
        got = harness._verify_corona(dim, depth, trials, seed)
        want = _verify_corona_oracle(dim, depth, trials, seed)
    assert got == want
    assert [type(v) for c in got for v in c.values()] == [
        type(v) for c in want for v in c.values()
    ]


def test_canonical_json_frozen_strings():
    assert canonical_json({"b": 1, "a": [1.5, 2, True, None]}) == (
        '{"b": 1, "a": [1.5, 2, true, null]}\n'
    )
    assert canonical_json({"x": math.inf, "y": math.nan}) == '{"x": Infinity, "y": NaN}\n'
    assert canonical_json({"s": 'he said "hi"\n'}) == '{"s": "he said \\"hi\\"\\u000a"}\n'
    assert canonical_json(0.1) == "0.10000000000000001\n"
    assert canonical_json({"v": 2.5606601717798214}) == '{"v": 2.5606601717798214}\n'


# (string, its JSON token): every control character is \u-escaped, the
# quote and the backslash get a backslash, and DEL, U+2028 and a non-BMP
# character pass through as they are
_FROZEN_STRINGS = (
    (
        "".join(map(chr, range(0x20))),
        '"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007'
        '\\u0008\\u0009\\u000a\\u000b\\u000c\\u000d\\u000e\\u000f'
        '\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017'
        '\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"',
    ),
    ('"', '"\\""'),
    ("\\", '"\\\\"'),
    ("\x7f", '"\x7f"'),
    ("\u2028", '"\u2028"'),
    ("\U0001f600", '"\U0001f600"'),
    ('a\\"\tb\x7f\u2028', '"a\\\\\\"\\u0009b\x7f\u2028"'),
)


def test_canonical_json_frozen_escapes():
    for s, token in _FROZEN_STRINGS:
        assert canonical_json(s) == token + "\n"
        assert canonical_json({s: s}) == "{%s: %s}\n" % (token, token)
        assert oracles.canonical_json(s) == token + "\n"


_SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 1e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.1, 1.0, 2.5,
)
_FLOAT = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
# elements of other types among the floats of a list
_INTRUDER = st.one_of(
    _FLOAT.map(np.float64), st.booleans(), st.integers(-(2 ** 70), 2 ** 70), st.none()
)


@st.composite
def _float_list(draw):
    values = draw(st.lists(_FLOAT, max_size=10))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_INTRUDER)
    return values if draw(st.booleans()) else tuple(values)


_ATOMS = st.lists(st.tuples(st.integers(0, 99), _FLOAT).map(list), max_size=4)
_DOC = st.recursive(
    st.one_of(_FLOAT, _INTRUDER, st.text(max_size=4), _float_list(), _ATOMS),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_DOC)
def test_canonical_json_matches_per_element_oracle(doc):
    assert canonical_json(doc) == oracles.canonical_json(doc)


# sha256 of canonical_json(doc) + sweep_csv for seed-0, 3-trial sweeps,
# recorded before finite float lists were formatted in one call
_PINNED_REPORTS = (
    ("hedberg-pointwise", (2,), (2, 3),
     "0d500bdeda0936fceea919dc77b4fe9397ac58bb1af2cf8716cd73add6c17ff3"),
    ("thm2.1a", (1,), (4, 5),
     "61f85f3d5ecdd76f418b01710b766e4a7a870f8467fe017b5df5e93177cb21bc"),
    ("morrey-nesting", (1,), (3, 4),
     "80a76476b6cd6618ae9a75e27ba54fb67cd2654ae7c35799dc89bf2a9ab6fe11"),
    # family-sup ids, recorded before cq_supremum searched one layout
    ("thm2.4", (1,), (4, 5, 6),
     "887c50a97173ec51da6283b98d3536fb32ad13a3bc31c2da095cb33ae2f1c25d"),
    ("thm2.4", (2,), (2, 3),
     "d485deca9231841cb233df94f1af9fb4c28230834bb6e6cd172ae31d79bf6598"),
    ("thm2.6", (1,), (4, 5, 6),
     "82ddceff56bd23ff562f6cfb9f6b93492105cb9f4dbb6380d1809e921f18b12e"),
    ("thm2.6", (2,), (2, 3),
     "3a1291ded98093b173527f958dde1fb3b6ead1c575841c1daa646015f21003e3"),
    ("lemma2.5", (1,), (6, 7, 8),
     "bb95c12b6bd25c69035d0d888660b8d9edd3100d1e172ffdd144a8cdbfc0fec2"),
    # kernel quadrature, recorded before each leaf's kernel was sliced
    # from one lag table
    ("discretization", (1,), (4, 5, 6),
     "0e38e35dd37afa9bdf8022b7c0e5bae9a4ecaaf3116b48e1dd54615bd6628a64"),
    ("discretization", (2,), (2, 3),
     "efd09ee16ff03f7158b8390e44a64da495f8915133178eb879ef89b48f5b62f6"),
)


# the same for witness lists of 1,024 to 65,536 floats, recorded before
# long float lists went through the report kernel; morrey-lebesgue-identity
# holds one constant field only
_PINNED_KERNEL_REPORTS = (
    ("thm1.1a", (2,), (7, 8),
     "264dcc8ffe4417764118f8c311a617e18ed2a6ec8d2a3e905ea2e0714d8daee0"),
    ("hedberg-pointwise", (2,), (5, 6),
     "286826345d9bcb7e306e4722c7b450f2190f3ee51e245e586879e6a56343c013"),
    ("morrey-lebesgue-identity", (1,), (14,),
     "889c7a90941be086b88abf54b5172cc12f319a9963788382344a0c24bd61ecee"),
)


@pytest.mark.parametrize(
    "ineq_id,dims,depths,digest", _PINNED_REPORTS + _PINNED_KERNEL_REPORTS
)
def test_report_bytes_pinned(ineq_id, dims, depths, digest):
    rep = sweep(ExperimentSpec(ineq_id, dims=dims, depths=depths, trials=3, seed=0))
    text = canonical_json(rep.to_doc()) + sweep_csv(rep)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# sha256 of canonical_json(verify_suite("all", dim, depth, trials=4, seed=0)),
# recorded before the corona checks read the owner tables
_PINNED_VERIFY = (
    (1, 3, "42cd3bf6238842b6aa15285eb9ea95cce3a957ad26e7e722f9613419cc300b0a"),
    (2, 5, "66da3d211006703e402773146ed5826116eb24427a4f99d6b076c40a909d4f7e"),
    (1, 8, "28c15f7f7fde75ec7e9818eabbf68531b997f294a3ddfb42d1eb9f0bbbcbd6f5"),
)


@pytest.mark.parametrize("dim,depth,digest", _PINNED_VERIFY)
def test_verify_bytes_pinned(dim, depth, digest):
    rep = verify_suite("all", dim=dim, depth=depth, trials=4, seed=0)
    text = canonical_json(rep)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _assert_streams_like_canonical_json(tmp_path, doc) -> bytes:
    """write_json(doc) gives the file write_text gives canonical_json(doc)."""
    streamed, whole = tmp_path / "streamed.json", tmp_path / "whole.json"
    write_json(str(streamed), doc)
    write_text(str(whole), canonical_json(doc))
    assert streamed.read_bytes() == whole.read_bytes()
    return streamed.read_bytes()


@pytest.mark.parametrize(
    "ineq_id,dims,depths,digest", _PINNED_REPORTS + _PINNED_KERNEL_REPORTS
)
def test_write_json_streams_the_pinned_report_bytes(tmp_path, ineq_id, dims, depths, digest):
    rep = sweep(ExperimentSpec(ineq_id, dims=dims, depths=depths, trials=3, seed=0))
    text = _assert_streams_like_canonical_json(tmp_path, rep.to_doc())
    assert hashlib.sha256(text + sweep_csv(rep).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("dim,depth,digest", _PINNED_VERIFY)
def test_write_json_streams_the_pinned_verify_bytes(tmp_path, dim, depth, digest):
    rep = verify_suite("all", dim=dim, depth=depth, trials=4, seed=0)
    text = _assert_streams_like_canonical_json(tmp_path, rep)
    assert hashlib.sha256(text).hexdigest() == digest


def test_write_json_leaves_no_file_for_a_document_it_cannot_serialize(tmp_path):
    # the first long array is streamed before the bad value is reached
    path = tmp_path / "bad.json"
    with pytest.raises(IoFailure, match="cannot serialize object"):
        write_json(str(path), {"a": np.random.default_rng(0).random(10000), "b": object()})
    assert not path.exists()


def _bind_compensated_sum(monkeypatch):
    """Python 3.12's float sum (tests/pysum.py) as `sum` in every dtl module."""
    for name, module in list(sys.modules.items()):
        if name == "dtl" or name.startswith("dtl."):
            monkeypatch.setattr(module, "sum", pysum.sum, raising=False)


# the pins whose reports end in scalar float sums (family sups, the
# level sums of thm2.4 and lemma 2.5), unedited: under 3.12's sum they
# hold only because no module adds floats with the builtin
@pytest.mark.parametrize(
    "ineq_id,dims,depths,digest",
    [row for row in _PINNED_REPORTS if row[0] in ("thm2.4", "thm2.6", "lemma2.5")],
)
def test_report_bytes_hold_under_python312_sum(monkeypatch, ineq_id, dims, depths, digest):
    _bind_compensated_sum(monkeypatch)
    test_report_bytes_pinned(ineq_id, dims, depths, digest)


@pytest.mark.parametrize("dim,depth,digest", _PINNED_VERIFY)
def test_verify_bytes_hold_under_python312_sum(monkeypatch, dim, depth, digest):
    # the verify suite adds kids' masses (corona packing) and an ancestor
    # tail (condition (D)) besides its family sups
    _bind_compensated_sum(monkeypatch)
    test_verify_bytes_pinned(dim, depth, digest)


def test_payload_values_are_read_only_float64_views():
    # O(1) payloads: the validated float64 array itself, float32 input
    # included, which no caller can write through; its report text parses
    # back to JSON numbers equal to the values (an integral float prints
    # as "2", which parses as an int)
    root = RootSpec(2, 3)
    inputs = [generate_input(root, kind, 7) for kind in FIELD_KINDS]
    inputs.append(generate_input(root, "density-measure", 7))
    inputs.append(LeafField(root, np.arange(root.leaf_count, dtype=np.float32)))
    for data in inputs:
        own = data.values if isinstance(data, LeafField) else data.density
        writeable = own.flags.writeable
        values = payload(data)["values"]
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == (root.leaf_count,)
        assert np.shares_memory(values, own)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
        assert own.flags.writeable == writeable  # the field itself is untouched
        parsed = json.loads(canonical_json(values))
        assert {type(v) for v in parsed} <= {int, float}
        assert parsed == values.tolist()
        assert np.array(parsed, np.float64).tobytes() == values.tobytes()


_RATIO_SIDE = st.sampled_from(
    (0.0, 5e-324, 1e-300, 1e-200, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e200, 1e300)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(_RATIO_SIDE, _RATIO_SIDE), max_size=12),
    st.sampled_from((0.4, 1.0, 2.5)),
)
def test_max_ratio_matches_leaf_loop(pairs, expo):
    lhs = np.array([a for a, _ in pairs])
    rhs = np.array([b for _, b in pairs])
    assert max_ratio(lhs, rhs) == oracles.max_ratio_loop(lhs, rhs)
    # hedberg's right side: libm pow per leaf; tiny b ** 2.5 underflows to 0
    keep = rhs <= 1e100  # 1e300 ** 2.5 overflows (OverflowError) either way
    lhs, rhs = lhs[keep], rhs[keep].tolist()
    powered = [b ** expo if b > 0 else 0.0 for b in rhs]
    got = max_ratio(lhs, list(map(pow, rhs, repeat(expo))))
    assert got == oracles.max_ratio_loop(lhs, powered)


def test_hedberg_matches_per_leaf_loop():
    # the evaluator's two sides rebuilt from the public API and scored by
    # the old per-leaf loop; numpy's array power in place of libm pow
    # moves 2 of these 16 maxima in the last bit
    for dim, depth in ((1, 8), (2, 4)):
        profile = ExponentProfile.default(2, dim)
        root = RootSpec(dim, depth)
        for seed in range(8):
            fields = [
                generate_input(root, FIELD_KINDS[(seed + i) % 4], (seed, i))
                for i in range(2)
            ]
            got = evaluate_inequality("hedberg-pointwise", profile, fields).lhs
            norm = float(product_morrey_norm(fields, profile))
            aggs = [aggregate(f.scaled(norm ** (-1.0 / profile.m))) for f in fields]
            hi = dyadic_integral_operator(aggs, KernelWeight.canonical(profile.alpha, 2, dim))
            lo = dyadic_integral_operator(aggs, KernelWeight.canonical(profile.beta, 2, dim))
            expo = 1.0 / profile.theta
            powered = [b ** expo if b > 0 else 0.0 for b in lo.values.tolist()]
            assert got == oracles.max_ratio_loop(hi.values, powered)


def test_hedberg_band_recovers_a_misranked_top(monkeypatch):
    # near-tied leaf ratios (fields 1 + 1e-14 noise) and a screen skewed by
    # up to 1e-13, inside the screen's allowance: the screen's top leaf is
    # not libm's, and the band still gives the per-leaf loop's max
    root = RootSpec(1, 6)
    profile = ExponentProfile.default(2, 1)
    rng = np.random.default_rng(5)
    fields = [LeafField(root, 1.0 + 1e-14 * rng.random(root.leaf_count)) for _ in range(2)]
    norm = float(product_morrey_norm(fields, profile))
    aggs = [aggregate(f.scaled(norm ** (-1.0 / profile.m))) for f in fields]
    hi = dyadic_integral_operator(aggs, KernelWeight.canonical(profile.alpha, 2, 1)).values
    lo = dyadic_integral_operator(aggs, KernelWeight.canonical(profile.beta, 2, 1)).values
    expo = 1.0 / profile.theta
    powered = [b ** expo for b in lo.tolist()]
    skew = 1.0 + 1e-13 * rng.uniform(-1.0, 1.0, root.leaf_count)
    assert np.argmax(hi / (lo ** expo * skew)) != np.argmax(hi / np.array(powered))
    monkeypatch.setattr(dtl.registry, "power", lambda base, e, out=None: base ** e * skew)
    got = evaluate_inequality("hedberg-pointwise", profile, fields).lhs
    assert got == oracles.max_ratio_loop(hi, powered)


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


def _png_chunks(blob):
    """(type, data) pairs of a PNG, checking the signature and every CRC."""
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, at = [], 8
    while at < len(blob):
        (length,) = struct.unpack(">I", blob[at : at + 4])
        kind = blob[at + 4 : at + 8]
        data = blob[at + 8 : at + 8 + length]
        (crc,) = struct.unpack(">I", blob[at + 8 + length : at + 12 + length])
        assert crc == zlib.crc32(kind + data), kind
        chunks.append((kind, data))
        at += 12 + length
    return chunks


def test_figure_handles_inf_zero_and_single_depth(tmp_path):
    from dtl.figures import render_sweep_figure

    # ratio_of gives inf by design, exact identities give 0, slopes may be
    # nan, and one depth leaves a zero-width x range
    rep = RatioReport(
        inequality="eq1.4-left", exact=True, seed=0, trials=1, dims=(1, 2),
        depths=(3,), profile_doc={},
        rows=(
            {"dim": 1, "depth": 3, "max_ratio": math.inf, "witness": None},
            {"dim": 2, "depth": 3, "max_ratio": 0.0, "witness": None},
        ),
        slopes={"1": math.inf, "2": math.nan}, passed=False,
    )
    out = tmp_path / "edge.png"
    render_sweep_figure(rep, str(out))
    chunks = _png_chunks(out.read_bytes())
    kinds = [kind for kind, _ in chunks]
    assert kinds[0] == b"IHDR" and kinds[-1] == b"IEND"
    width, height, bit_depth, color_type = struct.unpack(">IIBB", chunks[0][1][:10])
    assert (bit_depth, color_type) == (8, 2)
    idat = zlib.decompress(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    assert len(idat) == height * (1 + 3 * width)
    text = [data.decode("latin-1") for kind, data in chunks if kind == b"tEXt"]
    assert "Title\x00eq1.4-left" in text
    assert "Y axis\x00max ratio (linear scale)" in text
    legend = [t for t in text if t.startswith("Legend\x00")]
    assert [t.split(" #")[0] for t in legend] == [
        "Legend\x00dim 1 (slope inf)",
        "Legend\x00dim 2 (slope nan)",
    ]
    assert b"tIME" not in kinds


def test_cli_sweep_figure_failure_keeps_exit_code(tmp_path, monkeypatch, capsys):
    import dtl.figures

    def broken(report, path):
        raise IoFailure("no canvas")

    monkeypatch.setattr(dtl.figures, "render_sweep_figure", broken)
    out = tmp_path / "rep.csv"
    args = [
        "sweep", "--ineq", "eq1.4-left", "--m", "1", "--dims", "1",
        "--depths", "2..3", "--trials", "4", "--seed", "1", "--out", str(out),
    ]
    assert main(args) == 0
    assert out.exists() and out.with_suffix(".json").exists()
    assert not out.with_suffix(".png").exists()
    assert capsys.readouterr().err == "dtl: figure skipped: IoFailure: no canvas\n"


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


def test_cli_sweep_csv_and_json_hold_the_pinned_bytes(tmp_path):
    out = tmp_path / "rep.csv"
    args = [
        "sweep", "--ineq", "morrey-nesting", "--dims", "1", "--depths", "3..4",
        "--trials", "3", "--seed", "0", "--no-plot", "--out", str(out),
    ]
    assert main(args) == 0
    text = out.with_suffix(".json").read_bytes() + out.read_bytes()
    digest = next(row[3] for row in _PINNED_REPORTS if row[0] == "morrey-nesting")
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("name,kind", [("rep.json", "JSON"), ("rep.png", "PNG")])
def test_cli_sweep_refuses_an_out_its_own_twin_would_overwrite(tmp_path, capsys, name, kind):
    out = tmp_path / name
    args = [
        "sweep", "--ineq", "morrey-nesting", "--depths", "2..3", "--trials", "2",
        "--out", str(out),
    ]
    assert main(args) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == (
        f"dtl: IoFailure: --out {out} is also the path of the sweep's {kind} file; "
        "give the CSV another name\n"
    )
    if kind == "PNG":  # without a figure there is no PNG to clash with
        assert main(args + ["--no-plot"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.json", "rep.png"]


def test_cli_decompose(tmp_path):
    root = RootSpec(1, 3)
    spike = LeafField(root, np.array([8.0, 8.0, 0, 0, 0, 0, 0, 0]))
    src = tmp_path / "field.json"
    src.write_text(canonical_json(payload(spike)))
    out = tmp_path / "sparse.json"
    assert main(["decompose", "sparse", "--input", str(src), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["is_sparse"]
    assert {"level": 0, "index": [0]} in doc["cubes"]
    assert {"level": 2, "index": [0]} in doc["cubes"]

    pair = tmp_path / "pair.json"
    nu = LeafMeasure(root, "density", density=np.full(8, 0.5))
    pair.write_text(canonical_json({"field": payload(spike), "measure": payload(nu)}))
    out2 = tmp_path / "corona.json"
    assert main(["decompose", "corona", "--input", str(pair), "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["kind"] == "corona-forest"
    assert doc2["members"][0]["cube"] == {"level": 0, "index": [0]}


def _decompose_inputs(dim, depth):
    """Sparse and corona inputs: one and two fields, no measure, a
    density measure and an atomic measure (zero-mass subtrees)."""
    root = RootSpec(dim, depth)
    spikes, power, uniform = (
        payload(generate_input(root, kind, 11))
        for kind in ("sparse-spikes", "power-spike", "uniform")
    )
    density = payload(generate_input(root, "density-measure", 12))
    # atoms on the leaves of six spikes plus three elsewhere
    hot = generate_input(root, "sparse-spikes", 13, spikes=6)
    atoms = generate_input(root, "atom-measure", 13).atoms + tuple(
        (int(leaf), 1.0) for leaf in np.flatnonzero(hot.values)
    )
    atomic = payload(LeafMeasure(root, "atomic", atoms=atoms))
    return (
        ("sparse", spikes),
        ("sparse", {"fields": [power, uniform]}),
        ("corona", power),
        ("corona", {"field": spikes, "measure": density}),
        ("corona", {"field": payload(hot), "measure": atomic}),
    )


# sha256 over the concatenated `dtl decompose` outputs of _decompose_inputs
# for d1 L8 and d2 L5, recorded before the stopping scans became level sweeps
_DECOMPOSE_DIGEST = "8c6940c8d43a4e4661253dcd3fa2b01519a6001f17984cc707d98fb6271f977c"


def test_cli_decompose_bytes_pinned(tmp_path):
    digest = hashlib.sha256()
    for dim, depth in ((1, 8), (2, 5)):
        for n, (what, doc) in enumerate(_decompose_inputs(dim, depth)):
            src = tmp_path / f"in{dim}{n}.json"
            out = tmp_path / f"out{dim}{n}.json"
            src.write_text(canonical_json(doc))
            assert main(["decompose", what, "--input", str(src), "--out", str(out)]) == 0
            digest.update(out.read_bytes())
    assert digest.hexdigest() == _DECOMPOSE_DIGEST


def test_cli_constants(tmp_path):
    root = RootSpec(1, 3)
    rng = np.random.default_rng(9)
    mu = LeafMeasure(root, "density", density=rng.uniform(0.5, 2.0, 8))
    mpath = tmp_path / "mu.json"
    mpath.write_text(canonical_json(payload(mu)))
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
    # well-formed JSON missing a required key
    bad.write_text(json.dumps({"dim": 1, "depth": 2, "kind": "field"}))
    assert main(["decompose", "sparse", "--input", str(bad)]) == 2
    mpath = tmp_path / "mu.json"
    mpath.write_text(canonical_json(payload(lebesgue_measure(RootSpec(1, 2)))))
    doc = ExponentProfile.default(1, 1).to_doc()
    del doc["n"]
    ppath.write_text(json.dumps(doc))
    assert main(["constants", "--measure", str(mpath), "--profile", str(ppath)]) == 2


@pytest.mark.parametrize(
    "data,named",
    [
        (b"\xff\xfe{}", "can't decode byte 0xff"),
        (b"[" * 100_000, "maximum recursion depth"),
        (b'{"dim": 1' + b"0" * 5000 + b"}", "integer string conversion"),
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_cli_undecodable_input_exits_two(tmp_path, capsys, data, named):
    # bytes that are not UTF-8, nesting too deep to parse and an integer of
    # too many digits are input errors, not failed checks or tracebacks
    src = tmp_path / "in.json"
    src.write_bytes(data)
    assert main(["decompose", "sparse", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dtl: IoFailure: cannot read {src}: ") and named in err


@pytest.mark.parametrize(
    "doc,named",
    [
        ([1, 2], "got list"),
        ({"dim": 1, "depth": 2, "kind": "field", "values": "abc"}, "key 'values'"),
        ({"dim": "x", "depth": 2, "kind": "field", "values": [0.0] * 4}, "key 'dim'"),
        ({"dim": 1, "depth": 100000, "kind": "field", "values": []}, "2^100000 leaves"),
        ({"dim": 1, "depth": 1, "kind": "atomic", "atoms": [[0]]}, "key 'atoms'"),
        ({"fields": 3}, "key 'fields'"),
        ({"fields": []}, "empty 'fields'"),
        # JSON types are strict: no string digits, fractions or bools for ints
        ({"dim": "1", "depth": 2, "kind": "field", "values": [0.0] * 4}, "key 'dim'"),
        ({"dim": 1, "depth": 2.9, "kind": "field", "values": [0.0] * 4}, "key 'depth'"),
        ({"dim": 1, "depth": True, "kind": "field", "values": [0.0] * 2}, "key 'depth'"),
        ({"dim": 1, "depth": 1, "kind": "atomic", "atoms": ["05", "12"]}, "key 'atoms'"),
        ({"dim": 1, "depth": 1, "kind": "field", "values": ["1", "2"]}, "key 'values'"),
        ({"dim": 1, "depth": 1, "kind": "field", "values": [None, 2]}, "key 'values'"),
        # a bool among numbers is no number either
        ({"dim": 1, "depth": 1, "kind": "field", "values": [1, True]}, "key 'values'"),
        ({"dim": 1, "depth": 1, "kind": "field", "values": [1.5, False]}, "key 'values'"),
        ({"dim": 2, "depth": 1, "kind": "density", "values": [[1, 2], [False, 3]]}, "key 'values'"),
    ],
)
def test_cli_wrong_input_types_exit_two(tmp_path, capsys, doc, named):
    # a document of the wrong JSON type is an input error, not a failed check
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    assert main(["decompose", "sparse", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dtl: ") and named in err


def test_cli_wrong_profile_types_exit_two(tmp_path, capsys):
    mpath = tmp_path / "mu.json"
    mpath.write_text(canonical_json(payload(lebesgue_measure(RootSpec(1, 2)))))
    ppath = tmp_path / "prof.json"
    good = ExponentProfile.default(1, 1).to_doc()
    for key, value in (
        ("m", "x"), ("p_vec", 1.6), ("alpha", [0.5]),
        ("p_vec", "33"), ("p_vec", [True]), ("alpha", "0.5"), ("n", 1.0),
    ):
        ppath.write_text(json.dumps({**good, key: value}))
        assert main(["constants", "--measure", str(mpath), "--profile", str(ppath)]) == 2
        assert f"profile document key {key!r}" in capsys.readouterr().err
    ppath.write_text(json.dumps([good]))
    assert main(["constants", "--measure", str(mpath), "--profile", str(ppath)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_profile_document_p_is_checked_not_used(tmp_path, capsys):
    prof = ExponentProfile(m=2, n=2, alpha=1.0, beta=0.5, p_vec=(2.4, 3.0), p0=1.5, r=2.0)
    doc = json.loads(json.dumps(prof.to_doc()))
    assert doc["p"] == prof.p and ExponentProfile.from_doc(doc) == prof
    assert ExponentProfile.from_doc({k: v for k, v in doc.items() if k != "p"}) == prof
    near = 1.0 / (1.0 / prof.p + 5e-13)
    assert near != prof.p and ExponentProfile.from_doc({**doc, "p": near}).p == prof.p
    for off in (1.0 / (1.0 / prof.p + 2e-12), 0.0, -prof.p, math.inf, math.nan):
        with pytest.raises(BadExponent, match="profile document has p = "):
            ExponentProfile.from_doc({**doc, "p": off})
    ppath = tmp_path / "prof.json"
    args = [
        "sweep", "--ineq", "eq1.4-left", "--m", "1", "--dims", "1",
        "--depths", "2", "--trials", "2", "--profile", str(ppath),
    ]
    good = ExponentProfile.default(1, 1).to_doc()
    ppath.write_text(json.dumps({**good, "p": 1.7}))
    assert main(args) == 2
    assert "profile document has p = 1.7 but p_vec gives 1.6" in capsys.readouterr().err
    ppath.write_text(json.dumps(good))
    assert main(args) == 0


@pytest.mark.parametrize(
    "args,seed",
    [
        (["verify", "--seed", "-1"], -1),
        (["sweep", "--ineq", "thm1.2b", "--depths", "2", "--trials", "1", "--seed", "-3"], -3),
    ],
)
def test_cli_negative_seed_exits_two(tmp_path, capsys, args, seed):
    # a seed the run cannot use is an input error, not a failed check
    out = tmp_path / "out.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"dtl: BadKind: seed must be nonnegative, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--dim", "0"],
        ["sweep", "--ineq", "thm1.2b", "--dims", "0", "--depths", "2", "--trials", "1"],
    ],
)
def test_cli_dim_below_one_exits_two(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "dtl: ShapeMismatch: dim must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("measure", [{}, [], 0, False, ""])
def test_cli_corona_malformed_measure_exits_two(tmp_path, capsys, measure):
    # only null means "no measure"; anything else is read as a measure
    field = payload(LeafField(RootSpec(1, 2), np.array([4.0, 0.0, 1.0, 0.0])))
    src = tmp_path / "pair.json"
    src.write_text(canonical_json({"field": field, "measure": measure}))
    assert main(["decompose", "corona", "--input", str(src)]) == 2
    assert capsys.readouterr().err.startswith("dtl: ShapeMismatch: input document ")
    src.write_text(canonical_json({"field": field, "measure": None}))
    assert main(["decompose", "corona", "--input", str(src)]) == 0
    assert '"pair": "dx"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "what,shape,named,found",
    [
        ("corona", "pair-ff", "'measure'", "field"),
        ("corona", "pair-dd", "'field'", "density"),
        ("corona", "bare", "input document must", "density"),
        ("sparse", "fields", "'fields'", "density"),
    ],
)
def test_cli_decompose_refuses_wrong_input_kinds(tmp_path, capsys, what, shape, named, found):
    # a measure where a field belongs, or the reverse, is an input error
    root = RootSpec(1, 2)
    f = payload(LeafField(root, np.array([4.0, 0.0, 1.0, 0.0])))
    d = payload(LeafMeasure(root, "density", density=np.full(4, 0.5)))
    doc = {
        "pair-ff": {"field": f, "measure": f},
        "pair-dd": {"field": d, "measure": d},
        "bare": d,
        "fields": {"fields": [d]},
    }[shape]
    src = tmp_path / "in.json"
    src.write_text(canonical_json(doc))
    assert main(["decompose", what, "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dtl: BadKind: ")
    assert named in err and f"got kind {found!r}" in err


@pytest.mark.parametrize("option,text", [("--dims", "x"), ("--depths", "2..y"), ("--dims", "1,,z")])
def test_cli_sweep_bad_range_exits_two(capsys, option, text):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ineq", "eq1.4-left", option, text])
    assert exc.value.code == 2
    assert f"argument {option}: expected 2..7 or 1,2, got {text!r}" in capsys.readouterr().err



def _lemma25_sweep(tmp_path, profile, dims, depths):
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps(profile))
    return main([
        "sweep", "--ineq", "lemma2.5", "--dims", dims, "--depths", depths,
        "--trials", "2", "--profile", str(prof),
    ])


@pytest.mark.parametrize("p_vec,p", [([2.0, 2.0], 1.0), ([1.5, 1.5], 0.75)])
def test_cli_lemma25_sweep_refuses_p_at_most_one(tmp_path, capsys, p_vec, p):
    # the joint p = 1 / sum of 1/p_i is 1 or 0.75: p' = p / (p - 1) is undefined or negative
    profile = {"m": 2, "n": 1, "alpha": 0.5, "beta": 0.25, "p_vec": p_vec, "p0": 1.5}
    assert _lemma25_sweep(tmp_path, profile, "1", "3..4") == 2
    assert capsys.readouterr().err == f"dtl: BadExponent: needs p > 1, got {p}\n"


def test_cli_lemma25_sweep_refuses_overflowing_scores(tmp_path, capsys):
    # p' = 1001: an infinite a0 would make every ratio 0, a vacuous pass
    profile = {"m": 1, "n": 1, "alpha": 0.1, "beta": 0.05, "p_vec": [1.001], "p0": 1.5}
    assert _lemma25_sweep(tmp_path, profile, "1", "6..8") == 2
    assert capsys.readouterr().err == (
        "dtl: NonFinite: family-sup functional overflows: "
        "a level-0 score is not finite (p=1.001)\n"
    )


def test_lemma25_sweep_runs_no_greedy_search(monkeypatch):
    # the mu-free family sup is in closed form: no certificate step at all
    calls = []
    add = _GrowingFamily.add

    def counted(self, c):
        calls.append(c)
        return add(self, c)

    monkeypatch.setattr(_GrowingFamily, "add", counted)
    rep = sweep(ExperimentSpec("lemma2.5", dims=(1, 2), depths=(3, 4), trials=2, seed=0))
    assert rep.passed and calls == []
    # the counter is live: a family-sup id does reach the certificate
    sweep(ExperimentSpec("thm2.4", dims=(1,), depths=(3,), trials=1, seed=0))
    assert calls
