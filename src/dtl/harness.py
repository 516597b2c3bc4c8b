"""Seeded experiment harness.

A sweep runs one registry inequality over a grid of (dim, depth) with a
fixed number of seeded trials per depth, keeps the worst ratio and its
witness inputs, fits the growth of the worst ratio against depth, and
judges the result: exact ids must stay at ratio <= 1 up to roundoff,
the rest must show slope <= 0.05 per level and at most 1.5x growth from
the shallowest to the deepest grid.  A trial returns its input objects
(`LeafField`s and `LeafMeasure`); a sweep describes with `payload` only
the inputs of the witness it keeps, once per report row.  A payload
holds its leaf values as a read-only float64 array, so a report document
is written by `report.canonical_json`, not by `json.dumps`.

Verify suites are fixed bundles of structural checks (exact constants,
sparse certificates, corona bookkeeping, constant hierarchies) used by
the CLI; their reports are deterministic functions of (spec, seed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence

from .errors import BadKind, ComplexityRefusal
from .grid import LeafField, RootSpec, aggregate, lebesgue_measure, payload
from .norms import ExponentProfile
from .operators import KernelWeight
from .generators import FIELD_KINDS, MEASURE_KINDS, generate_input
from .registry import evaluate_inequality, lookup, ratio_of
from .decompositions import (
    build_principal_cubes,
    classify_children,
    corona_projection,
    sparse_dominate,
    verify_sparse,
)
from .constants import (
    ap_characteristic,
    condition_d_bound,
    condition_d_ratio,
    cq_constant,
)

SLOPE_LIMIT = 0.05
GROWTH_LIMIT = 1.5
EXACT_TOL = 1.0 + 1e-12

# roles feeding the per-trial seed derivation
_ROLE_MEASURE = 1
_ROLE_G = 2
_ROLE_FIELD0 = 10


def trial_seed(seed: int, dim: int, depth: int, trial: int, role: int) -> int:
    """Stable per-input seed; distinct roles never collide."""
    return int(SeedSequence([seed, dim, depth, trial, role]).generate_state(1)[0])


def _seeded_input(root: RootSpec, kind: str, seed: int, trial: int, role: int):
    """The input of one (trial, role) of a seeded run on `root`; every
    seeded input of the sweeps and verify suites is made here."""
    return generate_input(root, kind, trial_seed(seed, root.dim, root.depth, trial, role))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs; (spec, seed) pins every emitted byte."""

    inequality: str
    dims: tuple[int, ...] = (1,)
    depths: tuple[int, ...] = (2, 3, 4)
    trials: int = 20
    seed: int = 0
    m: int = 2
    profile: ExponentProfile | None = None
    measure_kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        lookup(self.inequality)
        if not self.dims or not self.depths:
            raise BadKind("dims and depths must be nonempty")
        for dim, depth in itertools.product(self.dims, self.depths):
            RootSpec(dim, depth)  # refuse a bad grid before any profile is built
        if self.trials < 1:
            raise BadKind("trials must be positive")
        if self.seed < 0:
            raise BadKind(f"seed must be nonnegative, got {self.seed}")
        for kind in self.measure_kinds or ():
            if kind not in MEASURE_KINDS:
                raise BadKind(f"unknown measure kind {kind!r}")


@dataclass(frozen=True)
class RatioReport:
    """Sweep outcome: per-(dim, depth) worst ratios, growth fits, verdict."""

    inequality: str
    exact: bool
    seed: int
    trials: int
    dims: tuple[int, ...]
    depths: tuple[int, ...]
    profile_doc: dict
    rows: tuple[dict, ...]
    slopes: dict
    passed: bool

    def to_doc(self) -> dict:
        return {
            "inequality": self.inequality,
            "exact": self.exact,
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "depths": list(self.depths),
            "profile": self.profile_doc,
            "rows": list(self.rows),
            "slopes": self.slopes,
            "passed": self.passed,
        }


def _profile_for(spec: ExperimentSpec, dim: int) -> ExponentProfile:
    case = lookup(spec.inequality)
    if spec.profile is not None:
        return spec.profile if spec.profile.n == dim else spec.profile.with_dim(dim)
    return ExponentProfile.default(spec.m, dim, low_p=case.low_p)


def _materialize(spec: ExperimentSpec, profile: ExponentProfile, root: RootSpec, trial: int):
    case = lookup(spec.inequality)
    if case.fields_needed == "one":
        count = 1
    elif case.fields_needed in ("m", "m+g"):
        count = profile.m
    else:
        count = 0
    # all field kinds in turn; the constant field anchors small-depth maxima
    # near their asymptotes, so depth sweeps measure growth, not truncation fill-in
    def field_input(i: int, role: int) -> LeafField:
        kind = FIELD_KINDS[(trial + i) % len(FIELD_KINDS)]
        return _seeded_input(root, kind, spec.seed, trial, role)

    fields = [field_input(i, _ROLE_FIELD0 + i) for i in range(count)]
    measure = None
    if case.measure_kinds:
        kinds = spec.measure_kinds or case.measure_kinds
        measure = _seeded_input(root, kinds[trial % len(kinds)], spec.seed, trial, _ROLE_MEASURE)
    g = field_input(count, _ROLE_G) if case.fields_needed == "m+g" else None
    return fields, measure, g


def run_trial(spec: ExperimentSpec, dim: int, depth: int, trial: int) -> dict:
    """One seeded evaluation; returns lhs/rhs/ratio plus the input objects
    themselves (`LeafField`s and `LeafMeasure`, not payloads): a sweep
    serializes only the inputs of the trial it keeps."""
    profile = _profile_for(spec, dim)
    root = RootSpec(dim, depth)
    fields, measure, g = _materialize(spec, profile, root, trial)
    out = evaluate_inequality(spec.inequality, profile, fields, measure, g)
    return {
        "trial": trial,
        "lhs": out.lhs,
        "rhs": out.rhs,
        "ratio": ratio_of(out.lhs, out.rhs),
        "extras": out.extras,
        "inputs": {"fields": fields, "measure": measure, "g": g},
    }


def growth_slope(depths, ratios) -> float:
    """Least-squares slope of log(ratio) against depth, over the depths
    with a positive finite ratio; fewer than two such points fit flat."""
    xs, ys = [], []
    for d, r in zip(depths, ratios):
        if math.isinf(r):
            return math.inf
        if r > 0:
            xs.append(float(d))
            ys.append(math.log(r))
    if len(xs) < 2:
        return 0.0
    x = np.array(xs)
    y = np.array(ys)
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * (y - y.mean())) / denom)


def _depth_verdict(exact: bool, ratios, slope: float) -> bool:
    if any(math.isinf(r) for r in ratios):
        return False
    if exact:
        return all(r <= EXACT_TOL for r in ratios)
    first, last = ratios[0], ratios[-1]
    if first == 0.0:
        growth_ok = last == 0.0
    else:
        growth_ok = last <= GROWTH_LIMIT * first
    return slope <= SLOPE_LIMIT and growth_ok


def sweep(spec: ExperimentSpec) -> RatioReport:
    """Run the full (dims x depths x trials) grid for one inequality."""
    case = lookup(spec.inequality)
    rows = []
    slopes: dict[str, float] = {}
    passed = True
    profile_doc: dict = {}
    for dim in spec.dims:
        profile = _profile_for(spec, dim)
        if not profile_doc:
            profile_doc = profile.to_doc()
        depth_ratios = []
        for depth in spec.depths:
            best = None
            for trial in range(spec.trials):
                # through the module global, so a wrapper on run_trial sees every trial
                rec = run_trial(spec, dim, depth, trial)
                if best is None or rec["ratio"] > best["ratio"]:
                    best = rec
            inputs = best["inputs"]
            witness = {
                **best,
                "inputs": {
                    "fields": [payload(f) for f in inputs["fields"]],
                    "measure": None if inputs["measure"] is None else payload(inputs["measure"]),
                    "g": None if inputs["g"] is None else payload(inputs["g"]),
                },
            }
            rows.append(
                {
                    "dim": dim,
                    "depth": depth,
                    "max_ratio": best["ratio"],
                    "witness": witness,
                }
            )
            depth_ratios.append(best["ratio"])
        slope = growth_slope(spec.depths, depth_ratios)
        slopes[str(dim)] = slope
        passed = passed and _depth_verdict(case.exact, depth_ratios, slope)
    return RatioReport(
        inequality=spec.inequality,
        exact=case.exact,
        seed=spec.seed,
        trials=spec.trials,
        dims=spec.dims,
        depths=spec.depths,
        profile_doc=profile_doc,
        rows=tuple(rows),
        slopes=slopes,
        passed=passed,
    )


# ---- verify suites ----

EXACT_SUITE_IDS = (
    "morrey-nesting",
    "eq1.4-left",
    "morrey-lebesgue-identity",
    "eq4.1",
)


def _check(name: str, ok: bool, detail: dict) -> dict:
    out = {"check": name, "passed": bool(ok)}
    out.update(detail)
    return out


def _verify_exact(dim: int, depth: int, trials: int, seed: int) -> list[dict]:
    checks = []
    for ineq_id in EXACT_SUITE_IDS:
        spec = ExperimentSpec(
            inequality=ineq_id, dims=(dim,), depths=(depth,), trials=trials, seed=seed
        )
        worst = 0.0
        for trial in range(trials):
            rec = run_trial(spec, dim, depth, trial)
            worst = max(worst, rec["ratio"])
        checks.append(
            _check(ineq_id, worst <= EXACT_TOL, {"max_ratio": worst})
        )
    return checks


def _verify_sparse(dim: int, depth: int, trials: int, seed: int) -> list[dict]:
    root = RootSpec(dim, depth)
    kinds = FIELD_KINDS
    bad = 0
    infinite = 0
    worst_carleson = 0.0
    worst_constant = 0.0
    for trial in range(trials):
        fields = [
            _seeded_input(root, kinds[(trial + i) % len(kinds)], seed, trial, _ROLE_FIELD0 + i)
            for i in range(2)
        ]
        dom = sparse_dominate([aggregate(f) for f in fields], 0.5 * dim)
        if not dom.family.certificate.is_sparse:
            bad += 1
        worst_carleson = max(worst_carleson, dom.family.carleson)
        if not math.isinf(dom.constant):
            worst_constant = max(worst_constant, dom.constant)
        else:
            infinite += 1
    checks = [
        _check("stopping-families-certified", bad == 0, {"violations": bad}),
        _check(
            "carleson-at-most-2",
            worst_carleson <= 2.0 + 1e-12,
            {"max_carleson": worst_carleson},
        ),
        _check(
            "domination-constant-finite", infinite == 0, {"max_constant": worst_constant}
        ),
    ]
    # a deliberately over-packed family must be rejected
    if depth >= 2:
        dense = list(map(root.cube_at, range(root.offsets()[3])))
        cert = verify_sparse(root, dense)
        checks.append(
            _check(
                "dense-family-rejected",
                not cert.is_sparse and cert.carleson >= 3.0 - 1e-12,
                {"carleson": cert.carleson},
            )
        )
    return checks


def _corona_pair_tables(h: LeafField, nu):
    nu = nu if nu is not None else lebesgue_measure(h.root)
    return aggregate(nu), aggregate(nu.weighted(h))


def _verify_corona(dim: int, depth: int, trials: int, seed: int) -> list[dict]:
    kinds = FIELD_KINDS
    packing_bad = 0
    parent_bad = 0
    partition_bad = 0
    projection_worst = 0.0
    for trial in range(trials):
        root = RootSpec(dim, depth)
        h = _seeded_input(root, kinds[trial % len(kinds)], seed, trial, _ROLE_FIELD0)
        if trial % 2 == 0:
            nu = None
        else:
            kind = ("density-measure", "atom-measure")[(trial // 2) % 2]
            nu = _seeded_input(root, kind, seed, trial, _ROLE_MEASURE)
        if nu is not None and aggregate(nu).total <= 0:
            continue
        forest = build_principal_cubes(h, nu, root.root_cube())
        mass, weighted = _corona_pair_tables(h, nu)
        for member in forest.members:
            kids_mass = sum(mass.sum_of(kid) for kid in forest.children[member])
            if 2.0 * kids_mass > mass.sum_of(member) * (1.0 + 1e-12):
                packing_bad += 1
        # every cube of positive mass against its stopping parent, whose
        # average is gathered through the owner table of the cube's level
        member_avg = np.array(
            [weighted.sum_of(c) / mass.sum_of(c) for c in forest.members]
        )
        for mq, wq, own in zip(mass.levels, weighted.levels, forest.owners):
            live = mq > 0
            avg_p = member_avg[own[live]]
            avg_q = wq[live] / mq[live]
            parent_bad += int(np.count_nonzero(avg_q > 2.0 * avg_p * (1.0 + 1e-12)))
        # pair the forest against a second, dx-built forest
        f2 = _seeded_input(root, kinds[(trial + 1) % len(kinds)], seed, trial, _ROLE_G)
        f_forest = build_principal_cubes(f2, None, root.root_cube())
        fagg = aggregate(f2)
        for i, member in enumerate(forest.members):
            cls = classify_children(forest, f_forest, member)
            names = set(cls.at_child) | set(cls.inside) | set(cls.above)
            if len(names) != len(cls.at_child) + len(cls.inside) + len(cls.above):
                partition_bad += 1
            if names != set(forest.children[member]):
                partition_bad += 1
            pagg = aggregate(corona_projection(f2, forest, member))
            # the cubes whose stopping parent is the member: its owner-table
            # entries, all inside the member's own block of each level
            for k in range(member.level, depth + 1):
                block = member.leaf_slices(k)
                own = forest.owners[k][block] == i
                want = fagg.levels[k][block][own]
                got = pagg.levels[k][block][own]
                err = np.abs(want - got) / np.maximum(np.abs(want), 1.0)
                projection_worst = max(projection_worst, float(err.max(initial=0.0)))
    return [
        _check("stopping-packing-factor-2", packing_bad == 0, {"violations": packing_bad}),
        _check("stopping-parent-bound", parent_bad == 0, {"violations": parent_bad}),
        _check("classification-partition", partition_bad == 0, {"violations": partition_bad}),
        _check(
            "projection-preserves-integrals",
            projection_worst <= 1e-12,
            {"max_relative_error": projection_worst},
        ),
    ]


def _verify_constants(dim: int, depth: int, trials: int, seed: int) -> list[dict]:
    root = RootSpec(dim, depth)
    profile = ExponentProfile.default(1, dim)
    kernel = KernelWeight.canonical(profile.alpha, 1, dim)
    checks = []
    # condition (D): measured ancestor decay vs the exact geometric sum
    leaf = root.leaf_cube(0)
    measured = condition_d_ratio(kernel, profile, leaf)
    gap = profile.alpha - dim / profile.p0
    formula = sum(2.0 ** (d * gap) for d in range(1, depth + 1))
    bound = condition_d_bound(profile)
    checks.append(
        _check(
            "ancestor-decay-geometric",
            abs(measured - formula) <= 1e-12 * max(formula, 1.0)
            and measured <= bound + 1e-12,
            {"measured": measured, "formula": formula, "bound": bound},
        )
    )
    # family-sup modes: greedy never exceeds exhaustive, both under the bound
    order_bad = 0
    worst_vs_bound = 0.0
    exhaustive_done = 0
    p = 2.0
    for trial in range(trials):
        kind = ("density-measure", "atom-measure")[trial % 2]
        mu = _seeded_input(root, kind, seed, trial, _ROLE_MEASURE)
        muagg = aggregate(mu)
        if muagg.total <= 0:
            continue
        base = root.root_cube()
        try:
            exhaustive = cq_constant(muagg, kernel, p, base, mode="exhaustive")
        except ComplexityRefusal:
            continue
        exhaustive_done += 1
        greedy = cq_constant(muagg, kernel, p, base, mode="greedy")
        if greedy.value > exhaustive.value * (1.0 + 1e-12):
            order_bad += 1
        if kernel.alpha < dim:
            bound_rep = cq_constant(muagg, kernel, p, base, mode="bound")
            worst_vs_bound = max(worst_vs_bound, ratio_of(exhaustive.value, bound_rep.value))
    checks.append(
        _check(
            "greedy-below-exhaustive",
            order_bad == 0,
            {"violations": order_bad, "exhaustive_evaluated": exhaustive_done},
        )
    )
    checks.append(
        _check(
            "exhaustive-vs-bound",
            worst_vs_bound <= 10.0,
            {"max_ratio": worst_vs_bound},
        )
    )
    # Muckenhoupt characteristic: at least 1, nonincreasing in the exponent
    ap_bad = 0
    for trial in range(trials):
        w = _seeded_input(root, "density-measure", seed, trial, _ROLE_FIELD0)
        wf = LeafField(root, w.density)
        vals = [ap_characteristic(wf, pp).value for pp in (2.0, 4.0, 8.0)]
        if vals[0] < 1.0 - 1e-12:
            ap_bad += 1
        if not (vals[0] >= vals[1] - 1e-12 and vals[1] >= vals[2] - 1e-12):
            ap_bad += 1
    checks.append(_check("ap-characteristic-monotone", ap_bad == 0, {"violations": ap_bad}))
    return checks


_SUITES = {
    "exact": _verify_exact,
    "sparse": _verify_sparse,
    "corona": _verify_corona,
    "constants": _verify_constants,
}


def verify_suite(
    suite: str, dim: int = 1, depth: int = 3, trials: int = 20, seed: int = 0
) -> dict:
    """Run one named structural suite (or all of them) and report."""
    RootSpec(dim, depth)  # refuse a bad grid before any profile is built
    if trials < 1:
        raise BadKind("trials must be positive")
    if seed < 0:
        raise BadKind(f"seed must be nonnegative, got {seed}")
    if suite == "all":
        names = tuple(_SUITES.keys())
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise BadKind(f"unknown verify suite {suite!r}")
    blocks = []
    passed = True
    for name in names:
        checks = _SUITES[name](dim, depth, trials, seed)
        ok = all(c["passed"] for c in checks)
        passed = passed and ok
        blocks.append({"suite": name, "passed": ok, "checks": checks})
    return {
        "kind": "verify",
        "suite": suite,
        "dim": dim,
        "depth": depth,
        "trials": trials,
        "seed": seed,
        "suites": blocks,
        "passed": passed,
    }
