"""Named inequality cases, each scored as an LHS/RHS ratio.

Each id wires operators, norms, and constants into the two sides of one
inequality.  Both sides are computed from independent code paths (the
constant scans never reuse the operator sweep under test, beyond the
shared cube aggregates).  Exact-flagged ids carry constant 1 and their
ratio must stay at or below 1 up to roundoff; the rest are tested for
depth-uniform boundedness by the harness.

Chain and identity ids fold all of their comparisons into a single
ratio against RHS = 1, and report the individual parts in extras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .errors import BadExponent, RegistryMiss
from .grid import LeafField, LeafMeasure, aggregate, cube_doc
from .operators import (
    KernelWeight,
    dyadic_integral_operator,
    enlargement_majorant,
    kernel_integral,
    product_tables,
    sparse_integral_operator,
)
from .norms import (
    ExponentProfile,
    lebesgue_norm,
    modified_morrey_norm,
    morrey_norm,
    product_morrey_norm,
    radon_morrey_norm,
)
from .decompositions import build_sparse_family
from .constants import (
    a0_constant,
    adams_constant,
    ap_characteristic,
    cq_supremum,
    ks_testing_constant,
    mu_free_family_sup,
)


@dataclass(frozen=True)
class InequalityCase:
    """Registry entry: what the id needs and how it is judged."""

    id: str
    exact: bool
    fields_needed: str  # "one" | "m" | "m+g" | "none"
    needs_measure: bool
    measure_kinds: tuple[str, ...] = ()
    low_p: bool = False
    note: str = ""


@dataclass(frozen=True)
class TrialOutcome:
    lhs: float
    rhs: float
    extras: dict = field(default_factory=dict, repr=False)


def ratio_of(lhs: float, rhs: float) -> float:
    """Score of one trial: 0 when both sides vanish, +inf when only the
    right side does (a loud failure), otherwise the plain quotient."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def max_ratio(lhs, rhs) -> float:
    """Largest ratio_of(a, b) over paired leaf arrays, starting from 0.0:
    0/0 scores 0, x/0 scores inf, and a NaN quotient never wins, exactly
    as a loop of max(worst, ratio_of(a, b)) would give."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    ratios = np.where(lhs == 0.0, 0.0, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(lhs, rhs, out=ratios, where=rhs != 0.0)
    ratios = ratios[ratios > 0.0]
    return float(ratios.max()) if ratios.size else 0.0


def _fold_identity(a: float, b: float) -> float:
    """Two-sided ratio for an exact identity a = b."""
    if a == 0.0 and b == 0.0:
        return 0.0
    if a == 0.0 or b == 0.0:
        return math.inf
    return max(a / b, b / a)


def _scalar_exponents(profile: ExponentProfile, n: int) -> tuple[float, float, float]:
    """Single-function exponents derived from the profile: p (kept above
    1), q strictly between p and the Morrey second exponent, and the
    smoothness alpha with n/alpha = 2p."""
    p = profile.p if profile.p > 1 else 2.0
    return p, 1.5 * p, n / (2.0 * p)


# ---- single-function norm comparisons ----


def _eval_morrey_nesting(root, profile, fields, measure, g):
    f = fields[0]
    p_low, q_high, alpha = _scalar_exponents(profile, root.dim)
    p0 = root.dim / alpha
    lhs = float(morrey_norm(f, p_low, p0))
    rhs = float(morrey_norm(f, q_high, p0))
    return TrialOutcome(lhs, rhs, {"p_low": p_low, "p_high": q_high, "p0": p0})


def _eval_eq14_left(root, profile, fields, measure, g):
    f = fields[0]
    p, _, alpha = _scalar_exponents(profile, root.dim)
    lhs = float(morrey_norm(f, p, root.dim / alpha))
    rhs_res = modified_morrey_norm(f, p, alpha)
    return TrialOutcome(
        lhs, float(rhs_res),
        {"p": p, "alpha": alpha, "rhs_witness": cube_doc(rhs_res.witness)},
    )


def _eval_eq14_right(root, profile, fields, measure, g):
    f = fields[0]
    p, q, alpha = _scalar_exponents(profile, root.dim)
    lhs = float(modified_morrey_norm(f, p, alpha))
    rhs = float(morrey_norm(f, q, root.dim / alpha))
    return TrialOutcome(lhs, rhs, {"p": p, "q": q, "alpha": alpha})


def _eval_morrey_lebesgue(root, profile, fields, measure, g):
    f = fields[0]
    p0 = profile.p0
    a = float(morrey_norm(f, p0, p0))
    b = lebesgue_norm(f, p0)
    return TrialOutcome(_fold_identity(a, b), 1.0, {"morrey": a, "lebesgue": b, "p0": p0})


# ---- discretization of the kernel operator ----


def _eval_discretization(root, profile, fields, measure, g):
    alpha = profile.alpha
    ki = kernel_integral(fields, alpha)
    maj = enlargement_majorant(fields, alpha)
    return TrialOutcome(max_ratio(ki.values, maj), 1.0, {"alpha": alpha})


# ---- sparse-operator bounds ----


def _sparse_setup(root, profile, fields):
    aggs = [aggregate(f) for f in fields]
    kernel = KernelWeight.canonical(profile.alpha, profile.m, root.dim)
    family = build_sparse_family(aggs, root.root_cube())
    return aggs, kernel, family


def _ap_report(measure: LeafMeasure):
    if measure.kind != "density":
        return None
    rep = ap_characteristic(LeafField(measure.root, measure.density), "infinity")
    return rep.value


def _eval_sparse_morrey(root, profile, fields, measure, g, form):
    aggs, kernel, family = _sparse_setup(root, profile, fields)
    op = sparse_integral_operator(aggs, kernel, family.cubes)
    lhs = float(radon_morrey_norm(op, profile.p, profile.p0, measure))
    const = a0_constant(measure, profile, form, kernel=kernel)
    rhs = const.value * float(product_morrey_norm(fields, profile))
    extras = {
        "a0": const.value,
        "a0_witness": cube_doc(const.witness),
        "family_size": len(family.cubes),
        "carleson": family.carleson,
        "ap_infinity": _ap_report(measure),
    }
    return TrialOutcome(lhs, rhs, extras)


def _eval_lemma22(root, profile, fields, measure, g, bump: bool):
    sum_recip = sum(1.0 / pi for pi in profile.p_vec)
    if sum_recip < 1.0 - 1e-12:
        raise BadExponent("needs sum of reciprocal exponents >= 1")
    aggs, kernel, family = _sparse_setup(root, profile, fields)
    n, m = root.dim, profile.m
    weighted = [aggregate(measure.weighted(f)) for f in fields]
    lhs = 0.0
    for cube in family.cubes:
        term = kernel.at_level(cube.level, n)
        for wagg in weighted:
            term *= wagg.sum_of(cube)
        lhs += term
    if bump:
        r = profile.r
        if r is None or not r > 1:
            raise BadExponent(f"bump form needs r > 1, got {r}")
        powagg = aggregate(measure.power(r))
    else:
        muagg = aggregate(measure)
    a0 = 0.0
    a0_witness = None
    for cube in family.cubes:
        k = cube.level
        val = kernel.at_level(k, n) * 2.0 ** (-k * n * (m - sum_recip))
        for pi in profile.p_vec:
            piprime = pi / (pi - 1.0)
            if bump:
                val *= (powagg.sum_of(cube) * 2.0 ** (k * n)) ** (1.0 / (r * piprime))
            else:
                val *= (muagg.sum_of(cube) * 2.0 ** (k * n)) ** (1.0 / piprime)
        if val > a0:
            a0, a0_witness = val, cube
    rhs = a0
    for f, pi in zip(fields, profile.p_vec):
        rhs *= lebesgue_norm(f, pi, measure)
    extras = {
        "a0": a0,
        "a0_witness": cube_doc(a0_witness),
        "family_size": len(family.cubes),
        "shared_weight": True,  # all m weights are the supplied measure
    }
    return TrialOutcome(lhs, rhs, extras)


# ---- corona-side embeddings ----

def _eval_thm24(root, profile, fields, measure, g):
    aggs = [aggregate(f) for f in fields]
    kernel = KernelWeight.canonical(profile.alpha, profile.m, root.dim)
    n = root.dim
    gagg = aggregate(measure.weighted(g))
    lhs = 0.0
    for k, prod in enumerate(product_tables(aggs)):
        lhs += kernel.at_level(k, n) * float(np.sum(prod * gagg.levels[k]))
    sup = cq_supremum(aggregate(measure), kernel, profile.p)
    a0, witness = sup.value, sup.witness
    rhs = a0
    for f, pi in zip(fields, profile.p_vec):
        rhs *= lebesgue_norm(f, pi)
    rhs *= lebesgue_norm(g, profile.p_conjugate, measure)
    return TrialOutcome(lhs, rhs, {"a0": a0, "a0_witness": cube_doc(witness)})


def _eval_lemma25(root, profile, fields, measure, g):
    aggs = [aggregate(f) for f in fields]
    kernel = KernelWeight.canonical(profile.alpha, profile.m, root.dim)
    n, p = root.dim, profile.p
    lhs = 0.0
    for k, prod in enumerate(product_tables(aggs)):
        lhs += kernel.at_level(k, n) * float(np.sum(prod))
    # mu-free family functional: W0(S) sums K|Q'|^m below S; p <= 1 is refused there
    best, family_size = mu_free_family_sup(n, root.depth, profile.alpha, profile.m, p)
    pprime = p / (p - 1.0)
    a0 = best ** (1.0 / pprime)
    rhs = a0
    for f, pi in zip(fields, profile.p_vec):
        rhs *= lebesgue_norm(f, pi)
    return TrialOutcome(lhs, rhs, {"a0": a0, "family_size": family_size})


def _eval_thm26(root, profile, fields, measure, g):
    aggs = [aggregate(f) for f in fields]
    kernel = KernelWeight.canonical(profile.alpha, profile.m, root.dim)
    op = dyadic_integral_operator(aggs, kernel)
    lhs = float(radon_morrey_norm(op, profile.p, profile.p0, measure))
    sup = cq_supremum(aggregate(measure), kernel, profile.p)
    a0, witness = sup.value, sup.witness
    rhs = a0 * float(product_morrey_norm(fields, profile))
    return TrialOutcome(lhs, rhs, {"a0": a0, "a0_witness": cube_doc(witness)})


# ---- main trace bounds ----


def _trace_lhs(root, profile, fields, measure):
    aggs = [aggregate(f) for f in fields]
    kernel = KernelWeight.canonical(profile.alpha, profile.m, root.dim)
    op = dyadic_integral_operator(aggs, kernel)
    return float(radon_morrey_norm(op, profile.q, profile.q0, measure))


def _eval_trace_a0(root, profile, fields, measure, g, form):
    lhs = _trace_lhs(root, profile, fields, measure)
    const = a0_constant(measure, profile, form)
    rhs = const.value ** (1.0 / profile.theta) * float(
        product_morrey_norm(fields, profile)
    )
    extras = {
        "a0": const.value,
        "a0_witness": cube_doc(const.witness),
        "theta": profile.theta,
        "ap_infinity": _ap_report(measure),
    }
    return TrialOutcome(lhs, rhs, extras)


def _eval_thm12b(root, profile, fields, measure, g):
    lhs = _trace_lhs(root, profile, fields, measure)
    const = ks_testing_constant(aggregate(measure), profile.beta, profile.p)
    rhs = const.value ** (1.0 / profile.theta) * float(
        product_morrey_norm(fields, profile)
    )
    extras = {
        "ks": const.value,
        "ks_witness": cube_doc(const.witness),
        "theta": profile.theta,
    }
    return TrialOutcome(lhs, rhs, extras)


def _eval_thm41(root, profile, fields, measure, g):
    if not profile.beta < profile.alpha:
        raise BadExponent("needs beta strictly below alpha")
    n = root.dim
    gamma = n - profile.beta * profile.p
    lhs = _trace_lhs(root, profile, fields, measure)
    const = adams_constant(aggregate(measure), gamma)
    rhs = const.value ** (1.0 / profile.q) * float(
        product_morrey_norm(fields, profile)
    )
    extras = {
        "adams": const.value,
        "adams_witness": cube_doc(const.witness),
        "adams_exponent": gamma,
    }
    return TrialOutcome(lhs, rhs, extras)


def _eval_hedberg(root, profile, fields, measure, g):
    norm = float(product_morrey_norm(fields, profile))
    if norm == 0.0:
        return TrialOutcome(0.0, 1.0, {"norm": 0.0})
    scale = norm ** (-1.0 / profile.m)
    unit = [f.scaled(scale) for f in fields]
    aggs = [aggregate(f) for f in unit]
    n = root.dim
    hi = dyadic_integral_operator(
        aggs, KernelWeight.canonical(profile.alpha, profile.m, n)
    )
    lo = dyadic_integral_operator(
        aggs, KernelWeight.canonical(profile.beta, profile.m, n)
    )
    # libm pow per leaf: numpy's array power differs from it in the last
    # bit for some values; leaf values are >= 0, so 0 stays 0 (expo > 0)
    expo = 1.0 / profile.theta
    rhs = list(map(pow, lo.values.tolist(), repeat(expo)))
    return TrialOutcome(
        max_ratio(hi.values, rhs), 1.0, {"theta": profile.theta, "norm": norm}
    )


def _eval_eq41(root, profile, fields, measure, g):
    n = root.dim
    beta, p = profile.beta, profile.p
    muagg = aggregate(measure)
    left = adams_constant(muagg, n - beta * p).value ** (1.0 / profile.q)
    mid = a0_constant(measure, profile, "weight-a").value ** (1.0 / profile.theta)
    right = ks_testing_constant(muagg, beta, p).value ** (1.0 / profile.theta)
    folded = max(_fold_identity(left, mid), ratio_of(mid, right))
    return TrialOutcome(
        folded, 1.0, {"adams_side": left, "weight_side": mid, "testing_side": right}
    )


# id -> (case, evaluator, joint-p range the evaluator needs: "> 1", "<= 1" or "")
_CASES: dict[str, tuple[InequalityCase, object, str]] = {}


def _register(case: InequalityCase, fn, p_range: str = "") -> None:
    _CASES[case.id] = (case, fn, p_range)


_register(
    InequalityCase(
        "morrey-nesting", exact=True, fields_needed="one", needs_measure=False,
        note="raising the first exponent can only raise the scaled-average sup",
    ),
    _eval_morrey_nesting,
)
_register(
    InequalityCase(
        "eq1.4-left", exact=True, fields_needed="one", needs_measure=False,
        note="the scaled Morrey sup is dominated by the testing-style norm, constant 1",
    ),
    _eval_eq14_left,
)
_register(
    InequalityCase(
        "eq1.4-right", exact=False, fields_needed="one", needs_measure=False,
        note="the testing-style norm is dominated by a higher-exponent Morrey norm",
    ),
    _eval_eq14_right,
)
_register(
    InequalityCase(
        "morrey-lebesgue-identity", exact=True, fields_needed="one",
        needs_measure=False,
        note="equal second exponents collapse the sup to the plain integral norm",
    ),
    _eval_morrey_lebesgue,
)
_register(
    InequalityCase(
        "discretization", exact=False, fields_needed="m", needs_measure=False,
        note="kernel quadrature is dominated leafwise by the tripled-cube dyadic sum",
    ),
    _eval_discretization,
)
_register(
    InequalityCase(
        "thm2.1a", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure",),
        note="sparse operator bound, plain mass form; flat-characteristic densities",
    ),
    partial(_eval_sparse_morrey, form="sparse-a"),
)
_register(
    InequalityCase(
        "thm2.1b", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure",),
        note="sparse operator bound, power-bump form; density measures only",
    ),
    partial(_eval_sparse_morrey, form="sparse-b"),
)
_register(
    InequalityCase(
        "thm2.3", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"), low_p=True,
        note="sparse operator bound below exponent 1, any measure",
    ),
    partial(_eval_sparse_morrey, form="sparse-a"),
    "<= 1",
)
_register(
    InequalityCase(
        "lemma2.2a", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure",), low_p=True,
        note="scalar embedding over the family, one shared weight, mass form",
    ),
    partial(_eval_lemma22, bump=False),
)
_register(
    InequalityCase(
        "lemma2.2b", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure",), low_p=True,
        note="scalar embedding over the family, one shared weight, bump form",
    ),
    partial(_eval_lemma22, bump=True),
)
_register(
    InequalityCase(
        "thm2.4", exact=False, fields_needed="m+g", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"),
        note="bilinear-in-measure embedding against the family-sup constant",
    ),
    _eval_thm24,
)
_register(
    InequalityCase(
        "lemma2.5", exact=False, fields_needed="m", needs_measure=False,
        note="measure-free embedding against the family-sup functional",
    ),
    _eval_lemma25,
)
_register(
    InequalityCase(
        "thm2.6", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"),
        note="full-tree operator bound against the family-sup constant",
    ),
    _eval_thm26,
)
_register(
    InequalityCase(
        "thm1.1a", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure",),
        note="trace bound, weight form; flatness hypothesis reported, not enforced",
    ),
    partial(_eval_trace_a0, form="weight-a"),
    "> 1",
)
_register(
    InequalityCase(
        "thm1.1b", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure",),
        note="trace bound, power-bump form; density measures only",
    ),
    partial(_eval_trace_a0, form="bump-b"),
    "> 1",
)
_register(
    InequalityCase(
        "thm1.2a", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"), low_p=True,
        note="trace bound below exponent 1, any measure",
    ),
    partial(_eval_trace_a0, form="weight-a"),
    "<= 1",
)
_register(
    InequalityCase(
        "thm1.2b", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"),
        note="trace bound via the localized-maximal testing constant, any measure",
    ),
    _eval_thm12b,
    "> 1",
)
_register(
    InequalityCase(
        "thm4.1", exact=False, fields_needed="m", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"),
        note="trace bound via the growth constant; needs strict smoothing gap",
    ),
    _eval_thm41,
)
_register(
    InequalityCase(
        "hedberg-pointwise", exact=False, fields_needed="m", needs_measure=False,
        note="two-scale pointwise interpolation at unit product-Morrey norm",
    ),
    _eval_hedberg,
)
_register(
    InequalityCase(
        "eq4.1", exact=True, fields_needed="none", needs_measure=True,
        measure_kinds=("density-measure", "atom-measure"),
        note="growth constant equals the weight form and both sit under the testing form",
    ),
    _eval_eq41,
)


def registry_ids() -> tuple[str, ...]:
    return tuple(_CASES.keys())


def lookup(ineq_id: str) -> InequalityCase:
    try:
        return _CASES[ineq_id][0]
    except KeyError:
        raise RegistryMiss(f"unknown inequality id {ineq_id!r}") from None


def evaluate_inequality(
    ineq_id: str,
    profile: ExponentProfile,
    fields: list[LeafField],
    measure: LeafMeasure | None = None,
    g: LeafField | None = None,
) -> TrialOutcome:
    """Compute both sides of the named inequality on concrete inputs."""
    case = lookup(ineq_id)
    _, fn, p_range = _CASES[ineq_id]
    objs = list(fields) + ([measure] if measure is not None else [])
    if g is not None:
        objs.append(g)
    roots = {o.root for o in objs}
    if len(roots) != 1:
        raise RegistryMiss(f"{ineq_id}: inputs must share one grid, got {len(roots)}")
    root = next(iter(roots))
    if case.needs_measure and measure is None:
        raise RegistryMiss(f"{ineq_id} needs a measure input")
    if case.fields_needed == "m+g" and g is None:
        raise RegistryMiss(f"{ineq_id} needs the extra dual-side field")
    if case.fields_needed == "one" and len(fields) != 1:
        raise RegistryMiss(f"{ineq_id} takes exactly one field")
    if case.fields_needed in ("m", "m+g") and len(fields) != profile.m:
        raise RegistryMiss(
            f"{ineq_id} takes {profile.m} fields, got {len(fields)}"
        )
    if p_range and (profile.p > 1) != (p_range == "> 1"):
        raise BadExponent(f"needs p {p_range}, got {profile.p}")
    return fn(root, profile, fields, measure, g)
