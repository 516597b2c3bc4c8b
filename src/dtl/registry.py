"""Named inequality cases, each scored as an LHS/RHS ratio.

Each id is one `InequalityCase` record: the inputs it takes, how it is
judged, and the evaluator that wires operators, norms, and constants
into the two sides of its inequality.  Both sides are computed from
independent code paths (the constant scans never reuse the operator
sweep under test, beyond the shared cube aggregates).  Exact-flagged
ids carry constant 1 and their ratio must stay at or below 1 up to
roundoff; the rest are tested for depth-uniform boundedness by the
harness.

Chain and identity ids fold all of their comparisons into a single
ratio against RHS = 1, and report the individual parts in extras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .errors import BadExponent, NonFinite, RegistryMiss
from .grid import LeafField, LeafMeasure, aggregate, cube_doc, leaf_ratios, max_ratio
from .grid import ordered_sum, power
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
    conjugate_exponent,
    lebesgue_norm,
    modified_morrey_norm,
    morrey_norm,
    product_morrey_norm,
    radon_morrey_norm,
    screen_low,
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
    """The one registry record of an id: what it needs, how it is judged,
    and its evaluator, called as evaluate(root, profile, fields, measure, g)."""

    id: str
    exact: bool
    fields_needed: str  # "one" | "m" | "m+g" | "none"
    evaluate: object = field(repr=False, compare=False)
    measure_kinds: tuple[str, ...] = ()  # empty when the id takes no measure
    low_p: bool = False
    p_range: str = ""  # the joint p the evaluator needs: "> 1", "<= 1" or ""
    note: str = ""


@dataclass(frozen=True)
class TrialOutcome:
    """Both sides of one evaluation plus its report extras.

    Report-only diagnostics (the sparse family's Carleson constant and
    the measure's A-infinity estimate) are deferred: their `extras`
    entries are zero-argument callables, in their report positions, that
    compute the value when called.  A sweep calls them for the one trial
    it keeps (`harness.witness_doc`); no other trial pays for them.
    """

    lhs: float
    rhs: float
    extras: dict = field(default_factory=dict, repr=False)


def ratio_of(lhs: float, rhs: float) -> float:
    """Score of one trial: 0 when both sides vanish, +inf when only the
    right side does (a loud failure), otherwise the plain quotient."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


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
    if a == b == 0.0 and f.values.any():  # 0 = 0 would be a vacuous pass
        raise NonFinite(
            f"leaf values to the power {p0} underflow: both norms of a nonzero field are 0"
        )
    return TrialOutcome(_fold_identity(a, b), 1.0, {"morrey": a, "lebesgue": b, "p0": p0})


# ---- discretization of the kernel operator ----


def _eval_discretization(root, profile, fields, measure, g):
    alpha = profile.alpha
    ki = kernel_integral(fields, alpha)
    maj = enlargement_majorant(fields, alpha)
    return TrialOutcome(max_ratio(ki.values, maj), 1.0, {"alpha": alpha})


# ---- sparse-operator bounds ----


def _operands(root, profile, fields):
    """The fields' roll-ups and the profile's canonical kernel."""
    aggs = [aggregate(f) for f in fields]
    return aggs, KernelWeight.canonical(profile.alpha, profile.m, root.dim)


def _times_lebesgue_norms(value, fields, profile, measure=None):
    """value times each field's Lebesgue norm at its exponent of the
    profile, against dx or `measure`, multiplied left to right."""
    for f, pi in zip(fields, profile.p_vec):
        value *= lebesgue_norm(f, pi, measure)
    return value


def _sparse_setup(root, profile, fields):
    aggs, kernel = _operands(root, profile, fields)
    return aggs, kernel, build_sparse_family(aggs, root.root_cube())


def _ap_report(measure: LeafMeasure):
    if measure.kind != "density":
        return None
    rep = ap_characteristic(LeafField(measure.root, measure.density), "infinity")
    return rep.value


def _eval_sparse_morrey(root, profile, fields, measure, g, form):
    aggs, kernel, family = _sparse_setup(root, profile, fields)
    op = sparse_integral_operator(aggs, kernel, family.cubes)
    lhs = float(radon_morrey_norm(op, profile.p, profile.p0, measure))
    const = a0_constant(measure, profile, form)
    rhs = const.value * float(product_morrey_norm(fields, profile))
    extras = {
        "a0": const.value,
        "a0_witness": cube_doc(const.witness),
        "family_size": len(family.cubes),
        "carleson": lambda: family.carleson,
        "ap_infinity": partial(_ap_report, measure),
    }
    return TrialOutcome(lhs, rhs, extras)


def _eval_lemma22(root, profile, fields, measure, g, bump: bool):
    sum_recip = ordered_sum(1.0 / pi for pi in profile.p_vec)
    if sum_recip < 1.0 - 1e-12:
        raise BadExponent("needs sum of reciprocal exponents >= 1")
    aggs, kernel, family = _sparse_setup(root, profile, fields)
    n, m = root.dim, profile.m
    at = [root.position(cube) for cube in family.cubes]
    weights = [kernel.at_level(cube.level, n) for cube in family.cubes]
    terms = np.array(weights)
    with np.errstate(over="ignore"):
        for f in fields:
            terms *= aggregate(measure.weighted(f)).flat[at]
    lhs = ordered_sum(terms.tolist())
    if bump:
        r = profile.r
        if r is None:
            raise BadExponent(f"bump form needs r > 1, got {r}")
        masses = aggregate(measure.power(r)).flat[at].tolist()
        expos = [1.0 / (r * conjugate_exponent(pi)) for pi in profile.p_vec]
    else:
        masses = aggregate(measure).flat[at].tolist()
        expos = [1.0 / conjugate_exponent(pi) for pi in profile.p_vec]
    a0 = 0.0
    a0_witness = None
    for cube, weight, mass in zip(family.cubes, weights, masses):
        k = cube.level
        val = weight * 2.0 ** (-k * n * (m - sum_recip))
        for expo in expos:
            val *= (mass * 2.0 ** (k * n)) ** expo
        if val > a0:
            a0, a0_witness = val, cube
    rhs = _times_lebesgue_norms(a0, fields, profile, measure)
    extras = {
        "a0": a0,
        "a0_witness": cube_doc(a0_witness),
        "family_size": len(family.cubes),
        "shared_weight": True,  # all m weights are the supplied measure
    }
    return TrialOutcome(lhs, rhs, extras)


# ---- corona-side embeddings ----

def _eval_thm24(root, profile, fields, measure, g):
    aggs, kernel = _operands(root, profile, fields)
    n = root.dim
    gagg = aggregate(measure.weighted(g))
    levels = enumerate(zip(root.level_views(product_tables(aggs)), gagg.levels))
    with np.errstate(over="ignore"):
        lhs = ordered_sum(
            kernel.at_level(k, n) * float(np.sum(prod * gk)) for k, (prod, gk) in levels
        )
    sup = cq_supremum(aggregate(measure), kernel, profile.p)
    a0, witness = sup.value, sup.witness
    rhs = _times_lebesgue_norms(a0, fields, profile)
    rhs *= lebesgue_norm(g, profile.p_conjugate, measure)
    return TrialOutcome(lhs, rhs, {"a0": a0, "a0_witness": cube_doc(witness)})


def _eval_lemma25(root, profile, fields, measure, g):
    aggs, kernel = _operands(root, profile, fields)
    n, p = root.dim, profile.p
    levels = root.level_views(product_tables(aggs))
    lhs = ordered_sum(kernel.at_level(k, n) * float(np.sum(prod)) for k, prod in enumerate(levels))
    # mu-free family functional: W0(S) sums K|Q'|^m below S; p <= 1 is refused there
    best, family_size = mu_free_family_sup(n, root.depth, profile.alpha, profile.m, p)
    pprime = conjugate_exponent(p)
    a0 = best ** (1.0 / pprime)
    rhs = _times_lebesgue_norms(a0, fields, profile)
    return TrialOutcome(lhs, rhs, {"a0": a0, "family_size": family_size})


def _eval_thm26(root, profile, fields, measure, g):
    aggs, kernel = _operands(root, profile, fields)
    op = dyadic_integral_operator(aggs, kernel)
    lhs = float(radon_morrey_norm(op, profile.p, profile.p0, measure))
    sup = cq_supremum(aggregate(measure), kernel, profile.p)
    a0, witness = sup.value, sup.witness
    rhs = a0 * float(product_morrey_norm(fields, profile))
    return TrialOutcome(lhs, rhs, {"a0": a0, "a0_witness": cube_doc(witness)})


# ---- main trace bounds ----


def _trace_lhs(root, profile, fields, measure):
    op = dyadic_integral_operator(*_operands(root, profile, fields))
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
        "ap_infinity": partial(_ap_report, measure),
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
    # the right side is libm's pow of each leaf (grid.power differs from
    # it in the last bit for some values, until ROADMAP item 11 makes
    # grid.power correctly rounded); leaf values are >= 0 and expo in
    # (0, 1], so 0 stays 0 and nothing overflows.  Screen, then certify:
    # grid.power screens every leaf, libm's pow at the screened top gives
    # a ratio `best` that the max reaches, and a leaf can beat it only if
    # its left side reaches best times its screened right side lowered by
    # the screen's allowance (libm's right side lies above that); libm's
    # pow runs only on those leaves, and the max over them is the max
    # over every leaf
    expo = 1.0 / profile.theta
    lhs, base = hi.values, lo.values
    screen = power(base, expo)
    top = int(np.argmax(leaf_ratios(lhs, screen)))
    best = ratio_of(float(lhs[top]), pow(float(base[top]), expo))
    if best < math.inf:
        band = np.flatnonzero(lhs >= best * screen_low(screen))
        best = max_ratio(lhs[band], list(map(pow, base[band].tolist(), repeat(expo))))
    return TrialOutcome(best, 1.0, {"theta": profile.theta, "norm": norm})


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


# measure kinds an id draws from, cycled over its trials in this order
_EITHER_MEASURE = ("density-measure", "atom-measure")
_DENSITY_ONLY = ("density-measure",)

# id -> its record, in the order `registry_ids` lists them
_CASES: dict[str, InequalityCase] = {
    case.id: case
    for case in (
        InequalityCase(
            "morrey-nesting", exact=True, fields_needed="one",
            evaluate=_eval_morrey_nesting,
            note="raising the first exponent can only raise the scaled-average sup",
        ),
        InequalityCase(
            "eq1.4-left", exact=True, fields_needed="one",
            evaluate=_eval_eq14_left,
            note="the scaled Morrey sup is dominated by the testing-style norm, constant 1",
        ),
        InequalityCase(
            "eq1.4-right", exact=False, fields_needed="one",
            evaluate=_eval_eq14_right,
            note="the testing-style norm is dominated by a higher-exponent Morrey norm",
        ),
        InequalityCase(
            "morrey-lebesgue-identity", exact=True, fields_needed="one",
            evaluate=_eval_morrey_lebesgue,
            note="equal second exponents collapse the sup to the plain integral norm",
        ),
        InequalityCase(
            "discretization", exact=False, fields_needed="m",
            evaluate=_eval_discretization,
            note="kernel quadrature is dominated leafwise by the tripled-cube dyadic sum",
        ),
        InequalityCase(
            "thm2.1a", exact=False, fields_needed="m", measure_kinds=_DENSITY_ONLY,
            evaluate=partial(_eval_sparse_morrey, form="sparse-a"),
            note="sparse operator bound, plain mass form; flat-characteristic densities",
        ),
        InequalityCase(
            "thm2.1b", exact=False, fields_needed="m", measure_kinds=_DENSITY_ONLY,
            evaluate=partial(_eval_sparse_morrey, form="sparse-b"),
            note="sparse operator bound, power-bump form; density measures only",
        ),
        InequalityCase(
            "thm2.3", exact=False, fields_needed="m", measure_kinds=_EITHER_MEASURE, low_p=True,
            evaluate=partial(_eval_sparse_morrey, form="sparse-a"), p_range="<= 1",
            note="sparse operator bound below exponent 1, any measure",
        ),
        InequalityCase(
            "lemma2.2a", exact=False, fields_needed="m", measure_kinds=_DENSITY_ONLY, low_p=True,
            evaluate=partial(_eval_lemma22, bump=False),
            note="scalar embedding over the family, one shared weight, mass form",
        ),
        InequalityCase(
            "lemma2.2b", exact=False, fields_needed="m", measure_kinds=_DENSITY_ONLY, low_p=True,
            evaluate=partial(_eval_lemma22, bump=True),
            note="scalar embedding over the family, one shared weight, bump form",
        ),
        InequalityCase(
            "thm2.4", exact=False, fields_needed="m+g", measure_kinds=_EITHER_MEASURE,
            evaluate=_eval_thm24,
            note="bilinear-in-measure embedding against the family-sup constant",
        ),
        InequalityCase(
            "lemma2.5", exact=False, fields_needed="m",
            evaluate=_eval_lemma25,
            note="measure-free embedding against the family-sup functional",
        ),
        InequalityCase(
            "thm2.6", exact=False, fields_needed="m", measure_kinds=_EITHER_MEASURE,
            evaluate=_eval_thm26,
            note="full-tree operator bound against the family-sup constant",
        ),
        InequalityCase(
            "thm1.1a", exact=False, fields_needed="m", measure_kinds=_DENSITY_ONLY,
            evaluate=partial(_eval_trace_a0, form="weight-a"), p_range="> 1",
            note="trace bound, weight form; flatness hypothesis reported, not enforced",
        ),
        InequalityCase(
            "thm1.1b", exact=False, fields_needed="m", measure_kinds=_DENSITY_ONLY,
            evaluate=partial(_eval_trace_a0, form="bump-b"), p_range="> 1",
            note="trace bound, power-bump form; density measures only",
        ),
        InequalityCase(
            "thm1.2a", exact=False, fields_needed="m", measure_kinds=_EITHER_MEASURE, low_p=True,
            evaluate=partial(_eval_trace_a0, form="weight-a"), p_range="<= 1",
            note="trace bound below exponent 1, any measure",
        ),
        InequalityCase(
            "thm1.2b", exact=False, fields_needed="m", measure_kinds=_EITHER_MEASURE,
            evaluate=_eval_thm12b, p_range="> 1",
            note="trace bound via the localized-maximal testing constant, any measure",
        ),
        InequalityCase(
            "thm4.1", exact=False, fields_needed="m", measure_kinds=_EITHER_MEASURE,
            evaluate=_eval_thm41,
            note="trace bound via the growth constant; needs strict smoothing gap",
        ),
        InequalityCase(
            "hedberg-pointwise", exact=False, fields_needed="m",
            evaluate=_eval_hedberg,
            note="two-scale pointwise interpolation at unit product-Morrey norm",
        ),
        InequalityCase(
            "eq4.1", exact=True, fields_needed="none", measure_kinds=_EITHER_MEASURE,
            evaluate=_eval_eq41,
            note="growth constant equals the weight form and both sit under the testing form",
        ),
    )
}


def registry_ids() -> tuple[str, ...]:
    return tuple(_CASES.keys())


def lookup(ineq_id: str) -> InequalityCase:
    try:
        return _CASES[ineq_id]
    except KeyError:
        raise RegistryMiss(f"unknown inequality id {ineq_id!r}") from None


def evaluate_inequality(
    ineq_id: str,
    profile: ExponentProfile,
    fields: list[LeafField],
    measure: LeafMeasure | None = None,
    g: LeafField | None = None,
) -> TrialOutcome:
    """Compute both sides of the named inequality on concrete inputs.

    The report-only entries of the outcome's `extras` come back
    unevaluated, as zero-argument callables (see `TrialOutcome`)."""
    case = lookup(ineq_id)
    objs = list(fields) + ([measure] if measure is not None else [])
    if g is not None:
        objs.append(g)
    roots = {o.root for o in objs}
    if len(roots) != 1:
        raise RegistryMiss(f"{ineq_id}: inputs must share one grid, got {len(roots)}")
    root = next(iter(roots))
    if case.measure_kinds and measure is None:
        raise RegistryMiss(f"{ineq_id} needs a measure input")
    if case.fields_needed == "m+g" and g is None:
        raise RegistryMiss(f"{ineq_id} needs the extra dual-side field")
    if case.fields_needed == "one" and len(fields) != 1:
        raise RegistryMiss(f"{ineq_id} takes exactly one field")
    if case.fields_needed in ("m", "m+g") and len(fields) != profile.m:
        raise RegistryMiss(
            f"{ineq_id} takes {profile.m} fields, got {len(fields)}"
        )
    if case.p_range and (profile.p > 1) != (case.p_range == "> 1"):
        raise BadExponent(f"needs p {case.p_range}, got {profile.p}")
    return case.evaluate(root, profile, fields, measure, g)
