"""Testing constants for the trace inequalities.

All scans are exact sups over the finitely many grid cubes.  The
family-sup constant of a cube (cq_constant) additionally sups over
certified-sparse subfamilies; greedy packs high-score cubes first,
exhaustive enumerates every certified subfamily of a small subtree, and
the closed-form bound evaluates the localized-maximal functional that
dominates the family sup for the canonical kernel.  cq_supremum takes
the greedy constant's sup over every cube of the grid.

Sparsity certificate.  A family is certified when every member S keeps
at least half its leaves outside the members strictly inside it:
2 inner(S) <= |S|, where inner(S) is the leaf count of the union of those
members and |S| the leaf count of S.  Adding a cube c to a certified
family changes inner of only two members.  c itself gets the members
already inside it.  P, the nearest member strictly containing c, gains
the leaves of c it did not yet count: inner(P) grows by |c| - inner(c).
Members inside c keep their inner sets; members disjoint from c are
untouched; members above P already count every leaf of P, hence of c.
So the extended family is certified iff 2 inner(c) <= |c| and
2 (inner(P) + |c| - inner(c)) <= |P|.  The search keeps inner for every
cube of the region's subtree and, on each addition, adds |c| - inner(c)
along the chain from c's parent up to P: O(L) exact integer work per
check for a grid of depth L, and the same work undoes an addition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomicPowerUndefined,
    BadExponent,
    BadKind,
    ComplexityRefusal,
    ZeroMeasure,
)
from .grid import CubeAddr, LeafField, LeafMeasure, RootSpec, TreeAggregate, aggregate
from .decompositions import CUBE_ORDER
# kept bound by name: bench/spans.py patches dtl.constants.containment_forest
from .decompositions import containment_forest  # noqa: F401
from .norms import ExponentProfile, SupResult, maximal_testing_sup, scan_sup
from .operators import KernelWeight, fractional_maximal


@dataclass(frozen=True)
class ConstantReport:
    """Named constant with the witness cube (when a scan attains it),
    the computation mode, and the parameters that produced it."""

    name: str
    value: float
    witness: CubeAddr | None
    mode: str
    params: dict = field(default_factory=dict, repr=False)


def hedberg_exponents(profile: ExponentProfile) -> tuple[float, float, float]:
    """Shifted exponents (theta, q, q0) of the two-scale interpolation;
    validity of alpha p0 < n is enforced by the profile itself."""
    return (profile.theta, profile.q, profile.q0)


def adams_constant(mu: TreeAggregate, beta: float) -> ConstantReport:
    """sup over cubes of mu(Q) / side(Q)^beta, for 0 < beta <= dim."""
    root = mu.root
    if not 0 < beta <= root.dim:
        raise BadExponent(f"needs 0 < beta <= dim, got {beta}")
    tables = [mu.levels[k] * 2.0 ** (k * beta) for k in range(root.depth + 1)]
    res = scan_sup(tables)
    return ConstantReport(
        name="adams", value=res.value, witness=res.witness, mode="exact-scan",
        params={"beta": beta},
    )


def ks_testing_constant(mu: TreeAggregate, beta: float, p: float) -> ConstantReport:
    """Kerman-Sawyer testing constant: sup over cubes Q of positive mass
    of ((integral over Q of M_beta[mu restricted to Q]^p')/mu(Q))^(1/p')."""
    res = maximal_testing_sup(mu, beta, p)
    return ConstantReport(
        name="ks-testing", value=res.value, witness=res.witness, mode="exact-scan",
        params={"beta": beta, "p": p},
    )


def a0_constant(
    mu: LeafMeasure,
    profile: ExponentProfile,
    form: str,
    kernel: KernelWeight | None = None,
    r: float | None = None,
) -> ConstantReport:
    """Scan form of the testing constant.

    weight-a: sup side^beta (mu(Q)/|Q|)^(1/p)
    bump-b:   sup side^beta (mu^r(Q)/|Q|)^(1/(r p)), density measures only
    sparse-a: sup K(Q) |Q|^m (mu(Q)/|Q|)^(1/p)
    sparse-b: sup K(Q) |Q|^m (mu^r(Q)/|Q|)^(1/(r p))
    """
    root = mu.root
    n = root.dim
    beta, p = profile.beta, profile.p
    if form in ("bump-b", "sparse-b"):
        r = r if r is not None else profile.r
        if r is None or not r > 1:
            raise BadExponent(f"bump form needs r > 1, got {r}")
        if mu.kind != "density":
            raise AtomicPowerUndefined("bump forms need a density measure")
        agg = aggregate(mu.power(r))
        exponent = 1.0 / (r * p)
    else:
        agg = aggregate(mu)
        exponent = 1.0 / p
    if form in ("sparse-a", "sparse-b"):
        if kernel is None:
            raise BadKind(f"form {form!r} needs a kernel weight")
        front = [
            kernel.at_level(k, n) * 2.0 ** (-k * n * kernel.m)
            for k in range(root.depth + 1)
        ]
    elif form in ("weight-a", "bump-b"):
        front = [2.0 ** (-k * beta) for k in range(root.depth + 1)]
    else:
        raise BadKind(f"unknown a0 form {form!r}")
    tables = [
        front[k] * (agg.levels[k] * 2.0 ** (k * n)) ** exponent
        for k in range(root.depth + 1)
    ]
    res = scan_sup(tables)
    params = {"form": form, "beta": beta, "p": p}
    if form in ("bump-b", "sparse-b"):
        params["r"] = r
    return ConstantReport(
        name="a0", value=res.value, witness=res.witness, mode="exact-scan", params=params
    )


def ap_characteristic(
    w: LeafField, p: float | str, pstar: float = 64.0
) -> ConstantReport:
    """Muckenhoupt characteristic sup (avg w)(avg w^(-1/(p-1)))^(p-1).

    p = "infinity" evaluates the finite-p characteristic at pstar; the
    characteristic is nonincreasing in p, so this is a valid upper
    estimate of the limiting constant.  A weight vanishing on some leaf
    makes the dual average diverge and the value is reported as +inf.
    """
    if p == "infinity":
        mode = "infinity-estimate"
        p_eff = float(pstar)
    else:
        mode = "exact-scan"
        p_eff = float(p)
    if not p_eff > 1:
        raise BadExponent(f"needs p > 1, got {p_eff}")
    root = w.root
    params = {"p": p, "p_effective": p_eff}
    if np.any(w.values == 0):
        return ConstantReport(
            name="ap", value=float("inf"), witness=None, mode=mode, params=params
        )
    agg = aggregate(w)
    dual = aggregate(LeafField(root, w.values ** (-1.0 / (p_eff - 1.0))))
    tables = []
    for k in range(root.depth + 1):
        scale = 2.0 ** (k * root.dim)
        tables.append((agg.levels[k] * scale) * (dual.levels[k] * scale) ** (p_eff - 1.0))
    res = scan_sup(tables)
    return ConstantReport(
        name="ap", value=res.value, witness=res.witness, mode=mode, params=params
    )


# ---- family-sup constant ----

_FAMILY_SUP_CUBE_LIMIT = 511


def _subtree_sums(tables: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Per-cube sums over the full subtree below (and including) each cube."""
    out = [None] * len(tables)
    out[-1] = tables[-1].copy()
    for k in range(len(tables) - 2, -1, -1):
        acc = None
        for off in np.ndindex(*(2,) * dim):
            block = out[k + 1][tuple(slice(o, None, 2) for o in off)]
            acc = block.copy() if acc is None else acc + block
        out[k] = tables[k] + acc
    return out


def family_scores(
    weights: list[np.ndarray], kernel: KernelWeight, p: float
) -> list[np.ndarray]:
    """Per-cube scores (W(S) |S|^(-1/p))^p' of the family-sup functional,
    with W(S) the sum over grid cubes Q' inside S of
    K(Q') |Q'|^m weights[Q'].  `weights` holds one table per level: the
    cube masses of mu for cq, or ones for the mu-free functional."""
    n = weights[0].ndim
    pprime = p / (p - 1.0)
    weighted = [
        weights[k] * kernel.at_level(k, n) * 2.0 ** (-k * n * kernel.m)
        for k in range(len(weights))
    ]
    subtree = _subtree_sums(weighted, n)
    return [
        (subtree[k] * 2.0 ** (k * n / p)) ** pprime for k in range(len(weights))
    ]


class _GrowingFamily:
    """Family inside one region's subtree with its sparsity certificate
    kept incrementally (see the module docstring).

    Cubes are positions in the subtree, laid out level by level and
    row-major inside a level.  inner[x] is the leaf count of the union of
    members strictly inside cube x, for every cube x of the subtree, so
    checking and applying an addition walks only the chain from the new
    cube up to its nearest member ancestor.
    """

    def __init__(self, root: RootSpec, region: CubeAddr) -> None:
        dim, levels = root.dim, root.depth - region.level + 1
        counts = [1 << (dim * t) for t in range(levels)]
        start = np.cumsum([0] + counts[:-1])
        level = np.repeat(np.arange(levels), counts)
        local = np.arange(start[-1] + counts[-1]) - start[level]
        above = np.maximum(level - 1, 0)
        # a parent's row-major coordinates are its child's halved
        parent = start[above]
        for axis in range(dim):
            weight = dim - 1 - axis
            coord = (local >> (level * weight)) & ((1 << level) - 1)
            parent = parent + ((coord >> 1) << (above * weight))
        parent[0] = -1  # the region itself
        self.region = region
        self.start = start.tolist()
        self.level = level.tolist()
        self.parent = parent.tolist()
        self.leaves = (1 << (dim * (levels - 1 - level))).tolist()
        self.inner = [0] * len(self.parent)
        self.member = bytearray(len(self.parent))

    def add(self, c: int) -> bool:
        """Add cube c if the family stays certified; report whether it did."""
        parent, inner, leaves, member = self.parent, self.inner, self.leaves, self.member
        if 2 * inner[c] > leaves[c]:
            return False
        gain = leaves[c] - inner[c]
        top = parent[c]
        while top >= 0 and not member[top]:
            top = parent[top]
        if top >= 0 and 2 * (inner[top] + gain) > leaves[top]:
            return False
        walk = parent[c]
        while walk != top:
            inner[walk] += gain
            walk = parent[walk]
        if top >= 0:
            inner[top] += gain
        member[c] = 1
        return True

    def remove(self, c: int) -> None:
        """Undo the most recent add(c) still in effect."""
        parent, inner, member = self.parent, self.inner, self.member
        member[c] = 0
        gain = self.leaves[c] - inner[c]
        walk = parent[c]
        while walk >= 0:
            inner[walk] -= gain
            if member[walk]:
                break
            walk = parent[walk]

    def cube(self, c: int) -> CubeAddr:
        """Address of the cube at position c."""
        t = self.level[c]
        local = c - self.start[t]
        region = self.region
        dim = region.dim
        mask = (1 << t) - 1
        return CubeAddr(
            region.level + t,
            tuple(
                (i << t) | (local >> (t * (dim - 1 - axis))) & mask
                for axis, i in enumerate(region.index)
            ),
        )


def sparse_score_sup(
    root: RootSpec,
    score_tables: list[np.ndarray],
    region: CubeAddr,
    mode: str,
    family=None,
) -> tuple[float, tuple[CubeAddr, ...]]:
    """sup over certified-sparse subfamilies of the subtree of `region`
    of the sum of per-cube scores; returns (best sum, best family).

    Scores must be nonnegative.  greedy packs cubes by descending score
    (ties by level, then row-major index) subject to the certificate;
    exhaustive enumerates every certified subfamily, and is refused when
    the region holds more than 15 cubes, zero-score cubes included; given
    sums the supplied family restricted to the region.  Cubes of zero
    score never join a greedy or exhaustive family.
    """
    root.validate_cube(region)

    def score_of(cube: CubeAddr) -> float:
        return float(score_tables[cube.level][cube.index])

    if mode == "given":
        if family is None:
            raise BadKind("mode 'given' needs a family")
        members = sorted(
            {c for c in family if region.contains(c)}, key=CUBE_ORDER
        )
        return sum(score_of(c) for c in members), tuple(members)

    if mode not in ("greedy", "exhaustive"):
        raise BadKind(f"unknown family-sup mode {mode!r}")
    if mode == "exhaustive":
        n_inside = RootSpec(root.dim, root.depth - region.level).cube_count()
        if n_inside > 15:
            raise ComplexityRefusal(
                f"exhaustive family sup over {n_inside} cubes (limit 15)"
            )
    # the region's subtree in layout order: level by level, row-major
    scores = np.concatenate(
        [
            score_tables[k][region.leaf_slices(k)].ravel()
            for k in range(region.level, root.depth + 1)
        ],
        dtype=np.float64,
    )
    candidates = np.flatnonzero(scores > 0)
    values = scores.tolist()
    grown = _GrowingFamily(root, region)
    if mode == "greedy":
        # a stable sort keeps layout order, (level, row-major), among ties
        order = candidates[np.argsort(-scores[candidates], kind="stable")]
        chosen = sorted(c for c in order.tolist() if grown.add(c))
        return sum(values[c] for c in chosen), tuple(grown.cube(c) for c in chosen)

    order = candidates.tolist()
    best = 0.0
    best_members: tuple[int, ...] = ()
    members: list[int] = []

    def walk(start: int, total: float) -> None:
        nonlocal best, best_members
        if total > best:
            best = total
            best_members = tuple(members)
        for j in range(start, len(order)):
            c = order[j]
            # subfamilies of certified families are certified, so
            # pruning an uncertifiable extension is exhaustive
            if grown.add(c):
                members.append(c)
                walk(j + 1, total + values[c])
                members.pop()
                grown.remove(c)

    walk(0, 0.0)
    return best, tuple(grown.cube(c) for c in best_members)


def cq_constant(
    mu: TreeAggregate,
    kernel: KernelWeight,
    p: float,
    cube: CubeAddr,
    mode: str = "greedy",
    family=None,
) -> ConstantReport:
    """Family-sup testing constant of one cube.

    With W(S) = sum over grid cubes Q' inside S of K(Q') |Q'|^m mu(Q'),
    the constant is
    mu(Q)^(-1/p') * (sup over certified-sparse families inside Q of
    sum over members S of (W(S) |S|^(-1/p))^p')^(1/p').
    Mode "bound" instead evaluates the localized-maximal closed form that
    dominates the sup for the canonical kernel (up to a fixed factor).
    """
    if not p > 1:
        raise BadExponent(f"needs p > 1, got {p}")
    root = mu.root
    root.validate_cube(cube)
    mass = mu.sum_of(cube)
    if mass <= 0:
        raise ZeroMeasure(f"no mass on {cube}")
    pprime = p / (p - 1.0)
    if mode == "bound":
        if kernel.kind != "canonical":
            raise BadKind("closed-form bound needs the canonical kernel")
        if not kernel.alpha < root.dim:
            raise BadExponent(
                f"closed-form bound needs alpha < dim, got {kernel.alpha}"
            )
        local = fractional_maximal(mu, kernel.alpha, localize=cube)
        block = local.grid[cube.leaf_slices(root.depth)]
        num = float(np.sum(block ** pprime)) * root.leaf_volume
        value = (num / mass) ** (1.0 / pprime)
        return ConstantReport(
            name="cq", value=value, witness=cube, mode="closed-form-bound",
            params={"p": p, "alpha": kernel.alpha},
        )
    scores = family_scores(mu.levels, kernel, p)
    best, best_family = sparse_score_sup(root, scores, cube, mode, family=family)
    value = best ** (1.0 / pprime) / mass ** (1.0 / pprime)
    return ConstantReport(
        name="cq", value=value, witness=cube, mode=mode,
        params={"p": p, "family_size": len(best_family), "family": best_family},
    )


def cq_supremum(mu: TreeAggregate, kernel: KernelWeight, p: float) -> ConstantReport:
    """sup over the cubes of positive mass of the greedy family-sup
    constant (cq_constant in mode "greedy"), with the first cube in scan
    order that attains it.  The score tables are built once for all
    cubes; grids of more than 511 cubes are refused."""
    root = mu.root
    if root.cube_count() > _FAMILY_SUP_CUBE_LIMIT:
        raise ComplexityRefusal(
            f"family-sup scan over {root.cube_count()} cubes (limit {_FAMILY_SUP_CUBE_LIMIT})"
        )
    if not p > 1:
        raise BadExponent(f"needs p > 1, got {p}")
    pprime = p / (p - 1.0)
    scores = family_scores(mu.levels, kernel, p)
    best, witness = 0.0, None
    for cube in root.cubes():
        mass = mu.sum_of(cube)
        if mass <= 0:
            continue
        total, _ = sparse_score_sup(root, scores, cube, "greedy")
        value = total ** (1.0 / pprime) / mass ** (1.0 / pprime)
        if value > best:
            best, witness = value, cube
    return ConstantReport(
        name="cq-sup", value=best, witness=witness, mode="greedy", params={"p": p}
    )


def condition_d_ratio(
    kernel: KernelWeight, profile: ExponentProfile, cube: CubeAddr
) -> float:
    """Measured decay ratio of the kernel along the ancestor chain:
    sum over strict ancestors Q' of K(Q') |Q'|^(m - 1/p0), divided by the
    same quantity at the cube itself."""
    n = cube.dim
    expo = kernel.m - 1.0 / profile.p0

    def term(level: int) -> float:
        return kernel.at_level(level, n) * 2.0 ** (-level * n * expo)

    own = term(cube.level)
    above = sum(term(k) for k in range(cube.level))
    return above / own


def condition_d_bound(profile: ExponentProfile) -> float:
    """Geometric-series bound for the canonical kernel:
    2^(alpha - n/p0) / (1 - 2^(alpha - n/p0)), valid since alpha < n/p0."""
    gap = profile.alpha - profile.n / profile.p0
    if gap >= 0:
        raise BadExponent(f"series needs alpha < n/p0, got gap {gap}")
    ratio = 2.0 ** gap
    return ratio / (1.0 - ratio)
