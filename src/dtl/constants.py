"""Testing constants for the trace inequalities.

All scans are exact sups over the finitely many grid cubes.  The
family-sup constant of a cube (cq_constant) additionally sups over
certified-sparse subfamilies; greedy packs high-score cubes first,
exhaustive enumerates every certified subfamily of a small subtree, and
the closed-form bound evaluates the localized-maximal functional that
dominates the family sup for the canonical kernel.  cq_supremum takes
the greedy constant's sup over every cube of the grid.

One layout.  Every search lays its grid out level by level, row-major
inside a level (the order of RootSpec.cubes), and names cubes by their
positions there; sparse_score_sup takes the region's subtree as its
grid, cq_supremum the whole grid.  Restricted to the subtree of a cube
g, that layout is the subtree's own, so the cubes of one stable greedy
order of the grid that lie inside g come in g's own greedy order, ties
included.
The subtrees of one level r are disjoint, and an addition inside one of
them touches the certificate only there and above level r, where no cube
is a candidate.  So one pass per level over every candidate at level r
or below accepts exactly what each region's own pass would, and an empty
family starts the next level, with no undo: cq_supremum makes sum over r
of (candidates at level >= r) checks, O(L) integer steps each at depth L.

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
cube of the grid and, on each addition, adds |c| - inner(c) along the
chain from c's parent up to P (up to the root cube when no member
contains c): O(L) exact integer work per check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomicPowerUndefined,
    BadExponent,
    BadKind,
    ComplexityRefusal,
    NonFinite,
    ZeroMeasure,
)
from .grid import (
    CubeAddr,
    LeafField,
    LeafMeasure,
    RootSpec,
    TreeAggregate,
    aggregate,
    child_sums,
)
# kept bound by name: bench/spans.py patches dtl.constants.containment_forest
from .decompositions import containment_forest  # noqa: F401
from .norms import (
    ExponentProfile,
    conjugate_exponent,
    localized_maximal_integrals,
    maximal_testing_sup,
    scan_sup,
)
from .operators import KernelWeight


@dataclass(frozen=True)
class ConstantReport:
    """Named constant with the witness cube (when a scan attains it),
    the computation mode, and the parameters that produced it."""

    name: str
    value: float
    witness: CubeAddr | None
    mode: str
    params: dict = field(default_factory=dict, repr=False)


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


def a0_constant(mu: LeafMeasure, profile: ExponentProfile, form: str) -> ConstantReport:
    """Scan form of the testing constant.

    weight-a: sup side^beta (mu(Q)/|Q|)^(1/p)
    bump-b:   sup side^beta (mu^r(Q)/|Q|)^(1/(r p)), density measures only
    sparse-a: sup K(Q) |Q|^m (mu(Q)/|Q|)^(1/p)
    sparse-b: sup K(Q) |Q|^m (mu^r(Q)/|Q|)^(1/(r p))

    The bump forms take r from the profile; the sparse forms use the
    profile's canonical kernel K = KernelWeight.canonical(alpha, m, dim).
    """
    root = mu.root
    n = root.dim
    beta, p, r = profile.beta, profile.p, profile.r
    if form in ("bump-b", "sparse-b"):
        if r is None:
            raise BadExponent(f"bump form needs r > 1, got {r}")
        if mu.kind != "density":
            raise AtomicPowerUndefined("bump forms need a density measure")
        agg = aggregate(mu.power(r))
        exponent = 1.0 / (r * p)
    else:
        agg = aggregate(mu)
        exponent = 1.0 / p
    if form in ("sparse-a", "sparse-b"):
        kernel = KernelWeight.canonical(profile.alpha, profile.m, n)
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


def ap_characteristic(w: LeafField, p: float | str) -> ConstantReport:
    """Muckenhoupt characteristic sup (avg w)(avg w^(-1/(p-1)))^(p-1).

    p is a finite number > 1 or "infinity"; anything else raises
    BadExponent.  p = "infinity" evaluates the finite-p characteristic at
    p = 64; the characteristic is nonincreasing in p, so this is a valid
    upper estimate of the limiting constant.  A weight vanishing on some
    leaf makes the dual average diverge and the value is reported as +inf.
    """
    if p == "infinity":
        mode = "infinity-estimate"
        p_eff = 64.0
    else:
        mode = "exact-scan"
        p_eff = float(p) if isinstance(p, numbers.Real) else math.nan
    if not 1 < p_eff < math.inf:
        raise BadExponent(f"needs a finite p > 1 or 'infinity', got {p!r}")
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


def family_scores(
    weights: list[np.ndarray], kernel: KernelWeight, p: float
) -> list[np.ndarray]:
    """Per-cube scores (W(S) |S|^(-1/p))^p' of the family-sup functional,
    with W(S) the sum over grid cubes Q' inside S of
    K(Q') |Q'|^m weights[Q'].  `weights` holds one table per level: the
    cube masses of mu for cq, or ones for the mu-free functional.
    A p that is not finite and above 1 raises BadExponent; a score that
    overflows raises NonFinite, since an infinite score would make every
    bound built on it vacuous."""
    pprime = conjugate_exponent(p)
    n = weights[0].ndim
    subtree = [
        weights[k] * kernel.at_level(k, n) * 2.0 ** (-k * n * kernel.m)
        for k in range(len(weights))
    ]
    for k in range(len(subtree) - 2, -1, -1):
        subtree[k] += child_sums(subtree[k + 1])
    with np.errstate(over="ignore"):
        scores = [
            (subtree[k] * 2.0 ** (k * n / p)) ** pprime for k in range(len(weights))
        ]
    for k, table in enumerate(scores):
        if not np.isfinite(table).all():
            raise NonFinite(
                f"family-sup functional overflows: a level-{k} score is not finite (p={p})"
            )
    return scores


def _layout(tables: list[np.ndarray]) -> np.ndarray:
    """Per-level tables as one array in layout order: level by level,
    row-major inside a level (the order of RootSpec.cubes)."""
    return np.concatenate([t.ravel() for t in tables], dtype=np.float64)


def _greedy_order(scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Candidates by descending score; a stable sort keeps layout order,
    (level, row-major), among ties."""
    return candidates[np.argsort(-scores[candidates], kind="stable")]


class _GrowingFamily:
    """Family of grid cubes with its sparsity certificate kept
    incrementally (see the module docstring).

    Cubes are positions in the layout of the grid `root` (see _layout).
    inner[x] is the leaf count of the union of members strictly inside
    cube x, for every cube x of the grid, so checking and applying an
    addition walks only the chain from the new cube up to its nearest
    member ancestor.  An addition is never undone step by step:
    greedy_regions starts each level from a fresh inner and member, and
    the exhaustive search puts back a copy of inner taken before it.
    """

    def __init__(self, root: RootSpec) -> None:
        dim, levels = root.dim, root.depth + 1
        counts = [1 << (dim * t) for t in range(levels)]
        self.start = np.cumsum([0] + counts)
        self.level = np.repeat(np.arange(levels), counts)
        local = np.arange(self.start[-1]) - self.start[self.level]
        # row-major coordinates, first axis first
        self.coords = [
            (local >> (self.level * weight)) & ((1 << self.level) - 1)
            for weight in range(dim - 1, -1, -1)
        ]
        parent = self.ancestors(np.arange(local.size), np.maximum(self.level - 1, 0))
        parent[0] = -1  # the root cube
        self.parent = parent.tolist()
        self.leaves = (1 << (dim * (levels - 1 - self.level))).tolist()
        self.inner = [0] * local.size
        self.member = bytearray(local.size)

    def cube(self, c: int) -> CubeAddr:
        """Address of the cube at position c."""
        return CubeAddr(int(self.level[c]), tuple(int(x[c]) for x in self.coords))

    def ancestors(self, cubes: np.ndarray, r: int) -> np.ndarray:
        """Position of the level-r ancestor of each of `cubes`, which must
        all lie at level r or below; r is one level or one per cube."""
        shift = self.level[cubes] - r
        found = self.start[r]
        for weight, coord in enumerate(reversed(self.coords)):
            found = found + ((coord[cubes] >> shift) << (r * weight))
        return found

    def greedy_regions(self, order: np.ndarray):
        """Yield (g, greedy family inside g) for every cube g in layout
        order: the cubes of `order` inside g that the certificate admits
        one by one, listed in layout order.  One pass per level r offers
        every cube of `order` at level r or below, in the order given, to
        one family, which is then emptied by a fresh inner and member.
        One sort and one stable argsort group the accepted cubes by their
        level-r ancestor, each group in layout order."""
        for r in range(len(self.start) - 1):
            accepted = [c for c in order[order >= self.start[r]].tolist() if self.add(c)]
            self.inner, self.member = [0] * len(self.leaves), bytearray(len(self.leaves))
            accepted = np.sort(np.array(accepted, dtype=np.int64))
            owner = self.ancestors(accepted, r)
            by = np.argsort(owner, kind="stable")
            grouped = accepted[by].tolist()
            first = np.arange(self.start[r], self.start[r + 1] + 1)
            bounds = np.searchsorted(owner[by], first).tolist()
            for i, g in enumerate(first[:-1].tolist()):
                yield g, grouped[bounds[i]:bounds[i + 1]]

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


def sparse_score_sup(
    root: RootSpec,
    score_tables: list[np.ndarray],
    region: CubeAddr,
    mode: str,
) -> tuple[float, tuple[CubeAddr, ...]]:
    """sup over certified-sparse subfamilies of the subtree of `region`
    of the sum of per-cube scores; returns (best sum, best family).

    Scores must be nonnegative.  Mode "greedy" packs cubes by descending
    score (ties by level, then row-major index) subject to the
    certificate; "exhaustive" enumerates every certified subfamily, and
    is refused when the region holds more than 15 cubes, zero-score cubes
    included.  Any other mode raises BadKind.  Cubes of zero score never
    join a family.
    """
    root.validate_cube(region)
    if mode not in ("greedy", "exhaustive"):
        raise BadKind(f"unknown family-sup mode {mode!r}")
    # the region's subtree, laid out as a grid of its own: the whole
    # grid's layout restricted to it (see "One layout")
    subtree = RootSpec(root.dim, root.depth - region.level)
    if mode == "exhaustive" and subtree.cube_count() > 15:
        raise ComplexityRefusal(
            f"exhaustive family sup over {subtree.cube_count()} cubes (limit 15)"
        )
    grown = _GrowingFamily(subtree)
    scores = _layout(
        [score_tables[k][region.leaf_slices(k)] for k in range(region.level, root.depth + 1)]
    )
    values = scores.tolist()
    candidates = np.flatnonzero(scores > 0)

    def address(c: int) -> CubeAddr:
        t = int(grown.level[c])
        index = (i << t | int(x[c]) for i, x in zip(region.index, grown.coords))
        return CubeAddr(region.level + t, tuple(index))

    if mode == "greedy":
        order = _greedy_order(scores, candidates).tolist()
        chosen = sorted(c for c in order if grown.add(c))
        return sum(values[c] for c in chosen), tuple(map(address, chosen))

    order = candidates.tolist()
    best = 0.0
    best_members: tuple[int, ...] = ()
    members: list[int] = []

    def walk(start: int, total: float) -> None:
        nonlocal best, best_members
        if total > best:
            best = total
            best_members = tuple(members)
        before = grown.inner[:]
        for j in range(start, len(order)):
            c = order[j]
            # subfamilies of certified families are certified, so
            # pruning an uncertifiable extension is exhaustive
            if grown.add(c):
                members.append(c)
                walk(j + 1, total + values[c])
                members.pop()
                grown.inner[:] = before  # undoes the addition
                grown.member[c] = 0

    walk(0, 0.0)
    return best, tuple(map(address, best_members))


def mu_free_family_sup(dim: int, depth: int, alpha: float, m: int, p: float) -> tuple[float, int]:
    """(best sum, family size) of the greedy family sup of the mu-free functional.  Its
    scores are one per level and never rise with it, so greedy takes the layout order and
    each member admits its first 2^(dim-1) children, half its leaves: 2^(k (dim-1)) at level k."""
    ones = [np.ones((1 << k,) * dim) for k in range(depth + 1)]
    kernel = KernelWeight.canonical(alpha, m, dim)
    scores = [float(t.flat[0]) for t in family_scores(ones, kernel, p)]
    chosen = [s for k, s in enumerate(scores) if s > 0 for _ in range(1 << (k * (dim - 1)))]
    return sum(chosen), len(chosen)


def cq_constant(
    mu: TreeAggregate,
    kernel: KernelWeight,
    p: float,
    cube: CubeAddr,
    mode: str = "greedy",
) -> ConstantReport:
    """Family-sup testing constant of one cube.

    With W(S) = sum over grid cubes Q' inside S of K(Q') |Q'|^m mu(Q'),
    the constant is
    mu(Q)^(-1/p') * (sup over certified-sparse families inside Q of
    sum over members S of (W(S) |S|^(-1/p))^p')^(1/p').
    Modes "greedy" and "exhaustive" search the families as
    sparse_score_sup does.  Mode "bound" instead evaluates the
    localized-maximal closed form that dominates the sup for the
    canonical kernel (up to a fixed factor).
    """
    pprime = conjugate_exponent(p)
    root = mu.root
    root.validate_cube(cube)
    mass = mu.sum_of(cube)
    if mass <= 0:
        raise ZeroMeasure(f"no mass on {cube}")
    if mode == "bound":
        if kernel.kind != "canonical":
            raise BadKind("closed-form bound needs the canonical kernel")
        if not kernel.alpha < root.dim:
            raise BadExponent(
                f"closed-form bound needs alpha < dim, got {kernel.alpha}"
            )
        num = float(localized_maximal_integrals(mu, kernel.alpha, p)[cube.level][cube.index])
        value = (num / mass) ** (1.0 / pprime)
        return ConstantReport(
            name="cq", value=value, witness=cube, mode="closed-form-bound",
            params={"p": p, "alpha": kernel.alpha},
        )
    scores = family_scores(mu.levels, kernel, p)
    best, best_family = sparse_score_sup(root, scores, cube, mode)
    value = best ** (1.0 / pprime) / mass ** (1.0 / pprime)
    return ConstantReport(
        name="cq", value=value, witness=cube, mode=mode,
        params={"p": p, "family_size": len(best_family), "family": best_family},
    )


def cq_supremum(mu: TreeAggregate, kernel: KernelWeight, p: float) -> ConstantReport:
    """sup over the cubes of positive mass of the greedy family-sup
    constant (cq_constant in mode "greedy"), bit for bit, with the first
    cube in scan order that attains it; grids of more than 511 cubes are
    refused.

    One greedy pass per level over the whole-grid layout serves every
    cube of that level (see "One layout" in the module docstring); each
    region's family is summed in layout order.  Cost: one numpy setup
    per call and per level, plus sum over r of (candidates at level >= r)
    certificate checks.
    """
    root = mu.root
    if root.cube_count() > _FAMILY_SUP_CUBE_LIMIT:
        raise ComplexityRefusal(
            f"family-sup scan over {root.cube_count()} cubes (limit {_FAMILY_SUP_CUBE_LIMIT})"
        )
    scores = _layout(family_scores(mu.levels, kernel, p))
    pprime = p / (p - 1.0)
    grown = _GrowingFamily(root)
    masses = _layout(mu.levels).tolist()
    values = scores.tolist()
    order = _greedy_order(scores, np.flatnonzero(scores > 0))
    best, witness = 0.0, None
    for g, chosen in grown.greedy_regions(order):
        mass = masses[g]
        if mass <= 0:
            continue
        total = sum(values[c] for c in chosen)
        value = total ** (1.0 / pprime) / mass ** (1.0 / pprime)
        if value > best:
            best, witness = value, grown.cube(g)
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
