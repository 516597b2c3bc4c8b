"""Testing constants for the trace inequalities.

All scans are exact sups over the finitely many grid cubes.  The
family-sup constant of a cube (cq_constant) additionally sups over
certified-sparse subfamilies; greedy packs high-score cubes first,
exhaustive enumerates every certified subfamily of a small subtree, and
the closed-form bound evaluates the localized-maximal functional that
dominates the family sup for the canonical kernel.  cq_supremum takes
the greedy constant's sup over every cube of the grid.

One layout.  Every per-cube table here, from the masses
(TreeAggregate.flat) to the scores (family_scores) and every scan
constant's table, is one array in the grid's layout (RootSpec.offsets),
and every search names cubes by their positions in it.  Restricted to
the subtree of a cube g, that layout is the subtree's own, so the cubes
of one stable greedy order of the grid that lie inside g come in g's
own greedy order, ties included: one order serves the greedy search of
every region, each run from an empty family (_GrowingFamily.greedy).

Screen.  Both family searches skip work that cannot move the value they
report.  cq_supremum: the greedy total inside a region g sums a subset
of the positive scores inside g, so it is at most their roll-up S_g up
to the two sums' rounding: a sum of n <= 511 terms
(_FAMILY_SUP_CUBE_LIMIT) is within a relative (n - 1) 2^-53 of its
exact value.  _region_bounds raises S_g^(1/p') and lowers
mass^(1/p') by the screen's allowance (norms.screen_high, screen_low),
which covers that rounding and the powers' own error, so the bound's
quotient is at or above the region's exact value.  The greedy runs
first on the region of the highest bound, whose exact value is the
floor, and then only on the other regions whose bound reaches it; the
first maximum in layout order has a value at or above the floor, so it
is among them, and the strict > of the layout-order scan finds it.  In
the worst case, every bound reaching the floor, that is the sum over r
of (candidates at level >= r), the count with no screen.  Exhaustive
search: every extension of a partial family at loop index j sums a
subset of the remaining scores, in order, onto the running total.
Float addition is monotone and the scores are positive, so no such
fold exceeds the fold of all of them, and once that fold is at or
below the best sum found, no extension can pass the strict > that
replaces the best: the loop stops there, with no allowance.  In the
worst case, a fold that never falls to the best, it checks what the
unpruned search does.

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
import operator
from dataclasses import dataclass, field
from functools import reduce

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
    power,
)
# kept bound by name: bench/spans.py patches dtl.constants.containment_forest
from .decompositions import containment_forest  # noqa: F401
from .norms import (
    ExponentProfile,
    conjugate_exponent,
    localized_maximal_integrals,
    maximal_testing_sup,
    scan_sup,
    screen_high,
    screen_low,
    screened_sup,
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
    res = scan_sup(root, root.scaled(mu.flat, [2.0 ** (k * beta) for k in range(root.depth + 1)]))
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
    per_volume = [2.0 ** (k * n) for k in range(root.depth + 1)]

    def table(arrays, scaled, power):
        out = scaled(arrays[0], per_volume)
        power(out, exponent, out=out)
        return scaled(out, front, out)

    res = screened_sup(root, [agg.flat], table)
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
    leaf makes the dual average diverge and the value is reported as +inf;
    a dual average whose power overflows, or a product of two finite
    factors that overflows, raises NonFinite naming it.
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
    dual = aggregate(LeafField(root, power(w.values, -1.0 / (p_eff - 1.0))))
    scale = [2.0 ** (k * root.dim) for k in range(root.depth + 1)]

    def table(arrays, scaled, power):
        dual_part = scaled(arrays[1], scale)
        with np.errstate(over="ignore"):
            power(dual_part, p_eff - 1.0, out=dual_part)
        if np.isinf(dual_part).any():  # before 0 * inf makes it a NaN
            raise NonFinite(f"dual averages to the power {p_eff - 1.0} are not finite")
        # the screen's bound multiplies per-level maxima, which can overflow
        # where no exact entry does, so the exact result is checked instead
        with np.errstate(over="ignore"):
            return np.multiply(scaled(arrays[0], scale), dual_part, dual_part)

    res = screened_sup(root, [agg.flat, dual.flat], table)
    if math.isinf(res.value):
        raise NonFinite(
            f"A_p product avg(w) * avg(w^(-1/(p-1)))^(p-1) overflows on {res.witness}"
            f" (p={p_eff})"
        )
    return ConstantReport(
        name="ap", value=res.value, witness=res.witness, mode=mode, params=params
    )


# ---- family-sup constant ----

_FAMILY_SUP_CUBE_LIMIT = 511


def family_scores(
    root: RootSpec, weights: np.ndarray, kernel: KernelWeight, p: float
) -> np.ndarray:
    """Per-cube scores (W(S) |S|^(-1/p))^p' of the family-sup functional,
    in layout order, with W(S) the sum over grid cubes Q' inside S of
    K(Q') |Q'|^m weights[Q'].  `weights` is a layout array over the grid
    `root`: the cube masses of mu for cq, or ones for the mu-free
    functional.  A p that is not finite and above 1 raises BadExponent; a
    score that overflows raises NonFinite, since an infinite score would
    make every bound built on it vacuous."""
    pprime = conjugate_exponent(p)
    n, levels = root.dim, range(root.depth + 1)
    scores = root.scaled(weights, [kernel.at_level(k, n) for k in levels])
    root.scaled(scores, [2.0 ** (-k * n * kernel.m) for k in levels], scores)
    root.roll_up(scores)  # into W(S)
    with np.errstate(over="ignore"):
        root.scaled(scores, [2.0 ** (k * n / p) for k in levels], scores)
        power(scores, pprime, out=scores)
    finite = np.isfinite(scores)
    if not finite.all():
        k = root.cube_at(int(np.argmin(finite))).level
        raise NonFinite(
            f"family-sup functional overflows: a level-{k} score is not finite (p={p})"
        )
    return scores


def _greedy_order(scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Candidates by descending score; a stable sort keeps layout order,
    (level, row-major), among ties."""
    return candidates[np.argsort(-scores[candidates], kind="stable")]


class _GrowingFamily:
    """Family of grid cubes with its sparsity certificate kept
    incrementally (see the module docstring).

    Cubes are positions in the layout of the grid `root` (RootSpec.offsets).
    inner[x] is the leaf count of the union of members strictly inside
    cube x, for every cube x of the grid, so checking and applying an
    addition walks only the chain from the new cube up to its nearest
    member ancestor.  Both searches undo an addition with remove, O(L)
    steps instead of a copy of inner for the whole grid: greedy empties
    the family once its region is searched, the exhaustive search after
    each extension it tries.
    """

    def __init__(self, root: RootSpec) -> None:
        self.dim, levels = root.dim, root.depth + 1
        self.start = np.array(root.offsets())
        self.level = np.repeat(np.arange(levels), np.diff(self.start))
        # row-major offset inside a level: t bits per axis, last axis lowest
        self.local = np.arange(self.start[-1]) - self.start[self.level]
        parent = self.ancestors(np.arange(self.local.size), np.maximum(self.level - 1, 0))
        parent[0] = -1  # the root cube
        self.parent = parent.tolist()
        self.leaves = (1 << (self.dim * (levels - 1 - self.level))).tolist()
        self.inner = [0] * self.local.size
        self.member = bytearray(self.local.size)

    def ancestors(self, cubes: np.ndarray, r: int) -> np.ndarray:
        """Position of the level-r ancestor of each of `cubes`, which must
        all lie at level r or below; r is one level or one per cube."""
        t = self.level[cubes]
        local, mask = self.local[cubes] >> (t - r), (1 << r) - 1  # each axis's top r bits
        found = self.start[r]
        for w in range(self.dim):
            found = found + ((local & mask) << (r * w))
            local = local >> t
        return found

    def inside(self, cubes: np.ndarray, g: int) -> np.ndarray:
        """The cubes of `cubes` that lie in cube g, in the order given."""
        r = int(self.level[g])
        cubes = cubes[cubes >= self.start[r]]
        return cubes[self.ancestors(cubes, r) == g]

    def greedy(self, order: np.ndarray, g: int) -> list[int]:
        """Greedy family inside cube g, listed in layout order: the cubes
        of `order` inside g that the certificate admits one by one, in the
        order given.  The family starts empty and is emptied again, newest
        member first, so one instance serves every region."""
        accepted = [c for c in self.inside(order, g).tolist() if self.add(c)]
        for c in reversed(accepted):
            self.remove(c)
        return sorted(accepted)

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
        """Undo add(c), c being the latest member added, on the same chain."""
        parent, inner, member = self.parent, self.inner, self.member
        member[c] = 0
        gain = self.leaves[c] - inner[c]
        walk = parent[c]
        while walk >= 0:
            inner[walk] -= gain
            if member[walk]:
                break
            walk = parent[walk]


def sparse_score_sup(
    root: RootSpec,
    scores: np.ndarray,
    region: CubeAddr,
    mode: str,
) -> tuple[float, tuple[CubeAddr, ...]]:
    """sup over certified-sparse subfamilies of the subtree of `region`
    of the sum of per-cube scores, given in layout order; returns
    (best sum, best family).

    Scores must be nonnegative.  Mode "greedy" packs cubes by descending
    score (ties by level, then row-major index) subject to the
    certificate; "exhaustive" searches every certified subfamily, depth
    first in layout order, skipping the extensions whose sum cannot
    exceed the best found (see "Screen" in the module docstring), and
    returns the first family of the best sum in that order; it is
    refused when the region holds more than 15 cubes, zero-score cubes
    included.  Any other mode raises BadKind.  Cubes of zero score never
    join a family.
    """
    at = root.position(region)
    if mode not in ("greedy", "exhaustive"):
        raise BadKind(f"unknown family-sup mode {mode!r}")
    # the region's subtree holds as many cubes as the top levels of the grid
    held = root.offsets()[root.depth + 1 - region.level]
    if mode == "exhaustive" and held > 15:
        raise ComplexityRefusal(f"exhaustive family sup over {held} cubes (limit 15)")
    grown = _GrowingFamily(root)
    values = scores.tolist()
    candidates = np.flatnonzero(scores > 0)

    if mode == "greedy":
        chosen = grown.greedy(_greedy_order(scores, candidates), at)
        return sum(values[c] for c in chosen), tuple(map(root.cube_at, chosen))

    order = grown.inside(candidates, at).tolist()
    rest = [values[c] for c in order]
    best = 0.0
    best_members: tuple[int, ...] = ()
    members: list[int] = []

    def walk(start: int, total: float) -> None:
        nonlocal best, best_members
        if total > best:
            best = total
            best_members = tuple(members)
        for j in range(start, len(order)):
            # every extension from here sums a subset of order[j:] onto
            # total, and no such fold exceeds the fold of all of it
            if reduce(operator.add, rest[j:], total) <= best:
                break
            c = order[j]
            # subfamilies of certified families are certified, so
            # pruning an uncertifiable extension is exhaustive
            if grown.add(c):
                members.append(c)
                walk(j + 1, total + values[c])
                members.pop()
                grown.remove(c)

    walk(0, 0.0)
    return best, tuple(map(root.cube_at, best_members))


def mu_free_family_sup(dim: int, depth: int, alpha: float, m: int, p: float) -> tuple[float, int]:
    """(best sum, family size) of the greedy family sup of the mu-free functional.  Its
    scores are one per level and never rise with it, so greedy takes the layout order and
    each member admits its first 2^(dim-1) children, half its leaves: 2^(k (dim-1)) at level k."""
    root = RootSpec(dim, depth)
    kernel = KernelWeight.canonical(alpha, m, dim)
    scores = family_scores(root, np.ones(root.cube_count()), kernel, p)
    scores = scores[root.offsets()[:-1]].tolist()  # each level's first cube
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
    scores = family_scores(root, mu.flat, kernel, p)
    best, best_family = sparse_score_sup(root, scores, cube, mode)
    value = best ** (1.0 / pprime) / mass ** (1.0 / pprime)
    return ConstantReport(
        name="cq", value=value, witness=cube, mode=mode,
        params={"p": p, "family_size": len(best_family), "family": best_family},
    )


def _region_bounds(
    root: RootSpec, scores: np.ndarray, masses: np.ndarray, pprime: float
) -> np.ndarray:
    """Per cube g, in layout order, a float at or above cq_supremum's
    exact value at g, total^(1/p') / mass^(1/p') for the greedy total
    inside g; -inf where g has no mass or no positive score inside, so
    that its value never counts.  The greedy total sums a subset of the
    scores inside g, whose roll-up S_g it cannot exceed by more than the
    two sums' rounding; the bound is screen_high of S_g^(1/p') over
    screen_low of mass^(1/p'), +inf where that lowered root is not
    positive (see "Screen" in the module docstring)."""
    inside = root.roll_up(scores.copy())
    with np.errstate(over="ignore"):
        high = screen_high(power(inside, 1.0 / pprime))
        low = screen_low(power(masses, 1.0 / pprime))
        bound = np.divide(high, low, out=np.full_like(high, np.inf), where=low > 0)
    bound[(inside <= 0) | (masses <= 0)] = -np.inf
    return bound


def cq_supremum(mu: TreeAggregate, kernel: KernelWeight, p: float) -> ConstantReport:
    """sup over the cubes of positive mass of the greedy family-sup
    constant (cq_constant in mode "greedy"), bit for bit, with the first
    cube in scan order that attains it; grids of more than 511 cubes are
    refused.

    Every region's greedy search offers the one greedy order of the
    grid's candidates (see "One layout" in the module docstring) to one
    _GrowingFamily, which each search leaves empty, and sums its family
    in layout order.  The region of the highest bound (_region_bounds) is
    searched first, and its exact value is a floor; then the other
    regions whose bound reaches the floor are searched in layout order
    (see "Screen" in the module docstring).  Cost: one numpy filter of
    the candidates and one certificate check per candidate under each
    searched region, the floor's included: never more checks than the
    sum over r of (candidates at level >= r) that every region would
    take.
    """
    root = mu.root
    if root.cube_count() > _FAMILY_SUP_CUBE_LIMIT:
        raise ComplexityRefusal(
            f"family-sup scan over {root.cube_count()} cubes (limit {_FAMILY_SUP_CUBE_LIMIT})"
        )
    scores = family_scores(root, mu.flat, kernel, p)
    pprime = conjugate_exponent(p)
    grown = _GrowingFamily(root)
    masses = mu.flat.tolist()
    values = scores.tolist()
    order = _greedy_order(scores, np.flatnonzero(scores > 0))

    def exact(g: int) -> float:
        total = sum(values[c] for c in grown.greedy(order, g))
        return total ** (1.0 / pprime) / masses[g] ** (1.0 / pprime)

    bound = _region_bounds(root, scores, mu.flat, pprime)
    top = int(np.argmax(bound))
    best, witness = 0.0, None
    if bound[top] > -np.inf:  # some region holds both mass and a candidate
        floor = exact(top)
        keep = bound >= floor
        keep[top] = True  # searched whatever its bound
        for g in np.flatnonzero(keep).tolist():
            value = floor if g == top else exact(g)
            if value > best:
                best, witness = value, root.cube_at(g)
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
