"""Maximal and fractional-integral operators on the truncated dyadic grid.

All dyadic operators are evaluated by a single root-to-leaf sweep over the
aggregate tables: at each level the per-cube candidate (or summand) is
formed, then combined with every child's entry through
grid.parent_child_views, the parent level broadcast against the child
level with no copy spread onto the children's grid.  Outputs are leaf
fields, which is exact because every candidate cube contains whole
leaves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BadExponent, BadKind, ComplexityRefusal, NegativeValue, NonFinite, ZeroMeasure
from .grid import (
    DEFAULT_EVAL_CAP,
    DEFAULT_LEAF_CAP,
    LeafField,
    LeafMeasure,
    RootSpec,
    TreeAggregate,
    aggregate,
    check_same_root,
    enlarged_span,
    ordered_sum,
    parent_child_views,
    power,
)

# ---- kernel weights ----


@dataclass(frozen=True)
class KernelWeight:
    """Per-level cube weight K(Q), either canonical side^(alpha - m n) or a table."""

    m: int
    kind: str  # "canonical" | "table"
    alpha: float | None = None
    table: tuple[float, ...] | None = None

    @classmethod
    def canonical(cls, alpha: float, m: int, n: int) -> KernelWeight:
        if not 0 < alpha < m * n:
            raise BadExponent(f"canonical kernel needs 0 < alpha < m*n, got {alpha}")
        return cls(m=m, kind="canonical", alpha=alpha)

    @classmethod
    def from_table(cls, values, m: int) -> KernelWeight:
        arr = tuple(float(v) for v in values)
        if any(not math.isfinite(v) for v in arr):
            raise NonFinite("kernel table must be finite")
        if any(v < 0 for v in arr):
            raise NegativeValue("kernel table must be nonnegative")
        return cls(m=m, kind="table", table=arr)

    def at_level(self, k: int, n: int) -> float:
        if self.kind == "canonical":
            return 2.0 ** (k * (self.m * n - self.alpha))
        if k >= len(self.table):
            raise BadExponent(f"kernel table has no level {k}")
        return self.table[k]


# ---- downward sweeps ----


def _sweep(root: RootSpec, table: np.ndarray, combine) -> np.ndarray:
    """Accumulate a per-cube layout table along every root-to-leaf chain:
    level by level, combine(parent's accumulated entry, child's entry).
    Returns the leaf level, flat in canonical order."""
    acc, *below = root.level_views(table)
    for level in below:
        acc = combine(*parent_child_views(acc, level))
    return acc.ravel()


def product_tables(aggs: list[TreeAggregate]) -> np.ndarray:
    """Per-cube products of the fields' integral tables in layout order,
    multiplied left to right in the order of `aggs`.  For one field this
    is the aggregate's own array, which callers must not modify."""
    return reduce(lambda a, b: a * b, (agg.flat for agg in aggs))


# ---- operators ----


def fractional_maximal(mu: TreeAggregate, alpha: float) -> LeafField:
    """Dyadic fractional maximal function of a measure.

    At each point x the value is the sup over grid cubes R containing x of
    side(R)^(alpha - n) * mu(R).  alpha = 0 gives the dyadic
    Hardy-Littlewood maximal function; this is multilinear_maximal with
    m = 1.  The testing conditions need it for mu restricted to each
    cube; `norms` evaluates those for a whole level at once.
    """
    return multilinear_maximal([mu], alpha)


def multilinear_maximal(aggs: list[TreeAggregate], alpha: float) -> LeafField:
    """m-sublinear fractional maximal function.

    sup over cubes Q containing x of side(Q)^(alpha - m n) * prod_i
    integral of f_i over Q.
    """
    root = check_same_root(*aggs)
    m = len(aggs)
    if not 0 <= alpha < m * root.dim:
        raise BadExponent(f"needs 0 <= alpha < m*dim, got {alpha}")
    scale = [2.0 ** (k * (m * root.dim - alpha)) for k in range(root.depth + 1)]
    leaf = _sweep(root, root.scaled(product_tables(aggs), scale), np.maximum)
    return LeafField(root, leaf)


def _integral_terms(aggs: list[TreeAggregate], kernel: KernelWeight) -> np.ndarray:
    """Per-cube summands K(Q) * prod_i integral of f_i over Q, in layout order."""
    root = check_same_root(*aggs)
    if kernel.m != len(aggs):
        raise BadKind(f"kernel arity {kernel.m} vs {len(aggs)} fields")
    kern = [kernel.at_level(k, root.dim) for k in range(root.depth + 1)]
    return root.scaled(product_tables(aggs), kern)


def dyadic_integral_operator(aggs: list[TreeAggregate], kernel: KernelWeight) -> LeafField:
    """Dyadic model of the multilinear fractional integral.

    Sum over all grid cubes Q containing x of K(Q) * prod_i integral of
    f_i over Q, evaluated level by level down the tree.
    """
    root = aggs[0].root
    leaf = _sweep(root, _integral_terms(aggs, kernel), np.add)
    return LeafField(root, leaf)


def sparse_integral_operator(
    aggs: list[TreeAggregate], kernel: KernelWeight, family
) -> LeafField:
    """Sparse restriction of the dyadic integral operator.

    Same summands as dyadic_integral_operator, but only over the cubes of
    the given sparse family; the other cubes' summands are replaced by 0
    (selected, not multiplied by 0, so an overflow outside the family
    stays out).
    """
    terms = _integral_terms(aggs, kernel)
    root = aggs[0].root
    mask = np.zeros(terms.size, dtype=bool)
    mask[list(map(root.position, family))] = True
    leaf = _sweep(root, np.where(mask, terms, 0.0), np.add)
    return LeafField(root, leaf)


def enlargement_majorant(fields: list[LeafField], alpha: float) -> np.ndarray:
    """Leafwise sum over containing cubes Q of side(Q)^alpha times the
    product of the fields' integrals over 3Q clipped to the root cube,
    each divided by |Q|; leaf values in canonical order."""
    root = check_same_root(*fields)
    n, m = root.dim, len(fields)
    grids = [f.grid for f in fields]
    vol = root.leaf_volume
    terms = []
    for k in range(root.depth + 1):
        # each level-k cube's clipped 3Q, as a box of per-axis spans
        spans = [enlarged_span(root, k, i) for i in range(1 << k)]
        scale = 2.0 ** (-k * alpha) * 2.0 ** (k * n * m)
        for box in itertools.product(spans, repeat=n):
            prod = 1.0
            for g in grids:
                prod *= g[box].sum() * vol
            terms.append(scale * prod)
    return _sweep(root, np.array(terms), np.add)


def mu_maximal(g: LeafField, mu: LeafMeasure) -> LeafField:
    """Maximal function of mu-averages: sup over Q containing x of the
    mu-average of g over Q, skipping cubes with mu(Q) = 0.  Points with no
    containing cube of positive mass get 0."""
    check_same_root(g, mu)
    root = g.root
    mu_agg = aggregate(mu)
    if mu_agg.total <= 0:
        raise ZeroMeasure("mu_maximal needs mu with positive total mass")
    gmu_agg = aggregate(mu.weighted(g))
    cand = np.full_like(mu_agg.flat, -np.inf)
    np.divide(gmu_agg.flat, mu_agg.flat, out=cand, where=mu_agg.flat > 0)
    leaf = _sweep(root, cand, np.maximum)
    return LeafField(root, np.where(np.isfinite(leaf), leaf, 0.0))


# ---- quadrature form of the fractional integral ----


def diagonal_cell_integral(alpha: float, m: int, h: float) -> float:
    """Exact integral of (sum_i |x - y_i|)^(alpha - m) over the m-fold
    product of the 1-d cell of width h centered at x.

    Substituting u_i = |x - y_i| gives 2^m times the integral of
    (sum u_i)^(alpha - m) over [0, h/2]^m, which has the closed form
    sum_j (-1)^(m-j) C(m,j) (j h/2)^alpha / (alpha (alpha-1) ... (alpha-m+1))
    away from the integer poles of the denominator.

    At a pole alpha = k in {1, ..., m-1}, G(t) = c t^k log t with
    c = (-1)^(m-k-1) / (k! (m-k-1)!) is the m-fold antiderivative of
    t^(k-m) up to a polynomial of degree below m, so the integral is
    2^m sum_j (-1)^(m-j) C(m,j) G(j h/2).  Splitting log(j h/2) into
    log j + log(h/2), the log(h/2) part is a multiple of j^k, which the
    m-th difference also removes; only the log j terms are summed.
    """
    if alpha <= 0:
        raise BadExponent("cell integral needs alpha > 0")
    a = h / 2.0
    if m == 1:
        return 2.0 * a ** alpha / alpha
    denom = 1.0
    pole = False
    for r in range(1, m + 1):
        factor = alpha - m + r
        if abs(factor) < 1e-9:
            pole = True
            break
        denom *= factor
    if not pole:
        terms = ((-1) ** (m - j) * math.comb(m, j) * (j * a) ** alpha for j in range(m + 1))
        return 2.0 ** m * ordered_sum(terms) / denom

    k = round(alpha)
    c = (-1) ** (m - k - 1) / (math.factorial(k) * math.factorial(m - k - 1))
    terms = ((-1) ** (m - j) * math.comb(m, j) * j ** k * math.log(j) for j in range(2, m + 1))
    return 2.0 ** m * c * a ** k * ordered_sum(terms)


def kernel_integral(fields: list[LeafField], alpha: float) -> LeafField:
    """Midpoint quadrature of the multilinear fractional integral.

    At each leaf center x it sums prod_i f_i(y_i) * (sum_i |x - y_i|)^
    (alpha - m n) * h^(m n) over all leaf-center tuples (y_1, ..., y_m).
    The only singular tuple is the fully diagonal one (every y_i in x's
    own cell); in dimension 1 it is replaced by the exact cell integral of
    the kernel, in dimension >= 2 it is omitted, a documented O(h^alpha)
    bias.

    Leaf-center differences are exact multiples of h, so the kernel comes
    from one lag table T[u_1, ..., u_m] = (sum_i |u_i h|)^(alpha - m n)
    over lag vectors u_i in {-(S-1), ..., S-1}^n, S = 2^depth, with the
    all-zero (diagonal) entry set to 0; leaf x's kernel is the slice
    T[S-1-x : 2S-1-x] on every axis.  The table's (2S-1)^(m n) entries
    are refused above the leaf cap, and the N^(m+1) multiply-adds of the
    contraction over the N leaves above the evaluation cap.
    """
    root = check_same_root(*fields)
    m = len(fields)
    n = root.dim
    if not 0 < alpha < m * n:
        raise BadExponent(f"needs 0 < alpha < m*dim, got {alpha}")
    nleaf = root.leaf_count
    side = 1 << root.depth
    for count, what, cap in (
        (nleaf ** (m + 1), "evaluations", DEFAULT_EVAL_CAP),
        ((2 * side - 1) ** (m * n), "lag-table entries", DEFAULT_LEAF_CAP),
    ):
        if count > cap:
            raise ComplexityRefusal(f"kernel quadrature needs {count} {what}, cap is {cap}")
    lag = np.arange(1 - side, side) * root.leaf_side
    dist = np.linalg.norm(np.stack(np.meshgrid(*[lag] * n, indexing="ij"), axis=-1), axis=-1)
    shapes = [(1,) * (i * n) + dist.shape + (1,) * ((m - 1 - i) * n) for i in range(m)]
    table = reduce(np.add, (dist.reshape(s) for s in shapes))
    with np.errstate(divide="ignore"):
        power(table, alpha - m * n, out=table)
    table[(side - 1,) * (m * n)] = 0.0
    vol = root.leaf_volume ** m
    # each field as an (N, 1) column, the last field first: a (-1, N) by
    # (N, 1) product contracts a window's last axis, down to (1, N) by
    # (N, 1), the operands np.tensordot would build, so the same bits
    columns = [f.values.reshape(nleaf, 1) for f in reversed(fields)]
    spans = [slice(side - 1 - c, 2 * side - 1 - c) for c in range(side)]
    out = np.empty(nleaf)
    for ix, window in enumerate(itertools.product(spans, repeat=n)):
        contracted = table[window * m]
        for column in columns:
            contracted = np.dot(contracted.reshape(-1, nleaf), column)
        out[ix] = contracted[0, 0] * vol
    if n == 1:
        diag = diagonal_cell_integral(alpha, m, root.leaf_side)
        out += reduce(np.multiply, (f.values for f in fields)) * diag
    return LeafField(root, out)
