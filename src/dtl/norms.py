"""Norms and exponent bookkeeping for the truncated grid.

Every sup-type norm is an exact scan over the finitely many grid cubes;
the reported witness is the first cube attaining the sup when levels are
scanned root first and cubes row-major within a level.

Screen, then certify.  A cube sup reports one value, so only the cubes
that could hold it need their exact power.  screened_sup bounds every
level of a table from the level's maxima and builds the exact table only
over the levels whose bound reaches the best exact value; the testing
sup and hedberg's leaf ratio take their libm powers only on a band
below a screened top; the family sup (constants.cq_supremum) runs its
greedy search only on the regions whose bound reaches a floor.  All four
widen by one allowance, screen_low and screen_high, and by no other
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BadExponent, NonFinite, ShapeMismatch
from .grid import (
    CubeAddr,
    LeafField,
    LeafMeasure,
    RootSpec,
    TreeAggregate,
    aggregate,
    check_same_root,
    doc_value,
    ordered_sum,
    power,
    strict,
)


@dataclass(frozen=True)
class SupResult:
    """Value of a cube-sup together with the cube attaining it."""

    value: float
    witness: CubeAddr

    def __float__(self) -> float:
        return self.value


def scan_sup(root: RootSpec, values: np.ndarray) -> SupResult:
    """Max over a per-cube table of the grid `root`, given in layout
    order (RootSpec.offsets): the first cube attaining it (smallest
    level, then row-major) is the witness.  A NaN entry, which no order
    ranks, raises NonFinite."""
    at = int(np.argmax(values))
    best, witness = float(values[at]), root.cube_at(at)
    if np.isnan(best):
        raise NonFinite(f"cube-sup table is NaN at {witness}")
    return SupResult(best, witness)


# The screen's allowance.  grid.power (numpy's SIMD power) and the C
# library's pow are each assumed within a relative 2^-50 plus an absolute
# 2^-1070 of the true power, for every base and every exponent in use
# (tests/test_grid.py holds grid.power to `decimal` within that).  Two
# such evaluations of one power, or of a base and a larger one, are then
# well inside the margin and the floor below, which every band widens by.
_SCREEN_MARGIN = 1e-12
_SCREEN_FLOOR = 1e-320
# Grids of fewer leaves take their whole layout as the prefix: there the
# screen's fixed cost, a reduceat per input and a bound table of one
# entry per level, exceeds the powers it saves.  Per call of the Morrey
# norms and a0 on a 2-core Xeon, screening cost 0-10% more at 1,024
# leaves and saved 3-12% at 2,048, 8-21% at 4,096 and 25-67% at 16,384.
_SCREEN_CROSSOVER = 2048


def screen_low(x, spread: float = 1.0):
    """x lowered by the screen's allowance times `spread`: every exact
    value whose screened stand-in is x lies above it.  An infinite x
    stays infinite."""
    return x * (1.0 - _SCREEN_MARGIN * spread) - _SCREEN_FLOOR * spread


def screen_high(x):
    """x raised by the screen's allowance: every exact value whose
    screened stand-in is x lies below it."""
    return x * (1.0 + _SCREEN_MARGIN) + _SCREEN_FLOOR


def _level_scaled(flat: np.ndarray, values, out: np.ndarray | None = None) -> np.ndarray:
    """RootSpec.scaled for a table of one entry per level."""
    return np.multiply(flat, values, out=out)


def _power_above(base: np.ndarray, exponent: float, out: np.ndarray | None = None) -> np.ndarray:
    """grid.power raised by the screen's allowance: above the power of
    every smaller base.  A finite power stays finite (at most the largest
    double), so an entry is infinite only where grid.power's is."""
    up = power(base, exponent, out)
    return np.minimum(screen_high(up), np.finfo(np.float64).max, out=up, where=np.isfinite(up))


def screened_sup(root: RootSpec, inputs, table) -> SupResult:
    """scan_sup(root, table(inputs, root.scaled, power)): the same value,
    witness and NonFinite message, bit for bit, with the exact table
    built only over the layout prefix that can hold its first maximum.

    `inputs` are nonnegative layout arrays.  table(arrays, scaled, power)
    builds the table entry by entry from equal-length arrays, using only
    scaled (RootSpec.scaled's signature: a positive constant per level),
    power (grid.power's, with exponents >= 0) and products of nonnegative
    arrays, and it may raise NonFinite on a non-finite power.  Every one
    of those steps is nondecreasing in each argument.

    Screen.  Each input's maxima per level (one np.maximum.reduceat) go
    through the same table, with every power raised by the screen's
    allowance (_power_above): that gives, for each level, a bound above
    every entry of the level.  A level whose entries could be NaN or
    infinite has a non-finite bound.  The exact table is built over the
    prefix of the layout through the deepest highest bound and scanned;
    if a deeper level's bound reaches the best value found, once more
    through the deepest such level.  Every level past the prefix has a
    bound below the best value, so the first maximum of the full table,
    or its first NaN, lies in the prefix; a prefix keeps every entry at
    its own position, so grid.power sees the same lanes as on the full
    layout.  The second pass finds a best value at least as large, so no
    third is needed.  Ties that put many levels in reach (a constant
    input) cost time, not bits.

    Below _SCREEN_CROSSOVER leaves the prefix is the whole layout.
    """
    if root.leaf_count < _SCREEN_CROSSOVER:
        return scan_sup(root, table(inputs, root.scaled, power))
    offsets = root.offsets()
    with np.errstate(all="ignore"):  # overflows here only mark a level as reachable
        tops = [np.maximum.reduceat(a, offsets[:-1]) for a in inputs]
        bound = table(tops, _level_scaled, _power_above)
    deepest = root.depth - int(np.argmax(bound[::-1]))
    while True:
        end = offsets[deepest + 1]
        res = scan_sup(root, table([a[:end] for a in inputs], root.scaled, power))
        reach = np.flatnonzero(~(bound[deepest + 1:] < res.value))
        if reach.size == 0:
            return res
        deepest += int(reach[-1]) + 1


# ---- exponent profile ----


@dataclass(frozen=True)
class ExponentProfile:
    """Exponent tuple for the multilinear trace inequalities.

    Carries (m, n, alpha, beta, p_vec, p0, r); the joint exponent p, with
    1/p = sum_i 1/p_i, is worked out (a document's "p" is only checked).
    The shifted exponents follow theta = (n - beta p0) / (n - alpha p0),
    q = theta p, q0 = theta p0, which requires alpha p0 strictly below n.
    """

    m: int
    n: int
    alpha: float
    beta: float
    p_vec: tuple[float, ...]
    p0: float
    r: float | None = None

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise BadExponent(f"need m, n >= 1, got m={self.m}, n={self.n}")
        object.__setattr__(self, "p_vec", tuple(float(v) for v in self.p_vec))
        if len(self.p_vec) != self.m:
            raise BadExponent(f"p_vec has {len(self.p_vec)} entries for m={self.m}")
        if any(not 1.0 < pi < np.inf for pi in self.p_vec):
            raise BadExponent(f"each p_i must lie in (1, inf), got {self.p_vec}")
        if not 0.0 < self.beta <= self.alpha < self.m * self.n:
            raise BadExponent(
                f"need 0 < beta <= alpha < m*n, got beta={self.beta}, alpha={self.alpha}"
            )
        if not self.p <= self.p0:
            raise BadExponent(f"need p <= p0, got p={self.p}, p0={self.p0}")
        if self.n - self.alpha * self.p0 <= 1e-12:
            raise BadExponent(
                f"alpha*p0 = {self.alpha * self.p0} too close to n = {self.n}"
            )
        if self.r is not None and not self.r > 1.0:
            raise BadExponent(f"bump exponent r must exceed 1, got {self.r}")
        if self.theta < 1.0 - 1e-12:
            raise BadExponent(f"shift theta = {self.theta} below 1")

    @cached_property
    def p(self) -> float:
        return 1.0 / ordered_sum(1.0 / pi for pi in self.p_vec)

    @property
    def theta(self) -> float:
        return (self.n - self.beta * self.p0) / (self.n - self.alpha * self.p0)

    @property
    def q(self) -> float:
        return self.theta * self.p

    @property
    def q0(self) -> float:
        return self.theta * self.p0

    @property
    def p_conjugate(self) -> float:
        return conjugate_exponent(self.p, "conjugate exponent ")

    @classmethod
    def default(cls, m: int, n: int, low_p: bool = False) -> ExponentProfile:
        """Reference exponents: alpha = n/2, beta = n/4, and a p_vec giving
        joint p = 1.2 (or 0.9 when low_p, which needs m >= 2)."""
        alpha = 0.5 * n
        beta = 0.25 * n
        if low_p:
            if m < 2:
                raise BadExponent("low_p profile needs m >= 2 (each p_i must exceed 1)")
            p_vec = (0.9 * m,) * m
            p0 = 1.5
        elif m == 1:
            p_vec = (1.6,)
            p0 = 1.8
        else:
            p_vec = (1.2 * m,) * m
            p0 = 1.5
        return cls(m=m, n=n, alpha=alpha, beta=beta, p_vec=p_vec, p0=p0, r=2.0)

    def with_dim(self, n: int) -> ExponentProfile:
        """Same exponents rescaled to another dimension (alpha, beta scale with n)."""
        scale = n / self.n
        return replace(self, n=n, alpha=self.alpha * scale, beta=self.beta * scale)

    def to_doc(self) -> dict:
        doc = {
            "m": self.m,
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "p_vec": list(self.p_vec),
            "p0": self.p0,
            "p": self.p,
        }
        if self.r is not None:
            doc["r"] = self.r
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> ExponentProfile:
        def get(key, convert=float):
            return doc_value(doc, key, convert, "profile document")

        profile = cls(
            m=get("m", int),
            n=get("n", int),
            alpha=get("alpha"),
            beta=get("beta"),
            p_vec=get("p_vec", lambda v: tuple(strict(float, x) for x in strict(list, v))),
            p0=get("p0"),
            r=get("r") if "r" in doc else None,
        )
        p = get("p") if "p" in doc else profile.p
        if not (p > 0 and abs(1.0 / p - 1.0 / profile.p) <= 1e-12):
            raise BadExponent(f"profile document has p = {p} but p_vec gives {profile.p}")
        return profile


# ---- norms ----


def lebesgue_norm(f: LeafField, p: float, mu: LeafMeasure | None = None) -> float:
    """L^p norm of f over the root cube, against dx or a given measure."""
    if not 0 < p < np.inf:
        raise BadExponent(f"Lebesgue norm needs a finite p > 0, got {p}")
    fp = f.power(p)
    if mu is None:
        total = aggregate(fp).total
    else:
        check_same_root(f, mu)
        total = aggregate(mu.weighted(fp)).total
    return total ** (1.0 / p)


def _scaled_sup(aggs: list[TreeAggregate], exps, p: float, p0: float) -> SupResult:
    """sup over cubes of |Q|^(1/p0 - 1/p) prod_i aggs[i](Q)^exps[i],
    multiplied left to right from the scale coefficient (scaling the first
    power in place gives the same bits: a float product ignores order)."""
    root = aggs[0].root
    scale = [2.0 ** (-k * root.dim * (1.0 / p0 - 1.0 / p)) for k in range(root.depth + 1)]

    def table(arrays, scaled, power):
        out = power(arrays[0], exps[0])
        scaled(out, scale, out)
        for arr, e in zip(arrays[1:], exps[1:]):
            out *= power(arr, e)
        return out

    return screened_sup(root, [agg.flat for agg in aggs], table)


def morrey_norm(f: LeafField, p: float, p0: float) -> SupResult:
    """Morrey norm: sup over cubes of |Q|^(1/p0) (average of f^p)^(1/p)."""
    if not 0 < p <= p0 < np.inf:
        raise BadExponent(f"Morrey norm needs 0 < p <= p0 < inf, got p={p}, p0={p0}")
    return _scaled_sup([aggregate(f.power(p))], (1.0 / p,), p, p0)


def product_morrey_norm(fields: list[LeafField], profile: ExponentProfile) -> SupResult:
    """Product Morrey norm of an m-tuple:
    sup over cubes of |Q|^(1/p0 - 1/p) prod_i (integral of f_i^p_i)^(1/p_i)."""
    check_same_root(*fields)
    if len(fields) != profile.m:
        raise ShapeMismatch(f"{len(fields)} fields for m={profile.m} profile")
    aggs = [aggregate(f.power(pi)) for f, pi in zip(fields, profile.p_vec)]
    exps = [1.0 / pi for pi in profile.p_vec]
    return _scaled_sup(aggs, exps, profile.p, profile.p0)


def radon_morrey_norm(g: LeafField, q: float, q0: float, mu: LeafMeasure) -> SupResult:
    """Morrey norm against a measure:
    sup over cubes of |Q|^(1/q0 - 1/q) (integral of g^q dmu)^(1/q)."""
    if not 0 < q <= q0 < np.inf:
        raise BadExponent(f"needs 0 < q <= q0 < inf, got q={q}, q0={q0}")
    check_same_root(g, mu)
    return _scaled_sup([aggregate(mu.weighted(g.power(q)))], (1.0 / q,), q, q0)


def conjugate_exponent(p: float, what: str = "") -> float:
    """p' = p / (p - 1).  A p that is not finite and above 1 raises
    BadExponent, whose message starts with `what`: p = inf would give
    p' = inf / inf = NaN, and every table built on it NaN."""
    if not p > 1:
        raise BadExponent(f"{what}needs p > 1, got {p}")
    if p == np.inf:
        raise BadExponent(f"{what}needs a finite p, got {p}")
    return p / (p - 1.0)


def _testing_layout(mass: TreeAggregate, beta: float, p: float):
    """(numerators, masses) of every grid cube in layout order (see
    RootSpec.offsets).  See maximal_testing_sup."""
    pprime = conjugate_exponent(p, "testing functional ")
    root = mass.root
    n = root.dim
    if not 0 <= beta < n:
        raise BadExponent(f"testing functional needs 0 <= beta < dim, got {beta}")
    den = mass.flat
    factors = [2.0 ** (k * (n - beta)) for k in range(root.depth + 1)]
    powered = root.scaled(den, factors)
    with np.errstate(all="ignore"):
        power(powered, pprime, out=powered)
        # an infinite candidate has an infinite power, so one check finds
        # both overflows; only a failed one rebuilds the candidates
        if not np.isfinite(powered).all():
            if not np.isfinite(root.scaled(den, factors)).all():
                raise NonFinite(
                    "testing functional overflows: some cube's mass times "
                    f"side^(beta - dim) is not finite (beta={beta})"
                )
            raise NonFinite(
                f"testing functional overflows: some cube's candidate to the power {pprime} "
                "is not finite"
            )
    side = 1 << root.depth
    rows_first = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    leaf_max = powered[-root.leaf_count:].copy()
    num = np.empty_like(den)
    num[-root.leaf_count:] = leaf_max  # a leaf's row is the leaf itself
    tops, sums = root.level_views(powered), root.level_views(num)
    for k in range(root.depth - 1, -1, -1):
        c = 1 << k
        s = side >> k
        # axes (c, s) per dimension: the cube's index, then the leaf's inside it
        blocks = leaf_max.reshape((c, s) * n)
        np.maximum(blocks, tops[k].reshape((c, 1) * n), out=blocks)
        if n > 1:
            blocks = np.ascontiguousarray(blocks.transpose(rows_first))
        rows = blocks.reshape((c,) * n + (s ** n,))
        rows.sum(axis=-1, out=sums[k])
    num *= root.leaf_volume
    return num, den


def localized_maximal_integrals(mass: TreeAggregate, beta: float, p: float) -> tuple:
    """Integral over Q of M_beta[mass restricted to Q]^p' dx for every
    grid cube Q: one table per level, indexed like mass.levels.  The
    tables are views into one layout array that one suffix-max pass from
    the leaves up fills; see maximal_testing_sup for the argument and the
    summation order."""
    return mass.root.level_views(_testing_layout(mass, beta, p)[0])


def maximal_testing_sup(mass: TreeAggregate, beta: float, p: float) -> SupResult:
    """sup over cubes Q with positive mass of
    (integral over Q of M_beta[mass restricted to Q]^p' dx / mass(Q))^(1/p').

    This is the localized-maximal testing functional; cubes with zero mass
    contribute 0.

    Suffix max.  Let c_k = mass(R) side(R)^(beta - n) on the level-k cubes
    R.  Restricted to a level-j cube Q, the measure gives each ancestor of
    Q the candidate mass(Q) 2^(k(n - beta)) for its level k < j, which is
    at most c_j(Q) because n - beta > 0; cubes inside Q keep their own
    candidates.  So on Q's leaves the localized maximal function is
    M_j = max(c_j, M_(j+1)) with c_j spread onto the leaves, and one pass
    from the leaves up gives the numerator of every cube
    (localized_maximal_integrals): O(leaves * L) array work instead of one
    localized maximal function per cube.  Every cube lives in one layout
    array, so the candidates are checked and powered in one call each, and
    a level costs one max, one row regroup and one sum.

    Bytes.  The value and witness equal those of the per-cube evaluation
    bit for bit, by three rules.  The candidates are raised to p' once,
    before the max: grid.power is a nondecreasing function of its base
    (a property test in tests/test_grid.py guards this), so
    the power of a max is the max of the powers, bit for bit, and every
    leaf of a level-j row still gets exactly the power of
    the candidate the max picks.  Each level-j cube's leaves are
    regrouped into one contiguous row in row-major order before they are
    summed, so numpy sums them pairwise in the same order as the cube's
    leaf block; a roll-up of child sums changes the last bit.  The root
    (num / den)^(1/p') is a Python float power, taken only on a band of
    ratios: no array root is formed.  With e = 1/p' < 1 the root is
    concave, so a ratio below screen_low(top, p') = top (1 - 1e-12 p')
    - 1e-320 p', where top is the largest ratio, has a true root below
    top's by at least e top^(e - 1) (1e-12 top + 1e-320) p', that is
    1e-12 top^e + 1e-320 top^(e - 1): a relative 1e-12, plus an absolute
    1e-320 when top <= 1.  The C library's roots lie within a few units
    in the last place of the true ones, far inside that.  So every cube
    whose Python root is the max has its ratio in the band above
    screen_low(top, p'); the band is in layout order, so the first of its
    roots to equal their max names the witness, as in scan_sup.

    A candidate c_k that overflows raises NonFinite, so no NaN reaches
    the scan.
    """
    num, den = _testing_layout(mass, beta, p)
    pprime = conjugate_exponent(p)
    expo = 1.0 / pprime
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    top = ratio.max()
    if top > 0:
        band = np.flatnonzero(ratio >= screen_low(top, pprime))
    else:  # every ratio is 0, so is every root: the root cube attains it first
        band = np.zeros(1, int)
    roots = [r ** expo for r in ratio[band].tolist()]
    first = roots.index(max(roots))
    return SupResult(roots[first], mass.root.cube_at(int(band[first])))


def modified_morrey_norm(f: LeafField, p: float, alpha: float) -> SupResult:
    """Modified Morrey norm built from the localized fractional maximal
    function of f^p dx; cubes where f^p integrates to zero contribute 0."""
    conjugate_exponent(p, "modified Morrey norm ")
    if not 0 < alpha < f.root.dim:
        raise BadExponent(f"needs 0 < alpha < dim, got {alpha}")
    return maximal_testing_sup(aggregate(f.power(p)), alpha, p)
