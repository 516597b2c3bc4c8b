"""Stopping-time decompositions: sparse families and principal cubes.

Both constructions are one downward sweep over the per-level tables of
the truncated grid.  A cube stops when its value (product average for
sparse families, plain or measure average for principal cubes) strictly
exceeds twice (2^m times for the m-linear product) the value of its
nearest stopping ancestor; ties do not stop.  The sweep carries that
threshold down with `grid.spread` and resets it wherever a cube stops,
so membership comes from comparisons only.

Every family here is laminar, so one owner table per level answers
"which member is the smallest one containing this cube": the owner of a
cube is its own position in the member list (`CUBE_ORDER`) when it is a
member, else the owner of its parent, and -1 outside every member.
Stopping parents, generations, stopping children and exceptional sets
are all read from those tables.

The sparsity certificate is always the canonical one: the exceptional
part of a member S is S minus the union of the maximal family members
strictly inside S (the leaves that S owns), and the family is sparse
when each exceptional part keeps at least half the leaves of its member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAPrincipalCube, OutsideRoot, RootMismatch, ZeroMeasure
from .grid import (
    CubeAddr,
    LeafField,
    LeafMeasure,
    RootSpec,
    TreeAggregate,
    aggregate,
    check_same_root,
    child_sums,
    spread,
)
from .operators import (
    KernelWeight,
    dyadic_integral_operator,
    product_tables,
    sparse_integral_operator,
)

CUBE_ORDER = lambda c: (c.level, c.index)  # noqa: E731  canonical scan order


# no caller in dtl; kept only because bench/spans.py patches it by name
def containment_forest(cubes) -> tuple[dict, dict]:
    """Parent and children maps of a laminar dyadic family.

    The parent of a member is the smallest member strictly containing it
    (None for maximal members).  Dyadic cubes are nested or disjoint, so
    this captures the full containment order.
    """
    members = set(cubes)
    parent: dict[CubeAddr, CubeAddr | None] = {}
    children: dict[CubeAddr, list[CubeAddr]] = {c: [] for c in members}
    for cube in members:
        up = None
        walk = cube
        while walk.level > 0:
            walk = walk.parent()
            if walk in members:
                up = walk
                break
        parent[cube] = up
        if up is not None:
            children[up].append(cube)
    for c in children:
        children[c].sort(key=CUBE_ORDER)
    return parent, {c: tuple(k) for c, k in children.items()}


@dataclass(frozen=True)
class SparseCertificate:
    """Result of checking the canonical half-leaves sparsity condition."""

    is_sparse: bool
    carleson: float
    e_leaves: dict = field(repr=False)  # member -> leaf linear indices
    violations: tuple[CubeAddr, ...] = ()


def _owner_tables(masks):
    """Per-level owner tables of the laminar family given by per-level
    member masks (levels 0..depth): the position in `CUBE_ORDER` of the
    smallest member containing each cube, -1 where no member does."""
    own = np.full(masks[0].shape, -1, dtype=np.int64)
    count = 0
    for k, mask in enumerate(masks):
        if k:
            own = spread(own)
        fresh = np.count_nonzero(mask)
        own[mask] = np.arange(count, count + fresh)
        count += fresh
        yield own


def _stopping_masks(values, base, factor, alive=None):
    """Per-level member masks of the stopping family under `base`.

    A cube strictly inside the base is a member exactly when its value
    strictly exceeds `factor` times the value of its nearest member
    ancestor (and it is alive, where an `alive` mask is given).  The
    threshold table is +inf outside the base, so nothing there stops.
    """
    masks = [np.zeros(v.shape, dtype=bool) for v in values[: base.level + 1]]
    masks[-1][base.index] = True
    thr = np.full(values[base.level].shape, np.inf)
    thr[base.index] = factor * values[base.level][base.index]
    for k in range(base.level + 1, len(values)):
        thr = spread(thr)
        stop = values[k] > thr
        if alive is not None:
            stop &= alive[k]
        thr = np.where(stop, factor * values[k], thr)
        masks.append(stop)
    return masks


def _owned_leaves(members, leaf_owner) -> dict:
    """Member -> ascending leaf linears of the leaves it owns, from the
    flat leaf owner table (positions in `members`, -1 for no owner)."""
    kept = np.bincount(leaf_owner + 1, minlength=len(members) + 1)
    groups = np.split(np.argsort(leaf_owner, kind="stable"), np.cumsum(kept)[:-1])
    return dict(zip(members, groups[1:]))


def _mask_cubes(k, mask):
    """Cubes of a level-k mask, row-major (that is, in `CUBE_ORDER`)."""
    return [CubeAddr(k, tuple(idx)) for idx in np.argwhere(mask).tolist()]


def verify_sparse(root: RootSpec, cubes) -> SparseCertificate:
    """Check 2 |E(S)| >= |S| for every member, with canonical exceptional
    sets, and compute the Carleson packing constant
    max over S of sum of |S'| over members S' inside S, divided by |S|.

    E(S) is the set of leaves whose owner is S.  Leaf counts are
    integers, and the packing is an integer roll-up of the members' leaf
    counts, so both comparisons are exact.
    """
    members = sorted(set(cubes), key=CUBE_ORDER)
    for c in members:
        root.validate_cube(c)
    masks = [np.zeros((1 << k,) * root.dim, dtype=bool) for k in range(root.depth + 1)]
    for c in members:
        masks[c.level][c.index] = True
    for leaf_owner in _owner_tables(masks):  # keeps only the leaf level
        pass
    e_leaves = _owned_leaves(members, leaf_owner.ravel())
    # packed_k(Q) = sum of |S| over members S inside Q, rolled up from the leaves
    level_packs = []
    for k in range(root.depth, -1, -1):
        here = masks[k] * (1 << (root.dim * (root.depth - k)))
        packed = here if k == root.depth else child_sums(packed) + here
        level_packs.append(packed[masks[k]].tolist())
    violations = []
    carleson = 0.0
    packs = itertools.chain.from_iterable(reversed(level_packs))
    for (cube, kept), total in zip(e_leaves.items(), packs):
        size = 1 << (root.dim * (root.depth - cube.level))
        if 2 * kept.size < size:
            violations.append(cube)
        carleson = max(carleson, total / size)
    return SparseCertificate(
        is_sparse=not violations,
        carleson=carleson,
        e_leaves=e_leaves,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class SparseFamily:
    """Stopping family with its canonical sparsity certificate."""

    root: RootSpec
    base: CubeAddr
    cubes: tuple[CubeAddr, ...]
    certificate: SparseCertificate = field(repr=False)

    @property
    def carleson(self) -> float:
        return self.certificate.carleson


def build_sparse_family(aggs: list[TreeAggregate], base: CubeAddr) -> SparseFamily:
    """Stopping-time sparse family of the product average.

    The product average of a cube is prod_i (average of f_i); a cube
    stops under the member S when its product average strictly exceeds
    2^m times that of S.  If the product of the integrals over the base
    vanishes, the family is just the base cube.
    """
    root = check_same_root(*aggs)
    root.validate_cube(base)
    m = len(aggs)
    xbar = [
        table * 2.0 ** (k * root.dim * m) for k, table in enumerate(product_tables(aggs))
    ]
    if xbar[base.level][base.index] > 0:
        masks = _stopping_masks(xbar, base, 2.0 ** m)
        members = [c for k, mask in enumerate(masks) for c in _mask_cubes(k, mask)]
    else:
        members = [base]
    return SparseFamily(
        root=root,
        base=base,
        cubes=tuple(members),
        certificate=verify_sparse(root, members),
    )


@dataclass(frozen=True)
class SparseDomination:
    """Sparse family of the inputs plus the worst pointwise ratio of the
    dyadic operator over its sparse restriction (0/0 counts as 0)."""

    family: SparseFamily
    constant: float


def sparse_dominate(aggs: list[TreeAggregate], alpha: float) -> SparseDomination:
    root = check_same_root(*aggs)
    family = build_sparse_family(aggs, root.root_cube())
    kernel = KernelWeight.canonical(alpha, len(aggs), root.dim)
    dense = dyadic_integral_operator(aggs, kernel).values
    sparse = sparse_integral_operator(aggs, kernel, family.cubes).values
    ratio = np.zeros_like(dense)
    np.divide(dense, sparse, out=ratio, where=sparse > 0)
    ratio[(sparse <= 0) & (dense > 0)] = np.inf
    return SparseDomination(family=family, constant=float(ratio.max()))


# ---- principal cubes ----


@dataclass(frozen=True)
class CoronaForest:
    """Principal cubes of a (function, measure) pair under the doubling
    stopping rule: a cube stops when its pair-average strictly exceeds
    twice the average of its current stopping ancestor."""

    root: RootSpec
    pair: str  # "dx" | "mu"
    base: CubeAddr
    members: tuple[CubeAddr, ...]
    generation: dict = field(repr=False)  # member -> int
    children: dict = field(repr=False)  # member -> tuple of members
    averages: dict = field(repr=False)  # member -> pair average
    # per-level owner tables: position in `members` of the smallest member
    # containing each cube, -1 outside the base
    owners: tuple = field(repr=False, compare=False)
    e_leaves: dict = field(repr=False, compare=False)  # member -> leaf linears

    def is_member(self, cube: CubeAddr) -> bool:
        return cube in self.generation

    def exceptional_leaves(self, cube: CubeAddr) -> np.ndarray:
        """Leaf linears of the member minus its stopping children (the
        leaves whose owner is the member), ascending."""
        if not self.is_member(cube):
            raise NotAPrincipalCube(f"{cube} is not in the forest")
        return self.e_leaves[cube]


def build_principal_cubes(
    h: LeafField, nu: LeafMeasure | None, base: CubeAddr
) -> CoronaForest:
    """Stopping forest of the pair (h, nu); nu = None means Lebesgue.

    For a genuine measure, averages are nu-averages and cubes of zero
    nu-mass never stop (their whole subtree is silent); the base must
    carry positive mass.  A member's generation is one more than that of
    the owner of its parent cube, and its stopping children are the
    members that owner gets, in `CUBE_ORDER`.
    """
    root = h.root
    root.validate_cube(base)
    h_agg = aggregate(h)
    if nu is None:
        pair = "dx"
        avg = [
            h_agg.levels[k] * 2.0 ** (k * root.dim) for k in range(root.depth + 1)
        ]
        alive = None
    else:
        check_same_root(h, nu)
        pair = "mu"
        mass = aggregate(nu)
        weighted = aggregate(nu.weighted(h))
        if mass.sum_of(base) <= 0:
            raise ZeroMeasure(f"pair measure vanishes on {base}")
        avg = []
        alive = []
        for k in range(root.depth + 1):
            table = np.zeros_like(mass.levels[k])
            np.divide(weighted.levels[k], mass.levels[k], out=table, where=mass.levels[k] > 0)
            avg.append(table)
            alive.append(mass.levels[k] > 0)

    masks = _stopping_masks(avg, base, 2.0, alive)
    owners = tuple(_owner_tables(masks))
    members = [base]
    generation = {base: 0}
    children: dict[CubeAddr, list[CubeAddr]] = {base: []}
    for k in range(base.level + 1, root.depth + 1):
        ups = owners[k - 1][tuple((np.argwhere(masks[k]) >> 1).T)].tolist()
        for cube, up in zip(_mask_cubes(k, masks[k]), ups):
            generation[cube] = generation[members[up]] + 1
            children[members[up]].append(cube)
            children[cube] = []
            members.append(cube)
    return CoronaForest(
        root=root,
        pair=pair,
        base=base,
        members=tuple(members),
        generation=generation,
        children={c: tuple(kids) for c, kids in children.items()},
        averages={c: float(avg[c.level][c.index]) for c in members},
        owners=owners,
        e_leaves=_owned_leaves(members, owners[-1].ravel()),
    )


def stopping_parent(forest: CoronaForest, cube: CubeAddr) -> CubeAddr:
    """Smallest forest member containing the cube, read from the owner
    table of its level; a member is its own stopping parent.  Cubes
    outside the forest base raise OutsideRoot."""
    forest.root.validate_cube(cube)
    if not forest.base.contains(cube):
        raise OutsideRoot(f"{cube} lies outside the forest base {forest.base}")
    return forest.members[forest.owners[cube.level][cube.index]]


# ---- interaction of two forests ----


@dataclass(frozen=True)
class ChildClassification:
    """Stopping children of a member G of one forest, split by where the
    other forest's stopping parent of each child lands.

    at_child: the child is itself a member of the other forest.
    inside: its stopping parent lies in G (strictly above the child).
    above: its stopping parent strictly contains G.
    remainder: children with no witnessing cube (reported, not assumed
    empty; a witness is a cube whose first-forest stopping parent is G
    and which strictly contains the child).
    """

    g_cube: CubeAddr
    at_child: tuple[CubeAddr, ...]
    inside: tuple[CubeAddr, ...]
    above: tuple[CubeAddr, ...]
    remainder: tuple[CubeAddr, ...]
    witnesses: dict = field(repr=False)  # child -> witness cube

    @property
    def classified(self) -> tuple[CubeAddr, ...]:
        return tuple(sorted(self.at_child + self.inside + self.above, key=CUBE_ORDER))


def classify_children(
    g_forest: CoronaForest, f_forest: CoronaForest, g_cube: CubeAddr
) -> ChildClassification:
    """Classify the stopping children of g_cube by the f-forest.

    A child is admitted once some cube Q with g-stopping parent equal to
    g_cube strictly contains it; the nearest such ancestor is recorded as
    the witness.  Admitted children split three ways by F = the f-forest
    stopping parent of the child: F equal to the child, F inside g_cube,
    or F strictly above g_cube.
    """
    if not g_forest.is_member(g_cube):
        raise NotAPrincipalCube(f"{g_cube} is not a member of the first forest")
    at_child, inside, above, remainder = [], [], [], []
    witnesses = {}
    for kid in g_forest.children[g_cube]:
        witness = None
        walk = kid
        while walk != g_cube:
            walk = walk.parent()
            if stopping_parent(g_forest, walk) == g_cube:
                witness = walk
                break
        if witness is None:
            remainder.append(kid)
            continue
        witnesses[kid] = witness
        fparent = stopping_parent(f_forest, kid)
        if fparent == kid:
            at_child.append(kid)
        elif stopping_parent(g_forest, fparent) == g_cube:
            inside.append(kid)
        elif fparent.contains(g_cube) and fparent != g_cube:
            above.append(kid)
        else:  # impossible: fparent contains kid, so it is comparable to g_cube
            raise NotAPrincipalCube(f"unclassifiable child {kid} of {g_cube}")
    return ChildClassification(
        g_cube=g_cube,
        at_child=tuple(at_child),
        inside=tuple(inside),
        above=tuple(above),
        remainder=tuple(remainder),
        witnesses=witnesses,
    )


def corona_projection(
    f: LeafField,
    g_forest: CoronaForest,
    classification: ChildClassification,
    g_cube: CubeAddr,
) -> LeafField:
    """Projection of f onto the corona of g_cube: f itself on the
    exceptional part, the plain average on every classified stopping
    child, zero elsewhere.  Preserves the integral over every cube whose
    g-stopping parent is g_cube."""
    if not g_forest.is_member(g_cube):
        raise NotAPrincipalCube(f"{g_cube} is not in the forest")
    if classification.g_cube != g_cube:
        raise NotAPrincipalCube("classification was built for a different member")
    if f.root != g_forest.root:
        raise RootMismatch("field and forest live on different grids")
    root = f.root
    agg = aggregate(f)
    out = np.zeros(root.leaf_count)
    keep = g_forest.exceptional_leaves(g_cube)
    out[keep] = f.values[keep]
    grid = out.reshape(root.grid_shape)
    for kid in classification.classified:
        grid[kid.leaf_slices(root.depth)] = agg.sum_of(kid) / kid.volume
    return LeafField(root, grid.ravel())
