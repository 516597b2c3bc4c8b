"""Stopping-time decompositions: sparse families and principal cubes.

Both constructions are one downward sweep over the per-level tables of
the truncated grid.  A cube stops when its value (product average for
sparse families, plain or measure average for principal cubes) strictly
exceeds twice (2^m times for the m-linear product) the value of its
nearest stopping ancestor; ties do not stop.  The sweep carries that
threshold down, each child against its parent's entry through
`grid.parent_child_views`, and resets it wherever a cube stops, so
membership comes from comparisons only.

Every family here is laminar, so one owner table per level answers
"which member is the smallest one containing this cube": the owner of a
cube is its own position in the member list (in layout order, which is
how `CubeAddr`s sort) when it is a member, else the owner of its parent,
and -1 outside every member.  Stopping parents, generations, stopping
children and exceptional sets are all read from those tables.

The sparsity certificate is always the canonical one: the exceptional
part of a member S is S minus the union of the maximal family members
strictly inside S (the leaves that S owns), and the family is sparse
when each exceptional part keeps at least half the leaves of its member.
A `SparseFamily` builds its certificate on first read of `certificate`
(or `carleson`), not when the family is built: an id that only sums
over the family never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    max_ratio,
    parent_child_views,
)
from .operators import (
    KernelWeight,
    dyadic_integral_operator,
    product_tables,
    sparse_integral_operator,
)

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
        children[c].sort()
    return parent, {c: tuple(k) for c, k in children.items()}


@dataclass(frozen=True)
class SparseCertificate:
    """Result of checking the canonical half-leaves sparsity condition."""

    is_sparse: bool
    carleson: float
    e_leaves: dict = field(repr=False, compare=False)  # member -> leaf linear indices
    violations: tuple[CubeAddr, ...] = ()


def _owner_tables(masks):
    """Per-level owner tables of the laminar family given by per-level
    member masks (levels 0..depth): the position in layout order of the
    smallest member containing each cube, -1 where no member does."""
    own = np.full(masks[0].shape, -1, dtype=np.int64)
    count = 0
    for k, mask in enumerate(masks):
        if k:  # each child starts with its parent's owner, in a fresh array
            up, kids = parent_child_views(own, mask)
            own = np.broadcast_to(up, kids.shape).copy().reshape(mask.shape)
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
        up, value = parent_child_views(thr, values[k])
        stop = value > up
        if alive is not None:
            stop &= alive[k].reshape(stop.shape)
        thr = np.where(stop, factor * value, up)
        masks.append(stop.reshape(values[k].shape))
    return masks


def _owned_leaves(members, leaf_owner) -> dict:
    """Member -> ascending leaf linears of the leaves it owns, from the
    flat leaf owner table (positions in `members`, -1 for no owner):
    views into one stable argsort, cut at the cumulative owner counts."""
    order = np.argsort(leaf_owner, kind="stable")
    ends = np.cumsum(np.bincount(leaf_owner + 1, minlength=len(members) + 1)).tolist()
    return {cube: order[a:b] for cube, a, b in zip(members, ends, ends[1:])}


def _mask_cubes(root, k, mask):
    """Cubes of a level-k mask of the grid `root`, in layout order."""
    return list(map(root.cube_at, (root.offsets()[k] + np.flatnonzero(mask)).tolist()))


def verify_sparse(root: RootSpec, cubes) -> SparseCertificate:
    """Check 2 |E(S)| >= |S| for every member, with canonical exceptional
    sets, and compute the Carleson packing constant
    max over S of sum of |S'| over members S' inside S, divided by |S|.

    E(S) is the set of leaves whose owner is S.  Leaf counts are
    integers, and the packing is an integer roll-up of the members' leaf
    counts, so both comparisons are exact.
    """
    members = sorted(set(cubes))  # cubes sort in layout order
    at = list(map(root.position, members))  # position validates each cube
    sizes = [1 << (root.dim * (root.depth - c.level)) for c in members]
    # packed(Q) = sum of |S| over members S inside Q, rolled up from the leaves
    packed = np.zeros(root.cube_count(), dtype=np.int64)
    packed[at] = sizes
    *_, leaf_owner = _owner_tables(root.level_views(packed > 0))
    e_leaves = _owned_leaves(members, leaf_owner.ravel())
    root.roll_up(packed)
    violations = []
    carleson = 0.0
    for (cube, kept), total, size in zip(e_leaves.items(), packed[at].tolist(), sizes):
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
    """Stopping family with its canonical sparsity certificate, which is
    computed the first time it is read."""

    root: RootSpec
    base: CubeAddr
    cubes: tuple[CubeAddr, ...]

    @cached_property
    def certificate(self) -> SparseCertificate:
        return verify_sparse(self.root, self.cubes)

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
    volume = [2.0 ** (k * root.dim * m) for k in range(root.depth + 1)]
    xbar = root.level_views(root.scaled(product_tables(aggs), volume))
    if xbar[base.level][base.index] > 0:
        masks = _stopping_masks(xbar, base, 2.0 ** m)
        members = [c for k, mask in enumerate(masks) for c in _mask_cubes(root, k, mask)]
    else:
        members = [base]
    return SparseFamily(root=root, base=base, cubes=tuple(members))


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
    return SparseDomination(family=family, constant=max_ratio(dense, sparse))


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
    members that owner gets, in layout order.
    """
    root = h.root
    root.validate_cube(base)
    h_agg = aggregate(h)
    if nu is None:
        pair = "dx"
        avg = root.scaled(h_agg.flat, [2.0 ** (k * root.dim) for k in range(root.depth + 1)])
        alive = None
    else:
        check_same_root(h, nu)
        pair = "mu"
        mass = aggregate(nu)
        weighted = aggregate(nu.weighted(h))
        if mass.sum_of(base) <= 0:
            raise ZeroMeasure(f"pair measure vanishes on {base}")
        live = mass.flat > 0
        avg = np.zeros_like(mass.flat)
        np.divide(weighted.flat, mass.flat, out=avg, where=live)
        alive = root.level_views(live)
    avg = root.level_views(avg)

    masks = _stopping_masks(avg, base, 2.0, alive)
    owners = tuple(_owner_tables(masks))
    members = [base]
    generation = {base: 0}
    children: dict[CubeAddr, list[CubeAddr]] = {base: []}
    for k in range(base.level + 1, root.depth + 1):
        if not masks[k].any():
            continue
        ups = owners[k - 1][tuple((np.argwhere(masks[k]) >> 1).T)].tolist()
        for cube, up in zip(_mask_cubes(root, k, masks[k]), ups):
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
    table of its level; a member is its own stopping parent.  Owner -1
    marks the cubes outside the forest base, which raise OutsideRoot."""
    forest.root.validate_cube(cube)
    owner = forest.owners[cube.level][cube.index]
    if owner < 0:
        raise OutsideRoot(f"{cube} lies outside the forest base {forest.base}")
    return forest.members[owner]


# ---- interaction of two forests ----


@dataclass(frozen=True)
class ChildClassification:
    """Stopping children of a member G of one forest, split by where the
    other forest's stopping parent of each child lands.

    at_child: the child is itself a member of the other forest.
    inside: its stopping parent lies in G (strictly above the child).
    above: its stopping parent strictly contains G.
    Every stopping child of G lands in exactly one of the three parts.
    """

    g_cube: CubeAddr
    at_child: tuple[CubeAddr, ...]
    inside: tuple[CubeAddr, ...]
    above: tuple[CubeAddr, ...]


def classify_children(
    g_forest: CoronaForest, f_forest: CoronaForest, g_cube: CubeAddr
) -> ChildClassification:
    """Classify the stopping children of g_cube by the f-forest.

    With F the f-forest stopping parent of a child: F equal to the child,
    F inside g_cube, or F strictly above g_cube.  F contains the child,
    so it is comparable to g_cube.  Forests on different grids raise
    RootMismatch.
    """
    check_same_root(g_forest, f_forest)
    if not g_forest.is_member(g_cube):
        raise NotAPrincipalCube(f"{g_cube} is not a member of the first forest")
    at_child, inside, above = [], [], []
    for kid in g_forest.children[g_cube]:
        fparent = stopping_parent(f_forest, kid)
        if fparent == kid:
            at_child.append(kid)
        elif g_cube.contains(fparent):
            inside.append(kid)
        else:
            above.append(kid)
    return ChildClassification(
        g_cube=g_cube, at_child=tuple(at_child), inside=tuple(inside), above=tuple(above)
    )


def corona_projection(f: LeafField, g_forest: CoronaForest, g_cube: CubeAddr) -> LeafField:
    """Projection of f onto the corona of g_cube: f itself on the
    exceptional part, the plain average on every stopping child of
    g_cube, zero elsewhere.  Preserves the integral over every cube whose
    g-stopping parent is g_cube."""
    if not g_forest.is_member(g_cube):
        raise NotAPrincipalCube(f"{g_cube} is not in the forest")
    if f.root != g_forest.root:
        raise RootMismatch("field and forest live on different grids")
    root = f.root
    agg = aggregate(f)
    out = np.zeros(root.leaf_count)
    keep = g_forest.exceptional_leaves(g_cube)
    out[keep] = f.values[keep]
    grid = out.reshape(root.grid_shape)
    for kid in g_forest.children[g_cube]:
        grid[kid.leaf_slices(root.depth)] = agg.sum_of(kid) / kid.volume
    return LeafField(root, grid.ravel())
