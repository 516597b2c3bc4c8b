"""Stopping-time decompositions: sparse families and principal cubes.

Both constructions walk the truncated grid top down.  A cube stops when
its average (product average for sparse families, plain or measure
average for principal cubes) strictly exceeds twice (2^m times for the
m-linear product) the average of the current stopping ancestor; maximal
stopping cubes become the next generation.  Ties do not stop.

The sparsity certificate is always the canonical one: the exceptional
part of a member S is S minus the union of the maximal family members
strictly inside S, and the family is sparse when each exceptional part
keeps at least half the leaves of its member.
"""

from __future__ import annotations

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
)
from .operators import KernelWeight, dyadic_integral_operator, sparse_integral_operator

CUBE_ORDER = lambda c: (c.level, c.index)  # noqa: E731  canonical scan order


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


def _leaf_count(root: RootSpec, cube: CubeAddr) -> int:
    return 1 << (root.dim * (root.depth - cube.level))


def _exceptional_leaves(root: RootSpec, cube: CubeAddr, children) -> np.ndarray:
    """Leaf linears of the cube minus the union of the given children."""
    mask = np.zeros(root.grid_shape, dtype=bool)
    mask[cube.leaf_slices(root.depth)] = True
    for kid in children:
        mask[kid.leaf_slices(root.depth)] = False
    return np.flatnonzero(mask.ravel())


def verify_sparse(root: RootSpec, cubes) -> SparseCertificate:
    """Check 2 |E(S)| >= |S| for every member, with canonical exceptional
    sets, and compute the Carleson packing constant
    max over S of sum of |S'| over members S' inside S, divided by |S|.

    Leaf counts are integers, so the packing comparison is exact.
    """
    members = sorted(set(cubes), key=CUBE_ORDER)
    for c in members:
        root.validate_cube(c)
    parent, children = containment_forest(members)
    e_leaves = {}
    violations = []
    for cube in members:
        kept = _exceptional_leaves(root, cube, children[cube])
        e_leaves[cube] = kept
        if 2 * kept.size < _leaf_count(root, cube):
            violations.append(cube)
    # packing: subtree leaf-volume sums over the containment forest
    packed = {c: _leaf_count(root, c) for c in members}
    for cube in sorted(members, key=CUBE_ORDER, reverse=True):
        up = parent[cube]
        if up is not None:
            packed[up] += packed[cube]
    carleson = 0.0
    for cube in members:
        carleson = max(carleson, packed[cube] / _leaf_count(root, cube))
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


def _stopping_scan(root, start, threshold, value_at, alive_at) -> list[CubeAddr]:
    """Maximal descendants of `start` whose value strictly exceeds the
    threshold; subtrees where `alive_at` is false are skipped entirely."""
    found = []
    stack = list(start.children()) if start.level < root.depth else []
    while stack:
        cube = stack.pop()
        if not alive_at(cube):
            continue
        if value_at(cube) > threshold:
            found.append(cube)
        elif cube.level < root.depth:
            stack.extend(cube.children())
    return sorted(found, key=CUBE_ORDER)


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
    xbar = []
    for k in range(root.depth + 1):
        table = np.ones((1 << k,) * root.dim)
        for agg in aggs:
            table = table * agg.levels[k]
        xbar.append(table * 2.0 ** (k * root.dim * m))
    value_at = lambda c: float(xbar[c.level][c.index])  # noqa: E731
    members = [base]
    if value_at(base) > 0:
        queue = [base]
        while queue:
            cube = queue.pop(0)
            kids = _stopping_scan(
                root, cube, (2.0 ** m) * value_at(cube), value_at, lambda c: True
            )
            members.extend(kids)
            queue.extend(kids)
    members = sorted(members, key=CUBE_ORDER)
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

    def is_member(self, cube: CubeAddr) -> bool:
        return cube in self.generation

    def exceptional_leaves(self, cube: CubeAddr) -> np.ndarray:
        """Leaf linears of the member minus its stopping children."""
        if not self.is_member(cube):
            raise NotAPrincipalCube(f"{cube} is not in the forest")
        return _exceptional_leaves(self.root, cube, self.children[cube])


def build_principal_cubes(
    h: LeafField, nu: LeafMeasure | None, base: CubeAddr
) -> CoronaForest:
    """Stopping forest of the pair (h, nu); nu = None means Lebesgue.

    For a genuine measure, averages are nu-averages and cubes of zero
    nu-mass never stop (their whole subtree is silent); the base must
    carry positive mass.
    """
    root = h.root
    root.validate_cube(base)
    h_agg = aggregate(h)
    if nu is None:
        pair = "dx"
        avg = [
            h_agg.levels[k] * 2.0 ** (k * root.dim) for k in range(root.depth + 1)
        ]
        alive = [np.ones_like(a, dtype=bool) for a in avg]
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
    value_at = lambda c: float(avg[c.level][c.index])  # noqa: E731
    alive_at = lambda c: bool(alive[c.level][c.index])  # noqa: E731

    generation = {base: 0}
    children: dict[CubeAddr, tuple[CubeAddr, ...]] = {}
    queue = [base]
    while queue:
        cube = queue.pop(0)
        kids = _stopping_scan(root, cube, 2.0 * value_at(cube), value_at, alive_at)
        children[cube] = tuple(kids)
        for kid in kids:
            generation[kid] = generation[cube] + 1
        queue.extend(kids)
    members = tuple(sorted(generation, key=CUBE_ORDER))
    averages = {c: value_at(c) for c in members}
    return CoronaForest(
        root=root,
        pair=pair,
        base=base,
        members=members,
        generation=dict(generation),
        children=children,
        averages=averages,
    )


def stopping_parent(forest: CoronaForest, cube: CubeAddr) -> CubeAddr:
    """Smallest forest member containing the cube; a member is its own
    stopping parent."""
    forest.root.validate_cube(cube)
    if not forest.base.contains(cube):
        raise OutsideRoot(f"{cube} lies outside the forest base {forest.base}")
    walk = cube
    while True:
        if forest.is_member(walk):
            return walk
        if walk == forest.base:  # unreachable: base is always a member
            raise NotAPrincipalCube(f"forest has no member above {cube}")
        walk = walk.parent()


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
