"""Truncated dyadic grid over the unit root cube.

The domain is the half-open cube [0,1)^n carved into dyadic subcubes of
levels 0..L.  A cube at level k has side 2^-k and is addressed by an
integer index vector in [0, 2^k)^n.  Level-L cubes are the leaves; all
piecewise-constant data (fields, measure densities, atom masses) lives on
them, so every integral over a dyadic cube is an exact finite sum.

Determinism contract: aggregation always sums the 2^n children of a cube
sequentially in row-major child order, so reruns are bit-identical and a
parent entry equals the left-to-right sum of its children exactly.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    AtomicPowerUndefined,
    BadKind,
    ComplexityRefusal,
    IoFailure,
    NegativeValue,
    NoParent,
    NonFinite,
    OutOfRangeCube,
    RootMismatch,
    ShapeMismatch,
)

DEFAULT_LEAF_CAP = 2 ** 24
DEFAULT_EVAL_CAP = 10 ** 8


def work_cap(default: int) -> int:
    """Active work cap: DTL_WORK_CAP overrides the built-in default."""
    raw = os.environ.get("DTL_WORK_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError as exc:
        raise BadKind(f"DTL_WORK_CAP must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise BadKind("DTL_WORK_CAP must be positive")
    return cap


# ---- addressing ----


@dataclass(frozen=True)
class RootSpec:
    """Root cube [0,1)^dim truncated at dyadic level `depth`."""

    dim: int
    depth: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ShapeMismatch(f"dim must be >= 1, got {self.dim}")
        if self.depth < 0:
            raise ShapeMismatch(f"depth must be >= 0, got {self.depth}")
        # 2^k > cap exactly when k reaches the cap's bit length; the count
        # itself is never formed for a huge k
        if self.dim * self.depth >= work_cap(DEFAULT_LEAF_CAP).bit_length():
            raise ComplexityRefusal(
                f"2^(dim*depth) = 2^{self.dim * self.depth} leaves exceeds the leaf cap"
            )

    @property
    def leaf_count(self) -> int:
        return 1 << (self.dim * self.depth)

    @property
    def leaf_side(self) -> float:
        return 2.0 ** (-self.depth)

    @property
    def leaf_volume(self) -> float:
        return 2.0 ** (-self.depth * self.dim)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (1 << self.depth,) * self.dim

    def cube_count(self) -> int:
        return sum(1 << (self.dim * k) for k in range(self.depth + 1))

    def cubes(self):
        """All cubes, level 0 first, row-major within each level."""
        for k in range(self.depth + 1):
            for idx in itertools.product(range(1 << k), repeat=self.dim):
                yield CubeAddr(k, idx)

    def root_cube(self) -> CubeAddr:
        return CubeAddr(0, (0,) * self.dim)

    def leaf_cube(self, linear: int) -> CubeAddr:
        vec = np.unravel_index(linear, self.grid_shape)
        return CubeAddr(self.depth, tuple(int(v) for v in vec))

    def leaf_linear(self, cube: CubeAddr) -> int:
        if cube.level != self.depth:
            raise OutOfRangeCube(f"{cube} is not a leaf of depth-{self.depth} grid")
        return int(np.ravel_multi_index(cube.index, self.grid_shape))

    def validate_cube(self, cube: CubeAddr) -> None:
        if len(cube.index) != self.dim:
            raise OutOfRangeCube(f"{cube} has dim {len(cube.index)}, grid has {self.dim}")
        if cube.level > self.depth:
            raise OutOfRangeCube(f"{cube} is below the truncation depth {self.depth}")


@dataclass(frozen=True)
class CubeAddr:
    """Dyadic cube 2^-level * (index + [0,1)^n), addressed by integers."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise OutOfRangeCube(f"negative level {self.level}")
        side = 1 << self.level
        for i in self.index:
            if not 0 <= i < side:
                raise OutOfRangeCube(f"index {self.index} out of range at level {self.level}")

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((i + 0.5) * self.side for i in self.index)

    def parent(self) -> CubeAddr:
        if self.level == 0:
            raise NoParent("root cube has no parent")
        return CubeAddr(self.level - 1, tuple(i >> 1 for i in self.index))

    def children(self) -> tuple[CubeAddr, ...]:
        """The 2^n children in canonical row-major order."""
        kids = []
        for off in itertools.product((0, 1), repeat=self.dim):
            kids.append(CubeAddr(self.level + 1, tuple(2 * i + o for i, o in zip(self.index, off))))
        return tuple(kids)

    def ancestors(self, include_self: bool = False) -> tuple[CubeAddr, ...]:
        """Strict ancestors up to the root, nearest first."""
        chain = [self] if include_self else []
        cube = self
        while cube.level > 0:
            cube = cube.parent()
            chain.append(cube)
        return tuple(chain)

    def ancestor_at(self, level: int) -> CubeAddr:
        if level > self.level:
            raise OutOfRangeCube(f"level {level} below cube level {self.level}")
        shift = self.level - level
        return CubeAddr(level, tuple(i >> shift for i in self.index))

    def contains(self, other: CubeAddr) -> bool:
        """Dyadic containment: other is self or sits inside self."""
        if other.dim != self.dim or other.level < self.level:
            return False
        return other.ancestor_at(self.level) == self

    def leaf_slices(self, depth: int) -> tuple[slice, ...]:
        """Per-axis slice of the depth-level grid covered by this cube."""
        step = 1 << (depth - self.level)
        return tuple(slice(i * step, (i + 1) * step) for i in self.index)

    def leaf_linears(self, root: RootSpec) -> np.ndarray:
        """Canonical linear indices of the leaves inside this cube."""
        root.validate_cube(self)
        step = 1 << (root.depth - self.level)
        axes = [np.arange(i * step, (i + 1) * step) for i in self.index]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.ravel_multi_index(mesh, root.grid_shape).ravel()


# ---- leaf data ----


def _check_values(values: np.ndarray, root: RootSpec, allow_zero: bool = True) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size != root.leaf_count:
        raise ShapeMismatch(f"expected {root.leaf_count} leaf values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("leaf values must be finite")
    if np.any(arr < 0):
        raise NegativeValue("leaf values must be nonnegative")
    return arr


@dataclass(frozen=True)
class LeafField:
    """Nonnegative function constant on each leaf, in canonical leaf order."""

    root: RootSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.values, self.root))

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.root.grid_shape)

    def power(self, p: float) -> LeafField:
        return LeafField(self.root, self.values ** p)

    def scaled(self, t: float) -> LeafField:
        if t < 0:
            raise NegativeValue("scale factor must be nonnegative")
        return LeafField(self.root, self.values * t)


@dataclass(frozen=True)
class LeafMeasure:
    """Nonnegative measure on the root cube.

    kind "density": absolutely continuous with leaf-constant density.
    kind "atomic": finite list of (leaf linear index, mass) point atoms,
    each atom sitting at its leaf (any point of the leaf, by convention
    the leaf itself carries the mass).
    """

    root: RootSpec
    kind: str
    density: np.ndarray | None = field(default=None, repr=False)
    atoms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "density":
            if self.density is None:
                raise ShapeMismatch("density measure needs leaf density values")
            object.__setattr__(self, "density", _check_values(self.density, self.root))
        elif self.kind == "atomic":
            if self.density is not None:
                raise ShapeMismatch("atomic measure must not carry a density")
            cleaned = []
            for leaf, mass in self.atoms:
                leaf = int(leaf)
                mass = float(mass)
                if not 0 <= leaf < self.root.leaf_count:
                    raise OutOfRangeCube(f"atom leaf {leaf} outside the grid")
                if not np.isfinite(mass):
                    raise NonFinite("atom mass must be finite")
                if mass < 0:
                    raise NegativeValue("atom mass must be nonnegative")
                cleaned.append((leaf, mass))
            object.__setattr__(self, "atoms", tuple(cleaned))
        else:
            raise BadKind(f"unknown measure kind {self.kind!r}")

    def leaf_masses(self) -> np.ndarray:
        """Mass per leaf cell, canonical order."""
        if self.kind == "density":
            return self.density * self.root.leaf_volume
        masses = np.zeros(self.root.leaf_count)
        for leaf, mass in self.atoms:
            masses[leaf] += mass
        return masses

    def total(self) -> float:
        return float(aggregate(self).levels[0].ravel()[0])

    def power(self, r: float) -> LeafMeasure:
        """Measure with density w^r; undefined for atomic measures."""
        if self.kind != "density":
            raise AtomicPowerUndefined("pointwise power of an atomic measure")
        return LeafMeasure(self.root, "density", density=self.density ** r)

    def weighted(self, g: LeafField) -> LeafMeasure:
        """The measure g dmu for a leaf field g over the same root."""
        check_same_root(self, g)
        if self.kind == "density":
            return LeafMeasure(self.root, "density", density=self.density * g.values)
        atoms = tuple((leaf, mass * float(g.values[leaf])) for leaf, mass in self.atoms)
        return LeafMeasure(self.root, "atomic", atoms=atoms)


def lebesgue_measure(root: RootSpec) -> LeafMeasure:
    return LeafMeasure(root, "density", density=np.ones(root.leaf_count))


def check_same_root(*objs) -> RootSpec:
    roots = {o.root for o in objs}
    if len(roots) != 1:
        raise RootMismatch(f"operands live on different grids: {sorted(roots, key=str)}")
    return next(iter(roots))


# ---- aggregation ----


def child_sums(table: np.ndarray) -> np.ndarray:
    """Per-parent sums of a level table: the 2^n children of each cube
    summed left to right in row-major child order."""
    return reduce(
        np.add,
        (
            table[tuple(slice(o, None, 2) for o in off)]
            for off in itertools.product((0, 1), repeat=table.ndim)
        ),
    )


def spread(table: np.ndarray) -> np.ndarray:
    """Broadcast a level table onto the next level's grid: each child
    gets its parent's entry (the downward mirror of child_sums)."""
    out = table
    for ax in range(table.ndim):
        out = np.repeat(out, 2, axis=ax)
    return out


@dataclass(frozen=True)
class TreeAggregate:
    """Per-cube integral/mass tables for every level of the truncated grid.

    For a field f the level-k table holds the integral of f over each
    level-k cube; for a measure it holds the cube mass.  Entry [k][idx]
    is addressed by the cube's integer index vector.
    """

    root: RootSpec
    source: str  # "field" | "density" | "atomic"
    levels: tuple[np.ndarray, ...] = field(repr=False)

    def level(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.root.depth:
            raise OutOfRangeCube(f"no level {k} in depth-{self.root.depth} grid")
        return self.levels[k]

    def sum_of(self, cube: CubeAddr) -> float:
        self.root.validate_cube(cube)
        return float(self.levels[cube.level][cube.index])

    @property
    def total(self) -> float:
        return float(self.levels[0].ravel()[0])

    # no caller in dtl; kept only because bench/spans.py patches it by name
    def restricted(self, region: CubeAddr) -> TreeAggregate:
        """Tables of the restriction to `region`: entry = mass of (Q cap region).

        Exact because dyadic cubes are nested: the intersection is one of
        Q, region, or empty.
        """
        self.root.validate_cube(region)
        out = []
        inside = self.sum_of(region)
        for k in range(self.root.depth + 1):
            table = np.zeros_like(self.levels[k])
            if k <= region.level:
                anc = region.ancestor_at(k)
                table[anc.index] = inside
            else:
                sl = region.leaf_slices(k)
                table[sl] = self.levels[k][sl]
            out.append(table)
        return TreeAggregate(self.root, self.source, tuple(out))


def aggregate(data: LeafField | LeafMeasure) -> TreeAggregate:
    """Build per-level sum tables for a field (integrals) or measure (masses)."""
    if isinstance(data, LeafField):
        leaf = (data.values * data.root.leaf_volume).reshape(data.root.grid_shape)
        source = "field"
    elif isinstance(data, LeafMeasure):
        leaf = data.leaf_masses().reshape(data.root.grid_shape)
        source = data.kind
    else:
        raise BadKind(f"cannot aggregate {type(data).__name__}")
    levels = [leaf]
    for _ in range(data.root.depth):
        levels.append(child_sums(levels[-1]))
    return TreeAggregate(data.root, source, tuple(reversed(levels)))


@dataclass(frozen=True)
class CubeStats:
    sum: float
    average: float


def cube_stats(agg: TreeAggregate, cube: CubeAddr) -> CubeStats:
    """Integral (the mass, for a measure) and Lebesgue average of one cube
    from the tables."""
    total = agg.sum_of(cube)
    return CubeStats(sum=total, average=total / cube.volume)


def enlarged_sum(f: LeafField, cube: CubeAddr) -> float:
    """Integral of f over 3Q intersected with the root cube.

    3Q is the concentric cube with triple side; the intersection with
    [0,1)^n is a box aligned to the level of Q, summed by leaf iteration
    over the clipped index ranges.
    """
    f.root.validate_cube(cube)
    depth = f.root.depth
    step = 1 << (depth - cube.level)
    side = 1 << depth
    slices = []
    for i in cube.index:
        lo = max((i - 1) * step, 0)
        hi = min((i + 2) * step, side)
        slices.append(slice(lo, hi))
    block = f.grid[tuple(slices)]
    return float(block.sum() * f.root.leaf_volume)


# ---- serialization ----


def cube_doc(cube: CubeAddr | None) -> dict | None:
    """JSON-ready address {"level", "index"} of a cube; None stays None."""
    if cube is None:
        return None
    return {"level": cube.level, "index": list(cube.index)}


def payload(data: LeafField | LeafMeasure) -> dict:
    """JSON-ready description of a field or measure.

    Leaf values come out as lists of plain Python floats (`tolist` of the
    validated, finite float64 array), which the report emitter formats in
    one call."""
    base = {"dim": data.root.dim, "depth": data.root.depth}
    if isinstance(data, LeafField):
        base["kind"] = "field"
        base["values"] = data.values.tolist()
    elif isinstance(data, LeafMeasure):
        base["kind"] = data.kind
        if data.kind == "density":
            base["values"] = data.density.tolist()
        else:
            base["atoms"] = [[int(leaf), float(mass)] for leaf, mass in data.atoms]
    else:
        raise BadKind(f"cannot serialize {type(data).__name__}")
    return base


def doc_value(doc, key: str, convert=lambda v: v, what: str = "input document"):
    """convert(doc[key]) for a JSON document, strict for int, float and
    list; a document that is not an object, a missing key, or a value of
    the wrong type for `convert` raises ShapeMismatch naming the key."""
    if not isinstance(doc, dict):
        raise ShapeMismatch(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ShapeMismatch(f"{what} missing key {key!r}")
    try:
        return strict(convert, doc[key]) if convert in (int, float, list) else convert(doc[key])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"{what} key {key!r} has the wrong type: {exc}") from exc


def strict(kind, value):
    """value as kind (int, float or list) when json.load gave it a type
    of that JSON kind: a bool is no integer, a string no number or array."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


def _reals(value) -> np.ndarray:
    arr = np.asarray(strict(list, value))
    if arr.dtype.kind not in "iuf":  # strings, bools and nulls are no numbers
        raise TypeError(f"expected numbers, got {arr.dtype} entries")
    for _ in range(arr.ndim - 1):  # nested rows down to the entries
        value = itertools.chain.from_iterable(value)
    odd = set(map(type, value)) - {int, float}
    if odd:  # numpy reads a bool among numbers as 0 or 1
        raise TypeError(f"expected numbers, got {min(t.__name__ for t in odd)} entries")
    return arr.astype(np.float64)


def _atoms(value) -> tuple[tuple[int, float], ...]:
    pairs = [strict(list, a) for a in strict(list, value)]
    return tuple((strict(int, a[0]), strict(float, a[1])) for a in pairs)


def ingest(doc: dict) -> LeafField | LeafMeasure:
    """Build a field or measure from the JSON schema used on disk."""
    root = RootSpec(doc_value(doc, "dim", int), doc_value(doc, "depth", int))
    kind = doc_value(doc, "kind")
    if kind in ("field", "density"):
        values = doc_value(doc, "values", _reals)
        if kind == "field":
            return LeafField(root, values)
        return LeafMeasure(root, "density", density=values)
    if kind == "atomic":
        atoms = doc_value(doc, "atoms", _atoms) if "atoms" in doc else ()
        return LeafMeasure(root, "atomic", atoms=atoms)
    raise BadKind(f"unknown input kind {kind!r}")


def read_json(path: str):
    """The JSON document in a file; an unreadable file or malformed JSON
    raises IoFailure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_input(path: str) -> LeafField | LeafMeasure:
    return ingest(read_json(path))
