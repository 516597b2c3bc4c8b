"""Truncated dyadic grid over the unit root cube.

The domain is the half-open cube [0,1)^n carved into dyadic subcubes of
levels 0..L.  A cube at level k has side 2^-k and is addressed by an
integer index vector in [0, 2^k)^n.  Level-L cubes are the leaves; all
piecewise-constant data (fields, measure densities, atom masses) lives on
them, so every integral over a dyadic cube is an exact finite sum.

Every per-cube table is one array in the layout of RootSpec.offsets; a
sweep that needs grid shapes reads its RootSpec.level_views.

Determinism contract: aggregation always sums the 2^n children of a cube
sequentially in row-major child order (child_sums), so reruns are
bit-identical and a parent entry equals the left-to-right sum of its
children exactly.  A downward sweep meets every child with its parent's
entry through parent_child_views, broadcast views of two adjacent
levels: one elementwise operation per level, with no copy of the parent
level spread onto the children's grid.

Leaf ratios.  leaf_ratios and max_ratio score paired leaf arrays by the
one rule of a trial's ratio, 0/0 as 0 and x/0 as inf; the registry's
pointwise ids and decompositions.sparse_dominate score with them.

Powers.  power is the package's one array power: every array raised to a
non-integer exponent, in every module, goes through it.  numpy picks its
power kernel by CPU (AVX-512 or AVX2), and the kernels differ in the last
bit for some inputs, so report bytes hold within one SIMD class only.
With one function, making them hold on every CPU (ROADMAP item 11, a
correctly rounded power) changes one body.  A power that only feeds a
cube sup is screened first (see norms): power runs only on the levels of
a table whose bound can reach its max, and the C library's pow, which
the dispatch does not touch, only on the cubes or leaves within the
screen's allowance of the top, so a thm1.2b trial at d1 L20 raises
5.2 M elements instead of 13.6 M.  The screens assume that power is
nondecreasing in its base and within a relative 2^-50 plus an absolute
2^-1070 of the true power; tests/test_grid.py checks both.  Scalar
Python powers call the C library's pow; item 11 moves them here too
once the body is correctly rounded.

Sums.  ordered_sum, a left fold with +, is the package's one scalar
float sum, so a total has the same bits on every supported Python.  The
builtin sum compensates floats from Python 3.12 on (Neumaier's method)
and math.fsum rounds once; both can move a total by a bit.
"""

from __future__ import annotations

import bisect
import itertools
import json
import operator
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, reduce
from numbers import Integral, Real

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


# ---- addressing ----


def _integer(value, what: str) -> int:
    """A grid coordinate as an int: a Python or numpy integer, not a bool."""
    if type(value) is int:
        return value
    if isinstance(value, Integral) and type(value) is not bool:
        return int(value)
    raise ShapeMismatch(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RootSpec:
    """Root cube [0,1)^dim truncated at dyadic level `depth`."""

    dim: int
    depth: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _integer(self.dim, "grid dim"))
        object.__setattr__(self, "depth", _integer(self.depth, "grid depth"))
        if self.dim < 1:
            raise ShapeMismatch(f"dim must be >= 1, got {self.dim}")
        if self.depth < 0:
            raise ShapeMismatch(f"depth must be >= 0, got {self.depth}")
        # 2^k > cap exactly when k reaches the cap's bit length; the count
        # itself is never formed for a huge k
        if self.dim * self.depth >= DEFAULT_LEAF_CAP.bit_length():
            raise ComplexityRefusal(
                f"2^(dim*depth) = 2^{self.dim * self.depth} leaves exceeds the leaf cap"
            )
        # not fields: the level starts, and each level's (start, stop,
        # grid shape), are worked out once, not per lookup
        starts = (1 << (self.dim * k) for k in range(self.depth + 1))
        offsets = (0, *itertools.accumulate(starts))
        spans = zip(offsets, offsets[1:], ((1 << k,) * self.dim for k in range(self.depth + 1)))
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_levels", tuple(spans))

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

    def offsets(self) -> list[int]:
        """Where each level starts in the layout, then the cube count: the
        layout orders all cubes level 0 first, row-major within a level,
        and level k holds positions offsets[k]:offsets[k + 1]."""
        return list(self._offsets)

    def cube_count(self) -> int:
        return self._offsets[-1]

    def cubes(self):
        """All cubes in layout order."""
        return map(self.cube_at, range(self.cube_count()))

    def cube_at(self, pos: int) -> CubeAddr:
        """The cube at layout position pos, which must lie in [0, cube_count())."""
        pos = _integer(pos, "layout position")
        offsets = self._offsets
        if not 0 <= pos < offsets[-1]:
            raise OutOfRangeCube(f"layout position {pos} outside [0, {offsets[-1]})")
        k = bisect.bisect_right(offsets, pos) - 1
        local, mask = pos - offsets[k], (1 << k) - 1  # row-major: k bits per axis
        return CubeAddr(k, tuple(local >> (k * w) & mask for w in range(self.dim - 1, -1, -1)))

    @cached_property
    def position_levels(self) -> np.ndarray:
        """Each layout position's level, built on first use."""
        return np.repeat(np.arange(self.depth + 1), np.diff(self._offsets))

    def ancestors(self, positions: np.ndarray, r) -> np.ndarray:
        """Layout position of the level-r ancestor of each of `positions`, which must
        all lie at level r or below (r is one level or one per position).  A level-t
        position is row-major in its level: t bits per axis, the last axis lowest."""
        start, t = np.array(self._offsets), self.position_levels[positions]
        local, mask = (positions - start[t]) >> (t - r), (1 << r) - 1  # each axis's top r bits
        found = start[r]
        for w in range(self.dim):
            found = found + ((local & mask) << (r * w))
            local = local >> t
        return found

    def position(self, cube: CubeAddr) -> int:
        """Layout position of a grid cube; the inverse of cube_at."""
        self.validate_cube(cube)
        return self._offsets[cube.level] + reduce(lambda a, i: a << cube.level | i, cube.index)

    def level_views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-level views of a layout array: level k as a (2^k,)*dim grid
        indexed by cube index vectors, sharing the array's memory."""
        return tuple([flat[a:b].reshape(shape) for a, b, shape in self._levels])

    def roll_up(self, flat: np.ndarray) -> np.ndarray:
        """Each cube's entry of a layout array plus the entries of every
        cube inside it, in place: level by level from the leaves, a cube's
        entry plus the child_sums of its children's rolled-up entries."""
        views = self.level_views(flat)
        for k in range(self.depth - 1, -1, -1):
            np.add(views[k], child_sums(views[k + 1]), out=views[k])
        return flat

    def scaled(self, flat: np.ndarray, values, out: np.ndarray | None = None) -> np.ndarray:
        """A layout array times values[k] on every level-k cube, into `out`
        (a new array when None), with no layout-sized array of the values."""
        out = np.empty_like(flat) if out is None else out
        for (a, b, _), v in zip(self._levels, values):
            np.multiply(flat[a:b], v, out[a:b])
        return out

    def root_cube(self) -> CubeAddr:
        return CubeAddr(0, (0,) * self.dim)

    def leaf_cube(self, linear: int) -> CubeAddr:
        """The leaf at canonical leaf index linear, in [0, leaf_count)."""
        linear = _integer(linear, "leaf index")
        if not 0 <= linear < self.leaf_count:
            raise OutOfRangeCube(f"leaf index {linear} outside [0, {self.leaf_count})")
        return self.cube_at(self._offsets[-2] + linear)

    def validate_cube(self, cube: CubeAddr) -> None:
        if len(cube.index) != self.dim:
            raise OutOfRangeCube(f"{cube} has dim {len(cube.index)}, grid has {self.dim}")
        if cube.level > self.depth:
            raise OutOfRangeCube(f"{cube} is below the truncation depth {self.depth}")


@dataclass(frozen=True, order=True)
class CubeAddr:
    """Dyadic cube 2^-level * (index + [0,1)^n), addressed by integers;
    cubes sort by (level, index), the layout order of RootSpec.offsets."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.index) is not tuple:
            raise ShapeMismatch(f"cube index must be a tuple of integers, got {self.index!r}")
        if type(self.level) is not int or any(type(i) is not int for i in self.index):
            object.__setattr__(self, "level", _integer(self.level, "cube level"))
            object.__setattr__(self, "index", tuple(_integer(i, "cube index") for i in self.index))
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
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    def parent(self) -> CubeAddr:
        if self.level == 0:
            raise NoParent("root cube has no parent")
        return CubeAddr(self.level - 1, tuple(i >> 1 for i in self.index))

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


# ---- powers ----


def power(base, exponent, out=None):
    """base ** exponent elementwise, for arrays or an array and a float,
    into `out` if given: the one array power of the package (see
    "Powers" in the module docstring).  It is nondecreasing in a
    nonnegative base for a fixed exponent >= 0; the testing sup and the
    cube-sup screens of norms rely on that."""
    if out is None:
        return base ** exponent
    return np.power(base, exponent, out=out)


def ordered_sum(values, start: float = 0.0) -> float:
    """start + v0 + v1 + ... left to right (see "Sums" in the module docstring)."""
    return reduce(operator.add, values, start)


# ---- leaf data ----


# the bit pattern of +inf: every finite double that is nonnegative and not
# -0.0 has a pattern below it, read as an unsigned integer, and every
# other double (a NaN, an infinity, a sign bit) one at or above it
_INF_BITS = 0x7FF0000000000000


def _check_values(values: np.ndarray, root: RootSpec) -> np.ndarray:
    """Leaf values as a flat float64 array: finite and nonnegative, with
    -0.0 read as +0.0.  One max over the bit patterns accepts the usual
    array; the others are checked again to name the fault."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size != root.leaf_count:
        raise ShapeMismatch(f"expected {root.leaf_count} leaf values, got {arr.size}")
    if arr.view(np.uint64).max() < _INF_BITS:
        return arr
    if not np.all(np.isfinite(arr)):
        raise NonFinite("leaf values must be finite")
    if np.signbit(arr).any():  # a negative value or a -0.0
        if np.any(arr < 0):
            raise NegativeValue("leaf values must be nonnegative")
        arr = arr + 0.0  # -0.0 becomes +0.0, which the report round trip keeps
    return arr


def _same_bits(self, other) -> bool:
    """== of a dataclass with array fields: the same class, and every
    compared field equal, arrays bit for bit (the generated == would ask
    an array for its truth value)."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        if not f.compare:
            continue
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray) or a != b:
            return False
    return True


@dataclass(frozen=True)
class LeafField:
    """Nonnegative function constant on each leaf, in canonical leaf order."""

    root: RootSpec
    values: np.ndarray = field(repr=False)

    __eq__ = _same_bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.values, self.root))

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.root.grid_shape)

    def power(self, p: float) -> LeafField:
        """f^p leafwise; a power that overflows raises NonFinite naming p."""
        with np.errstate(all="ignore"):
            values = power(self.values, p)
        try:
            return LeafField(self.root, values)
        except NonFinite as exc:
            raise NonFinite(f"leaf values to the power {p} are not finite") from exc

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

    __eq__ = _same_bits

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
                if bool in (type(leaf), type(mass)) or not (
                    isinstance(leaf, Integral) and isinstance(mass, Real)
                ):
                    raise ShapeMismatch(f"atom {(leaf, mass)!r} needs an int leaf and a real mass")
                leaf = int(leaf)
                mass = float(mass) + 0.0  # -0.0 becomes +0.0
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

    def power(self, r: float) -> LeafMeasure:
        """Measure with density w^r; undefined for atomic measures."""
        if self.kind != "density":
            raise AtomicPowerUndefined("pointwise power of an atomic measure")
        with np.errstate(all="ignore"):
            density = power(self.density, r)
        try:
            return LeafMeasure(self.root, "density", density=density)
        except NonFinite as exc:
            raise NonFinite(f"density to the power {r} is not finite") from exc

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


@cache
def _children(ndim: int) -> tuple[tuple[slice, ...], ...]:
    """Index tuples picking each cube's 2^ndim children, in row-major child order."""
    offsets = itertools.product((0, 1), repeat=ndim)
    return tuple(tuple(slice(o, None, 2) for o in off) for off in offsets)


def child_sums(table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-parent sums of a level table: the 2^n children of each cube
    summed left to right in row-major child order, into `out` if given.
    Its downward mirror is parent_child_views: a parent's entry against each
    of its children's."""
    first, second, *rest = _children(table.ndim)
    out = np.add(table[first], table[second], out)
    for kid in rest:
        np.add(out, table[kid], out)
    return out


def parent_child_views(parents: np.ndarray, children: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level table as a (c, 1)*n view and the next level's (2c,)*n
    table as a (c, 2)*n view, so that an elementwise operation on the two
    sets each child against its parent's entry.  The result is the child
    level in that (c, 2)*n shape, which serves again as `parents` one
    level down; reshape it to (2c,)*n to read it as a level table."""
    c, n = children.shape[0] // 2, children.ndim
    return parents.reshape((c, 1) * n), children.reshape((c, 2) * n)


@dataclass(frozen=True)
class TreeAggregate:
    """Per-cube integral/mass table of the truncated grid.

    For a field f a cube's entry is the integral of f over it; for a
    measure it is the cube mass.  `flat` holds the cubes in layout order;
    its views `levels[k][idx]` address them by level and index vector.
    """

    root: RootSpec
    flat: np.ndarray = field(repr=False)
    levels: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    __eq__ = _same_bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", self.root.level_views(self.flat))

    def sum_of(self, cube: CubeAddr) -> float:
        self.root.validate_cube(cube)
        return float(self.levels[cube.level][cube.index])

    @property
    def total(self) -> float:
        return float(self.flat[0])

    # no caller in dtl; kept only because bench/spans.py patches it by name
    def restricted(self, region: CubeAddr) -> TreeAggregate:
        """Tables of the restriction to `region`: entry = mass of (Q cap region).

        Exact because dyadic cubes are nested: the intersection is one of
        Q, region, or empty.
        """
        inside = self.sum_of(region)
        out = TreeAggregate(self.root, np.zeros_like(self.flat))
        for k, (table, own) in enumerate(zip(out.levels, self.levels)):
            if k <= region.level:
                table[region.ancestor_at(k).index] = inside
            else:
                sl = region.leaf_slices(k)
                table[sl] = own[sl]
        return out


def aggregate(data: LeafField | LeafMeasure) -> TreeAggregate:
    """Build the per-cube sum table of a field (integrals) or measure
    (masses): the leaves, then each level's child sums, from the leaves up."""
    if isinstance(data, LeafField):
        density = data.values  # a field integrates like a density
    elif isinstance(data, LeafMeasure):
        density = data.density  # None for atoms
    else:
        raise BadKind(f"cannot aggregate {type(data).__name__}")
    root = data.root
    flat = np.empty(root.cube_count())
    leaves = flat[-root.leaf_count:]
    if density is None:
        leaves[:] = data.leaf_masses()
    else:  # the leaf masses, density * leaf volume, with no copy
        np.multiply(density, root.leaf_volume, leaves)
    agg = TreeAggregate(root, flat)
    levels = agg.levels
    for k in range(root.depth - 1, -1, -1):
        child_sums(levels[k + 1], levels[k])
    return agg


def leaf_ratios(lhs, rhs) -> np.ndarray:
    """lhs / rhs of paired leaf arrays, elementwise, where 0/0 scores 0
    and x/0 scores inf (registry.ratio_of's rule for one trial)."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    ratios = np.where(lhs == 0.0, 0.0, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(lhs, rhs, out=ratios, where=rhs != 0.0)
    return ratios


def max_ratio(lhs, rhs) -> float:
    """Largest of leaf_ratios(lhs, rhs), starting from 0.0: 0/0 scores 0,
    x/0 scores inf, and a NaN quotient never wins, exactly as a loop of
    max(worst, ratio_of(a, b)) would give."""
    ratios = leaf_ratios(lhs, rhs)
    ratios = ratios[ratios > 0.0]
    return float(ratios.max()) if ratios.size else 0.0


@dataclass(frozen=True)
class CubeStats:
    sum: float
    average: float


def cube_stats(agg: TreeAggregate, cube: CubeAddr) -> CubeStats:
    """Integral (the mass, for a measure) and Lebesgue average of one cube
    from the tables."""
    total = agg.sum_of(cube)
    return CubeStats(sum=total, average=total / cube.volume)


def enlarged_span(root: RootSpec, level: int, i: int) -> slice:
    """Leaf index range, along one axis, of 3Q clipped to the root cube
    for a level-`level` cube Q of index i on that axis: Q's range widened
    by one level-`level` cube on each side.  3Q of a cube is the box of
    these ranges, one per entry of its index vector."""
    step = 1 << (root.depth - level)
    return slice(max(i - 1, 0) * step, min(i + 2, 1 << level) * step)


def enlarged_sum(f: LeafField, cube: CubeAddr) -> float:
    """Integral of f over 3Q intersected with the root cube.

    3Q is the concentric cube with triple side; the intersection with
    [0,1)^n is a box aligned to the level of Q (enlarged_span), summed by
    leaf iteration.
    """
    f.root.validate_cube(cube)
    block = f.grid[tuple(enlarged_span(f.root, cube.level, i) for i in cube.index)]
    return float(block.sum() * f.root.leaf_volume)


# ---- serialization ----


def cube_doc(cube: CubeAddr | None) -> dict | None:
    """JSON-ready address {"level", "index"} of a cube; None stays None."""
    if cube is None:
        return None
    return {"level": cube.level, "index": list(cube.index)}


def payload(data: LeafField | LeafMeasure) -> dict:
    """Description of a field or measure, a document for
    report.canonical_json (not for json.dumps).

    Leaf values come out as a read-only view of the validated, finite
    float64 array, in O(1): the report emitter formats the array as a
    whole (once for a constant field, in its numpy kernel for a long
    array, in one `%` call for a short one), and the text parses back to
    what `ingest` takes."""
    base = {"dim": data.root.dim, "depth": data.root.depth}
    if isinstance(data, LeafField):
        base["kind"] = "field"
        base["values"] = _read_only(data.values)
    elif isinstance(data, LeafMeasure):
        base["kind"] = data.kind
        if data.kind == "density":
            base["values"] = _read_only(data.density)
        else:
            base["atoms"] = [[int(leaf), float(mass)] for leaf, mass in data.atoms]
    else:
        raise BadKind(f"cannot serialize {type(data).__name__}")
    return base


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.flags.writeable = False
    return view


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
    odd = [a for a in pairs if len(a) != 2]
    if odd:
        raise ValueError(f"an atom is a [leaf, mass] pair, got {odd[0]!r}")
    return tuple((strict(int, leaf), strict(float, mass)) for leaf, mass in pairs)


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
    """The JSON document in a file; an unreadable file, bytes that are
    not UTF-8, malformed JSON, nesting too deep to parse or an integer of
    too many digits raises IoFailure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the
    # integer digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_input(path: str) -> LeafField | LeafMeasure:
    return ingest(read_json(path))
