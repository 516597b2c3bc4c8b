"""Grid addressing, leaf data containers, and exact tree aggregation."""

from __future__ import annotations

import decimal
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import simd
from dtl import (
    AtomicPowerUndefined,
    ComplexityRefusal,
    CubeAddr,
    ExponentProfile,
    IoFailure,
    KernelWeight,
    LabError,
    LeafField,
    LeafMeasure,
    NegativeValue,
    NoParent,
    NonFinite,
    OutOfRangeCube,
    RootMismatch,
    RootSpec,
    ShapeMismatch,
    aggregate,
    cq_constant,
    cube_stats,
    enlarged_sum,
    generate_input,
    ingest,
    lebesgue_measure,
    lebesgue_norm,
    payload,
    product_morrey_norm,
    read_input,
)
from dtl.grid import check_same_root, power
from dtl.report import canonical_json


def unit_field(root, values):
    return LeafField(root, np.asarray(values, dtype=float))


def random_field(root, seed):
    rng = np.random.default_rng(seed)
    return LeafField(root, rng.uniform(0.0, 2.0, root.leaf_count))


def test_root_spec_basic():
    root = RootSpec(2, 3)
    assert root.leaf_count == 64
    assert root.leaf_side == 0.125
    assert root.leaf_volume == 0.125 ** 2
    assert root.grid_shape == (8, 8)
    assert root.cube_count() == 1 + 4 + 16 + 64


def test_root_spec_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        RootSpec(0, 2)
    with pytest.raises(ShapeMismatch):
        RootSpec(1, -1)
    with pytest.raises(ComplexityRefusal):
        RootSpec(1, 25)


def test_cube_enumeration_matches_oracle():
    for dim, depth in ((1, 3), (2, 2), (3, 1)):
        root = RootSpec(dim, depth)
        got = [(c.level, c.index) for c in root.cubes()]
        assert got == oracles.all_cubes(dim, depth)
        assert len(got) == root.cube_count()


@pytest.mark.parametrize("dim,depths", [(1, range(7)), (2, range(4)), (3, range(3))])
def test_layout_positions_follow_cube_order(dim, depths):
    for depth in depths:
        root = RootSpec(dim, depth)
        count = root.cube_count()
        cubes = [root.cube_at(i) for i in range(count)]
        assert [(c.level, c.index) for c in cubes] == oracles.all_cubes(dim, depth)
        assert cubes == list(root.cubes())
        assert [root.position(c) for c in cubes] == list(range(count))
        offsets = root.offsets()
        assert offsets[-1] == count and len(offsets) == depth + 2
        assert [root.position(CubeAddr(k, (0,) * dim)) for k in range(depth + 1)] == offsets[:-1]
        for outside in (-1, count):
            with pytest.raises(OutOfRangeCube):
                root.cube_at(outside)
        with pytest.raises(OutOfRangeCube):
            root.position(CubeAddr(depth + 1, (0,) * dim))
        agg = aggregate(random_field(root, depth))
        assert agg.flat.tolist() == [agg.sum_of(c) for c in cubes]


def test_cube_addr_geometry():
    cube = CubeAddr(2, (1, 3))
    assert cube.dim == 2
    assert cube.volume == 0.0625
    assert cube.parent() == CubeAddr(1, (0, 1))
    kids = [CubeAddr(3, idx) for idx in ((2, 6), (2, 7), (3, 6), (3, 7))]
    assert all(k.parent() == cube for k in kids)
    assert all(cube.contains(k) for k in kids)
    assert not kids[0].contains(cube)
    with pytest.raises(NoParent):
        CubeAddr(0, (0, 0)).parent()


def test_ancestor_chain_and_containment():
    root = RootSpec(1, 4)
    leaf = root.leaf_cube(11)
    chain = [leaf.ancestor_at(k) for k in range(root.depth, -1, -1)]  # nearest first
    assert [(c.level, c.index) for c in chain] == [
        oracles.ancestor_at(leaf.index, root.depth, k) for k in range(root.depth, -1, -1)
    ]
    assert chain[0] == leaf
    assert chain[-1] == root.root_cube()
    for below, above in zip(chain, chain[1:]):
        assert above.contains(below)
        assert below.parent() == above
    assert leaf.ancestor_at(2) == CubeAddr(2, (2,))


@pytest.mark.parametrize(
    "repro,field",
    [
        (lambda: RootSpec(1, 2).position(CubeAddr(1, (0.5,))), "cube index"),
        (
            lambda: aggregate(lebesgue_measure(RootSpec(1, 2))).sum_of(CubeAddr(1, (0.5,))),
            "cube index",
        ),
        (
            lambda: cq_constant(
                aggregate(lebesgue_measure(RootSpec(1, 2))),
                KernelWeight.canonical(0.5, 1, 1),
                2.0,
                CubeAddr(1, (0.5,)),
            ),
            "cube index",
        ),
        (lambda: CubeAddr(1, [1]), "cube index"),
        (lambda: CubeAddr(1.0, (0,)), "cube level"),
        (lambda: RootSpec(1.0, 2), "grid dim"),
        (lambda: RootSpec(True, 2), "grid dim"),
    ],
    ids=["position", "sum_of", "cq_constant", "list-index", "float-level", "float-dim", "bool-dim"],
)
def test_grid_coordinates_must_be_integers(repro, field):
    with pytest.raises(ShapeMismatch, match=f"{field} must be"):
        repro()


def test_grid_coordinates_refuse_bools_and_floats_and_keep_numpy_integers_as_ints():
    for make in (
        lambda: CubeAddr(True, (0,)),
        lambda: CubeAddr(1, (True,)),
        lambda: CubeAddr(1, (np.bool_(True),)),
        lambda: CubeAddr(1, (np.float64(1.0),)),
        lambda: CubeAddr(1, np.array([1])),
        lambda: RootSpec(1, 2.0),
        lambda: RootSpec(1, False),
    ):
        with pytest.raises(ShapeMismatch, match="must be"):
            make()
    cube = CubeAddr(np.int64(2), (np.uint8(3), np.int32(1)))
    assert cube == CubeAddr(2, (3, 1)) and hash(cube) == hash(CubeAddr(2, (3, 1)))
    assert [type(cube.level), *map(type, cube.index)] == [int] * 3
    root = RootSpec(np.int64(2), np.int8(3))
    assert root == RootSpec(2, 3) and (type(root.dim), type(root.depth)) == (int, int)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), shape=st.sampled_from([(1, 6), (2, 3), (3, 2)]))
def test_cubes_sort_in_layout_order(data, shape):
    # CubeAddr orders by (level, index), so sorted() is the layout order
    root = RootSpec(*shape)
    positions = data.draw(st.lists(st.integers(0, root.cube_count() - 1), unique=True))
    cubes = [root.cube_at(pos) for pos in positions]
    assert sorted(cubes) == sorted(cubes, key=root.position)
    assert sorted(cubes) == [root.cube_at(pos) for pos in sorted(positions)]


def test_leaf_linear_roundtrip():
    root = RootSpec(2, 3)
    for lin in range(root.leaf_count):
        assert oracles.leaf_linear(root.leaf_cube(lin).index, root.depth) == lin
    with pytest.raises(OutOfRangeCube):
        root.validate_cube(CubeAddr(4, (0, 0)))
    with pytest.raises(OutOfRangeCube):
        root.validate_cube(CubeAddr(1, (0,)))


@pytest.mark.parametrize("dim,depth", [(1, 3), (2, 2)])
def test_leaf_cube_is_the_leaf_layout_and_checks_its_range(dim, depth):
    root = RootSpec(dim, depth)
    first = root.offsets()[-2]
    assert [root.leaf_cube(i) for i in range(root.leaf_count)] == [
        root.cube_at(first + i) for i in range(root.leaf_count)
    ]
    for outside in (-1, root.leaf_count):
        with pytest.raises(OutOfRangeCube):
            root.leaf_cube(outside)


def test_leaf_cube_refuses_a_float_leaf_index():
    # int() truncated 2.7 to leaf 2
    with pytest.raises(ShapeMismatch, match="leaf index must be an integer, got 2.7"):
        RootSpec(1, 2).leaf_cube(2.7)


def test_leaf_cube_refuses_a_bool_leaf_index():
    # True read as leaf 1
    with pytest.raises(ShapeMismatch, match="leaf index must be an integer, got True"):
        RootSpec(1, 2).leaf_cube(True)


def test_cube_at_refuses_a_bool_position():
    # True read as position 1, CubeAddr(1, (0,))
    with pytest.raises(ShapeMismatch, match="layout position must be an integer, got True"):
        RootSpec(1, 2).cube_at(True)


@pytest.mark.parametrize("pos", [1.5, 2.0])
def test_cube_at_refuses_a_float_position(pos):
    # a float position reached `>>` and raised TypeError
    with pytest.raises(ShapeMismatch, match=f"layout position must be an integer, got {pos}"):
        RootSpec(1, 2).cube_at(pos)


def test_cube_at_and_leaf_cube_keep_numpy_integers():
    root = RootSpec(2, 2)
    for make in (np.int64, np.uint8, np.int32):
        assert root.cube_at(make(7)) == root.cube_at(7) == CubeAddr(2, (0, 2))
        assert root.leaf_cube(make(2)) == root.leaf_cube(2) == CubeAddr(2, (0, 2))
    cube = root.cube_at(np.int64(7))
    assert [type(cube.level), *map(type, cube.index)] == [int] * 3


@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3), (3, 2)])
def test_aggregate_is_one_layout_array(dim, depth):
    root = RootSpec(dim, depth)
    field = random_field(root, depth)
    measure = lebesgue_measure(root).weighted(random_field(root, 1))
    for data, leaves in (
        (field, field.values * root.leaf_volume),
        (measure, measure.leaf_masses()),
    ):
        agg = aggregate(data)
        want = oracles.child_sum_levels(leaves, dim, depth)
        assert agg.flat.tolist() == np.concatenate([t.ravel() for t in want]).tolist()
        assert agg.flat.shape == (root.cube_count(),)
        for k, table in enumerate(agg.levels):
            assert table.shape == (1 << k,) * dim
            assert np.shares_memory(table, agg.flat)


@pytest.mark.parametrize("dim,depth", [(1, 4), (2, 2), (3, 1)])
def test_level_views_and_scaled_follow_cube_at(dim, depth):
    root = RootSpec(dim, depth)
    flat = np.arange(root.cube_count(), dtype=float)
    views = root.level_views(flat)
    scaled = root.scaled(flat, [10.0 ** k for k in range(depth + 1)])
    for pos, cube in enumerate(root.cubes()):
        assert views[cube.level][cube.index] == pos
        assert scaled[pos] == pos * 10.0 ** cube.level
    assert root.scaled(flat, [0.5] * (depth + 1), flat) is flat  # in place
    assert flat.tolist() == [pos * 0.5 for pos in range(root.cube_count())]
    views[-1][(0,) * dim] = -1.0  # a view writes through to the layout
    assert flat[root.offsets()[-2]] == -1.0


def test_leaf_slices_and_linears():
    for dim, depth in ((1, 3), (2, 2), (3, 2)):
        root = RootSpec(dim, depth)
        linears = np.arange(root.leaf_count).reshape(root.grid_shape)
        for cube in root.cubes():
            want = [
                oracles.leaf_linear(mm, depth)
                for mm in oracles.leaves_inside(dim, depth, (cube.level, cube.index))
            ]
            assert linears[cube.leaf_slices(depth)].ravel().tolist() == want


def test_field_validation():
    root = RootSpec(1, 2)
    with pytest.raises(NegativeValue):
        unit_field(root, [1.0, -0.5, 0.0, 1.0])
    with pytest.raises(ShapeMismatch):
        unit_field(root, [1.0, 2.0])
    with pytest.raises(Exception):
        unit_field(root, [1.0, float("nan"), 0.0, 1.0])


def test_field_transforms():
    root = RootSpec(1, 2)
    f = unit_field(root, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(f.power(2.0).values, [1.0, 4.0, 9.0, 16.0])
    assert np.array_equal(f.scaled(0.5).values, [0.5, 1.0, 1.5, 2.0])
    assert np.array_equal(f.grid, np.array([1.0, 2.0, 3.0, 4.0]))


def test_measure_kinds_and_masses():
    root = RootSpec(1, 2)
    leb = lebesgue_measure(root)
    assert aggregate(leb).total == 1.0
    assert np.allclose(leb.leaf_masses(), 0.25)

    dens = LeafMeasure(root, "density", density=np.array([4.0, 0.0, 0.0, 0.0]))
    assert aggregate(dens).total == 1.0
    assert np.array_equal(dens.leaf_masses(), [1.0, 0.0, 0.0, 0.0])

    atoms = LeafMeasure(root, "atomic", atoms=((0, 0.5), (3, 0.25), (0, 0.25)))
    assert aggregate(atoms).total == 1.0
    assert np.array_equal(atoms.leaf_masses(), [0.75, 0.0, 0.0, 0.25])


def test_measure_power_and_weighted():
    root = RootSpec(1, 2)
    dens = LeafMeasure(root, "density", density=np.array([2.0, 2.0, 1.0, 1.0]))
    sq = dens.power(2.0)
    assert np.array_equal(sq.density, [4.0, 4.0, 1.0, 1.0])
    atoms = LeafMeasure(root, "atomic", atoms=((1, 1.0),))
    with pytest.raises(AtomicPowerUndefined):
        atoms.power(2.0)
    g = unit_field(root, [1.0, 3.0, 0.0, 2.0])
    weighted = atoms.weighted(g)
    assert aggregate(weighted).total == 3.0


def test_leaf_power_overflow_names_the_power():
    # the overflow is the cause, not a non-finite input, and no numpy
    # RuntimeWarning escapes on the way
    root = RootSpec(1, 4)
    f = unit_field(root, np.full(16, 1e200))
    dens = LeafMeasure(root, "density", density=np.full(16, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="leaf values to the power 2.0 are not finite"):
            lebesgue_norm(f, 2.0)
        with pytest.raises(NonFinite, match="leaf values to the power 2.4 are not finite"):
            product_morrey_norm([f, f], ExponentProfile.default(2, 1))
        with pytest.raises(NonFinite, match="density to the power 1.7 is not finite"):
            dens.power(1.7)
        assert lebesgue_norm(f, 1.0) == 1e200


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.sampled_from([0.5, 1.0 / 1.7, 1.5, 2.0, 2.5, 6.0, 1.7 / 0.7]),
        st.floats(0.0, 8.0),
    ),
    st.integers(0, 2 ** 32 - 1),
)
def test_power_is_nondecreasing_in_its_base(exponent, seed):
    """The testing sup powers its candidates before taking their max, which
    keeps its bits only while grid.power is nondecreasing in a
    nonnegative base (see norms.maximal_testing_sup).  Sorted bases
    across the whole float range, each next to its neighbouring doubles,
    must give nondecreasing powers, in one array as the layout pass
    makes them."""
    rng = np.random.default_rng(seed)
    mid = np.sort(rng.uniform(0.5, 2.0, 4096) * 2.0 ** rng.integers(-1074, 1024, 4096))
    base = np.unique(np.concatenate([
        [0.0, 5e-324, 1.0, np.finfo(float).max], mid,
        np.nextafter(mid, 0.0), np.nextafter(mid, np.inf),
    ]))
    base = base[np.isfinite(base)]
    with np.errstate(over="ignore", under="ignore"):
        powered = power(base, exponent)
    assert np.all(powered[1:] >= powered[:-1]), exponent


def _screened_exponents() -> list[float]:
    """The exponents whose powers a screen stands in for, under every
    default profile: the layout sups' 1/p_i, 1/p, 1/q, 1/p0 and 1/(r p),
    the testing root 1/p', hedberg's 1/theta, and the A_p dual power
    p - 1 (63 at "infinity", 1.5 at p = 2.5)."""
    found = {63.0, 1.5}
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for low_p in (False, True) if m > 1 else (False,):
                prof = ExponentProfile.default(m, n, low_p)
                found |= {1.0 / pi for pi in prof.p_vec}
                found |= {1.0 / prof.p, 1.0 / prof.q, 1.0 / prof.p0, 1.0 / prof.q0}
                found |= {1.0 / (prof.r * prof.p), 1.0 / prof.theta}
                if prof.p > 1:
                    found.add(1.0 - 1.0 / prof.p)
    return sorted(found)


_EDGE_BASES = [
    0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1.7976931348623157e308,
]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.one_of(st.floats(0.0, 1.7976931348623157e308), st.sampled_from(_EDGE_BASES)),
        min_size=1, max_size=40,
    ),
    st.one_of(st.sampled_from(_screened_exponents()), st.floats(0.01, 64.0)),
)
def _powers_within_screen_allowance(bases, exponent):
    """grid.power on an array of `bases`, and the C library's pow on each,
    lie within the allowance norms' screens assume: a relative 2^-50 plus
    an absolute 2^-1070 of the true power (an overflow to inf only where
    the true power is within that of the largest double or above it)."""
    with np.errstate(over="ignore", under="ignore"):
        screened = power(np.array(bases), exponent).tolist()
    top = decimal.Decimal(np.finfo(np.float64).max)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        rel, floor = decimal.Decimal(2) ** -50, decimal.Decimal(2) ** -1070
        for x, got in zip(bases, screened):
            exact = decimal.Decimal(x) ** decimal.Decimal(exponent)
            try:
                libm = math.pow(x, exponent)
            except OverflowError:
                libm = math.inf
            for value in (got, libm):
                if value == math.inf:
                    assert exact >= top * (1 - rel), (x, exponent, value)
                else:
                    error = abs(decimal.Decimal(value) - exact)
                    assert error <= exact * rel + floor, (x, exponent, value)


def test_power_stays_within_the_screen_allowance():
    # the margin and floor of norms.screen_low / screen_high rest on this,
    # under numpy's default SIMD dispatch and with AVX-512 off
    code = "import test_grid\ntest_grid._powers_within_screen_allowance()\nprint('ok')\n"
    assert simd.run_children(code) == ["ok\n", "ok\n"]


def test_aggregate_parent_equals_child_sum_exactly():
    # bit-exact: parents are formed by summing child blocks in canonical order
    for dim in (1, 2):
        for seed in range(10):
            root = RootSpec(dim, 3)
            agg = aggregate(random_field(root, seed))
            for k in range(root.depth):
                parents = agg.levels[k]
                kids = agg.levels[k + 1]
                for idx in np.ndindex(parents.shape):
                    total = 0.0
                    for _, index in oracles.children_of((k, idx), dim):
                        total += float(kids[index])
                    assert float(parents[idx]) == total


def test_aggregate_totals_and_sum_of():
    root = RootSpec(1, 3)
    f = unit_field(root, np.arange(8, dtype=float))
    agg = aggregate(f)
    assert agg.total == pytest.approx(sum(range(8)) / 8.0, rel=1e-15)
    cube = CubeAddr(1, (1,))
    assert agg.sum_of(cube) == pytest.approx((4 + 5 + 6 + 7) / 8.0, rel=1e-15)
    with pytest.raises(OutOfRangeCube):
        agg.sum_of(CubeAddr(4, (0,)))


def test_aggregate_restriction_tables():
    root = RootSpec(1, 3)
    f = unit_field(root, np.arange(8, dtype=float))
    agg = aggregate(f)
    region = CubeAddr(1, (1,))
    cut = agg.restricted(region)
    assert cut.total == agg.sum_of(region)
    assert cut.sum_of(CubeAddr(2, (0,))) == 0.0
    assert cut.sum_of(CubeAddr(2, (2,))) == agg.sum_of(CubeAddr(2, (2,)))


def test_cube_stats_against_oracle():
    for seed in range(20):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        f = random_field(root, seed)
        agg = aggregate(f)
        for cube in root.cubes():
            want = oracles.field_integral(f, (cube.level, cube.index))
            got = cube_stats(agg, cube)
            assert got.sum == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert got.average == pytest.approx(want / cube.volume, rel=1e-12, abs=1e-15)


def test_enlarged_sum_cases():
    root = RootSpec(1, 2)
    f = unit_field(root, [1.0, 2.0, 3.0, 4.0])
    # 3Q of [1/4,1/2) is [0,3/4): leaves 0,1,2
    assert enlarged_sum(f, CubeAddr(2, (1,))) == pytest.approx(6.0 / 4.0)
    # 3Q of the root covers everything
    assert enlarged_sum(f, root.root_cube()) == pytest.approx(10.0 / 4.0)
    # clipped at the right edge: 3Q of [3/4,1) is [1/2,1) within the root
    assert enlarged_sum(f, CubeAddr(2, (3,))) == pytest.approx(7.0 / 4.0)


def test_enlarged_sum_2d_clipping():
    root = RootSpec(2, 1)
    f = unit_field(root, [1.0, 2.0, 3.0, 4.0])
    # 3Q of the lower-left child clips to the whole square
    assert enlarged_sum(f, CubeAddr(1, (0, 0))) == pytest.approx(10.0 / 4.0)


def _through_bytes(data):
    """ingest of the report text of payload(data)."""
    return ingest(json.loads(canonical_json(payload(data))))


def test_payload_roundtrip():
    root = RootSpec(1, 2)
    f = unit_field(root, [1.0, 2.0, 3.0, 4.0])
    back = _through_bytes(f)
    assert isinstance(back, LeafField)
    assert np.array_equal(back.values, f.values)
    assert back == f

    atoms = LeafMeasure(root, "atomic", atoms=((2, 0.5),))
    back = _through_bytes(atoms)
    assert isinstance(back, LeafMeasure)
    assert back.atoms == ((2, 0.5),)

    dens = LeafMeasure(root, "density", density=np.array([1.0, 1.0, 2.0, 2.0]))
    back = _through_bytes(dens)
    assert np.array_equal(back.density, dens.density)
    assert back == dens

    # JSON integers are numbers: they read as the floats they equal
    back = ingest({"dim": 2, "depth": 1, "kind": "density", "values": [[1, 2], [0, 3]]})
    assert back.density.tolist() == [1.0, 2.0, 0.0, 3.0]
    back = ingest({"dim": 1, "depth": 2, "kind": "atomic", "atoms": [[3, 2]]})
    assert back.atoms == ((3, 2.0),) and type(back.atoms[0][1]) is float


def test_atoms_are_validated_not_coerced():
    root = RootSpec(1, 2)
    # a float or bool leaf and a str mass are refused: not truncated, read as 1 or parsed
    with pytest.raises(LabError, match=re.escape("atom (1.7, 2.0) needs an int leaf")):
        LeafMeasure(root, "atomic", atoms=((1.7, 2.0), (True, "3")))
    for atom in ((True, 2.0), ("1", 2.0), (np.bool_(True), 2.0), (1, "3"), (1, False)):
        with pytest.raises(ShapeMismatch, match=re.escape(f"atom {atom!r} needs an int leaf")):
            LeafMeasure(root, "atomic", atoms=((0, 1.0), atom))
    # numpy integers and floats, and integer masses, are numbers
    mu = LeafMeasure(root, "atomic", atoms=((np.int64(1), np.float32(0.5)), (np.uint8(3), 2)))
    assert mu.atoms == ((1, 0.5), (3, 2.0))
    assert [tuple(map(type, a)) for a in mu.atoms] == [(int, float)] * 2
    # the generators and ingest hand over ints and floats already
    for seed in range(4):
        gen = generate_input(RootSpec(2, 3), "atom-measure", seed)
        assert len(gen.atoms) == 3 and _through_bytes(gen) == gen
    back = ingest({"dim": 1, "depth": 2, "kind": "atomic", "atoms": [[1, 0.5], [3, 2]]})
    assert back.atoms == ((1, 0.5), (3, 2.0))


@pytest.mark.parametrize("atom", [[0, 1.0, 99, "x"], [0]], ids=["four-entries", "one-entry"])
def test_an_atom_is_a_leaf_mass_pair(atom):
    # extra entries are refused, not dropped, and a lone leaf is no pair
    doc = {"dim": 1, "depth": 2, "kind": "atomic", "atoms": [[1, 0.5], atom]}
    with pytest.raises(ShapeMismatch, match=re.escape(
        f"key 'atoms' has the wrong type: an atom is a [leaf, mass] pair, got {atom!r}"
    )):
        ingest(doc)


def test_negative_zero_is_stored_as_positive_zero():
    root = RootSpec(1, 1)
    f = LeafField(root, [-0.0, 1.0])
    assert not np.signbit(f.values).any()
    assert _through_bytes(f) == f
    assert f == LeafField(root, [0.0, 1.0])
    scaled = LeafField(root, [1.0, 2.0]).scaled(-0.0)
    assert scaled == LeafField(root, [0.0, 0.0]) and not np.signbit(scaled.values).any()
    dens = LeafMeasure(root, "density", density=np.array([-0.0, 2.0]))
    assert not np.signbit(dens.density).any() and _through_bytes(dens) == dens
    atoms = LeafMeasure(root, "atomic", atoms=((0, -0.0), (1, 1.0)))
    assert atoms.atoms == ((0, 0.0), (1, 1.0)) and math.copysign(1.0, atoms.atoms[0][1]) == 1.0
    assert _through_bytes(atoms) == atoms
    # an array without a -0.0 is kept, one with a -0.0 is copied
    values = np.array([0.0, 1.0])
    assert np.shares_memory(LeafField(root, values).values, values)
    values = np.array([-0.0, 1.0])
    assert not np.shares_memory(LeafField(root, values).values, values)
    assert np.signbit(values[0])


def test_read_input_failure():
    with pytest.raises(IoFailure):
        read_input("/nonexistent/input.json")


def test_check_same_root():
    a = RootSpec(1, 2)
    b = RootSpec(1, 3)
    fa = unit_field(a, [1.0] * 4)
    fb = unit_field(b, [1.0] * 8)
    assert check_same_root(fa, fa) == a
    with pytest.raises(RootMismatch):
        check_same_root(fa, fb)


def test_leaf_data_and_aggregates_compare_by_root_and_bits():
    root = RootSpec(1, 2)
    f = unit_field(root, [0.0, 1.0, 2.0, 3.0])
    same = unit_field(root, [0.0, 1.0, 2.0, 3.0])
    signed_zero = unit_field(root, [-0.0, 1.0, 2.0, 3.0])
    assert f == same and aggregate(f) == aggregate(same)
    # intake stores -0.0 as +0.0, so its bits are those of f
    assert f == signed_zero and aggregate(f) != aggregate(unit_field(root, [1.0] * 4))
    assert f != unit_field(RootSpec(2, 1), [0.0, 1.0, 2.0, 3.0])
    assert aggregate(f) != aggregate(unit_field(RootSpec(2, 1), [0.0, 1.0, 2.0, 3.0]))
    assert (f == 1.0) is False and (aggregate(f) == f) is False

    dens = LeafMeasure(root, "density", density=np.array([0.0, 1.0, 2.0, 3.0]))
    assert dens == lebesgue_measure(root).weighted(f)
    assert dens != lebesgue_measure(root)
    atoms = LeafMeasure(root, "atomic", atoms=((2, 0.5),))
    assert atoms == LeafMeasure(root, "atomic", atoms=((2, 0.5),))
    assert atoms != LeafMeasure(root, "atomic", atoms=((2, 0.25),))
    assert atoms != dens and aggregate(atoms) == aggregate(atoms.weighted(unit_field(root, [1.0] * 4)))
