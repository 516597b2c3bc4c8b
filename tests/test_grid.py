"""Grid addressing, leaf data containers, and exact tree aggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from dtl import (
    AtomicPowerUndefined,
    ComplexityRefusal,
    CubeAddr,
    IoFailure,
    LeafField,
    LeafMeasure,
    NegativeValue,
    NoParent,
    OutOfRangeCube,
    RootMismatch,
    RootSpec,
    ShapeMismatch,
    aggregate,
    cube_stats,
    enlarged_sum,
    ingest,
    lebesgue_measure,
    payload,
    read_input,
)
from dtl.grid import check_same_root, work_cap


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


def test_work_cap_env_override(monkeypatch):
    monkeypatch.setenv("DTL_WORK_CAP", "16")
    assert work_cap(2 ** 24) == 16
    with pytest.raises(ComplexityRefusal):
        RootSpec(1, 5)
    monkeypatch.setenv("DTL_WORK_CAP", "banana")
    with pytest.raises(Exception):
        work_cap(2 ** 24)


def test_cube_enumeration_matches_oracle():
    for dim, depth in ((1, 3), (2, 2), (3, 1)):
        root = RootSpec(dim, depth)
        got = [(c.level, c.index) for c in root.cubes()]
        assert got == oracles.all_cubes(dim, depth)
        assert len(got) == root.cube_count()


def test_cube_addr_geometry():
    cube = CubeAddr(2, (1, 3))
    assert cube.dim == 2
    assert cube.side == 0.25
    assert cube.volume == 0.0625
    assert cube.center == (0.375, 0.875)
    assert cube.parent() == CubeAddr(1, (0, 1))
    kids = cube.children()
    assert len(kids) == 4
    assert kids[0] == CubeAddr(3, (2, 6))
    # row-major: last axis varies fastest
    assert kids[1] == CubeAddr(3, (2, 7))
    assert kids[2] == CubeAddr(3, (3, 6))
    assert all(cube.contains(k) for k in kids)
    assert not kids[0].contains(cube)
    with pytest.raises(NoParent):
        CubeAddr(0, (0, 0)).parent()


def test_ancestor_chain_and_containment():
    root = RootSpec(1, 4)
    leaf = root.leaf_cube(11)
    chain = leaf.ancestors(include_self=True)  # nearest first
    assert chain[0] == leaf
    assert chain[-1] == root.root_cube()
    for below, above in zip(chain, chain[1:]):
        assert above.contains(below)
        assert below.parent() == above
    assert leaf.ancestor_at(2) == CubeAddr(2, (2,))


def test_leaf_linear_roundtrip():
    root = RootSpec(2, 3)
    for lin in range(root.leaf_count):
        assert root.leaf_linear(root.leaf_cube(lin)) == lin
    with pytest.raises(OutOfRangeCube):
        root.leaf_linear(CubeAddr(1, (0, 0)))
    with pytest.raises(OutOfRangeCube):
        root.validate_cube(CubeAddr(4, (0, 0)))
    with pytest.raises(OutOfRangeCube):
        root.validate_cube(CubeAddr(1, (0,)))


def test_leaf_slices_and_linears():
    root = RootSpec(1, 3)
    cube = CubeAddr(1, (1,))
    assert list(cube.leaf_linears(root)) == [4, 5, 6, 7]


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
    assert leb.total() == 1.0
    assert np.allclose(leb.leaf_masses(), 0.25)

    dens = LeafMeasure(root, "density", density=np.array([4.0, 0.0, 0.0, 0.0]))
    assert dens.total() == 1.0
    assert np.array_equal(dens.leaf_masses(), [1.0, 0.0, 0.0, 0.0])

    atoms = LeafMeasure(root, "atomic", atoms=((0, 0.5), (3, 0.25), (0, 0.25)))
    assert atoms.total() == 1.0
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
    assert weighted.total() == 3.0


def test_aggregate_parent_equals_child_sum_exactly():
    # bit-exact: parents are formed by summing child blocks in canonical order
    for dim in (1, 2):
        for seed in range(10):
            root = RootSpec(dim, 3)
            agg = aggregate(random_field(root, seed))
            for k in range(root.depth):
                parents = agg.level(k)
                kids = agg.level(k + 1)
                for idx in np.ndindex(parents.shape):
                    cube = CubeAddr(k, idx)
                    total = 0.0
                    for child in cube.children():
                        total += float(kids[child.index])
                    assert float(parents[idx]) == total


def test_aggregate_totals_and_sum_of():
    root = RootSpec(1, 3)
    f = unit_field(root, np.arange(8, dtype=float))
    agg = aggregate(f)
    assert agg.total == pytest.approx(sum(range(8)) / 8.0, rel=1e-15)
    cube = CubeAddr(1, (1,))
    assert agg.sum_of(cube) == pytest.approx((4 + 5 + 6 + 7) / 8.0, rel=1e-15)
    with pytest.raises(OutOfRangeCube):
        agg.level(4)


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


def test_payload_roundtrip():
    root = RootSpec(1, 2)
    f = unit_field(root, [1.0, 2.0, 3.0, 4.0])
    back = ingest(payload(f))
    assert isinstance(back, LeafField)
    assert np.array_equal(back.values, f.values)

    atoms = LeafMeasure(root, "atomic", atoms=((2, 0.5),))
    back = ingest(payload(atoms))
    assert isinstance(back, LeafMeasure)
    assert back.atoms == ((2, 0.5),)

    dens = LeafMeasure(root, "density", density=np.array([1.0, 1.0, 2.0, 2.0]))
    back = ingest(payload(dens))
    assert np.array_equal(back.density, dens.density)

    # JSON integers are numbers: they read as the floats they equal
    back = ingest({"dim": 2, "depth": 1, "kind": "density", "values": [[1, 2], [0, 3]]})
    assert back.density.tolist() == [1.0, 2.0, 0.0, 3.0]
    back = ingest({"dim": 1, "depth": 2, "kind": "atomic", "atoms": [[3, 2]]})
    assert back.atoms == ((3, 2.0),) and type(back.atoms[0][1]) is float


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
