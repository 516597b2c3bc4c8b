"""Sparse families, corona forests, and their packing certificates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtl import (
    CubeAddr,
    LeafField,
    LeafMeasure,
    OutsideRoot,
    RootSpec,
    ZeroMeasure,
    aggregate,
    build_principal_cubes,
    build_sparse_family,
    classify_children,
    corona_projection,
    sparse_dominate,
    stopping_parent,
    verify_sparse,
)
from dtl.generators import generate_input


def unit_field(root, values):
    return LeafField(root, np.asarray(values, dtype=float))


def random_field(root, seed, high=2.0):
    rng = np.random.default_rng(seed)
    return LeafField(root, rng.uniform(0.0, high, root.leaf_count))


def spiky_field(root, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, root.leaf_count)
    hot = rng.choice(root.leaf_count, size=max(1, root.leaf_count // 8), replace=False)
    vals[hot] += rng.uniform(4.0, 64.0, hot.size)
    return LeafField(root, vals)


def leaves_of(root, cube):
    return set(cube.leaf_linears(root))


# ---- sparsity certificates ----


def test_verify_sparse_trivial_and_chain():
    root = RootSpec(1, 2)
    only_root = verify_sparse(root, (root.root_cube(),))
    assert only_root.is_sparse
    assert only_root.carleson == pytest.approx(1.0)

    chain = (root.root_cube(), CubeAddr(1, (0,)), CubeAddr(2, (0,)))
    cert = verify_sparse(root, chain)
    assert cert.is_sparse
    assert cert.carleson == pytest.approx(1.75)
    assert cert.violations == ()


def test_verify_sparse_rejects_dense_family():
    root = RootSpec(1, 2)
    cert = verify_sparse(root, tuple(root.cubes()))
    assert not cert.is_sparse
    assert cert.carleson == pytest.approx(3.0)
    assert len(cert.violations) > 0


def test_exceptional_sets_disjoint_and_large():
    root = RootSpec(1, 3)
    for seed in range(25):
        fields = [spiky_field(root, seed + 100 * i) for i in range(1 + seed % 2)]
        fam = build_sparse_family([aggregate(f) for f in fields], root.root_cube())
        cert = fam.certificate
        assert cert.is_sparse
        assert cert.carleson <= 2.0 + 1e-12
        seen = set()
        for member in fam.cubes:
            e_set = set(cert.e_leaves[member])
            owned = leaves_of(root, member)
            assert e_set <= owned
            # eq-style half bound with integer leaf counts
            assert 2 * len(e_set) >= len(owned)
            assert not (seen & e_set)
            seen |= e_set


def test_sparse_spike_family_frozen():
    root = RootSpec(1, 3)
    f = unit_field(root, [8.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    fam = build_sparse_family([aggregate(f)], root.root_cube())
    assert set(fam.cubes) == {root.root_cube(), CubeAddr(2, (0,))}


def test_sparse_zero_product_keeps_base():
    root = RootSpec(1, 3)
    zero = unit_field(root, np.zeros(8))
    fam = build_sparse_family([aggregate(zero)], root.root_cube())
    assert fam.cubes == (root.root_cube(),)


def test_sparse_stopping_parent_product_bound():
    # non-members never beat 2^m times the product average at their parent
    for seed in range(15):
        root = RootSpec(1, 4)
        m = 1 + seed % 2
        fields = [spiky_field(root, seed + 31 * i) for i in range(m)]
        aggs = [aggregate(f) for f in fields]
        fam = build_sparse_family(aggs, root.root_cube())
        members = set(fam.cubes)
        for cube in root.cubes():
            anc = cube
            while anc not in members:
                anc = anc.parent()
            xbar = 1.0
            xbar_parent = 1.0
            for agg in aggs:
                xbar *= agg.sum_of(cube) / cube.volume
                xbar_parent *= agg.sum_of(anc) / anc.volume
            assert xbar <= (2.0 ** m) * xbar_parent * (1.0 + 1e-12)


def test_sparse_domination_pointwise_and_bound():
    for seed in range(12):
        root = RootSpec(1, 4)
        m = 1 + seed % 2
        aggs = [aggregate(spiky_field(root, seed + 7 * i)) for i in range(m)]
        alpha = 0.6
        dom = sparse_dominate(aggs, alpha)
        assert np.isfinite(dom.constant)
        assert dom.constant <= 2.0 ** m / (1.0 - 2.0 ** -alpha) + 1e-9


# ---- corona forests ----


def test_corona_spike_forest_frozen():
    root = RootSpec(1, 3)
    h = unit_field(root, [8.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    forest = build_principal_cubes(h, None, root.root_cube())
    assert forest.pair == "dx"
    assert set(forest.members) == {root.root_cube(), CubeAddr(2, (0,))}
    assert stopping_parent(forest, CubeAddr(3, (0,))) == CubeAddr(2, (0,))
    assert stopping_parent(forest, CubeAddr(1, (1,))) == root.root_cube()
    # members are their own stopping parents
    assert stopping_parent(forest, CubeAddr(2, (0,))) == CubeAddr(2, (0,))
    assert forest.generation[root.root_cube()] == 0
    assert forest.generation[CubeAddr(2, (0,))] == 1
    assert forest.children[root.root_cube()] == (CubeAddr(2, (0,)),)


def test_corona_outside_root_raises():
    root = RootSpec(1, 3)
    h = random_field(root, 0)
    forest = build_principal_cubes(h, None, CubeAddr(1, (0,)))
    with pytest.raises(OutsideRoot):
        stopping_parent(forest, CubeAddr(1, (1,)))


def test_corona_zero_mass_base_rejected():
    root = RootSpec(1, 2)
    h = random_field(root, 1)
    empty = LeafMeasure(root, "atomic", atoms=())
    with pytest.raises(ZeroMeasure):
        build_principal_cubes(h, empty, root.root_cube())


def test_corona_mu_pair_ignores_massless_cubes():
    root = RootSpec(1, 3)
    h = unit_field(root, [16.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    # all mass on the right half: left-half spikes can never stop
    nu = LeafMeasure(root, "atomic", atoms=((7, 1.0),))
    forest = build_principal_cubes(h, nu, root.root_cube())
    assert forest.pair == "mu"
    for member in forest.members:
        assert oracles.masses_in_cube(nu.leaf_masses(), 1, 3, (member.level, member.index)) > 0


def test_corona_stopping_average_bound():
    # the factor-2 average bound behind the stopping rule, dx and mu pairs
    for seed in range(15):
        root = RootSpec(1, 4)
        h = spiky_field(root, seed)
        if seed % 2:
            nu = None
            masses = [root.leaf_volume] * root.leaf_count
        else:
            nu = generate_input(root, "density-measure", seed + 5)
            masses = [float(w) for w in nu.leaf_masses()]
        forest = build_principal_cubes(h, nu, root.root_cube())
        for cube in root.cubes():
            qmass = oracles.masses_in_cube(masses, 1, 4, (cube.level, cube.index))
            if qmass <= 0.0:
                continue
            parent = stopping_parent(forest, cube)
            pmass = oracles.masses_in_cube(masses, 1, 4, (parent.level, parent.index))
            q_avg = sum(
                float(h.values[lin]) * masses[lin] for lin in cube.leaf_linears(root)
            ) / qmass
            p_avg = sum(
                float(h.values[lin]) * masses[lin] for lin in parent.leaf_linears(root)
            ) / pmass
            assert q_avg <= 2.0 * p_avg * (1.0 + 1e-12)


def test_corona_exceptional_half_bound():
    for seed in range(10):
        root = RootSpec(1, 4)
        forest = build_principal_cubes(spiky_field(root, seed), None, root.root_cube())
        for member in forest.members:
            e_set = set(forest.exceptional_leaves(member))
            owned = leaves_of(root, member)
            assert 2 * len(e_set) >= len(owned)


def test_classification_partitions_children():
    for seed in range(20):
        root = RootSpec(1, 4)
        g_forest = build_principal_cubes(
            spiky_field(root, seed), generate_input(root, "density-measure", seed), root.root_cube()
        )
        f_forest = build_principal_cubes(spiky_field(root, seed + 1000), None, root.root_cube())
        for g_cube in g_forest.members:
            cls = classify_children(g_forest, f_forest, g_cube)
            kids = set(g_forest.children[g_cube])
            buckets = [set(cls.at_child), set(cls.inside), set(cls.above), set(cls.remainder)]
            combined = set()
            for bucket in buckets:
                assert not (combined & bucket)
                combined |= bucket
            assert combined == kids
            assert cls.remainder == ()


def test_classification_witnesses_point_home():
    root = RootSpec(1, 4)
    g_forest = build_principal_cubes(
        spiky_field(root, 3), generate_input(root, "density-measure", 3), root.root_cube()
    )
    f_forest = build_principal_cubes(spiky_field(root, 1003), None, root.root_cube())
    for g_cube in g_forest.members:
        cls = classify_children(g_forest, f_forest, g_cube)
        for child, witness in cls.witnesses.items():
            assert witness.contains(child)
            assert stopping_parent(g_forest, witness) == g_cube


def test_projection_preserves_integrals():
    root = RootSpec(1, 4)
    for seed in range(10):
        f = spiky_field(root, seed)
        g_forest = build_principal_cubes(
            spiky_field(root, seed + 55), generate_input(root, "density-measure", seed), root.root_cube()
        )
        f_forest = build_principal_cubes(f, None, root.root_cube())
        for g_cube in g_forest.members:
            cls = classify_children(g_forest, f_forest, g_cube)
            proj = corona_projection(f, g_forest, cls, g_cube)
            for cube in root.cubes():
                if not g_cube.contains(cube):
                    continue
                if stopping_parent(g_forest, cube) != g_cube:
                    continue
                want = oracles.field_integral(f, (cube.level, cube.index))
                got = oracles.field_integral(proj, (cube.level, cube.index))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---- level sweeps against the breadth-first oracles ----

# powers of two make exact ties with 2x (and 2^m x) a member's value common
_PALETTE = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0)


@st.composite
def _grids(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    root = RootSpec(dim, draw(st.sampled_from(range((7, 5, 3)[dim - 1]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = root.root_cube()
    if draw(st.booleans()):
        level = int(rng.integers(root.depth + 1))
        base = CubeAddr(level, tuple(int(i) for i in rng.integers(1 << level, size=dim)))
    return root, rng, base


def _palette_fields(root, rng, count, zero_rate):
    """Fields with palette values on a shared support, scaled by random
    powers of two (so ties survive) of a random range."""
    keep = rng.random(root.leaf_count) >= zero_rate
    top = rng.choice((1, 4, 12))
    return [
        LeafField(
            root,
            rng.choice(_PALETTE, size=root.leaf_count)
            * keep
            * 2.0 ** rng.integers(0, top, size=root.leaf_count),
        )
        for _ in range(count)
    ]


def _assert_certificate(cert, want):
    is_sparse, carleson, e_leaves, violations = want
    assert cert.is_sparse == is_sparse
    assert cert.carleson == carleson
    assert cert.violations == tuple(CubeAddr(k, i) for k, i in violations)
    assert [(c.level, c.index) for c in cert.e_leaves] == list(e_leaves)
    for got, leaves in zip(cert.e_leaves.values(), e_leaves.values()):
        assert got.dtype == np.int64
        assert got.tolist() == leaves


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grids(), st.integers(1, 3), st.sampled_from((0.0, 0.5, 0.9)))
def test_sparse_family_matches_bfs_oracle(grid, m, zero_rate):
    root, rng, base = grid
    aggs = [aggregate(f) for f in _palette_fields(root, rng, m, zero_rate)]
    fam = build_sparse_family(aggs, base)
    want = oracles.sparse_stopping_family(
        root.dim, root.depth, [a.levels for a in aggs], (base.level, base.index)
    )
    assert [(c.level, c.index) for c in fam.cubes] == want
    _assert_certificate(fam.certificate, oracles.sparse_certificate(root.dim, root.depth, want))


def _pair_measure(root, rng, kind):
    if kind == "dx":
        return None
    if kind == "density":
        dens = rng.choice(_PALETTE, size=root.leaf_count)
        dens[rng.random(root.leaf_count) < 0.5] = 0.0
        return LeafMeasure(root, "density", density=dens)
    # four atoms, leaves may repeat: most subtrees carry no mass
    leaves = rng.integers(root.leaf_count, size=4)
    return LeafMeasure(
        root, "atomic", atoms=tuple((int(i), float(rng.choice(_PALETTE[1:]))) for i in leaves)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_grids(), st.sampled_from(("dx", "density", "atomic")), st.sampled_from((0.0, 0.6)))
def test_corona_forest_matches_bfs_oracle(grid, kind, zero_rate):
    root, rng, base = grid
    (h,) = _palette_fields(root, rng, 1, zero_rate)
    nu = _pair_measure(root, rng, kind)
    if nu is not None and aggregate(nu).sum_of(base) <= 0:
        with pytest.raises(ZeroMeasure):
            build_principal_cubes(h, nu, base)
        return
    forest = build_principal_cubes(h, nu, base)
    if nu is None:
        tables = {}
    else:
        tables = {
            "mass_levels": aggregate(nu).levels,
            "weighted_levels": aggregate(nu.weighted(h)).levels,
        }
    members, generation, children, averages = oracles.corona_forest(
        root.dim, root.depth, aggregate(h).levels, (base.level, base.index), **tables
    )
    addr = lambda c: CubeAddr(*c)  # noqa: E731
    assert forest.members == tuple(map(addr, members))
    assert forest.generation == {addr(c): g for c, g in generation.items()}
    assert forest.children == {addr(c): tuple(map(addr, k)) for c, k in children.items()}
    assert forest.averages == {addr(c): v for c, v in averages.items()}
    for cube in root.cubes():
        want = oracles.smallest_member_containing(members, (cube.level, cube.index))
        if base.contains(cube):
            assert stopping_parent(forest, cube) == addr(want)
        else:
            with pytest.raises(OutsideRoot):
                stopping_parent(forest, cube)
    e_leaves = oracles.sparse_certificate(root.dim, root.depth, members)[2]
    for cube in forest.members:
        got = forest.exceptional_leaves(cube)
        assert got.dtype == np.int64
        assert got.tolist() == e_leaves[(cube.level, cube.index)]


@st.composite
def _families(draw):
    root, rng, _ = draw(_grids())
    cubes = list(root.cubes())
    shape = draw(st.sampled_from(("random", "duplicated", "dense", "empty")))
    if shape == "dense":
        return root, cubes
    if shape == "empty":
        return root, []
    picks = rng.integers(len(cubes), size=int(rng.integers(1, 2 * len(cubes) + 1)))
    family = [cubes[i] for i in picks]
    if shape == "duplicated":
        family += family[: len(family) // 2]
    return root, family


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_families())
def test_verify_sparse_matches_mask_oracle(case):
    root, family = case
    want = oracles.sparse_certificate(
        root.dim, root.depth, [(c.level, c.index) for c in family]
    )
    _assert_certificate(verify_sparse(root, family), want)


def test_stopping_is_strict_at_the_threshold():
    # the left half averages exactly twice the root (a tie, no stop); the
    # first leaf exceeds twice the root, its nearest member, and stops
    root = RootSpec(1, 2)
    h = unit_field(root, [4.0, 0.0, 0.0, 0.0])
    want = (root.root_cube(), CubeAddr(2, (0,)))
    assert build_principal_cubes(h, None, root.root_cube()).members == want
    assert build_sparse_family([aggregate(h)], root.root_cube()).cubes == want


def test_sparse_zero_product_base_stays_alone():
    # the second field vanishes on the base, so the product does too
    root = RootSpec(1, 3)
    base = CubeAddr(1, (1,))
    spike = unit_field(root, [0, 0, 0, 0, 64.0, 0, 0, 0])
    left = unit_field(root, [1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0])
    fam = build_sparse_family([aggregate(spike), aggregate(left)], base)
    assert fam.cubes == (base,)
    assert fam.certificate.is_sparse and fam.carleson == 1.0


# ---- CoronaForest contract ----


def test_corona_forest_builds_compare_equal():
    root = RootSpec(2, 3)
    h = spiky_field(root, 4)
    for nu in (None, generate_input(root, "density-measure", 4)):
        first = build_principal_cubes(h, nu, root.root_cube())
        second = build_principal_cubes(h, nu, root.root_cube())
        assert first == second
        assert len(first.members) > 1


def test_corona_non_root_base_keeps_outside_cubes_out():
    root = RootSpec(2, 3)
    base = CubeAddr(1, (1, 0))
    forest = build_principal_cubes(spiky_field(root, 8), None, base)
    assert forest.members[0] == base
    for cube in root.cubes():
        if base.contains(cube):
            assert base.contains(stopping_parent(forest, cube))
            continue
        assert not forest.is_member(cube)
        with pytest.raises(OutsideRoot):
            stopping_parent(forest, cube)
