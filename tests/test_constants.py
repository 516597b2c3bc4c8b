"""Testing constants, weight characteristics, and the condition-D ratio."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtl import (
    AtomicPowerUndefined,
    BadExponent,
    ComplexityRefusal,
    CubeAddr,
    ExponentProfile,
    KernelWeight,
    LeafField,
    LeafMeasure,
    RootSpec,
    ZeroMeasure,
    a0_constant,
    adams_constant,
    aggregate,
    ap_characteristic,
    condition_d_bound,
    condition_d_ratio,
    cq_constant,
    cq_supremum,
    hedberg_exponents,
    ks_testing_constant,
    lebesgue_measure,
    verify_sparse,
)
from dtl.constants import sparse_score_sup


def random_density(root, seed, low=0.1, high=3.0):
    rng = np.random.default_rng(seed)
    return LeafMeasure(root, "density", density=rng.uniform(low, high, root.leaf_count))


def random_atoms(root, seed, count=3):
    rng = np.random.default_rng(seed)
    where = rng.choice(root.leaf_count, size=count, replace=False)
    masses = rng.uniform(0.25, 2.0, count)
    return LeafMeasure(
        root, "atomic", atoms=tuple((int(i), float(w)) for i, w in zip(where, masses))
    )


def test_hedberg_exponents_worked_example():
    prof = ExponentProfile(m=2, n=2, alpha=1.0, beta=0.5, p_vec=(2.4, 2.4), p0=1.5)
    theta, q, q0 = hedberg_exponents(prof)
    assert theta == pytest.approx(2.5)
    assert q == pytest.approx(3.0)
    assert q0 == pytest.approx(3.75)


def test_adams_examples_and_oracle():
    root = RootSpec(1, 3)
    dx = aggregate(lebesgue_measure(root))
    rep = adams_constant(dx, 0.5)
    assert rep.value == pytest.approx(1.0)
    assert rep.witness == root.root_cube()

    atom = LeafMeasure(root, "atomic", atoms=((0, 1.0),))
    rep = adams_constant(aggregate(atom), 0.5)
    assert rep.value == pytest.approx(2.0 ** 1.5)
    assert rep.witness == CubeAddr(3, (0,))

    for seed in range(8):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        r = RootSpec(dim, depth)
        mu = random_density(r, seed)
        beta = (0.3, 0.8)[seed % 2] * dim
        assert adams_constant(aggregate(mu), beta).value == pytest.approx(
            oracles.adams_constant(mu, beta), rel=1e-12
        )


def test_ks_examples():
    root = RootSpec(1, 3)
    assert ks_testing_constant(aggregate(lebesgue_measure(root)), 0.5, 2.0).value == pytest.approx(1.0)
    atom = aggregate(LeafMeasure(root, "atomic", atoms=((0, 1.0),)))
    rep = ks_testing_constant(atom, 0.5, 2.0)
    assert rep.value == pytest.approx(math.sqrt(2.5))
    assert rep.witness == root.root_cube()
    empty = aggregate(LeafMeasure(root, "atomic", atoms=()))
    assert ks_testing_constant(empty, 0.5, 2.0).value == 0.0


def test_ks_matches_oracle():
    for seed in range(5):
        root = RootSpec(1, 3)
        mu = random_density(root, seed)
        want = oracles.testing_sup(mu.leaf_masses(), 1, 3, 0.5, 2.0, root.leaf_volume)
        assert ks_testing_constant(aggregate(mu), 0.5, 2.0).value == pytest.approx(want, rel=1e-12)


def test_a0_weight_examples():
    root = RootSpec(1, 3)
    prof = ExponentProfile.default(1, 1)  # beta 0.25, p 1.6
    rep = a0_constant(lebesgue_measure(root), prof, "weight-a")
    assert rep.value == pytest.approx(1.0)
    assert rep.witness == root.root_cube()

    atom = LeafMeasure(root, "atomic", atoms=((0, 1.0),))
    rep = a0_constant(atom, prof, "weight-a")
    # candidates 2^(k(1/p - beta)) grow toward the leaf
    assert rep.value == pytest.approx(2.0 ** (3 * (1.0 / 1.6 - 0.25)))
    assert rep.witness == CubeAddr(3, (0,))


def test_a0_bump_examples():
    root = RootSpec(1, 3)
    prof = ExponentProfile.default(1, 1)
    flat = LeafMeasure(root, "density", density=np.ones(8))
    assert a0_constant(flat, prof, "bump-b", r=2.0).value == pytest.approx(1.0)
    atom = LeafMeasure(root, "atomic", atoms=((0, 1.0),))
    with pytest.raises(AtomicPowerUndefined):
        a0_constant(atom, prof, "bump-b", r=2.0)


def test_a0_forms_match_oracle():
    root = RootSpec(1, 3)
    prof = ExponentProfile.default(2, 1)
    kern = KernelWeight.canonical(prof.alpha, prof.m, 1)
    kfn = lambda level: kern.at_level(level, 1)
    for seed in range(6):
        mu = random_density(root, seed)
        for form in ("weight-a", "bump-b", "sparse-a", "sparse-b"):
            got = a0_constant(mu, prof, form, kernel=kern, r=2.0).value
            want = oracles.a0_constant(
                mu, form, prof.beta, prof.p, kernel=kfn, m=prof.m, r=2.0
            )
            assert got == pytest.approx(want, rel=1e-12)
        atoms = random_atoms(root, seed + 60)
        for form in ("weight-a", "sparse-a"):
            got = a0_constant(atoms, prof, form, kernel=kern).value
            want = oracles.a0_constant(atoms, form, prof.beta, prof.p, kernel=kfn, m=prof.m)
            assert got == pytest.approx(want, rel=1e-12)


def test_ap_examples():
    root = RootSpec(1, 2)
    ones = LeafField(root, np.ones(4))
    assert ap_characteristic(ones, 2.0).value == pytest.approx(1.0)

    steps = LeafField(root, np.array([2.0, 2.0, 1.0, 1.0]))
    rep = ap_characteristic(steps, 2.0)
    assert rep.value == pytest.approx(1.125)
    assert rep.witness == root.root_cube()

    holed = LeafField(root, np.array([1.0, 0.0, 1.0, 1.0]))
    rep = ap_characteristic(holed, 2.0)
    assert math.isinf(rep.value)
    assert rep.witness is None

    with pytest.raises(BadExponent):
        ap_characteristic(ones, 1.0)


def test_ap_monotone_and_infinity_mode():
    root = RootSpec(1, 3)
    rng = np.random.default_rng(13)
    w = LeafField(root, rng.uniform(0.5, 4.0, 8))
    vals = [ap_characteristic(w, p).value for p in (2.0, 4.0, 8.0, 64.0)]
    assert vals == sorted(vals, reverse=True)
    inf_rep = ap_characteristic(w, "infinity")
    assert inf_rep.value == pytest.approx(ap_characteristic(w, 64.0).value, rel=1e-15)
    assert inf_rep.mode == "infinity-estimate"
    assert all(v >= 1.0 for v in vals)


def test_ap_matches_oracle():
    for seed in range(6):
        root = RootSpec(1, 3)
        rng = np.random.default_rng(seed)
        w = LeafField(root, rng.uniform(0.2, 5.0, 8))
        assert ap_characteristic(w, 2.0).value == pytest.approx(
            oracles.ap_characteristic(w, 2.0), rel=1e-12
        )


def test_cq_single_cube_tree():
    root = RootSpec(1, 0)
    mu = aggregate(lebesgue_measure(root))
    kern = KernelWeight.canonical(0.5, 1, 1)
    for mode in ("greedy", "exhaustive", "bound"):
        rep = cq_constant(mu, kern, 2.0, root.root_cube(), mode=mode)
        assert rep.value == pytest.approx(1.0)
    rep = cq_constant(mu, kern, 2.0, root.root_cube(), mode="given", family=(root.root_cube(),))
    assert rep.value == pytest.approx(1.0)


def test_cq_given_matches_direct_formula():
    root = RootSpec(1, 2)
    mu = random_density(root, 21)
    kern = KernelWeight.canonical(0.5, 1, 1)
    base = root.root_cube()
    fam = (base, CubeAddr(2, (3,)))
    rep = cq_constant(aggregate(mu), kern, 2.0, base, mode="given", family=fam)

    masses = mu.leaf_masses()
    total = 0.0
    for member in fam:
        inner = 0.0
        for cube in oracles.all_cubes(1, 2):
            if oracles.contains((member.level, member.index), cube):
                inner += (
                    kern.at_level(cube[0], 1)
                    * oracles.cube_volume(cube, 1)
                    * oracles.masses_in_cube(masses, 1, 2, cube)
                )
        total += (member.volume ** -0.5 * inner) ** 2.0
    want = (total / oracles.masses_in_cube(masses, 1, 2, (0, (0,)))) ** 0.5
    assert rep.value == pytest.approx(want, rel=1e-12)


def test_cq_greedy_below_exhaustive():
    kern = KernelWeight.canonical(0.5, 1, 1)
    for seed in range(12):
        root = RootSpec(1, 3)
        mu = aggregate(random_density(root, seed) if seed % 2 else random_atoms(root, seed))
        greedy = cq_constant(mu, kern, 2.0, root.root_cube(), mode="greedy").value
        exact = cq_constant(mu, kern, 2.0, root.root_cube(), mode="exhaustive").value
        assert greedy <= exact * (1.0 + 1e-12)


def test_cq_refusals():
    kern = KernelWeight.canonical(0.5, 1, 1)
    root = RootSpec(1, 4)
    mu = aggregate(lebesgue_measure(root))
    with pytest.raises(ComplexityRefusal):
        cq_constant(mu, kern, 2.0, root.root_cube(), mode="exhaustive")
    small = RootSpec(1, 2)
    empty = aggregate(LeafMeasure(small, "atomic", atoms=()))
    with pytest.raises(ZeroMeasure):
        cq_constant(empty, kern, 2.0, small.root_cube())


def test_sparse_score_sup_modes():
    root = RootSpec(1, 2)
    rng = np.random.default_rng(5)
    tables = [rng.uniform(0.0, 1.0, (1 << k,)) for k in range(3)]
    best_greedy, fam_greedy = sparse_score_sup(root, tables, root.root_cube(), "greedy")
    best_exh, fam_exh = sparse_score_sup(root, tables, root.root_cube(), "exhaustive")
    assert best_greedy <= best_exh + 1e-15
    assert verify_sparse(root, fam_greedy).is_sparse
    assert verify_sparse(root, fam_exh).is_sparse
    # a given family is just summed over the region
    only = (CubeAddr(1, (0,)),)
    got, kept = sparse_score_sup(root, tables, CubeAddr(1, (0,)), "given", family=only)
    assert kept == only
    assert got == pytest.approx(float(tables[1][0]))


# exact ties, zeros and extreme magnitudes, mixed with arbitrary scores
_SCORE = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e-200, 1e200]),
    st.floats(min_value=0.0, max_value=1e200),
)


@st.composite
def _score_search(draw, max_cubes):
    """(root, score tables, region) with at most max_cubes cubes in the
    region's subtree; tables draw from a small palette so ties are common."""
    dim = draw(st.integers(1, 2))
    depth = draw(st.integers(0, 4))
    root = RootSpec(dim, depth)
    levels = [
        t for t in range(depth + 1)
        if sum(1 << (dim * u) for u in range(depth - t + 1)) <= max_cubes
    ]
    level = draw(st.sampled_from(levels))
    index = tuple(draw(st.integers(0, (1 << level) - 1)) for _ in range(dim))
    palette = np.array(draw(st.lists(_SCORE, min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tables = [
        palette[rng.integers(0, palette.size, (1 << k,) * dim)]
        for k in range(depth + 1)
    ]
    return root, tables, CubeAddr(level, index)


def _check_against_oracle(case, mode, oracle):
    root, tables, region = case
    best, family = sparse_score_sup(root, tables, region, mode)
    want_best, want_family = oracle(
        root.dim, root.depth, tables, (region.level, region.index)
    )
    assert best == want_best
    assert tuple((c.level, c.index) for c in family) == want_family
    assert verify_sparse(root, family).is_sparse


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_score_search(max_cubes=85))
def test_greedy_family_search_matches_oracle(case):
    _check_against_oracle(case, "greedy", oracles.greedy_family_sup)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_score_search(max_cubes=15))
def test_exhaustive_family_search_matches_oracle(case):
    _check_against_oracle(case, "exhaustive", oracles.exhaustive_family_sup)


def test_cq_supremum_matches_cube_scan():
    for root, seed in ((RootSpec(1, 4), 3), (RootSpec(2, 2), 4)):
        kern = KernelWeight.canonical(0.5, 1, root.dim)
        for mu in (random_density(root, seed), random_atoms(root, seed)):
            muagg = aggregate(mu)
            best, witness = 0.0, None
            for cube in root.cubes():
                if muagg.sum_of(cube) > 0:
                    value = cq_constant(muagg, kern, 2.5, cube).value
                    if value > best:
                        best, witness = value, cube
            rep = cq_supremum(muagg, kern, 2.5)
            assert (rep.value, rep.witness) == (best, witness)
    big = RootSpec(1, 9)
    with pytest.raises(ComplexityRefusal):
        cq_supremum(aggregate(lebesgue_measure(big)), KernelWeight.canonical(0.5, 1, 1), 2.0)


def test_condition_d_examples():
    prof2 = ExponentProfile(m=2, n=2, alpha=1.0, beta=0.5, p_vec=(2.4, 2.4), p0=1.5)
    kern = KernelWeight.canonical(1.0, 2, 2)
    assert condition_d_ratio(kern, prof2, RootSpec(2, 5).root_cube()) == 0.0
    deep = CubeAddr(5, (0, 0))
    want = sum(2.0 ** (-d / 3.0) for d in range(1, 6))
    assert condition_d_ratio(kern, prof2, deep) == pytest.approx(want, rel=1e-12)
    assert condition_d_ratio(kern, prof2, deep) <= condition_d_bound(prof2)


def test_condition_d_matches_oracle_and_bound():
    prof = ExponentProfile.default(2, 1)
    kern = KernelWeight.canonical(prof.alpha, prof.m, 1)
    kfn = lambda level: kern.at_level(level, 1)
    bound = condition_d_bound(prof)
    for level in range(1, 6):
        cube = CubeAddr(level, (0,))
        got = condition_d_ratio(kern, prof, cube)
        want = oracles.condition_d_ratio(kfn, prof.m, prof.p0, 1, (level, (0,)))
        assert got == pytest.approx(want, rel=1e-12)
        assert got <= bound


def test_condition_d_decay_enforced_upstream():
    # profiles with alpha*p0 >= n never construct, so the series always decays
    with pytest.raises(BadExponent):
        ExponentProfile(m=2, n=1, alpha=0.9, beta=0.5, p_vec=(2.4, 2.4), p0=1.2)
