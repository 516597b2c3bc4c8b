"""Exponent bookkeeping and Morrey-type norm scans."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtl import (
    BadExponent,
    NonFinite,
    CubeAddr,
    ExponentProfile,
    LeafField,
    LeafMeasure,
    RootSpec,
    aggregate,
    lebesgue_measure,
    lebesgue_norm,
    modified_morrey_norm,
    morrey_norm,
    product_morrey_norm,
    radon_morrey_norm,
)
from dtl.norms import SupResult, localized_maximal_integrals, maximal_testing_sup


def unit_field(root, values):
    return LeafField(root, np.asarray(values, dtype=float))


def random_field(root, seed, high=2.0):
    rng = np.random.default_rng(seed)
    return LeafField(root, rng.uniform(0.0, high, root.leaf_count))


def random_density(root, seed):
    rng = np.random.default_rng(seed)
    return LeafMeasure(root, "density", density=rng.uniform(0.1, 3.0, root.leaf_count))


# ---- exponent profile ----


def test_profile_worked_example():
    prof = ExponentProfile(m=2, n=2, alpha=1.0, beta=0.5, p_vec=(2.4, 2.4), p0=1.5)
    assert prof.p == pytest.approx(1.2)
    assert prof.theta == pytest.approx(2.5)
    assert prof.q == pytest.approx(3.0)
    assert prof.q0 == pytest.approx(3.75)


def test_profile_guards():
    with pytest.raises(BadExponent):  # beta above alpha
        ExponentProfile(m=1, n=1, alpha=0.3, beta=0.4, p_vec=(2.0,), p0=1.5)
    with pytest.raises(BadExponent):  # p0 below p
        ExponentProfile(m=1, n=1, alpha=0.5, beta=0.25, p_vec=(1.6,), p0=1.2)
    with pytest.raises(BadExponent):  # alpha p0 reaches n
        ExponentProfile(m=1, n=1, alpha=0.5, beta=0.25, p_vec=(1.6,), p0=2.0)
    with pytest.raises(BadExponent):  # component exponent at 1
        ExponentProfile(m=2, n=1, alpha=0.5, beta=0.25, p_vec=(1.0, 2.0), p0=1.5)
    with pytest.raises(BadExponent):  # alpha at m n
        ExponentProfile(m=1, n=1, alpha=1.0, beta=0.5, p_vec=(4.0,), p0=1.5)
    with pytest.raises(BadExponent):  # bump exponent must exceed 1
        ExponentProfile(m=1, n=1, alpha=0.5, beta=0.25, p_vec=(1.6,), p0=1.8, r=1.0)


def test_profile_defaults():
    one = ExponentProfile.default(1, 1)
    assert one.p_vec == (1.6,)
    assert one.p0 == 1.8
    assert one.alpha == 0.5
    assert one.beta == 0.25

    two = ExponentProfile.default(2, 1)
    assert two.p_vec == (2.4, 2.4)
    assert two.p == pytest.approx(1.2)
    assert two.p0 == 1.5
    assert two.theta == pytest.approx(2.5)
    assert two.q == pytest.approx(3.0)
    assert two.q0 == pytest.approx(3.75)

    low = ExponentProfile.default(2, 1, low_p=True)
    assert low.p == pytest.approx(0.9)
    assert low.p_vec == (1.8, 1.8)


def test_profile_with_dim_keeps_theta():
    base = ExponentProfile.default(2, 1)
    scaled = base.with_dim(2)
    assert scaled.n == 2
    assert scaled.alpha == pytest.approx(1.0)
    assert scaled.beta == pytest.approx(0.5)
    assert scaled.theta == pytest.approx(base.theta)


def test_profile_doc_roundtrip():
    prof = ExponentProfile.default(2, 2)
    back = ExponentProfile.from_doc(prof.to_doc())
    assert back == prof
    # an integral exponent written as a JSON integer reads as a float
    doc = {**ExponentProfile.default(2, 2).to_doc(), "alpha": 1, "p_vec": [2, 2]}
    del doc["p"]
    back = ExponentProfile.from_doc(doc)
    assert back.to_doc()["alpha"] == 1.0 and type(back.alpha) is float
    assert back.p_vec == (2.0, 2.0)


def test_profile_conjugates():
    prof = ExponentProfile(m=1, n=1, alpha=0.4, beta=0.2, p_vec=(2.0,), p0=2.0)
    assert prof.p_conjugate == pytest.approx(2.0)
    prof = ExponentProfile(m=1, n=1, alpha=0.4, beta=0.2, p_vec=(1.5,), p0=1.5)
    assert prof.p_conjugate == pytest.approx(3.0)


# ---- norms ----


def test_lebesgue_norm_examples():
    root = RootSpec(1, 2)
    ones = unit_field(root, np.ones(4))
    assert lebesgue_norm(ones, 2.0) == pytest.approx(1.0)
    quarter = unit_field(root, [1.0, 0.0, 0.0, 0.0])
    assert lebesgue_norm(quarter, 2.0) == pytest.approx(0.5)
    atom = LeafMeasure(root, "atomic", atoms=((2, 1.0),))
    assert lebesgue_norm(ones, 2.0, mu=atom) == pytest.approx(1.0)
    with pytest.raises(BadExponent):
        lebesgue_norm(ones, 0.0)


def test_lebesgue_norm_matches_oracle():
    for seed in range(10):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        f = random_field(root, seed)
        p = (0.7, 1.0, 2.5)[seed % 3]
        assert lebesgue_norm(f, p) == pytest.approx(
            oracles.lebesgue_norm(f, p), rel=1e-12
        )
        mu = random_density(root, seed + 30)
        assert lebesgue_norm(f, p, mu=mu) == pytest.approx(
            oracles.lebesgue_norm(f, p, mu=mu), rel=1e-12
        )


def test_morrey_norm_spike_witness():
    root = RootSpec(1, 3)
    spike = unit_field(root, [1.0] + [0.0] * 7)
    res = morrey_norm(spike, 2.0, 4.0)
    assert float(res) == pytest.approx(2.0 ** -0.75)
    assert res.witness == CubeAddr(3, (0,))


def test_morrey_norm_flat_and_tie_break():
    root = RootSpec(1, 3)
    ones = unit_field(root, np.ones(8))
    res = morrey_norm(ones, 2.0, 4.0)
    assert float(res) == pytest.approx(1.0)
    assert res.witness == root.root_cube()
    # p = p0 collapses the cube weight, so every ancestor of the spike
    # ties and the scan must keep the smallest level
    spike = unit_field(root, [2.0] + [0.0] * 7)
    res = morrey_norm(spike, 2.0, 2.0)
    assert res.witness == root.root_cube()


def test_morrey_norm_matches_oracle():
    for seed in range(10):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        f = random_field(root, seed)
        p, p0 = ((1.0, 2.0), (2.0, 3.0), (0.8, 1.1))[seed % 3]
        assert float(morrey_norm(f, p, p0)) == pytest.approx(
            oracles.morrey_norm(f, p, p0), rel=1e-12
        )


def test_morrey_homogeneity():
    root = RootSpec(1, 3)
    f = random_field(root, 4)
    base = float(morrey_norm(f, 1.5, 2.5))
    assert float(morrey_norm(f.scaled(3.0), 1.5, 2.5)) == pytest.approx(3.0 * base, rel=1e-13)


def test_product_morrey_reduces_to_morrey():
    root = RootSpec(1, 3)
    f = random_field(root, 6)
    prof = ExponentProfile.default(1, 1)
    assert float(product_morrey_norm([f], prof)) == pytest.approx(
        float(morrey_norm(f, prof.p, prof.p0)), rel=1e-12
    )


def test_product_morrey_matches_oracle():
    prof = ExponentProfile.default(2, 1)
    root = RootSpec(1, 3)
    for seed in range(8):
        fields = [random_field(root, seed), random_field(root, seed + 11)]
        want = oracles.product_morrey_norm(fields, prof.p_vec, prof.p, prof.p0)
        assert float(product_morrey_norm(fields, prof)) == pytest.approx(want, rel=1e-12)


def test_radon_morrey_reduces_to_weighted_lebesgue():
    root = RootSpec(1, 3)
    g = random_field(root, 8)
    mu = random_density(root, 9)
    assert float(radon_morrey_norm(g, 2.0, 2.0, mu)) == pytest.approx(
        lebesgue_norm(g, 2.0, mu=mu), rel=1e-12
    )


def test_radon_morrey_matches_oracle():
    root = RootSpec(1, 3)
    for seed in range(8):
        g = random_field(root, seed)
        if seed % 2:
            mu = random_density(root, seed + 17)
        else:
            mu = LeafMeasure(root, "atomic", atoms=((seed % 8, 1.0), (7 - seed % 8, 0.5)))
        want = oracles.radon_morrey_norm(g, 3.0, 3.75, mu)
        assert float(radon_morrey_norm(g, 3.0, 3.75, mu)) == pytest.approx(
            want, rel=1e-12, abs=1e-15
        )


def test_testing_sup_examples():
    root = RootSpec(1, 3)
    dx = aggregate(lebesgue_measure(root))
    res = maximal_testing_sup(dx, 0.5, 2.0)
    assert float(res) == pytest.approx(1.0)
    assert res.witness == root.root_cube()

    atom = aggregate(LeafMeasure(root, "atomic", atoms=((0, 1.0),)))
    res = maximal_testing_sup(atom, 0.5, 2.0)
    assert float(res) == pytest.approx(math.sqrt(2.5))
    assert res.witness == root.root_cube()

    zero = aggregate(LeafMeasure(root, "atomic", atoms=()))
    assert float(maximal_testing_sup(zero, 0.5, 2.0)) == 0.0


def test_testing_sup_matches_oracle():
    for seed in range(6):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        mu = random_density(root, seed)
        want = oracles.testing_sup(
            mu.leaf_masses(), dim, depth, 0.4 * dim, 2.0, root.leaf_volume
        )
        got = float(maximal_testing_sup(aggregate(mu), 0.4 * dim, 2.0))
        assert got == pytest.approx(want, rel=1e-12)


# equal entries make ties between cubes; zeros make zero-mass cubes
_LEAF_MASS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 0.5, 3.0, 1e-3, 0.7])


@st.composite
def _testing_measure(draw):
    dim = draw(st.integers(1, 2))
    depth = draw(st.integers(0, 6 if dim == 1 else 5))
    root = RootSpec(dim, depth)
    palette = draw(st.lists(_LEAF_MASS, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        density = rng.choice(palette, root.leaf_count)
        if draw(st.booleans()):
            density = density * rng.uniform(0.5, 2.0, root.leaf_count)
        return LeafMeasure(root, "density", density=density)
    leaves = rng.integers(0, root.leaf_count, draw(st.integers(0, 6)))
    atoms = tuple((int(leaf), float(rng.choice(palette))) for leaf in leaves)
    return LeafMeasure(root, "atomic", atoms=atoms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_testing_measure())
def test_testing_sup_bits_match_per_cube_oracle(mu):
    root = mu.root
    dim, depth = root.dim, root.depth
    agg = aggregate(mu)
    for beta in (0.0, 0.25 * dim, 0.5 * dim, 0.9 * dim):
        for p in (1.2, 2.0, 3.0):
            want = oracles.localized_numerators(mu.leaf_masses(), dim, depth, beta, p)
            value, (level, index) = oracles.testing_sup_per_cube(want, dim, depth, p)
            res = maximal_testing_sup(agg, beta, p)
            assert res.value == value
            assert res.witness == CubeAddr(level, index)
            got = localized_maximal_integrals(agg, beta, p)
            for (k, idx), (num, _) in want.items():
                assert got[k][idx] == num


def test_testing_sup_names_overflow():
    root = RootSpec(1, 2)
    mu = LeafMeasure(root, "atomic", atoms=((0, 1e308), (1, 1e308), (2, 1e300)))
    with np.errstate(over="ignore"):
        agg = aggregate(mu)
        with pytest.raises(NonFinite, match="testing functional overflows"):
            maximal_testing_sup(agg, 0.5, 1.2)
        # finite candidates whose p'-th powers overflow give an infinite sup
        big = LeafMeasure(root, "atomic", atoms=((0, 1e300),))
        res = maximal_testing_sup(aggregate(big), 0.5, 1.2)
    assert res.value == math.inf
    assert res.witness == root.root_cube()


def test_testing_sup_refuses_infinite_p():
    # p = inf makes p' = NaN, whose tables still scan to 1.0 for dx
    root = RootSpec(1, 3)
    dx = aggregate(lebesgue_measure(root))
    for fn in (maximal_testing_sup, localized_maximal_integrals):
        with pytest.raises(BadExponent, match="testing functional needs a finite p, got inf"):
            fn(dx, 0.5, math.inf)
    with pytest.raises(BadExponent, match="modified Morrey norm needs a finite p, got inf"):
        modified_morrey_norm(unit_field(root, np.ones(8)), math.inf, 0.5)


def _wide_mass(mantissa, exponent, ulps):
    value = mantissa * 10.0 ** exponent
    for _ in range(ulps):
        value = math.nextafter(value, math.inf)
    return value


@st.composite
def _wide_range_measure(draw):
    """Leaf masses at two magnitudes across 1e+-200, where the largest
    p'-th powers overflow: repeated entries make exact ties between
    cubes, entries a few ulps apart make near-ties, and zeros make
    zero-mass cubes."""
    dim = draw(st.integers(1, 3))
    root = RootSpec(dim, draw(st.integers(0, (7, 4, 2)[dim - 1])))
    exponents = draw(st.lists(st.integers(-200, 200), min_size=2, max_size=2))
    entry = st.builds(
        _wide_mass,
        st.sampled_from([0.0, 1.0, 0.5, 3.0]),
        st.sampled_from(exponents),
        st.integers(0, 2),
    )
    palette = draw(st.lists(entry, min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = rng.choice(palette, root.leaf_count)
    if draw(st.booleans()):
        density = density * rng.uniform(0.5, 2.0, root.leaf_count)
    return LeafMeasure(root, "density", density=density)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_wide_range_measure())
def test_testing_sup_bits_match_levelwise_oracle(mu):
    # the layout path powers every candidate before the max; that is exact
    # only while numpy's array power is nondecreasing, which this guards
    root = mu.root
    n = root.dim
    agg = aggregate(mu)
    for beta in (0.0, 0.25 * n, 0.5 * n, 0.9 * n):
        for p in (1.2, 1.7, 2.0, 3.0):
            with np.errstate(over="ignore"):
                nums, value, (level, index) = oracles.testing_sup_levelwise(
                    agg.levels, beta, p, root.leaf_volume
                )
                tables = localized_maximal_integrals(agg, beta, p)
                res = maximal_testing_sup(agg, beta, p)
            assert [t.tobytes() for t in tables] == [t.tobytes() for t in nums]
            assert res.value == value
            assert res.witness == CubeAddr(level, index)


def test_testing_sup_checks_beta_first():
    root = RootSpec(1, 2)
    zero = aggregate(LeafMeasure(root, "atomic", atoms=()))
    for beta in (-0.1, 1.0, 1.5):
        with pytest.raises(BadExponent, match="testing functional"):
            maximal_testing_sup(zero, beta, 2.0)


def test_modified_morrey_flat_and_oracle():
    root = RootSpec(1, 3)
    ones = unit_field(root, np.ones(8))
    assert float(modified_morrey_norm(ones, 2.0, 0.5)) == pytest.approx(1.0)
    for seed in range(4):
        f = random_field(root, seed, high=1.5)
        want = oracles.modified_morrey_norm(f, 2.0, 0.5)
        assert float(modified_morrey_norm(f, 2.0, 0.5)) == pytest.approx(want, rel=1e-12)


def test_nesting_and_lebesgue_identity():
    root = RootSpec(1, 3)
    for seed in range(6):
        f = random_field(root, seed)
        # ||f||_{M^{p0,p0}} is exactly the L^{p0} norm
        assert float(morrey_norm(f, 2.0, 2.0)) == pytest.approx(
            lebesgue_norm(f, 2.0), rel=1e-12
        )
        # smaller integrability exponent never increases the norm
        assert float(morrey_norm(f, 1.3, 2.0)) <= float(morrey_norm(f, 2.0, 2.0)) + 1e-12


def test_sup_result_float_coercion():
    res = SupResult(2.5, CubeAddr(0, (0,)))
    assert float(res) == 2.5
    assert res.value == 2.5
