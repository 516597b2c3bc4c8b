"""Exponent bookkeeping and Morrey-type norm scans."""

from __future__ import annotations

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtl import (
    BadExponent,
    NonFinite,
    CubeAddr,
    ExponentProfile,
    LabError,
    LeafField,
    LeafMeasure,
    RootSpec,
    a0_constant,
    aggregate,
    ap_characteristic,
    lebesgue_measure,
    lebesgue_norm,
    modified_morrey_norm,
    morrey_norm,
    product_morrey_norm,
    radon_morrey_norm,
)
import dtl.constants
import dtl.norms
from dtl.grid import power
from dtl.norms import (
    SupResult,
    localized_maximal_integrals,
    maximal_testing_sup,
    scan_sup,
    screen_high,
    screen_low,
    screened_sup,
)


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


def test_profile_with_dim_keeps_the_other_exponents_and_validates():
    base = ExponentProfile(m=2, n=1, alpha=0.5, beta=0.25, p_vec=(2.0, 3.0), p0=1.5, r=3.0)
    scaled = base.with_dim(3)
    assert (scaled.m, scaled.n, scaled.alpha, scaled.beta) == (2, 3, 1.5, 0.75)
    assert (scaled.p_vec, scaled.p0, scaled.r, scaled.p) == (base.p_vec, base.p0, 3.0, base.p)
    assert ExponentProfile(1, 1, 0.5, 0.25, (1.6,), 1.8).with_dim(2).r is None
    # the rescaled profile is checked again: n - alpha p0 scales with n
    alpha = (2.0 - 1.6e-12) / 1.25
    tight = ExponentProfile(m=1, n=2, alpha=alpha, beta=0.5, p_vec=(1.2,), p0=1.25)
    with pytest.raises(BadExponent, match="too close to n"):
        tight.with_dim(1)


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


def test_lebesgue_norm_refuses_infinite_p():
    # the L^inf norm of f = 0.5 is 0.5, not 1.0, and f = 2 must not be
    # blamed on its (finite) leaf values
    root = RootSpec(1, 3)
    for value in (0.5, 2.0):
        with pytest.raises(BadExponent, match="finite"):
            lebesgue_norm(unit_field(root, np.full(8, value)), np.inf)


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
        with pytest.raises(NonFinite, match=r"overflows: some cube's mass times side\^"):
            maximal_testing_sup(agg, 0.5, 1.2)
    # finite candidates whose p'-th powers overflow name the power, with
    # no RuntimeWarning on the way
    big = aggregate(LeafMeasure(root, "atomic", atoms=((0, 1e300),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (maximal_testing_sup, localized_maximal_integrals):
            with pytest.raises(NonFinite, match="candidate to the power 6.0"):
                fn(big, 0.5, 1.2)


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
    # only while grid.power is nondecreasing, which this guards here and
    # test_grid.py::test_power_is_nondecreasing_in_its_base directly
    # where some candidate's p'-th power overflows, both raise NonFinite
    # naming the power instead
    root = mu.root
    n = root.dim
    agg = aggregate(mu)
    for beta in (0.0, 0.25 * n, 0.5 * n, 0.9 * n):
        for p in (1.2, 1.7, 2.0, 3.0):
            with np.errstate(over="ignore"):
                overflow = not all(
                    np.isfinite(power(level * 2.0 ** (k * (n - beta)), p / (p - 1))).all()
                    for k, level in enumerate(agg.levels)
                )
                nums, value, (level, index) = oracles.testing_sup_levelwise(
                    agg.levels, beta, p, root.leaf_volume
                )
            if overflow:
                for fn in (localized_maximal_integrals, maximal_testing_sup):
                    with pytest.raises(NonFinite, match="candidate to the power"):
                        fn(agg, beta, p)
                continue
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


@st.composite
def _sup_tables(draw):
    """(root, per-level tables) over a small palette with -inf, drawn
    so that maxima tie inside and across levels; some levels constant."""
    dim = draw(st.integers(1, 3))
    root = RootSpec(dim, draw(st.integers(0, (5, 3, 2)[dim - 1])))
    values = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0])
    palette = np.array(draw(st.lists(values, min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tables = []
    for k in range(root.depth + 1):
        shape = (1 << k,) * dim
        if draw(st.booleans()):
            tables.append(np.full(shape, palette[draw(st.integers(0, palette.size - 1))]))
        else:
            tables.append(palette[rng.integers(0, palette.size, shape)])
    return root, tables


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sup_tables())
def test_scan_sup_matches_first_cube_scan(case):
    root, tables = case
    best, witness = -np.inf, root.root_cube()
    for level, index in oracles.all_cubes(root.dim, root.depth):
        value = float(tables[level][index])
        if value > best:
            best, witness = value, CubeAddr(level, index)
    res = scan_sup(root, np.concatenate([t.ravel() for t in tables]))
    assert (res.value, res.witness) == (best, witness)


def test_scan_sup_names_a_nan():
    # a NaN level used to be skipped whole: NaN > best is False
    with pytest.raises(NonFinite, match=r"CubeAddr\(level=1, index=\(0,\)\)"):
        scan_sup(RootSpec(1, 1), np.array([1.0, np.nan, 5.0]))
    with pytest.raises(NonFinite):
        scan_sup(RootSpec(2, 1), np.array([np.nan, 0.0, 0.0, 0.0, 0.0]))


def test_sup_result_float_coercion():
    res = SupResult(2.5, CubeAddr(0, (0,)))
    assert float(res) == 2.5
    assert res.value == 2.5


# ---- screen, then certify ----


@contextlib.contextmanager
def _screens_checked():
    """Screen at every grid size (the crossover set to 0) and hold every
    screened_sup call, from every module that binds it, to scan_sup over
    the full table: value bits, witness and NonFinite message.  Yields
    the list of checked calls."""
    calls = []

    def checked(root, inputs, table):
        def outcome(run):
            try:
                res = run()
            except NonFinite as exc:
                return str(exc), None
            return res.value.hex(), res.witness

        with np.errstate(all="ignore"):
            want = outcome(lambda: scan_sup(root, table(inputs, root.scaled, power)))
        got = outcome(lambda: screened_sup(root, inputs, table))
        assert got == want
        calls.append(root)
        if got[1] is None:
            raise NonFinite(got[0])
        return SupResult(float.fromhex(got[0]), got[1])

    saved = dtl.norms._SCREEN_CROSSOVER
    dtl.norms._SCREEN_CROSSOVER = 0
    dtl.norms.screened_sup = dtl.constants.screened_sup = checked
    try:
        yield calls
    finally:
        dtl.norms._SCREEN_CROSSOVER = saved
        dtl.norms.screened_sup = dtl.constants.screened_sup = screened_sup


# zeros, subnormals, the ends of the float range and ordinary values
_LEAF_VALUES = (0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.5, 1.0, 3.0, 1e12, 1e300)


@st.composite
def _screen_inputs(draw):
    """(root, f, g, mu): fields and a measure with ties (a constant field
    ties every cube of a level, and often every level), zeros, subnormal
    and 1e+-300 leaves, and atoms."""
    dim = draw(st.integers(1, 2))
    root = RootSpec(dim, draw(st.integers(0, 8 if dim == 1 else 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def leaves():
        kind = draw(st.sampled_from(("constant", "palette", "spread")))
        if kind == "constant":
            return np.full(root.leaf_count, draw(st.sampled_from(_LEAF_VALUES)))
        if kind == "palette":
            palette = draw(st.lists(st.sampled_from(_LEAF_VALUES), min_size=1, max_size=4))
            return np.array(palette)[rng.integers(0, len(palette), root.leaf_count)]
        return rng.uniform(0.0, 2.0, root.leaf_count) * 10.0 ** rng.integers(-3, 4, root.leaf_count)

    f, g = LeafField(root, leaves()), LeafField(root, leaves())
    if draw(st.booleans()):
        mu = LeafMeasure(root, "density", density=leaves())
    else:
        count = draw(st.integers(0, 4))
        atoms = tuple(
            (int(rng.integers(0, root.leaf_count)), draw(st.sampled_from(_LEAF_VALUES)))
            for _ in range(count)
        )
        mu = LeafMeasure(root, "atomic", atoms=atoms)
    return root, f, g, mu


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_screen_inputs(), st.sampled_from((1, 2)))
def test_screened_sups_match_full_scans(case, m):
    """Every layout sup (the three Morrey norms, the four a0 forms and
    the A_p characteristic) gives scan_sup's value, witness and NonFinite
    message over the full table when the screen runs at every size."""
    root, f, g, mu = case
    profile = ExponentProfile(
        m=m, n=root.dim, alpha=0.37 * root.dim, beta=0.21 * root.dim,
        p_vec=(2.3, 3.1)[:m], p0=2.5 if m == 1 else 1.9, r=1.7,
    )
    runs = [
        lambda: morrey_norm(f, 1.3, 2.1),
        lambda: product_morrey_norm([f, g][:m], profile),
        lambda: radon_morrey_norm(g, profile.q, profile.q0, mu),
        *(lambda form=form: a0_constant(mu, profile, form)
          for form in ("weight-a", "bump-b", "sparse-a", "sparse-b")),
    ]
    if mu.kind == "density":
        weight = LeafField(root, mu.density)
        runs += [lambda p=p: ap_characteristic(weight, p) for p in ("infinity", 2.5)]
    with _screens_checked() as calls, np.errstate(all="ignore"):
        for run in runs:
            with contextlib.suppress(LabError):  # refused before or inside a sup
                run()
    assert calls


_TABLE_ENTRIES = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, np.inf])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 2), st.integers(0, 7), st.integers(0, 2 ** 32 - 1),
    st.sampled_from((0.5, 1.0 / 1.6, 2.0, 63.0)), st.booleans(),
)
def test_screened_sup_matches_full_scan_on_nan_and_inf_tables(dim, depth, seed, e, ties):
    """Tables with NaN (0 * inf) and inf entries, ties and per-level
    constants across the float range: the levels that could hold them are
    always computed, so the first NaN is named and the first inf wins."""
    root = RootSpec(dim, min(depth, 4) if dim == 2 else depth)
    rng = np.random.default_rng(seed)
    n = root.cube_count()
    pick = (lambda: np.full(n, rng.choice(_TABLE_ENTRIES))) if ties else (
        lambda: _TABLE_ENTRIES[rng.integers(0, _TABLE_ENTRIES.size, n)]
    )
    inputs = [pick(), pick()]
    consts = [float(v) for v in 10.0 ** rng.integers(-300, 300, root.depth + 1)]

    def table(arrays, scaled, power):
        out = power(arrays[0], e)
        scaled(out, consts, out)
        return np.multiply(out, power(arrays[1], 1.0 / e), out)

    with _screens_checked() as calls, np.errstate(all="ignore"):
        with contextlib.suppress(NonFinite):
            dtl.norms.screened_sup(root, inputs, table)
    assert len(calls) == 1


def test_screen_skips_levels_that_cannot_hold_the_max(monkeypatch):
    # one spike: the max sits at the leaves, and no level above can reach
    # it, so the table is built over the leaves' prefix once; a field
    # whose max sits at the root builds the root level alone
    root = RootSpec(1, 14)
    raised = []

    def counted(base, exponent, out=None):
        raised.append(np.size(base))
        return power(base, exponent, out)

    monkeypatch.setattr(dtl.norms, "power", counted)
    flat = np.ones(root.leaf_count)
    assert morrey_norm(LeafField(root, flat), 2.0, 2.0).witness == root.root_cube()
    assert sum(raised) < 0.01 * root.cube_count()
    raised.clear()
    spike = flat.copy()
    spike[77] = 1e6
    res = morrey_norm(LeafField(root, spike), 1.5, 3.0)
    assert res.witness == root.leaf_cube(77)
    assert sum(raised) <= root.cube_count() + 2 * (root.depth + 1)


def test_screen_extends_past_a_loose_bound():
    # level 1's bound multiplies maxima from two different cubes, 10 * 10,
    # while its products are 0; the leaves' bound, 1, is lower but reaches
    # the best value of levels 0-1, so a second pass finds the leaves' 1
    root = RootSpec(1, 2)
    inputs = [np.array([0.0, 10.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
              np.array([0.0, 0.0, 10.0, 1.0, 1.0, 1.0, 1.0])]

    def table(arrays, scaled, power):
        return np.multiply(power(arrays[0], 1.5), power(arrays[1], 0.5))

    with _screens_checked() as calls:
        res = dtl.norms.screened_sup(root, inputs, table)
    assert (res.value, res.witness, len(calls)) == (1.0, CubeAddr(2, (0,)), 1)


def test_screen_tolerates_a_power_off_by_less_than_its_allowance(monkeypatch):
    # a power off by up to 1e-13 by array position gives equal bases
    # unequal powers, so a level's bound from its maxima can fall below
    # the level's own entries; widened by the allowance it still reaches
    # them, and the screen keeps the level that holds the max
    def skewed(base, e, out=None):
        res = power(base, e, out)
        res *= 1.0 + 1e-13 * np.sin(0.7 * np.arange(res.size) + 0.3)
        return res

    monkeypatch.setattr(dtl.norms, "power", skewed)
    monkeypatch.setattr(dtl.norms, "_SCREEN_CROSSOVER", 0)
    root = RootSpec(1, 10)
    inputs = [np.ones(root.cube_count())]

    def table(arrays, scaled, power):
        return power(arrays[0], 0.5)

    got = dtl.norms.screened_sup(root, inputs, table)
    want = scan_sup(root, table(inputs, root.scaled, skewed))
    assert want.witness.level == 8
    assert (got.value, got.witness) == (want.value, want.witness)


def test_testing_band_keeps_a_lower_ratio_whose_root_ties(monkeypatch):
    # ratios top and the double just below it, the lower one first in the
    # layout, have equal 1/p' roots: the first of them is the witness, so
    # the band must hold ratios below the top, not only the top
    p = 1.2
    expo = 1.0 / (p / (p - 1.0))
    top = next(
        x for x in np.linspace(0.5, 0.9, 101).tolist()
        if np.nextafter(x, 0.0) ** expo == x ** expo
    )
    num = np.array([0.25, float(np.nextafter(top, 0.0)), top])
    monkeypatch.setattr(dtl.norms, "_testing_layout", lambda mass, beta, p: (num, np.ones(3)))
    res = maximal_testing_sup(aggregate(lebesgue_measure(RootSpec(1, 1))), 0.5, p)
    assert (res.value, res.witness) == (top ** expo, CubeAddr(1, (0,)))


def test_screen_allowance_brackets_its_value():
    for x in (0.0, 5e-324, 1e-300, 1.0, 1e300):
        assert screen_low(x) < x < screen_high(x)
        assert screen_low(x, 4.0) < screen_low(x)
    assert screen_low(np.inf, 3.0) == screen_high(np.inf) == np.inf
