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
    NonFinite,
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
    ks_testing_constant,
    lebesgue_measure,
    verify_sparse,
)
from dtl.constants import _GrowingFamily, family_scores, mu_free_family_sup, sparse_score_sup


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
    assert prof.theta == pytest.approx(2.5)
    assert prof.q == pytest.approx(3.0)
    assert prof.q0 == pytest.approx(3.75)


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


# p = inf makes p' = inf / inf = NaN, and a NaN table still scans to a
# finite-looking answer (1.0 for dx) or to a misnamed overflow
_INFINITE_P_CALLS = {
    "ks_testing_constant": lambda mu, kern, cube: ks_testing_constant(mu, 0.5, math.inf),
    "cq_constant_bound": lambda mu, kern, cube: cq_constant(mu, kern, math.inf, cube, "bound"),
    "cq_constant_greedy": lambda mu, kern, cube: cq_constant(mu, kern, math.inf, cube),
    "cq_supremum": lambda mu, kern, cube: cq_supremum(mu, kern, math.inf),
    "family_scores": lambda mu, kern, cube: family_scores(mu.levels, kern, math.inf),
}


@pytest.mark.parametrize("entry", sorted(_INFINITE_P_CALLS))
@pytest.mark.parametrize("density", [False, True])
def test_infinite_p_refused(entry, density):
    root = RootSpec(1, 3)
    mu = aggregate(random_density(root, 3) if density else lebesgue_measure(root))
    kern = KernelWeight.canonical(0.5, 1, 1)
    with pytest.raises(BadExponent, match="needs a finite p, got inf"):
        _INFINITE_P_CALLS[entry](mu, kern, root.root_cube())


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
    assert a0_constant(flat, prof, "bump-b").value == pytest.approx(1.0)
    atom = LeafMeasure(root, "atomic", atoms=((0, 1.0),))
    with pytest.raises(AtomicPowerUndefined):
        a0_constant(atom, prof, "bump-b")
    # the bump forms read r from the profile
    no_r = ExponentProfile(prof.m, prof.n, prof.alpha, prof.beta, prof.p_vec, prof.p0)
    with pytest.raises(BadExponent, match="bump form needs r > 1, got None"):
        a0_constant(flat, no_r, "bump-b")


def test_a0_forms_match_oracle():
    root = RootSpec(1, 3)
    prof = ExponentProfile.default(2, 1)
    kern = KernelWeight.canonical(prof.alpha, prof.m, 1)
    kfn = lambda level: kern.at_level(level, 1)
    for seed in range(6):
        mu = random_density(root, seed)
        for form in ("weight-a", "bump-b", "sparse-a", "sparse-b"):
            got = a0_constant(mu, prof, form).value
            want = oracles.a0_constant(
                mu, form, prof.beta, prof.p, kernel=kfn, m=prof.m, r=2.0
            )
            assert got == pytest.approx(want, rel=1e-12)
        atoms = random_atoms(root, seed + 60)
        for form in ("weight-a", "sparse-a"):
            got = a0_constant(atoms, prof, form).value
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


@pytest.mark.parametrize("p", [float("inf"), "two"])
def test_ap_refuses_p_neither_finite_above_one_nor_infinity(p):
    w = LeafField(RootSpec(1, 3), np.full(8, 0.5))
    with pytest.raises(BadExponent, match="needs a finite p > 1 or 'infinity'"):
        ap_characteristic(w, p)


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


def test_cq_exhaustive_matches_direct_formula_on_its_family():
    root = RootSpec(1, 2)
    mu = random_density(root, 21)
    kern = KernelWeight.canonical(0.5, 1, 1)
    base = root.root_cube()
    rep = cq_constant(aggregate(mu), kern, 2.0, base, mode="exhaustive")
    fam = rep.params["family"]
    assert fam and rep.params["family_size"] == len(fam)

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


def test_cq_bound_bits_match_per_cube_oracle():
    for seed in range(6):
        dim, depth = ((1, 4), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        mu = random_density(root, seed) if seed % 4 < 2 else random_atoms(root, seed)
        agg = aggregate(mu)
        kern = KernelWeight.canonical(0.4 * dim, 1, dim)
        nums = oracles.localized_numerators(mu.leaf_masses(), dim, depth, 0.4 * dim, 3.0)
        for (level, index), (num, den) in nums.items():
            rep = cq_constant(agg, kern, 3.0, CubeAddr(level, index), mode="bound")
            assert rep.value == (num / den) ** (1.0 / 1.5)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_score_search(max_cubes=341))
def test_greedy_regions_match_per_region_search(case):
    # one shared family serves every region, as in cq_supremum
    root, tables, _ = case
    grown = _GrowingFamily(root)
    scores = np.concatenate([t.ravel() for t in tables])
    values = scores.tolist()
    candidates = np.flatnonzero(scores > 0)
    order = candidates[np.argsort(-scores[candidates], kind="stable")]
    regions = list(grown.greedy_regions(order))
    assert [grown.cube(g) for g, _ in regions] == list(root.cubes())
    for g, chosen in regions:
        best, family = sparse_score_sup(root, tables, grown.cube(g), "greedy")
        assert sum(values[c] for c in chosen) == best
        assert tuple(grown.cube(c) for c in chosen) == family
    assert not any(grown.inner) and not any(grown.member)


def _greedy_cube_scan(muagg, kern, p):
    """(value, witness) of cq_supremum, from one cq_constant per cube."""
    best, witness = 0.0, None
    for cube in muagg.root.cubes():
        if muagg.sum_of(cube) > 0:
            value = cq_constant(muagg, kern, p, cube, mode="greedy").value
            if value > best:
                best, witness = value, cube
    return best, witness


def test_cq_supremum_matches_cube_scan():
    for root, seed in ((RootSpec(1, 4), 3), (RootSpec(2, 2), 4)):
        kern = KernelWeight.canonical(0.5, 1, root.dim)
        for mu in (random_density(root, seed), random_atoms(root, seed)):
            muagg = aggregate(mu)
            rep = cq_supremum(muagg, kern, 2.5)
            assert (rep.value, rep.witness) == _greedy_cube_scan(muagg, kern, 2.5)
    big = aggregate(lebesgue_measure(RootSpec(1, 9)))
    kern = KernelWeight.canonical(0.5, 1, 1)
    with pytest.raises(ComplexityRefusal):
        cq_supremum(big, kern, 2.0)
    # the cube limit is checked before the exponent
    with pytest.raises(ComplexityRefusal):
        cq_supremum(big, kern, 1.0)
    with pytest.raises(BadExponent):
        cq_supremum(aggregate(lebesgue_measure(RootSpec(1, 2))), kern, 1.0)


# measure values and kernel entries from a small palette, zero included,
# so scores and constants tie often
_PALETTE = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=4)


@st.composite
def _family_sup_case(draw):
    """(mu aggregate, kernel, p): density measures with zero leaves, or
    atoms piled on a few leaves; canonical kernels, or palette tables that
    vanish above a drawn level, with which a cube below the root can
    attain the sup.  Grids run to d1 L4, d2 L4 and d3 L2 (73 cubes)."""
    dim = draw(st.integers(1, 3))
    root = RootSpec(dim, draw(st.integers(0, 2 if dim == 3 else 4)))
    palette = np.array(draw(_PALETTE))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        density = palette[rng.integers(0, palette.size, root.leaf_count)]
        mu = LeafMeasure(root, "density", density=density)
    else:
        spots = rng.integers(0, root.leaf_count, draw(st.integers(1, 3)))
        picks = rng.integers(0, spots.size, draw(st.integers(0, 8)))
        mu = LeafMeasure(
            root, "atomic",
            atoms=tuple((int(spots[i]), float(palette[i % palette.size])) for i in picks),
        )
    m = draw(st.integers(1, 2))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([0.25, 0.5, 0.75])) * root.dim
        kern = KernelWeight.canonical(alpha, m, root.dim)
    else:
        table = palette[rng.integers(0, palette.size, root.depth + 1)]
        table[: draw(st.integers(0, root.depth))] = 0.0
        kern = KernelWeight.from_table(table, m)
    return aggregate(mu), kern, draw(st.sampled_from([1.1, 1.25, 2.0, 4.0]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_family_sup_case())
def test_cq_supremum_bits_match_greedy_cube_scan(case):
    muagg, kern, p = case
    rep = cq_supremum(muagg, kern, p)
    assert (rep.value, rep.witness) == _greedy_cube_scan(muagg, kern, p)


@pytest.mark.parametrize("dim,depth", [(1, 6), (2, 3), (3, 2)])
def test_cq_supremum_offers_each_candidate_once_per_level(monkeypatch, dim, depth):
    # one greedy pass per level: a cube at level t is offered to the
    # certificate once for each level r <= t
    root = RootSpec(dim, depth)
    kern = KernelWeight.canonical(0.5 * dim, 1, dim)
    calls = {"add": 0}
    add = _GrowingFamily.add

    def counted(self, c):
        calls["add"] += 1
        return add(self, c)

    monkeypatch.setattr(_GrowingFamily, "add", counted)
    for mu in (random_density(root, 7), random_atoms(root, 7)):
        muagg = aggregate(mu)
        scores = family_scores(muagg.levels, kern, 2.0)
        levels = [k for k, t in enumerate(scores) for _ in range(np.count_nonzero(t > 0))]
        calls.update(add=0)
        cq_supremum(muagg, kern, 2.0)
        assert calls == {"add": sum(k + 1 for k in levels)}
        # every region's family comes out in layout order
        flat = np.concatenate([t.ravel() for t in scores])
        candidates = np.flatnonzero(flat > 0)
        order = candidates[np.argsort(-flat[candidates], kind="stable")]
        for _, chosen in _GrowingFamily(root).greedy_regions(order):
            assert chosen == sorted(chosen)


@st.composite
def _mu_free_key(draw):
    """(dim, depth, alpha, m, ps): canonical-kernel profiles over the whole
    admissible alpha range, with exponents p near 1 whose scores overflow
    (refused with NonFinite) or underflow to 0, tying across levels."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, (8, 4, 2)[dim - 1]))
    m = draw(st.integers(1, 3))
    alpha = m * dim * draw(st.sampled_from([0.01, 0.25, 0.5, 0.75, 0.99]) | st.floats(0.01, 0.99))
    ps = draw(st.lists(
        st.sampled_from([1.0001, 1.01, 1.1, 1.5, 2.0, 4.0, 50.0]) | st.floats(1.0001, 50.0),
        min_size=2, max_size=3, unique=True,
    ))
    return dim, depth, alpha, m, ps


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_mu_free_key())
def test_mu_free_family_sup_closed_form_matches_greedy_search(key):
    dim, depth, alpha, m, ps = key
    root = RootSpec(dim, depth)
    ones = [np.ones((1 << k,) * dim) for k in range(depth + 1)]
    kern = KernelWeight.canonical(alpha, m, dim)
    for p in ps:
        try:
            scores = family_scores(ones, kern, p)
        except NonFinite:  # an overflowing score is refused on both paths
            with pytest.raises(NonFinite):
                mu_free_family_sup(dim, depth, alpha, m, p)
            continue
        # the mu-free scores are constant in a level and nonincreasing in it:
        # 2^(-k n / p') times a sum over levels j >= k of 2^(j (n - alpha))
        per_level = [float(t.flat[0]) for t in scores]
        assert all(a >= b for a, b in zip(per_level, per_level[1:]))
        best, family = sparse_score_sup(root, scores, root.root_cube(), "greedy")
        closed = mu_free_family_sup(dim, depth, alpha, m, p)
        assert closed == (best, len(family))
        assert type(closed[0]) is type(best)


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
