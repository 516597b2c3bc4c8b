"""Testing constants, weight characteristics, and the condition-D ratio."""

from __future__ import annotations

import math
import warnings

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
    generate_input,
    ks_testing_constant,
    lebesgue_measure,
    verify_sparse,
)
from dtl.constants import (
    _FAMILY_SUP_CUBE_LIMIT,
    _GrowingFamily,
    _region_bounds,
    family_scores,
    mu_free_family_sup,
    sparse_score_sup,
)
from dtl.norms import _SCREEN_MARGIN, conjugate_exponent


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
    "family_scores": lambda mu, kern, cube: family_scores(mu.root, mu.flat, kern, math.inf),
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


def test_ap_refuses_nan_tables():
    # subnormal weights: every average underflows to 0 and every dual
    # average power overflows, so every table entry would be 0 * inf = NaN
    # (the scan once skipped such levels and reported -inf); the refusal
    # names the overflowing dual power, with no RuntimeWarning on the way
    w = LeafField(RootSpec(1, 3), np.full(8, 5e-324))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"dual averages to the power 63\.0 are not finite"):
            ap_characteristic(w, "infinity")


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
    scores = rng.uniform(0.0, 1.0, root.cube_count())
    best_greedy, fam_greedy = sparse_score_sup(root, scores, root.root_cube(), "greedy")
    best_exh, fam_exh = sparse_score_sup(root, scores, root.root_cube(), "exhaustive")
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


def _layout(tables):
    """Per-level score tables, level 0 first, as one layout array."""
    return np.concatenate([t.ravel() for t in tables])


def _check_against_oracle(case, mode, oracle):
    root, tables, region = case
    best, family = sparse_score_sup(root, _layout(tables), region, mode)
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


@pytest.mark.parametrize(
    "dim,depth,region", [(1, 12, CubeAddr(9, (5,))), (2, 6, CubeAddr(5, (3, 6)))]
)
def test_exhaustive_search_in_a_deep_region_matches_oracle(dim, depth, region):
    # the search undoes each addition along the added cube's ancestor chain
    # only; a deep region of a large grid checks nothing else needed undoing
    root = RootSpec(dim, depth)
    kern = KernelWeight.canonical(0.5 * dim, 1, dim)
    rng = np.random.default_rng(1)
    for scores in (
        family_scores(root, aggregate(random_density(root, 3)).flat, kern, 2.0),
        *(rng.choice([0.0, 1.0, 2.0, 3.0], root.cube_count()) for _ in range(4)),
    ):
        case = (root, root.level_views(scores), region)
        _check_against_oracle(case, "exhaustive", oracles.exhaustive_family_sup)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_score_search(max_cubes=341))
def test_one_family_serves_every_regions_greedy_search(case):
    # one shared family and one whole-grid order serve every region, as in
    # cq_supremum; each search leaves the family empty for the next
    root, tables, _ = case
    grown = _GrowingFamily(root)
    scores = _layout(tables)
    values = scores.tolist()
    candidates = np.flatnonzero(scores > 0)
    order = candidates[np.argsort(-scores[candidates], kind="stable")]
    for g, cube in enumerate(root.cubes()):
        chosen = grown.greedy(order, g)
        assert not any(grown.inner) and not any(grown.member)
        want = oracles.greedy_family_sup(
            root.dim, root.depth, tables, (cube.level, cube.index)
        )
        total = 0.0
        for c in chosen:  # left to right, as cq_supremum adds
            total += values[c]
        assert total == want[0]
        assert tuple((c.level, c.index) for c in map(root.cube_at, chosen)) == want[1]


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


def _checks(monkeypatch):
    """A count of certificate checks: _GrowingFamily.add calls."""
    calls = {"add": 0}
    add = _GrowingFamily.add

    def counted(self, c):
        calls["add"] += 1
        return add(self, c)

    monkeypatch.setattr(_GrowingFamily, "add", counted)
    return calls


def _screened_regions(muagg, kern, p):
    """(floor region, the other regions the screen keeps, candidates) of
    cq_supremum, from the bounds and one cq_constant."""
    root = muagg.root
    scores = family_scores(root, muagg.flat, kern, p)
    cands = [root.cube_at(c) for c in np.flatnonzero(scores > 0).tolist()]
    bound = _region_bounds(root, scores, muagg.flat, conjugate_exponent(p))
    top = root.cube_at(int(np.argmax(bound)))
    floor = cq_constant(muagg, kern, p, top, mode="greedy").value
    kept = [g for g in root.cubes() if bound[root.position(g)] >= floor and g != top]
    return top, kept, cands


@pytest.mark.parametrize("dim,depth", [(1, 6), (2, 3), (3, 2)])
def test_cq_supremum_offers_each_candidate_once_per_level(monkeypatch, dim, depth):
    # a candidate is offered once if the floor region holds it, and once
    # for each other kept region above it: at most once per level, the
    # count without the screen.  The last case weighs the leaves only and
    # spikes one, so its floor region is a level-1 cube, not the first
    # region of the layout.
    root = RootSpec(dim, depth)
    kern = KernelWeight.canonical(0.5 * dim, 1, dim)
    spike = np.ones(root.leaf_count)
    spike[-1] = 1e3
    cases = [
        *((mu, kern) for mu in (random_density(root, 7), random_atoms(root, 7))),
        (lebesgue_measure(root), kern),
        (
            LeafMeasure(root, "density", density=spike),
            KernelWeight.from_table(np.eye(depth + 1)[-1], 1),
        ),
    ]
    calls = _checks(monkeypatch)
    for mu, kern in cases:
        muagg = aggregate(mu)
        top, kept, cands = _screened_regions(muagg, kern, 2.0)
        calls.update(add=0)
        cq_supremum(muagg, kern, 2.0)
        assert calls["add"] <= sum(c.level + 1 for c in cands)
        assert calls["add"] == sum(g.contains(c) for g in (top, *kept) for c in cands)


def test_cq_supremum_searches_every_region_its_screen_keeps(monkeypatch):
    # an atom measure on d1 L8 whose screen keeps four regions besides the
    # floor's: the value, the witness and the checks of all five searches
    root = RootSpec(1, 8)
    muagg = aggregate(generate_input(root, "atom-measure", 9))
    kern = KernelWeight.canonical(0.5, 1, 1)
    top, kept, cands = _screened_regions(muagg, kern, 1.6)
    assert len(kept) == 4
    want = _greedy_cube_scan(muagg, kern, 1.6)
    calls = _checks(monkeypatch)
    rep = cq_supremum(muagg, kern, 1.6)
    assert (rep.value, rep.witness) == want
    assert calls["add"] == sum(g.contains(c) for g in (top, *kept) for c in cands)


def test_cq_supremum_takes_the_first_maximum_in_layout_order():
    # two level-1 regions tie on the value, and the later one in layout
    # order has the higher bound and is the floor's: the earlier one wins
    root = RootSpec(2, 2)
    density = [0.0, 0.0, 0.5, 3.0, 0.0, 3.0, 0.5, 3.0, 0.5, 1.0, 0.0, 3.0, 0.5, 3.0, 1.0, 3.0]
    muagg = aggregate(LeafMeasure(root, "density", density=np.array(density)))
    kern = KernelWeight.from_table([0.0, 2.0, 2.0], 1)
    first, later = CubeAddr(1, (0, 1)), CubeAddr(1, (1, 1))
    rep = cq_supremum(muagg, kern, 1.1)
    assert (rep.value, rep.witness) == _greedy_cube_scan(muagg, kern, 1.1)
    assert rep.witness == first
    assert cq_constant(muagg, kern, 1.1, later).value == rep.value
    top, kept, _ = _screened_regions(muagg, kern, 1.1)
    assert top == later and first in kept


@st.composite
def _bound_case(draw):
    """(mu aggregate, kernel, p) with masses of full precision, so that
    sums and powers round: densities or atoms drawn uniformly, under the
    canonical kernel or one that weighs the leaves only."""
    dim = draw(st.integers(1, 3))
    root = RootSpec(dim, draw(st.integers(0, (6, 3, 2)[dim - 1])))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    mu = random_density(root, seed) if draw(st.booleans()) else random_atoms(root, seed, 1)
    if draw(st.booleans()):
        kern = KernelWeight.canonical(0.5 * dim, 1, dim)
    else:
        kern = KernelWeight.from_table(np.eye(root.depth + 1)[-1], 1)
    return aggregate(mu), kern, draw(st.sampled_from([1.1, 1.25, 2.0, 4.0]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_bound_case())
def test_region_bounds_hold_every_regions_exact_value(case):
    # the screen drops a region only if its bound is below the floor, so
    # every bound must reach the region's exact greedy value, bit for bit
    muagg, kern, p = case
    root, pprime = muagg.root, p / (p - 1.0)
    scores = family_scores(root, muagg.flat, kern, p)
    bound = _region_bounds(root, scores, muagg.flat, pprime)
    masses = muagg.flat.tolist()
    for g, cube in enumerate(root.cubes()):
        best, _ = sparse_score_sup(root, scores, cube, "greedy")
        if masses[g] <= 0 or best == 0:
            assert bound[g] == -np.inf
        else:
            assert bound[g] >= best ** (1.0 / pprime) / masses[g] ** (1.0 / pprime)


def _limit_measure(root, kind):
    """Measures for the family-sup scan at the cube limit: constant, tied
    values from a palette with zeros, atoms of equal mass, zero mass, and
    densities of 1e200 and 1e-200."""
    rng = np.random.default_rng(5)
    n = root.leaf_count
    if kind == "constant":
        return lebesgue_measure(root)
    if kind == "tied-palette":
        return LeafMeasure(root, "density", density=rng.choice([0.0, 1.0, 2.0], n))
    if kind == "atoms":
        spots = rng.choice(n, size=min(n, 3), replace=False).tolist()
        return LeafMeasure(root, "atomic", atoms=tuple((s, 1.0) for s in spots))
    if kind == "zero-mass":
        return LeafMeasure(root, "density", density=np.zeros(n))
    return LeafMeasure(root, "density", density=rng.choice([1e200, 1e-200], n))


@pytest.mark.parametrize("dim,depth", [(1, 8), (2, 4), (3, 2)])
@pytest.mark.parametrize("kind", ["constant", "tied-palette", "atoms", "zero-mass", "1e+-200"])
def test_cq_supremum_bits_at_the_cube_limit(dim, depth, kind):
    # d1 L8 holds 511 cubes, the limit; every region's greedy total sums
    # up to 511 scores, the most the screen's allowance is sized for
    root = RootSpec(dim, depth)
    kern = KernelWeight.canonical(0.5 * dim, 1, dim)
    muagg = aggregate(_limit_measure(root, kind))
    for p in (2.0, 4.0):
        try:
            want = _greedy_cube_scan(muagg, kern, p)
        except NonFinite:  # 1e200 at p = 2: the scores overflow on both paths
            with pytest.raises(NonFinite):
                cq_supremum(muagg, kern, p)
            continue
        rep = cq_supremum(muagg, kern, p)
        assert (rep.value, rep.witness) == want


def test_screen_allowance_covers_the_cube_limit():
    # the region screen raises S_g^(1/p') by screen_high.  A greedy total
    # and the roll-up S_g each sum at most _FAMILY_SUP_CUBE_LIMIT scores,
    # each within (limit - 1) 2^-53 of its exact value, and the two roots
    # (libm's of the total, grid.power's of S_g) are each within 2^-50 by
    # the premise stated at norms._SCREEN_MARGIN.  The mass roots sit on
    # the other side of the division, under screen_low.  This holds up to
    # about 4,500 cubes: a larger limit needs the margin revisited first.
    sums = 2 * (_FAMILY_SUP_CUBE_LIMIT - 1) * 2.0 ** -53
    assert sums + 2 * 2.0 ** -50 < _SCREEN_MARGIN


def _unpruned_checks(root, scores, region):
    """Certificate checks of the exhaustive search over `region` with no
    prune: one per candidate after the last member of each certified
    subfamily."""
    grown = _GrowingFamily(root)
    order = [
        c for c in np.flatnonzero(scores > 0).tolist() if region.contains(root.cube_at(c))
    ]
    checks = 0

    def walk(start):
        nonlocal checks
        for j in range(start, len(order)):
            checks += 1
            if grown.add(order[j]):
                walk(j + 1)
                grown.remove(order[j])

    walk(0)
    return checks


def test_exhaustive_prune_cuts_checks_and_keeps_the_oracles_family(monkeypatch):
    # a 15-cube region: d1 L5's level-2 cube, whose subtree runs 3 levels down
    root = RootSpec(1, 5)
    region = CubeAddr(2, (1,))
    kern = KernelWeight.canonical(0.5, 1, 1)
    rng = np.random.default_rng(2)
    cases = [
        family_scores(root, aggregate(random_density(root, 3)).flat, kern, 2.0),
        np.ones(root.cube_count()),
        rng.choice([0.0, 1.0, 2.0], root.cube_count()),
    ]
    for scores in cases:
        calls = _checks(monkeypatch)
        best, family = sparse_score_sup(root, scores, region, "exhaustive")
        pruned = calls["add"]
        monkeypatch.undo()
        assert pruned < _unpruned_checks(root, scores, region)
        want = oracles.exhaustive_family_sup(
            root.dim, root.depth, root.level_views(scores), (region.level, region.index)
        )
        assert (best, tuple((c.level, c.index) for c in family)) == want


def test_exhaustive_prune_stops_at_a_tie(monkeypatch):
    # d1 L1 with three equal scores: {root, left} sums 2 (checks 1, 2);
    # the right child fails next to both (check 3).  Both remaining folds
    # then equal the best, 2, so the search stops there: 3 checks, where
    # a prune on a strictly smaller fold would go on to 6.
    root = RootSpec(1, 1)
    calls = _checks(monkeypatch)
    best, family = sparse_score_sup(root, np.ones(3), root.root_cube(), "exhaustive")
    assert (best, family, calls["add"]) == (2.0, (root.root_cube(), CubeAddr(1, (0,))), 3)


def test_ap_refuses_an_overflowing_product():
    # every factor is finite, but the root's average (about 5e299) times
    # its dual average (about 5e299) is not: NonFinite, no RuntimeWarning
    w = LeafField(RootSpec(1, 3), np.tile([1e300, 1e-300], 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"A_p product .* overflows on CubeAddr"):
            ap_characteristic(w, 2.0)


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
    ones = np.ones(root.cube_count())
    kern = KernelWeight.canonical(alpha, m, dim)
    for p in ps:
        try:
            scores = family_scores(root, ones, kern, p)
        except NonFinite:  # an overflowing score is refused on both paths
            with pytest.raises(NonFinite):
                mu_free_family_sup(dim, depth, alpha, m, p)
            continue
        # the mu-free scores are constant in a level and nonincreasing in it:
        # 2^(-k n / p') times a sum over levels j >= k of 2^(j (n - alpha))
        per_level = scores[root.offsets()[:-1]].tolist()
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
