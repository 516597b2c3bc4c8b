"""The package's hot loops held byte for byte to their copying forms.

Roll-ups, downward sweeps, stopping masks, owner tables and the two
discretization operators all avoid copies and per-cube objects; each is
compared with the form in oracles that copies a parent level onto its
children's grid, builds one cube address per cube, contracts with
np.tensordot or checks leaf values in two passes, by tobytes().  Lemma
2.2, which gathers its tables at the family's layout positions, is held
to its per-member form by float equality.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtl import (
    CubeAddr,
    ExponentProfile,
    KernelWeight,
    LeafField,
    NegativeValue,
    NonFinite,
    RootSpec,
    aggregate,
    build_sparse_family,
    dyadic_integral_operator,
    evaluate_inequality,
    generate_input,
    kernel_integral,
)
from dtl.decompositions import _owner_tables, _stopping_masks
from dtl.errors import LabError
from dtl.generators import FIELD_KINDS
from dtl.grid import DEFAULT_EVAL_CAP
from dtl.operators import (
    _integral_terms,
    _sweep,
    diagonal_cell_integral,
    enlargement_majorant,
    product_tables,
)

GRIDS = [(1, L) for L in range(1, 9)] + [(2, L) for L in range(1, 5)] + [(3, 1), (3, 2)]
CASES = [(dim, depth, m) for dim, depth in GRIDS for m in (1, 2, 3)]
# kernel_integral within its evaluation cap, and with a lag table of at
# most 2^20 entries, so a case stays small
QUADRATURE = [
    (dim, depth, m)
    for dim, depth, m in CASES
    if (1 << dim * depth) ** (m + 1) <= DEFAULT_EVAL_CAP
    and (2 * (1 << depth) - 1) ** (m * dim) <= 1 << 20
]


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _check_roll_ups(root, fields):
    for f in fields:
        masses = f.values * root.leaf_volume
        levels = oracles.child_sum_levels(masses, root.dim, root.depth)
        want = np.concatenate([t.ravel() for t in levels])
        _same(aggregate(f).flat, want)
        flat = np.zeros(root.cube_count())
        flat[-root.leaf_count:] = masses
        _same(root.roll_up(flat), want)


def _check_sweeps(root, aggs, alpha):
    kernel = KernelWeight.canonical(alpha, len(aggs), root.dim)
    terms = _integral_terms(aggs, kernel)
    levels = root.level_views(terms)
    want = oracles.spread_sweep(levels, np.add).ravel()
    _same(dyadic_integral_operator(aggs, kernel).values, want)
    _same(_sweep(root, terms, np.maximum), oracles.spread_sweep(levels, np.maximum).ravel())


def _check_stopping(root, aggs, base, alive):
    m = len(aggs)
    volume = [2.0 ** (k * root.dim * m) for k in range(root.depth + 1)]
    xbar = root.level_views(root.scaled(product_tables(aggs), volume))
    got = _stopping_masks(xbar, base, 2.0 ** m, alive)
    want = oracles.spread_stopping_masks(xbar, (base.level, base.index), 2.0 ** m, alive)
    assert len(got) == len(want) == root.depth + 1
    for g, w in zip(got, want):
        _same(g, w)
    owners = list(_owner_tables(got))
    assert len(owners) == root.depth + 1
    for g, w in zip(owners, oracles.spread_owner_tables(want)):
        _same(g, w)


def _check_discretization(root, fields, alpha):
    m = len(fields)
    want = oracles.per_cube_majorant([f.grid for f in fields], alpha, root.leaf_volume)
    _same(enlargement_majorant(fields, alpha), want)
    if (root.dim, root.depth, m) in QUADRATURE:
        diag = diagonal_cell_integral(alpha, m, root.leaf_side) if root.dim == 1 else 0.0
        values = [f.values for f in fields]
        want = oracles.tensordot_quadrature(values, root.dim, root.depth, alpha, diag)
        _same(kernel_integral(fields, alpha).values, want)


@pytest.mark.parametrize("dim,depth,m", CASES)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hot_loops_match_their_copying_forms(data, dim, depth, m):
    # roll-ups, sweeps (sum and max), stopping masks with and without an
    # alive mask, owner tables, the enlargement majorant and, within its
    # caps, the kernel quadrature, on m fields of drawn kinds
    root = RootSpec(dim, depth)
    kinds = data.draw(st.lists(st.sampled_from(FIELD_KINDS), min_size=m, max_size=m))
    seed = data.draw(st.integers(0, 2 ** 16))
    fields = [generate_input(root, kind, seed + i) for i, kind in enumerate(kinds)]
    alpha = data.draw(st.floats(0.05, 0.95)) * m * dim
    base = root.cube_at(data.draw(st.integers(0, root.cube_count() - 1)))
    coin = np.random.default_rng(seed).random(root.cube_count())
    aggs = [aggregate(f) for f in fields]
    _check_roll_ups(root, fields)
    _check_sweeps(root, aggs, alpha)
    for alive in (None, root.level_views(coin > 0.2)):
        _check_stopping(root, aggs, base, alive)
    _check_discretization(root, fields, alpha)


# the default low-p profile and two with unequal exponents, at dimension n
LEMMA22_PROFILES = (
    lambda n: ExponentProfile.default(2, n, low_p=True),
    lambda n: ExponentProfile(2, n, 0.5 * n, 0.25 * n, (1.3, 1.9), 1.5, r=1.7),
    lambda n: ExponentProfile(3, n, 0.5 * n, 0.25 * n, (2.0, 2.5, 2.9), 1.5, r=1.37),
)


@pytest.mark.parametrize("dim,depth", [grid for grid in GRIDS if grid[0] < 3])
def test_lemma22_matches_its_per_member_form(dim, depth):
    root = RootSpec(dim, depth)
    for make, seed in itertools.product(LEMMA22_PROFILES, range(4)):
        profile = make(dim)
        fields = [
            generate_input(root, FIELD_KINDS[(seed + i) % len(FIELD_KINDS)], 10 * seed + i)
            for i in range(profile.m)
        ]
        measure = generate_input(root, "density-measure", seed)
        family = build_sparse_family([aggregate(f) for f in fields], root.root_cube())
        members = [(c.level, c.index) for c in family.cubes]
        kernel = KernelWeight.canonical(profile.alpha, profile.m, dim)
        weighted = [aggregate(measure.weighted(f)).levels for f in fields]
        for form, r in (("a", None), ("b", profile.r)):
            got = evaluate_inequality(f"lemma2.2{form}", profile, fields, measure=measure)
            masses = aggregate(measure if r is None else measure.power(r)).levels
            lhs, a0, witness = oracles.per_member_lemma22(
                members, lambda k: kernel.at_level(k, dim), weighted, masses,
                profile.p_vec, profile.m, dim, r,
            )
            assert (got.lhs, got.extras["a0"]) == (lhs, a0)
            level, index = witness
            assert got.extras["a0_witness"] == {"level": level, "index": list(index)}


def test_discretization_builds_no_cube_and_calls_no_tensordot(monkeypatch):
    root = RootSpec(2, 3)
    fields = [generate_input(root, "uniform", seed) for seed in (1, 2)]
    built = []
    post_init = CubeAddr.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    def refused(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    monkeypatch.setattr(CubeAddr, "__post_init__", counted)
    monkeypatch.setattr(np, "tensordot", refused)
    enlargement_majorant(fields, 0.7)
    kernel_integral(fields, 0.7)
    assert built == []


_SPECIAL = (
    math.nan,
    math.copysign(math.nan, -1.0),
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,  # subnormal
    sys.float_info.min,
    sys.float_info.max,
    -sys.float_info.max,
    1.0,
    -1.0,
)


def _checked(check):
    try:
        return check()
    except LabError as exc:
        return exc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=8, max_size=8))
def test_one_pass_leaf_check_accepts_what_the_two_pass_check_accepts(values):
    root = RootSpec(1, 3)
    got = _checked(lambda: LeafField(root, values).values)
    want = _checked(lambda: oracles.two_pass_leaf_check(values, NonFinite, NegativeValue))
    if isinstance(want, np.ndarray):
        _same(got, want)
    else:
        assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.parametrize("value", _SPECIAL)
def test_leaf_check_on_every_special_value(value):
    root = RootSpec(1, 1)
    for values in ([value, 1.0], [1.0, value]):
        got = _checked(lambda: LeafField(root, values).values)
        want = _checked(lambda: oracles.two_pass_leaf_check(values, NonFinite, NegativeValue))
        if isinstance(want, np.ndarray):
            _same(got, want)
            assert not np.signbit(got).any()
        else:
            assert (type(got), str(got)) == (type(want), str(want))
