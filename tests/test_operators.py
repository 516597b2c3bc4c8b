"""Fractional maximal and integral operators against naive loop oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dtl
import oracles
from dtl import (
    BadExponent,
    ComplexityRefusal,
    CubeAddr,
    KernelWeight,
    LeafField,
    LeafMeasure,
    RootMismatch,
    RootSpec,
    ZeroMeasure,
    aggregate,
    dyadic_integral_operator,
    fractional_maximal,
    kernel_integral,
    lebesgue_measure,
    mu_maximal,
    multilinear_maximal,
    sparse_integral_operator,
)
from dtl.grid import DEFAULT_EVAL_CAP
from dtl.operators import diagonal_cell_integral, enlargement_majorant


def unit_field(root, values):
    return LeafField(root, np.asarray(values, dtype=float))


def random_field(root, seed, high=2.0):
    rng = np.random.default_rng(seed)
    return LeafField(root, rng.uniform(0.0, high, root.leaf_count))


def random_density(root, seed):
    rng = np.random.default_rng(seed)
    return LeafMeasure(root, "density", density=rng.uniform(0.1, 3.0, root.leaf_count))


def test_kernel_weight_canonical_levels():
    k = KernelWeight.canonical(0.5, 2, 1)
    # K(Q) = side^(alpha - m n) = 2^(k (m n - alpha))
    for level in range(4):
        assert k.at_level(level, 1) == pytest.approx(2.0 ** (level * 1.5), rel=1e-15)
    table = KernelWeight.from_table([1.0, 0.5, 0.25], 1)
    assert table.at_level(2, 1) == 0.25


def test_fractional_maximal_lebesgue_flat():
    root = RootSpec(1, 3)
    out = fractional_maximal(aggregate(lebesgue_measure(root)), 0.5)
    assert np.allclose(out.values, 1.0)


def test_fractional_maximal_indicator_alpha0():
    root = RootSpec(1, 3)
    f = unit_field(root, [1.0] + [0.0] * 7)
    out = fractional_maximal(aggregate(f), 0.0)
    assert out.values[0] == pytest.approx(1.0)
    # on the far half only the root average survives
    assert np.allclose(out.values[4:], 1.0 / 8.0)


def test_fractional_maximal_atom_localized_bands():
    root = RootSpec(1, 3)
    mu = LeafMeasure(root, "atomic", atoms=((0, 1.0),))
    out = fractional_maximal(aggregate(mu), 0.5)
    want = [2 * math.sqrt(2), 2 * math.sqrt(2), 2.0, 2.0, math.sqrt(2), math.sqrt(2), 1.0, 1.0]
    # bands by distance to the atom: [0,1/8) gets 2 sqrt 2 ... [1/2,1) gets 1
    assert out.values[0] == pytest.approx(2 * math.sqrt(2))
    assert out.values[1] == pytest.approx(2.0)
    assert out.values[2] == pytest.approx(math.sqrt(2))
    assert out.values[3] == pytest.approx(math.sqrt(2))
    assert np.allclose(out.values[4:], 1.0)
    del want


def test_fractional_maximal_rejects_bad_alpha():
    root = RootSpec(1, 2)
    agg = aggregate(lebesgue_measure(root))
    with pytest.raises(BadExponent):
        fractional_maximal(agg, 1.0)
    with pytest.raises(BadExponent):
        fractional_maximal(agg, -0.1)


def test_fractional_maximal_matches_oracle():
    for seed in range(12):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        mu = random_density(root, seed)
        masses = mu.leaf_masses()
        alpha = (0.0, 0.4, 0.9)[seed % 3] * dim / 1.0
        alpha = min(alpha, 0.9 * dim)
        out = fractional_maximal(aggregate(mu), alpha).values
        for lin in range(root.leaf_count):
            multi = root.leaf_cube(lin).index
            want = oracles.fractional_maximal_leaf(masses, dim, depth, alpha, multi)
            assert out[lin] == pytest.approx(want, rel=1e-12)


def test_multilinear_maximal_flat_and_m1():
    root = RootSpec(1, 3)
    ones = unit_field(root, np.ones(8))
    out = multilinear_maximal([aggregate(ones), aggregate(ones)], 1.0)
    assert np.allclose(out.values, 1.0)

    f = random_field(root, 3)
    direct = multilinear_maximal([aggregate(f)], 0.5).values
    via_measure = fractional_maximal(
        aggregate(LeafMeasure(root, "density", density=f.values)), 0.5
    ).values
    assert np.allclose(direct, via_measure, rtol=1e-14)


def test_multilinear_maximal_matches_oracle():
    root = RootSpec(1, 3)
    for seed in range(6):
        f1, f2 = random_field(root, seed), random_field(root, seed + 100)
        out = multilinear_maximal([aggregate(f1), aggregate(f2)], 0.8).values
        for lin in range(8):
            multi = root.leaf_cube(lin).index
            best = 0.0
            for level in range(4):
                cube = oracles.ancestor_at(multi, 3, level)
                prod = oracles.cube_side(cube) ** (0.8 - 2.0)
                prod *= oracles.field_integral(f1, cube)
                prod *= oracles.field_integral(f2, cube)
                best = max(best, prod)
            assert out[lin] == pytest.approx(best, rel=1e-12)


def test_dyadic_operator_flat_examples():
    root2 = RootSpec(1, 2)
    ones = unit_field(root2, np.ones(4))
    out = dyadic_integral_operator(
        [aggregate(ones), aggregate(ones)], KernelWeight.canonical(1.0, 2, 1)
    )
    assert np.allclose(out.values, 1.75)

    root3 = RootSpec(1, 3)
    ones3 = unit_field(root3, np.ones(8))
    out = dyadic_integral_operator([aggregate(ones3)], KernelWeight.canonical(0.5, 1, 1))
    # geometric sum over the four available scales
    assert np.allclose(out.values, 2.5606601717798214, rtol=1e-15)


def test_dyadic_operator_zero_kernel():
    root = RootSpec(1, 2)
    f = random_field(root, 0)
    out = dyadic_integral_operator([aggregate(f)], KernelWeight.from_table([0.0, 0.0, 0.0], 1))
    assert np.array_equal(out.values, np.zeros(4))


def test_dyadic_operator_matches_oracle():
    for seed in range(10):
        dim, depth = ((1, 3), (2, 2))[seed % 2]
        root = RootSpec(dim, depth)
        fields = [random_field(root, seed), random_field(root, seed + 50)]
        kern = KernelWeight.canonical(0.7 * dim, 2, dim)
        out = dyadic_integral_operator([aggregate(f) for f in fields], kern).values
        kfn = lambda level: kern.at_level(level, dim)
        for lin in range(root.leaf_count):
            multi = root.leaf_cube(lin).index
            want = oracles.dyadic_operator_leaf(fields, kfn, multi)
            assert out[lin] == pytest.approx(want, rel=1e-12)


def test_dyadic_operator_single_term_lower_bound():
    root = RootSpec(1, 3)
    f = random_field(root, 7)
    kern = KernelWeight.canonical(0.5, 1, 1)
    out = dyadic_integral_operator([aggregate(f)], kern).values
    cube = CubeAddr(2, (1,))
    term = kern.at_level(2, 1) * oracles.field_integral(f, (2, (1,)))
    for lin in cube.leaf_linears(root):
        assert out[lin] >= term - 1e-12


def test_operator_monotone_and_homogeneous():
    root = RootSpec(1, 3)
    f = random_field(root, 1)
    g = LeafField(root, f.values + 0.5)
    kern = KernelWeight.canonical(0.5, 1, 1)
    lo = dyadic_integral_operator([aggregate(f)], kern).values
    hi = dyadic_integral_operator([aggregate(g)], kern).values
    assert np.all(hi >= lo)
    twice = dyadic_integral_operator([aggregate(f.scaled(2.0))], kern).values
    assert np.allclose(twice, 2.0 * lo, rtol=1e-14)
    m_lo = multilinear_maximal([aggregate(f)], 0.5).values
    m_twice = multilinear_maximal([aggregate(f.scaled(2.0))], 0.5).values
    assert np.allclose(m_twice, 2.0 * m_lo, rtol=1e-14)


def test_sparse_operator_trivial_families():
    root = RootSpec(1, 2)
    ones = unit_field(root, np.ones(4))
    flat = KernelWeight.from_table([1.0, 1.0, 1.0], 1)
    out = sparse_integral_operator([aggregate(ones)], flat, (root.root_cube(),))
    assert np.allclose(out.values, 1.0)
    empty = sparse_integral_operator([aggregate(ones)], flat, ())
    assert np.array_equal(empty.values, np.zeros(4))


def test_sparse_operator_hand_family():
    root = RootSpec(1, 2)
    f = unit_field(root, [4.0, 0.0, 1.0, 1.0])
    kern = KernelWeight.canonical(0.5, 1, 1)
    fam = (root.root_cube(), CubeAddr(2, (0,)))
    out = sparse_integral_operator([aggregate(f)], kern, fam).values
    root_term = 1.0 * (4.0 + 0.0 + 1.0 + 1.0) / 4.0
    leaf_term = kern.at_level(2, 1) * 1.0
    assert out[0] == pytest.approx(root_term + leaf_term)
    assert out[1] == pytest.approx(root_term)
    assert out[2] == pytest.approx(root_term)


_QUADRATURE_CASES = (
    (1, 2, 1), (1, 4, 1), (1, 3, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 1),
)


@pytest.mark.parametrize(
    "dim,depth,m", _QUADRATURE_CASES, ids=[f"d{d}-L{L}-m{m}" for d, L, m in _QUADRATURE_CASES]
)
def test_kernel_integral_matches_naive_quadrature(dim, depth, m):
    root = RootSpec(dim, depth)
    ones = unit_field(root, np.ones(root.leaf_count))
    fields = [random_field(root, 9 + i) for i in range(m)]
    # alpha avoids the integer poles of the d1 cell integral
    for alpha in (0.37 * m * dim, 0.81 * m * dim):
        for group in ([ones] * m, fields):
            got = kernel_integral(group, alpha).values
            want = oracles.kernel_quadrature(group, alpha)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_kernel_integral_zero_and_linear():
    root = RootSpec(1, 3)
    zero = unit_field(root, np.zeros(8))
    assert np.array_equal(kernel_integral([zero], 0.5).values, np.zeros(8))
    f = random_field(root, 2)
    base = kernel_integral([f], 0.5).values
    twice = kernel_integral([f.scaled(2.0)], 0.5).values
    assert np.allclose(twice, 2.0 * base, rtol=1e-14)


def test_kernel_integral_refuses_large_work():
    root = RootSpec(1, 10)
    f = unit_field(root, np.ones(1024))
    with pytest.raises(ComplexityRefusal):
        kernel_integral([f, f, f], 1.0)
    with pytest.raises(BadExponent):
        kernel_integral([f], 0.0)


@pytest.mark.parametrize("dim,depth,m", [(1, 4, 5), (3, 2, 3)])
def test_kernel_integral_refuses_large_lag_table(dim, depth, m):
    # (2^(depth+1) - 1)^(m dim) lag-table entries exceed the leaf cap, while
    # the N^(m+1) evaluations stay under theirs; refused before allocating
    root = RootSpec(dim, depth)
    assert root.leaf_count ** (m + 1) <= DEFAULT_EVAL_CAP
    f = unit_field(root, np.ones(root.leaf_count))
    tracemalloc.start()
    try:
        with pytest.raises(ComplexityRefusal, match="lag-table entries"):
            kernel_integral([f] * m, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kernel_integral_root_mismatch():
    f = unit_field(RootSpec(1, 2), np.ones(4))
    g = unit_field(RootSpec(1, 3), np.ones(8))
    with pytest.raises(RootMismatch):
        kernel_integral([f, g], 0.5)


# (m, pole alpha, e, value at h = 2^-e), an independent reference: adaptive
# quadrature (scipy.integrate.quad) of the one-variable reduction with the
# Irwin-Hall density
POLE_VALUES = (
    (2, 1, 0, 2.772588722239781),
    (2, 1, 1, 1.3862943611198906),
    (2, 1, 5, 0.08664339756999316),
    (2, 1, 12, 0.0006769015435155716),
    (3, 1, 0, 3.452184869421371),
    (3, 1, 1, 1.7260924347106854),
    (3, 1, 5, 0.10788077716941784),
    (3, 1, 12, 0.0008428185716360769),
    (3, 2, 0, 1.5697444312936433),
    (3, 2, 1, 0.3924361078234108),
    (3, 2, 5, 0.0015329535461851985),
    (3, 2, 12, 9.356405921540518e-08),
    (4, 1, 0, 2.71838458872636),
    (4, 1, 1, 1.35919229436318),
    (4, 1, 5, 0.08494951839769875),
    (4, 1, 12, 0.0006636681124820215),
    (4, 2, 0, 1.467600561390023),
    (4, 2, 1, 0.36690014034750573),
    (4, 2, 5, 0.0014332036732324443),
    (4, 2, 12, 8.747581013381618e-08),
    (4, 3, 0, 1.114592200798176),
    (4, 3, 1, 0.139324025099772),
    (4, 3, 5, 3.401465456537402e-05),
    (4, 3, 12, 1.62194512202139e-11),
)


def test_diagonal_cell_closed_forms():
    h = 0.25
    a = h / 2.0
    assert diagonal_cell_integral(0.5, 1, h) == pytest.approx(2.0 * a ** 0.5 / 0.5, rel=1e-15)
    alpha = 1.5
    want = 4.0 * ((2 * a) ** alpha - 2 * a ** alpha) / (alpha * (alpha - 1.0))
    assert diagonal_cell_integral(alpha, 2, h) == pytest.approx(want, rel=1e-12)
    # pole of the closed form at alpha = 1, m = 2: logarithmic branch
    assert diagonal_cell_integral(1.0, 2, h) == pytest.approx(8.0 * a * math.log(2.0), rel=1e-9)
    for m, k, e, want in POLE_VALUES:
        got = diagonal_cell_integral(float(k), m, 2.0 ** -e)
        assert got == pytest.approx(want, rel=1e-9), (m, k, e)
    with pytest.raises(BadExponent):
        diagonal_cell_integral(0.0, 1, h)


def test_enlargement_majorant_matches_naive_sum():
    alpha = 0.7
    for dim, depth in ((1, 3), (2, 2)):
        root = RootSpec(dim, depth)
        fields = [random_field(root, 40 + i) for i in range(2)]
        got = enlargement_majorant(fields, alpha)
        side = 1 << depth
        for linear in range(root.leaf_count):
            leaf = np.unravel_index(linear, root.grid_shape)
            want = 0.0
            for k in range(depth + 1):
                step = 1 << (depth - k)
                box = tuple(
                    slice(max((x // step - 1) * step, 0), min((x // step + 2) * step, side))
                    for x in leaf
                )
                prod = 1.0
                for f in fields:
                    prod *= f.grid[box].sum() * root.leaf_volume * 2.0 ** (k * dim)
                want += 2.0 ** (-k * alpha) * prod
            assert got[linear] == pytest.approx(want, rel=1e-12)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(dtl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, dtl; print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_mu_maximal_flat_and_atoms():
    root = RootSpec(1, 2)
    ones = unit_field(root, np.ones(4))
    mu = random_density(root, 5)
    assert np.allclose(mu_maximal(ones, mu).values, 1.0)

    atom = LeafMeasure(root, "atomic", atoms=((0, 1.0),))
    g = unit_field(root, [1.0, 0.0, 0.0, 0.0])
    # every leaf sees the atom through the root, where the average is 1
    assert np.allclose(mu_maximal(g, atom).values, 1.0)

    empty = LeafMeasure(root, "atomic", atoms=())
    with pytest.raises(ZeroMeasure):
        mu_maximal(g, empty)


def test_mu_maximal_matches_oracle():
    root = RootSpec(1, 3)
    for seed in range(8):
        g = random_field(root, seed)
        if seed % 2:
            mu = random_density(root, seed + 20)
        else:
            rng = np.random.default_rng(seed + 40)
            where = rng.choice(8, size=3, replace=False)
            mu = LeafMeasure(
                root, "atomic",
                atoms=tuple((int(i), float(w)) for i, w in zip(where, rng.uniform(0.5, 2.0, 3))),
            )
        masses = mu.leaf_masses()
        out = mu_maximal(g, mu).values
        for lin in range(8):
            multi = root.leaf_cube(lin).index
            want = oracles.mu_average_maximal_leaf(g.values, masses, 1, 3, multi)
            assert out[lin] == pytest.approx(want, rel=1e-12, abs=1e-15)
