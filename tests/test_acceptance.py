"""Acceptance battery.

Ten end-to-end checks, one per guarantee the package makes.  Each test
prints a single PASS/FAIL line (run with -s to see the checklist) and
then asserts, so a red line and a red test always coincide.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from dtl import (
    CubeAddr,
    ExponentProfile,
    KernelWeight,
    LeafField,
    LeafMeasure,
    RootSpec,
    a0_constant,
    adams_constant,
    aggregate,
    ap_characteristic,
    condition_d_bound,
    condition_d_ratio,
    cq_constant,
    cube_stats,
    generate_input,
    ks_testing_constant,
    lebesgue_norm,
    modified_morrey_norm,
    morrey_norm,
    product_morrey_norm,
    radon_morrey_norm,
)
from dtl.decompositions import (
    build_principal_cubes,
    build_sparse_family,
    classify_children,
    corona_projection,
    sparse_dominate,
    stopping_parent,
)
from dtl.generators import FIELD_KINDS
from dtl.harness import (
    EXACT_SUITE_IDS,
    EXACT_TOL,
    ExperimentSpec,
    growth_slope,
    sweep,
    trial_seed,
    verify_suite,
)
from dtl.report import canonical_json, constants_csv, sweep_csv

CONFIGS = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} failed: {detail}"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_acceptance_01_oracle_equivalence():
    ok = True
    for seed in range(100):
        dim, depth = CONFIGS[seed % 6]
        root = RootSpec(dim, depth)
        rng = np.random.default_rng(1000 + seed)
        f = LeafField(root, rng.uniform(0.1, 4.0, root.leaf_count))
        f2 = LeafField(root, rng.uniform(0.1, 4.0, root.leaf_count))
        mu = LeafMeasure(root, "density", density=rng.uniform(0.2, 3.0, root.leaf_count))
        agg_f, agg_mu = aggregate(f), aggregate(mu)
        masses = mu.leaf_masses()

        cubes = oracles.all_cubes(dim, depth)
        for j in rng.choice(len(cubes), size=min(20, len(cubes)), replace=False):
            level, index = cubes[j]
            got = cube_stats(agg_f, CubeAddr(level, index)).sum
            ok &= _close(got, oracles.field_integral(f, (level, index)))

        ok &= _close(lebesgue_norm(f, 1.7), oracles.lebesgue_norm(f, 1.7))
        ok &= _close(lebesgue_norm(f, 2.3, mu), oracles.lebesgue_norm(f, 2.3, mu))
        ok &= _close(morrey_norm(f, 1.3, 1.9).value, oracles.morrey_norm(f, 1.3, 1.9))
        prof2 = ExponentProfile.default(2, dim)
        ok &= _close(
            product_morrey_norm([f, f2], prof2).value,
            oracles.product_morrey_norm([f, f2], prof2.p_vec, prof2.p, prof2.p0),
        )
        ok &= _close(
            radon_morrey_norm(f, 2.0, 2.5, mu).value,
            oracles.radon_morrey_norm(f, 2.0, 2.5, mu),
        )
        prof1 = ExponentProfile.default(1, dim)
        if root.leaf_count <= 64:
            # the quartic-cost naive testing scans stay on small grids
            ok &= _close(
                ks_testing_constant(agg_mu, prof1.beta, prof1.p).value,
                oracles.testing_sup(masses, dim, depth, prof1.beta, prof1.p, root.leaf_volume),
            )
            ok &= _close(
                modified_morrey_norm(f, prof1.p, prof1.alpha).value,
                oracles.modified_morrey_norm(f, prof1.p, prof1.alpha),
            )

        ok &= _close(adams_constant(agg_mu, 0.6 * dim).value, oracles.adams_constant(mu, 0.6 * dim))
        kern2 = KernelWeight.canonical(prof2.alpha, 2, dim)
        kfn2 = lambda level: kern2.at_level(level, dim)
        for form in ("weight-a", "bump-b", "sparse-a", "sparse-b"):
            got = a0_constant(mu, prof2, form).value
            want = oracles.a0_constant(mu, form, prof2.beta, prof2.p, kernel=kfn2, m=2, r=2.0)
            ok &= _close(got, want)
        ok &= _close(ap_characteristic(f, 2.0).value, oracles.ap_characteristic(f, 2.0))
        lvl = 1 + seed % depth
        ok &= _close(
            condition_d_ratio(kern2, prof2, CubeAddr(lvl, (0,) * dim)),
            oracles.condition_d_ratio(kfn2, 2, prof2.p0, dim, (lvl, (0,) * dim)),
        )
    _verdict(1, ok, "naive-loop oracles agree with stats, norms, and scan constants")


def _product_average(aggs, cube):
    vol = cube.volume ** len(aggs)
    prod = 1.0
    for agg in aggs:
        prod *= agg.sum_of(cube)
    return prod / vol


def test_acceptance_02_stopping_families_pack_exactly():
    ok = True
    for i in range(200):
        depth = 2 + i % 3
        root = RootSpec(1, depth)
        if i % 2 == 0:
            m = 1 + (i // 2) % 2
            aggs = [
                aggregate(generate_input(root, FIELD_KINDS[(i + k) % 4], 5000 + 7 * i + k))
                for k in range(m)
            ]
            fam = build_sparse_family(aggs, root.root_cube())
            ok &= fam.certificate.is_sparse
            seen: set[int] = set()
            count = 0
            for cube in fam.cubes:
                leaves = {int(v) for v in fam.certificate.e_leaves[cube]}
                ok &= not (leaves & seen)
                seen |= leaves
                count += len(leaves)
                ok &= 2.0 * len(leaves) * root.leaf_volume >= cube.volume
            ok &= count == len(seen)
            for parent in fam.cubes:
                base_avg = _product_average(aggs, parent)
                for child in fam.cubes:
                    if child != parent and parent.contains(child):
                        direct = all(
                            not (parent.contains(mid) and mid.contains(child))
                            for mid in fam.cubes
                            if mid not in (parent, child)
                        )
                        if direct:
                            ok &= _product_average(aggs, child) > (2.0 ** m) * base_avg
        else:
            h = generate_input(root, FIELD_KINDS[i % 4], 6000 + i)
            nu = None if i % 4 == 1 else generate_input(root, "density-measure", 6100 + i)
            forest = build_principal_cubes(h, nu, root.root_cube())
            agg_h = aggregate(h)
            if nu is None:
                weigh = lambda c: c.volume
                upper = lambda c: agg_h.sum_of(c)
            else:
                agg_nu = aggregate(nu)
                hw = aggregate(LeafField(root, h.values * nu.leaf_masses() / root.leaf_volume))
                weigh = lambda c: agg_nu.sum_of(c)
                upper = lambda c: hw.sum_of(c)
            for member, kids in forest.children.items():
                for kid in kids:
                    ok &= forest.averages[kid] > 2.0 * forest.averages[member]
            for level, index in oracles.all_cubes(1, depth):
                cube = CubeAddr(level, index)
                if forest.is_member(cube) or weigh(cube) <= 0:
                    continue
                avg = upper(cube) / weigh(cube)
                ok &= avg <= 2.0 * forest.averages[stopping_parent(forest, cube)] * (1 + 1e-12)
    _verdict(2, ok, "sparse and corona builders stop strictly past 2^m and pack half-mass")


def test_acceptance_03_exact_identities():
    ok = True
    for ineq_id in EXACT_SUITE_IDS:
        for dims, depths, seed in (((1,), (2, 3, 4), 21), ((2,), (2, 3), 22)):
            rep = sweep(
                ExperimentSpec(ineq_id, dims=dims, depths=depths, trials=10, seed=seed, m=1)
            )
            ok &= rep.passed
            ok &= all(row["max_ratio"] <= EXACT_TOL for row in rep.rows)
    _verdict(3, ok, "constant-one identities hold to within 1e-12 on random inputs")


def test_acceptance_04_corona_classification():
    ok = True
    for i in range(100):
        depth = 2 + i % 3
        root = RootSpec(1, depth)
        g = generate_input(root, FIELD_KINDS[i % 4], 8000 + i)
        f = generate_input(root, FIELD_KINDS[(i + 2) % 4], 8200 + i)
        nu = generate_input(
            root, ("density-measure", "atom-measure")[i % 2], 8400 + i
        )
        if aggregate(nu).total <= 0:
            continue
        g_forest = build_principal_cubes(g, nu, root.root_cube())
        f_forest = build_principal_cubes(f, None, root.root_cube())
        for member in g_forest.members:
            cls = classify_children(g_forest, f_forest, member)
            kids = set(g_forest.children[member])
            split = set(cls.at_child) | set(cls.inside) | set(cls.above)
            ok &= split == kids
            ok &= len(cls.at_child) + len(cls.inside) + len(cls.above) == len(kids)
            proj = corona_projection(f, g_forest, member)
            agg_f, agg_p = aggregate(f), aggregate(proj)
            for level, index in oracles.all_cubes(1, depth):
                cube = CubeAddr(level, index)
                if stopping_parent(g_forest, cube) != member:
                    continue
                want = agg_f.sum_of(cube)
                got = agg_p.sum_of(cube)
                ok &= math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    _verdict(4, ok, "stopping children classify three ways and projections keep integrals")


def test_acceptance_05_sparse_domination_stays_flat():
    ok = True
    details = []
    for m in (1, 2):
        depths = (2, 3, 4, 5, 6, 7)
        maxima = []
        for depth in depths:
            worst = 0.0
            for trial in range(50):
                root = RootSpec(1, depth)
                aggs = [
                    aggregate(
                        generate_input(
                            root,
                            FIELD_KINDS[(trial + i) % 4],
                            trial_seed(7, 1, depth, trial, 10 + i),
                        )
                    )
                    for i in range(m)
                ]
                worst = max(worst, sparse_dominate(aggs, 0.75).constant)
            maxima.append(worst)
        slope = growth_slope(depths, maxima)
        ok &= slope <= 0.05 and maxima[5] <= 1.5 * maxima[1]
        details.append(f"m={m} slope {slope:.4f}")
    _verdict(5, ok, "pointwise sparse domination constants: " + ", ".join(details))


def test_acceptance_06_trace_sweeps_pass_thresholds():
    runs = (
        ("thm1.1a", ("density-measure",), 60),
        ("thm1.1b", ("density-measure",), 60),
        ("thm1.2a", ("density-measure",), 120),
        ("thm1.2a", ("atom-measure",), 60),
        ("thm1.2b", ("density-measure",), 120),
        ("thm1.2b", ("atom-measure",), 60),
    )
    ok = True
    for ineq_id, kinds, trials in runs:
        rep = sweep(
            ExperimentSpec(
                ineq_id,
                dims=(2,),
                depths=(2, 3, 4),
                trials=trials,
                seed=3,
                m=2,
                measure_kinds=kinds,
            )
        )
        ok &= rep.passed
    _verdict(6, ok, "trace-inequality ratio sweeps stay within the growth thresholds")


def test_acceptance_07_pointwise_bound_sweeps():
    ok = True
    for m in (1, 2):
        rep = sweep(
            ExperimentSpec(
                "hedberg-pointwise",
                dims=(1,),
                depths=(8, 9, 10, 11, 12),
                trials=40,
                seed=3,
                m=m,
            )
        )
        ok &= rep.passed
    _verdict(7, ok, "normalized pointwise-bound sweeps stay within the growth thresholds")


def test_acceptance_08_score_search_brackets():
    kern = KernelWeight.canonical(0.5, 1, 1)
    ok = True
    worst = 0.0
    for seed in range(100):
        root = RootSpec(1, 3)
        mu = generate_input(
            root, ("density-measure", "atom-measure")[seed % 2], 3000 + seed
        )
        agg = aggregate(mu)
        if agg.total <= 0:
            continue
        base = root.root_cube()
        greedy = cq_constant(agg, kern, 2.0, base, mode="greedy").value
        exact = cq_constant(agg, kern, 2.0, base, mode="exhaustive").value
        bound = cq_constant(agg, kern, 2.0, base, mode="bound").value
        ok &= greedy <= exact * (1 + 1e-12)
        worst = max(worst, exact / bound)
    ok &= worst <= 10.0
    _verdict(8, ok, f"greedy search never beats exhaustive; worst exact/bound {worst:.3f}")


def test_acceptance_09_tail_ratio_formula():
    profiles = (
        ExponentProfile.default(1, 1),
        ExponentProfile.default(2, 1),
        ExponentProfile.default(2, 2),
        ExponentProfile(m=2, n=2, alpha=1.0, beta=0.5, p_vec=(2.4, 2.4), p0=1.5),
    )
    ok = True
    for prof in profiles:
        kern = KernelWeight.canonical(prof.alpha, prof.m, prof.n)
        bound = condition_d_bound(prof)
        gap = prof.n / prof.p0 - prof.alpha
        for level in range(1, 6):
            want = sum(2.0 ** (-d * gap) for d in range(1, level + 1))
            corner = condition_d_ratio(kern, prof, CubeAddr(level, (0,) * prof.n))
            shifted = condition_d_ratio(kern, prof, CubeAddr(level, (1,) * prof.n))
            ok &= math.isclose(corner, want, rel_tol=1e-12)
            ok &= math.isclose(shifted, want, rel_tol=1e-12)
            ok &= corner <= bound
    _verdict(9, ok, "ancestor tail ratios match the geometric series and its closed bound")


def test_acceptance_10_reports_are_reproducible():
    first = canonical_json(verify_suite("all", dim=1, depth=3, trials=10, seed=1))
    second = canonical_json(verify_suite("all", dim=1, depth=3, trials=10, seed=1))
    ok = first == second

    spec = ExperimentSpec("thm1.1b", dims=(1,), depths=(2, 3, 4), trials=15, seed=5, m=1)
    rep_a, rep_b = sweep(spec), sweep(spec)
    ok &= canonical_json(rep_a.to_doc()) == canonical_json(rep_b.to_doc())
    ok &= sweep_csv(rep_a) == sweep_csv(rep_b)

    def table() -> str:
        root = RootSpec(1, 3)
        mu = generate_input(root, "density-measure", 77)
        agg = aggregate(mu)
        prof = ExponentProfile.default(1, 1)
        return constants_csv(
            [
                adams_constant(agg, 0.5),
                ks_testing_constant(agg, prof.beta, prof.p),
                a0_constant(mu, prof, "weight-a"),
                ap_characteristic(LeafField(root, mu.density), "infinity"),
            ]
        )

    ok &= table() == table()
    _verdict(10, ok, "identical seeds reproduce every report byte for byte")
