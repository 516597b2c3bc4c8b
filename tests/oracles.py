"""Slow reference implementations used to cross-check the library.

Everything here recomputes sums, norms, and constants with plain loops
over every cube and leaf.  No code is shared with the package beyond
reading raw leaf data, so agreement is evidence, not tautology.  The one
numpy transcription, localized_numerators, keeps numpy where the bits of
the per-cube testing functional come from it (array powers and pairwise
sums), so the library can be held to it with ==.  The stopping-time
builders take the package's per-level integral tables as input: the
stopping rule compares those values bit for bit, and what the builders
check is the construction on top of them, not the sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def all_cubes(dim, depth):
    """Every (level, index) pair, level 0 first, row-major inside a level."""
    out = []
    for level in range(depth + 1):
        side = 1 << level
        for index in itertools.product(range(side), repeat=dim):
            out.append((level, index))
    return out


def leaves_inside(dim, depth, cube):
    level, index = cube
    shift = depth - level
    ranges = [range(i << shift, (i + 1) << shift) for i in index]
    return list(itertools.product(*ranges))


def leaf_linear(multi, depth):
    side = 1 << depth
    lin = 0
    for c in multi:
        lin = lin * side + c
    return lin


def ancestor_at(multi, depth, level):
    """Cube at `level` containing the leaf with multi-index `multi`."""
    shift = depth - level
    return (level, tuple(c >> shift for c in multi))


def cube_side(cube):
    return 2.0 ** (-cube[0])


def cube_volume(cube, dim):
    return 2.0 ** (-cube[0] * dim)


def contains(outer, inner):
    """outer contains inner (dyadic nesting, same tree)."""
    lo, io = outer
    li, ii = inner
    if lo > li:
        return False
    shift = li - lo
    return all(c >> shift == o for c, o in zip(ii, io))


def field_integral(f, cube):
    dim, depth = f.root.dim, f.root.depth
    vol = f.root.leaf_volume
    vals = f.values
    return sum(
        float(vals[leaf_linear(mm, depth)]) * vol
        for mm in leaves_inside(dim, depth, cube)
    )


def measure_mass(mu, cube):
    dim, depth = mu.root.dim, mu.root.depth
    masses = mu.leaf_masses()
    return sum(
        float(masses[leaf_linear(mm, depth)])
        for mm in leaves_inside(dim, depth, cube)
    )


def masses_in_cube(masses, dim, depth, cube):
    return sum(
        float(masses[leaf_linear(mm, depth)])
        for mm in leaves_inside(dim, depth, cube)
    )


def intersect_mass(masses, dim, depth, r_cube, q_cube):
    """Mass of R cap Q; dyadic cubes are nested or disjoint."""
    if contains(q_cube, r_cube):
        return masses_in_cube(masses, dim, depth, r_cube)
    if contains(r_cube, q_cube):
        return masses_in_cube(masses, dim, depth, q_cube)
    return 0.0


def fractional_maximal_leaf(masses, dim, depth, alpha, multi, localize=None):
    """sup over cubes R containing the leaf of side(R)^(alpha-n) mu(R cap Q)."""
    best = 0.0
    for level in range(depth + 1):
        r_cube = ancestor_at(multi, depth, level)
        if localize is None:
            mass = masses_in_cube(masses, dim, depth, r_cube)
        else:
            mass = intersect_mass(masses, dim, depth, r_cube, localize)
        best = max(best, cube_side(r_cube) ** (alpha - dim) * mass)
    return best


def lebesgue_norm(f, p, mu=None):
    vals = f.values
    if mu is None:
        weights = [f.root.leaf_volume] * f.root.leaf_count
    else:
        weights = [float(w) for w in mu.leaf_masses()]
    total = sum(float(v) ** p * w for v, w in zip(vals, weights))
    return total ** (1.0 / p)


def morrey_norm(f, p, p0):
    dim, depth = f.root.dim, f.root.depth
    powered = [float(v) ** p for v in f.values]
    vol_leaf = f.root.leaf_volume
    best = 0.0
    for cube in all_cubes(dim, depth):
        vol = cube_volume(cube, dim)
        integral = sum(
            powered[leaf_linear(mm, depth)] * vol_leaf
            for mm in leaves_inside(dim, depth, cube)
        )
        best = max(best, vol ** (1.0 / p0) * (integral / vol) ** (1.0 / p))
    return best


def product_morrey_norm(fields, p_vec, p, p0):
    root = fields[0].root
    dim, depth = root.dim, root.depth
    vol_leaf = root.leaf_volume
    powered = [[float(v) ** pi for v in f.values] for f, pi in zip(fields, p_vec)]
    best = 0.0
    for cube in all_cubes(dim, depth):
        vol = cube_volume(cube, dim)
        prod = 1.0
        for vals, pi in zip(powered, p_vec):
            integral = sum(
                vals[leaf_linear(mm, depth)] * vol_leaf
                for mm in leaves_inside(dim, depth, cube)
            )
            prod *= integral ** (1.0 / pi)
        best = max(best, vol ** (1.0 / p0 - 1.0 / p) * prod)
    return best


def radon_morrey_norm(g, q, q0, mu):
    dim, depth = g.root.dim, g.root.depth
    masses = mu.leaf_masses()
    powered = [float(v) ** q for v in g.values]
    best = 0.0
    for cube in all_cubes(dim, depth):
        vol = cube_volume(cube, dim)
        integral = sum(
            powered[leaf_linear(mm, depth)] * float(masses[leaf_linear(mm, depth)])
            for mm in leaves_inside(dim, depth, cube)
        )
        best = max(best, vol ** (1.0 / q0 - 1.0 / q) * integral ** (1.0 / q))
    return best


def testing_sup(masses, dim, depth, beta, p, leaf_volume):
    """sup over Q of (int_Q M_beta[mu 1_Q]^{p'} dx / mu(Q))^{1/p'}; 0/0 -> 0."""
    pprime = p / (p - 1.0)
    best = 0.0
    for cube in all_cubes(dim, depth):
        mass = masses_in_cube(masses, dim, depth, cube)
        if mass <= 0.0:
            continue
        num = sum(
            fractional_maximal_leaf(masses, dim, depth, beta, mm, cube) ** pprime
            * leaf_volume
            for mm in leaves_inside(dim, depth, cube)
        )
        best = max(best, (num / mass) ** (1.0 / pprime))
    return best


def child_sum_levels(masses, dim, depth):
    """Per-level mass tables, each entry the left-to-right sum of its 2^dim
    children in row-major child order (the package's summation order)."""
    levels = [np.asarray(masses, dtype=np.float64).reshape((1 << depth,) * dim)]
    for level in range(depth - 1, -1, -1):
        below = levels[0]
        table = np.zeros((1 << level,) * dim)
        for index in itertools.product(range(1 << level), repeat=dim):
            total = 0.0
            for off in itertools.product((0, 1), repeat=dim):
                total += float(below[tuple(2 * i + o for i, o in zip(index, off))])
            table[index] = total
        levels.insert(0, table)
    return levels


def localized_numerators(masses, dim, depth, beta, p):
    """Integral over Q of M_beta[mu restricted to Q]^p' dx for each cube Q
    of positive mass, keyed by (level, index), computed as one localized
    maximal function per cube: the candidate tables of the restricted
    measure are swept root to leaf over the whole grid, then Q's leaf
    block is raised to p' as an array and summed with np.sum."""
    levels = child_sum_levels(masses, dim, depth)
    pprime = p / (p - 1.0)
    leaf_volume = 2.0 ** (-depth * dim)
    out = {}
    for level, index in all_cubes(dim, depth):
        den = float(levels[level][index])
        if not den > 0:
            continue
        local = None
        for k in range(depth + 1):
            table = np.zeros((1 << k,) * dim)
            if k <= level:
                table[tuple(i >> (level - k) for i in index)] = den
            else:
                step = 1 << (k - level)
                sl = tuple(slice(i * step, (i + 1) * step) for i in index)
                table[sl] = levels[k][sl]
            cand = table * 2.0 ** (k * (dim - beta))
            if local is not None:
                for ax in range(dim):
                    local = np.repeat(local, 2, axis=ax)
                cand = np.maximum(local, cand)
            local = cand
        step = 1 << (depth - level)
        block = local[tuple(slice(i * step, (i + 1) * step) for i in index)]
        out[(level, index)] = (float(np.sum(block ** pprime)) * leaf_volume, den)
    return out


def testing_sup_per_cube(nums, dim, depth, p):
    """testing_sup from the localized_numerators of the same measure, beta
    and p, in scan order: (value, (level, index)) with the first cube
    attaining the sup; zero-mass cubes count as 0."""
    pprime = p / (p - 1.0)
    best, witness = -math.inf, (0, (0,) * dim)
    for cube in all_cubes(dim, depth):
        value = 0.0
        if cube in nums:
            num, den = nums[cube]
            value = (num / den) ** (1.0 / pprime)
        if value > best:
            best, witness = value, cube
    return best, witness


def modified_morrey_norm(f, p, alpha):
    root = f.root
    masses = [float(v) ** p * root.leaf_volume for v in f.values]
    return testing_sup(masses, root.dim, root.depth, alpha, p, root.leaf_volume)


def adams_constant(mu, beta):
    dim, depth = mu.root.dim, mu.root.depth
    masses = mu.leaf_masses()
    best = 0.0
    for cube in all_cubes(dim, depth):
        mass = masses_in_cube(masses, dim, depth, cube)
        best = max(best, mass / cube_side(cube) ** beta)
    return best


def a0_constant(mu, form, beta, p, kernel=None, m=None, r=None):
    """The four A_0-style scans; kernel(level) needed for the sparse forms."""
    dim, depth = mu.root.dim, mu.root.depth
    if form in ("bump-b", "sparse-b"):
        masses = [float(w) ** r * mu.root.leaf_volume for w in mu.density]
        expo = 1.0 / (r * p)
    else:
        masses = mu.leaf_masses()
        expo = 1.0 / p
    best = 0.0
    for cube in all_cubes(dim, depth):
        mass = masses_in_cube(masses, dim, depth, cube)
        vol = cube_volume(cube, dim)
        ratio = (mass / vol) ** expo if mass > 0.0 else 0.0
        if form in ("weight-a", "bump-b"):
            front = cube_side(cube) ** beta
        else:
            front = kernel(cube[0]) * vol ** m
        best = max(best, front * ratio)
    return best


def ap_characteristic(w, p):
    dim, depth = w.root.dim, w.root.depth
    vals = [float(v) for v in w.values]
    if min(vals) <= 0.0:
        return math.inf
    dual = [v ** (-1.0 / (p - 1.0)) for v in vals]
    vol_leaf = w.root.leaf_volume
    best = 0.0
    for cube in all_cubes(dim, depth):
        vol = cube_volume(cube, dim)
        leaves = leaves_inside(dim, depth, cube)
        avg_w = sum(vals[leaf_linear(mm, depth)] for mm in leaves) * vol_leaf / vol
        avg_d = sum(dual[leaf_linear(mm, depth)] for mm in leaves) * vol_leaf / vol
        best = max(best, avg_w * avg_d ** (p - 1.0))
    return best


def condition_d_ratio(kernel, m, p0, dim, cube):
    """Ancestor-sum over own-term ratio for the level-only kernel."""
    level = cube[0]
    expo = float(m) - 1.0 / p0
    own = kernel(level) * cube_volume(cube, dim) ** expo
    above = sum(
        kernel(k) * (2.0 ** (-k * dim)) ** expo for k in range(level)
    )
    return above / own


def dyadic_operator_leaf(fields, kernel, multi):
    """Sum over containing cubes of K(Q) prod_i int_Q f_i."""
    root = fields[0].root
    dim, depth = root.dim, root.depth
    total = 0.0
    for level in range(depth + 1):
        cube = ancestor_at(multi, depth, level)
        prod = kernel(level)
        for f in fields:
            prod *= field_integral(f, cube)
        total += prod
    return total


def kernel_quadrature_1d(f, alpha):
    """Single-field 1-D midpoint quadrature with the exact diagonal cell."""
    depth = f.root.depth
    count = 1 << depth
    h = 1.0 / count
    centers = [(i + 0.5) * h for i in range(count)]
    vals = [float(v) for v in f.values]
    out = []
    for i, x in enumerate(centers):
        acc = vals[i] * 2.0 * (h / 2.0) ** alpha / alpha
        for j, y in enumerate(centers):
            if j != i:
                acc += vals[j] * abs(x - y) ** (alpha - 1.0) * h
        out.append(acc)
    return out


def mu_average_maximal_leaf(gvals, masses, dim, depth, multi):
    """sup over containing cubes with mass of the mu-average of g."""
    best = 0.0
    for level in range(depth + 1):
        cube = ancestor_at(multi, depth, level)
        leaves = leaves_inside(dim, depth, cube)
        mass = sum(float(masses[leaf_linear(mm, depth)]) for mm in leaves)
        if mass <= 0.0:
            continue
        integral = sum(
            float(gvals[leaf_linear(mm, depth)]) * float(masses[leaf_linear(mm, depth)])
            for mm in leaves
        )
        best = max(best, integral / mass)
    return best


def family_is_sparse(dim, depth, family):
    """Canonical sparsity from the definition: every member keeps at least
    half its leaves once the maximal members strictly inside it are
    removed."""
    for cube in family:
        inside = [o for o in family if o != cube and contains(cube, o)]
        maximal = [
            o for o in inside if not any(x != o and contains(x, o) for x in inside)
        ]
        removed = set()
        for o in maximal:
            removed.update(leaves_inside(dim, depth, o))
        own = leaves_inside(dim, depth, cube)
        kept = [leaf for leaf in own if leaf not in removed]
        if 2 * len(kept) < len(own):
            return False
    return True


def _family_candidates(dim, depth, tables, region):
    """Cubes of positive score inside the region, (level, index) order."""

    def score(cube):
        return float(tables[cube[0]][cube[1]])

    found = [
        c for c in all_cubes(dim, depth) if contains(region, c) and score(c) > 0.0
    ]
    return found, score


def greedy_family_sup(dim, depth, tables, region):
    """Greedy packing by (-score, level, index), re-certifying the whole
    family for each candidate; (left-to-right sum in (level, index)
    order, family in that order)."""
    found, score = _family_candidates(dim, depth, tables, region)
    chosen = []
    for cube in sorted(found, key=lambda c: (-score(c), c[0], c[1])):
        if family_is_sparse(dim, depth, chosen + [cube]):
            chosen.append(cube)
    chosen.sort()
    return sum(score(c) for c in chosen), tuple(chosen)


def exhaustive_family_sup(dim, depth, tables, region):
    """Best certified family, the first in depth-first order of
    (level, index)-sorted member lists among equal best sums."""
    found, score = _family_candidates(dim, depth, tables, region)
    best, best_family = 0.0, ()

    def walk(start, members, total):
        nonlocal best, best_family
        if total > best:
            best, best_family = total, tuple(members)
        for j in range(start, len(found)):
            trial = members + [found[j]]
            # certified families are closed under taking subfamilies
            if family_is_sparse(dim, depth, trial):
                walk(j + 1, trial, total + score(found[j]))

    walk(0, [], 0.0)
    return best, best_family


def children_of(cube, dim):
    level, index = cube
    return [
        (level + 1, tuple(2 * i + o for i, o in zip(index, off)))
        for off in itertools.product((0, 1), repeat=dim)
    ]


def stopping_family(dim, depth, value, base, factor, alive=lambda cube: True):
    """Stopping family under `base`, breadth first from the definition:
    below each member S, the maximal alive cubes whose value strictly
    exceeds factor * value(S) are the stopping children of S.  Returns
    the (level, index)-sorted members, their generations and children."""
    generation = {base: 0}
    children = {}
    queue = [base]
    while queue:
        top = queue.pop(0)
        limit = factor * value(top)
        kids = []
        stack = children_of(top, dim) if top[0] < depth else []
        while stack:
            cube = stack.pop()
            if not alive(cube):
                continue
            if value(cube) > limit:
                kids.append(cube)
            elif cube[0] < depth:
                stack.extend(children_of(cube, dim))
        kids.sort()
        children[top] = tuple(kids)
        for kid in kids:
            generation[kid] = generation[top] + 1
        queue.extend(kids)
    return sorted(generation), generation, children


def sparse_stopping_family(dim, depth, level_tables, base):
    """Members of the sparse family of the product average, where
    level_tables[i][k] is the level-k integral table of field i: the
    product of the integrals, scaled by the inverse volumes, stopping
    at 2^m times the member's value; a base of product <= 0 is alone."""
    m = len(level_tables)

    def value(cube):
        prod = 1.0
        for levels in level_tables:
            prod *= float(levels[cube[0]][cube[1]])
        return prod * 2.0 ** (cube[0] * dim * m)

    if not value(base) > 0:
        return [base]
    return stopping_family(dim, depth, value, base, 2.0 ** m)[0]


def corona_forest(dim, depth, h_levels, base, mass_levels=None, weighted_levels=None):
    """Principal cubes of (h, dx) or, with mass and weighted tables, of
    (h, nu): (members, generation, children, averages)."""
    if mass_levels is None:

        def value(cube):
            return float(h_levels[cube[0]][cube[1]]) * 2.0 ** (cube[0] * dim)

        alive = lambda cube: True  # noqa: E731
    else:

        def value(cube):
            mass = float(mass_levels[cube[0]][cube[1]])
            return float(weighted_levels[cube[0]][cube[1]]) / mass if mass > 0 else 0.0

        def alive(cube):
            return float(mass_levels[cube[0]][cube[1]]) > 0

    members, generation, children = stopping_family(dim, depth, value, base, 2.0, alive)
    return members, generation, children, {c: value(c) for c in members}


def smallest_member_containing(members, cube):
    """The deepest member containing the cube, None if there is none."""
    found = [c for c in members if contains(c, cube)]
    return max(found) if found else None


def corona_parent_bound_violations(dim, depth, members, mass_levels, weighted_levels):
    """Cubes of positive mass whose weighted average exceeds twice that
    of their stopping parent (the smallest member containing them), one
    cube at a time in (level, index) order."""
    bad = 0
    for cube in all_cubes(dim, depth):
        mq = float(mass_levels[cube[0]][cube[1]])
        if mq <= 0:
            continue
        pi = smallest_member_containing(members, cube)
        mp = float(mass_levels[pi[0]][pi[1]])
        avg_q = float(weighted_levels[cube[0]][cube[1]]) / mq
        avg_p = float(weighted_levels[pi[0]][pi[1]]) / mp
        if avg_q > 2.0 * avg_p * (1.0 + 1e-12):
            bad += 1
    return bad


def corona_projection_error(dim, depth, members, f_levels, projected_levels):
    """Worst |want - got| / max(|want|, 1) over every cube, where want is
    the integral of f over the cube and got that of the projection of f
    onto the corona of the cube's stopping parent S (projected_levels[S]),
    one cube at a time."""
    worst = 0.0
    for cube in all_cubes(dim, depth):
        member = smallest_member_containing(members, cube)
        want = float(f_levels[cube[0]][cube[1]])
        got = float(projected_levels[member][cube[0]][cube[1]])
        worst = max(worst, abs(want - got) / max(abs(want), 1.0))
    return worst


def sparse_certificate(dim, depth, family):
    """Canonical certificate from the definition, one leaf mask per
    member: (is_sparse, carleson, e_leaves, violations), members in
    (level, index) order, e_leaves as sorted leaf linear lists."""
    members = sorted(set(family))
    size = lambda cube: 1 << (dim * (depth - cube[0]))  # noqa: E731
    e_leaves = {}
    violations = []
    carleson = 0.0
    for cube in members:
        mask = [False] * (1 << (dim * depth))
        for mm in leaves_inside(dim, depth, cube):
            mask[leaf_linear(mm, depth)] = True
        for other in members:
            if other != cube and contains(cube, other):
                for mm in leaves_inside(dim, depth, other):
                    mask[leaf_linear(mm, depth)] = False
        e_leaves[cube] = [lin for lin, keep in enumerate(mask) if keep]
        if 2 * len(e_leaves[cube]) < size(cube):
            violations.append(cube)
        packed = sum(size(o) for o in members if contains(cube, o))
        carleson = max(carleson, packed / size(cube))
    return not violations, carleson, e_leaves, tuple(violations)


def max_ratio_loop(lhs, rhs):
    """max(worst, lhs/rhs) leaf by leaf from 0.0, where 0/0 scores 0 and
    x/0 scores inf: the per-leaf loop the evaluators used to run."""
    worst = 0.0
    for a, b in zip(lhs, rhs):
        a, b = float(a), float(b)
        if b == 0.0:
            r = 0.0 if a == 0.0 else math.inf
        else:
            r = a / b
        worst = max(worst, r)
    return worst


def _json_float(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _json_string(s):
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _json_emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_json_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(_json_string(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(_json_string(str(key)))
            parts.append(": ")
            _json_emit(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            _json_emit(val, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj):
    """Report text emitted one token per element: insertion-order keys,
    17 significant digits, bare NaN/Infinity."""
    parts = []
    _json_emit(obj, parts)
    parts.append("\n")
    return "".join(parts)
