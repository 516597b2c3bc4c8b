"""Slow reference implementations used to cross-check the library.

Everything here recomputes sums, norms, and constants with plain loops
over every cube and leaf.  No code is shared with the package beyond
reading raw leaf data, so agreement is evidence, not tautology.  The two
numpy transcriptions, localized_numerators and testing_sup_levelwise,
keep numpy where the bits of the testing functional come from it (array
powers and pairwise sums), so the library can be held to them with ==.
The stopping-time builders take the package's per-level integral tables
as input: the stopping rule compares those values bit for bit, and what
the builders check is the construction on top of them, not the sums.
The "copying forms" at the end keep the package's earlier numpy forms of
its hot loops (a parent level copied onto its children's grid, one 3Q
box sum per cube address, a tensordot per field, a two-pass leaf check,
lemma 2.2 read one member at a time); the loops are held to them byte
for byte.
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


def testing_sup_levelwise(levels, beta, p, leaf_volume):
    """The testing sup's level-wise algorithm, one numpy step per level:
    the candidates c_k = mass * 2^(k (dim - beta)) are carried down as a
    suffix max of unpowered values, each level's leaf maxima are raised
    to p' after the max (leaves * levels array powers), every cube's
    leaves are regrouped into one row-major row and summed, and the root
    (num / den)^(1/p') is a Python float power per cube of positive
    mass.  `levels` are the package's per-level mass tables.  Returns
    the per-level numerator tables and (value, (level, index)) with the
    first cube in scan order attaining the sup; zero-mass cubes count
    as 0."""
    dim = levels[0].ndim
    pprime = p / (p - 1.0)
    cand = [table * 2.0 ** (k * (dim - beta)) for k, table in enumerate(levels)]
    side = cand[-1].shape[0]
    rows_first = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
    leaf_max = cand[-1]
    nums = []
    for c_j in reversed(cand):
        c = c_j.shape[0]
        s = side // c
        blocks = np.maximum(leaf_max.reshape((c, s) * dim), c_j.reshape((c, 1) * dim))
        leaf_max = blocks.reshape((side,) * dim)
        rows = np.ascontiguousarray(blocks.transpose(rows_first)).reshape((c,) * dim + (s ** dim,))
        nums.append((rows ** pprime).sum(axis=-1) * leaf_volume)
    nums.reverse()
    best, witness = -math.inf, (0, (0,) * dim)
    for level, index in all_cubes(dim, len(levels) - 1):
        value = 0.0
        den = float(levels[level][index])
        if den > 0:
            value = (float(nums[level][index]) / den) ** (1.0 / pprime)
        if value > best:
            best, witness = value, (level, index)
    return nums, best, witness


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


def kernel_quadrature(fields, alpha):
    """Multilinear midpoint quadrature, one leaf-center tuple at a time:
    at each leaf center x, the sum over (y_1, ..., y_m) of
    prod_i f_i(y_i) * (sum_i |x - y_i|)^(alpha - m n) * h^(m n).  The
    fully diagonal tuple is replaced in dimension 1 by the textbook cell
    integral 2^m sum_j (-1)^(m-j) C(m,j) (j h/2)^alpha / prod_r (alpha - m + r),
    r = 1..m (alpha not an integer below m), and omitted in dimension >= 2."""
    root = fields[0].root
    dim, depth, m = root.dim, root.depth, len(fields)
    h = 1.0 / (1 << depth)
    leaves = list(itertools.product(range(1 << depth), repeat=dim))
    vals = [[float(v) for v in f.values] for f in fields]
    cell = 0.0
    if dim == 1:
        cell = sum(
            (-1) ** (m - j) * math.comb(m, j) * (j * h / 2.0) ** alpha for j in range(m + 1)
        )
        cell *= 2.0 ** m / math.prod(alpha - m + r for r in range(1, m + 1))
    out = []
    for ix, x in enumerate(leaves):
        acc = math.prod(v[ix] for v in vals) * cell
        for tup in itertools.product(range(len(leaves)), repeat=m):
            if all(iy == ix for iy in tup):
                continue
            dist = sum(
                math.sqrt(sum(((a - b) * h) ** 2 for a, b in zip(x, leaves[iy])))
                for iy in tup
            )
            prod = math.prod(v[iy] for v, iy in zip(vals, tup))
            acc += prod * dist ** (alpha - m * dim) * h ** (m * dim)
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
    total = 0.0
    for cube in chosen:  # a left fold, as the package adds; builtin sum compensates from 3.12
        total += score(cube)
    return total, tuple(chosen)


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


# ---- copying forms of the package's hot loops ----


def spread(table):
    """A level table copied onto the next level's grid: each child gets
    its parent's entry."""
    for ax in range(table.ndim):
        table = np.repeat(table, 2, axis=ax)
    return table


def spread_sweep(levels, combine):
    """Leaf table of combine(parent's accumulated entry, child's entry)
    along every root-to-leaf chain of per-level tables."""
    acc, *below = levels
    for level in below:
        acc = combine(spread(acc), level)
    return acc


def spread_stopping_masks(values, base, factor, alive=None):
    """Per-level member masks of the stopping family under base (a
    (level, index) pair): a cube strictly inside it stops when its value
    strictly exceeds factor times that of its nearest member ancestor."""
    level, index = base
    masks = [np.zeros(v.shape, dtype=bool) for v in values[: level + 1]]
    masks[-1][index] = True
    thr = np.full(values[level].shape, np.inf)
    thr[index] = factor * values[level][index]
    for k in range(level + 1, len(values)):
        thr = spread(thr)
        stop = values[k] > thr
        if alive is not None:
            stop &= alive[k]
        thr = np.where(stop, factor * values[k], thr)
        masks.append(stop)
    return masks


def spread_owner_tables(masks):
    """Per-level owner tables of per-level member masks: the member
    count, in layout order, of the smallest member containing each cube,
    -1 where none does."""
    own = np.full(masks[0].shape, -1, dtype=np.int64)
    count, tables = 0, []
    for k, mask in enumerate(masks):
        if k:
            own = spread(own)
        fresh = np.count_nonzero(mask)
        own[mask] = np.arange(count, count + fresh)
        count += fresh
        tables.append(own)
    return tables


def per_cube_majorant(grids, alpha, leaf_volume):
    """Enlargement majorant of leaf grids, one cube at a time: per cube
    of level k, 2^(-k alpha) 2^(k n m) times the product of the grids'
    sums over 3Q clipped to the root, each times the leaf volume; then
    summed down every root-to-leaf chain."""
    dim, m = grids[0].ndim, len(grids)
    side = grids[0].shape[0]
    depth = side.bit_length() - 1
    levels = []
    for k in range(depth + 1):
        step = 1 << (depth - k)
        table = np.empty((1 << k,) * dim)
        for index in itertools.product(range(1 << k), repeat=dim):
            box = tuple(slice(max((i - 1) * step, 0), min((i + 2) * step, side)) for i in index)
            prod = 1.0
            for g in grids:
                prod *= float(g[box].sum() * leaf_volume)
            table[index] = 2.0 ** (-k * alpha) * 2.0 ** (k * dim * m) * prod
        levels.append(table)
    return spread_sweep(levels, np.add).ravel()


def tensordot_quadrature(values, dim, depth, alpha, diag):
    """Midpoint quadrature of the multilinear fractional integral by a
    lag table contracted with np.tensordot, one field at a time from the
    last; `values` are the fields' leaf arrays and `diag` the exact
    diagonal cell integral added in dimension 1."""
    m, side = len(values), 1 << depth
    nleaf, h = side ** dim, 1.0 / side
    lag = np.arange(1 - side, side) * h
    dist = np.linalg.norm(np.stack(np.meshgrid(*[lag] * dim, indexing="ij"), axis=-1), axis=-1)
    table = np.zeros((2 * side - 1,) * (m * dim))
    for i in range(m):
        table = table + dist.reshape((1,) * (i * dim) + dist.shape + (1,) * ((m - 1 - i) * dim))
    with np.errstate(divide="ignore"):
        np.power(table, alpha - m * dim, out=table)
    table[(side - 1,) * (m * dim)] = 0.0
    vol = (2.0 ** (-depth * dim)) ** m
    out = np.empty(nleaf)
    for ix, x in enumerate(itertools.product(range(side), repeat=dim)):
        window = tuple(slice(side - 1 - c, 2 * side - 1 - c) for c in x)
        contracted = table[window * m].reshape((nleaf,) * m)
        for i in range(m - 1, -1, -1):
            contracted = np.tensordot(contracted, values[i], axes=([i], [0]))
        acc = float(contracted) * vol
        if dim == 1:
            acc += math.prod(float(v[ix]) for v in values) * diag
        out[ix] = acc
    return out


def two_pass_leaf_check(values, non_finite, negative):
    """Leaf values as a flat float64 array, -0.0 read as +0.0, checked in
    two passes: every value finite (else raise non_finite), and, where a
    sign bit is set, every value nonnegative (else raise negative)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise non_finite("leaf values must be finite")
    if np.signbit(arr).any():
        if np.any(arr < 0):
            raise negative("leaf values must be nonnegative")
        arr = arr + 0.0
    return arr


def per_member_lemma22(members, weight, weighted_levels, mass_levels, p_vec, m, dim, r=None):
    """Lemma 2.2 over a family of (level, index) members, one member at a
    time: (lhs, a0, witness).  The lhs adds, member by member, weight(k)
    times each weighted integral of the member; a0 is the first largest
    of weight(k) 2^(-k n (m - sum 1/p_i)) times each (mass 2^(k n)) to
    the 1/p_i', or to the 1/(r p_i') with a bump exponent r."""
    sum_recip = 0.0
    for pi in p_vec:
        sum_recip += 1.0 / pi
    lhs = 0.0
    for level, index in members:
        term = weight(level)
        for levels in weighted_levels:
            term *= float(levels[level][index])
        lhs += term
    piprimes = [pi / (pi - 1.0) for pi in p_vec]
    a0, witness = 0.0, None
    for level, index in members:
        mass = float(mass_levels[level][index])
        val = weight(level) * 2.0 ** (-level * dim * (m - sum_recip))
        for piprime in piprimes:
            if r is None:
                val *= (mass * 2.0 ** (level * dim)) ** (1.0 / piprime)
            else:
                val *= (mass * 2.0 ** (level * dim)) ** (1.0 / (r * piprime))
        if val > a0:
            a0, witness = val, (level, index)
    return lhs, a0, witness
