"""Symmetry laws for the testing sup and the ids built on it.

Reflecting axis 0, and in d2 transposing the axes, maps the dyadic cubes
of the grid one to one onto themselves, so a value built from cube sums
and cube sups can move only by summation order.  Across the testing sup
(d1 L5/L8, d2 L3/L5, reflection in d3 L2; both measure kinds and every
field kind; four betas and three p) and thm1.2b, eq1.4-left, eq1.4-right
and eq4.1 (d1 L4/5/6/8, d2 L3/4/5, 8 trials), the worst relative change
measured was 6.7e-16, about 3 ulps; _BOUND allows 15 times that.
Values are compared, not witnesses: ties are broken row-major, which no
symmetry keeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from dtl import ExponentProfile, LeafField, LeafMeasure, RootSpec, aggregate
from dtl.generators import FIELD_KINDS, generate_input
from dtl.harness import ExperimentSpec, run_trial
from dtl.norms import maximal_testing_sup
from dtl.registry import evaluate_inequality, lookup

_BOUND = 1e-14


def _moves(dim):
    moves = [lambda grid: np.flip(grid, axis=0)]
    if dim == 2:
        moves.append(lambda grid: grid.T)
    return moves


def _moved(obj, move):
    """`obj` with its leaves moved; flat leaf arrays and atom indices are
    row-major over grid_shape, so they are reshaped before the move."""
    if obj is None:
        return None
    root = obj.root
    if isinstance(obj, LeafField):
        return LeafField(root, move(obj.values.reshape(root.grid_shape)).ravel())
    if obj.kind == "density":
        return LeafMeasure(
            root, "density", density=move(obj.density.reshape(root.grid_shape)).ravel()
        )
    # leaf j of the moved grid holds what stood on leaf source[j]
    source = move(np.arange(root.leaf_count).reshape(root.grid_shape)).ravel()
    target = np.argsort(source)
    return LeafMeasure(
        root, "atomic", atoms=tuple((int(target[i]), m) for i, m in obj.atoms)
    )


def _close(a, b):
    return a == b or abs(a - b) <= _BOUND * max(abs(a), abs(b))


@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3), (3, 2)])
def test_testing_sup_symmetric(dim, depth):
    root = RootSpec(dim, depth)
    for seed in range(3):
        kinds = ("density-measure", "atom-measure") + FIELD_KINDS
        for data in (generate_input(root, kind, seed) for kind in kinds):
            for move in _moves(dim):
                agg, moved = aggregate(data), aggregate(_moved(data, move))
                for beta in (0.0, 0.5 * dim, 0.9 * dim):
                    for p in (1.2, 2.0, 3.0):
                        a = maximal_testing_sup(agg, beta, p).value
                        b = maximal_testing_sup(moved, beta, p).value
                        assert _close(a, b), (data, beta, p, a, b)


@pytest.mark.parametrize("ineq", ["thm1.2b", "eq1.4-left", "eq1.4-right", "eq4.1"])
@pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3)])
def test_testing_ids_symmetric(ineq, dim, depth):
    spec = ExperimentSpec(ineq, dims=(dim,), depths=(depth,), trials=4)
    profile = ExponentProfile.default(spec.m, dim, low_p=lookup(ineq).low_p)
    for trial in range(spec.trials):
        rec = run_trial(spec, dim, depth, trial)
        inputs = rec["inputs"]
        for move in _moves(dim):
            out = evaluate_inequality(
                ineq,
                profile,
                [_moved(f, move) for f in inputs["fields"]],
                _moved(inputs["measure"], move),
                _moved(inputs["g"], move),
            )
            assert _close(out.lhs, rec["lhs"]), (trial, out.lhs, rec["lhs"])
            assert _close(out.rhs, rec["rhs"]), (trial, out.rhs, rec["rhs"])
