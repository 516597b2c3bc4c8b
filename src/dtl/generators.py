"""Seeded input generators for experiments.

Every kind is a deterministic function of (grid, kind, seed).  Field
kinds exercise different shapes: flat data, rough data, an integrable
point singularity, and a few isolated tall spikes.  Measure kinds cover
purely atomic mass and a bounded-oscillation density (the bounded
dynamic range keeps Muckenhoupt characteristics uniform in depth).
"""

from __future__ import annotations

import numpy as np

from .errors import BadKind
from .grid import LeafField, LeafMeasure, RootSpec, power

FIELD_KINDS = ("constant", "uniform", "power-spike", "sparse-spikes")
MEASURE_KINDS = ("atom-measure", "density-measure")


def _leaf_center_axes(root: RootSpec) -> list[np.ndarray]:
    side = root.leaf_side
    ax = (np.arange(1 << root.depth) + 0.5) * side
    return [ax] * root.dim


def _power_spike(root: RootSpec, rng: np.random.Generator) -> np.ndarray:
    gamma = root.dim / 4.0  # inside (0, dim): an integrable singularity
    x0 = rng.uniform(0.0, 1.0, size=root.dim)
    # each axis squared on its own, then broadcast into the grid sum in
    # axis order, so every leaf's sum is formed as from full-grid arrays
    rsq = np.zeros(root.grid_shape)
    for d, ax in enumerate(_leaf_center_axes(root)):
        rsq += ((ax - x0[d]) ** 2).reshape([-1 if e == d else 1 for e in range(root.dim)])
    with np.errstate(divide="ignore"):
        vals = power(rsq, -gamma / 2.0)
    # the cell holding the singularity gets the max over an 8^dim
    # subgrid of off-center samples, so the value stays finite
    hit = tuple(min(int(x0[d] * (1 << root.depth)), (1 << root.depth) - 1)
                for d in range(root.dim))
    side = root.leaf_side
    corner = np.array(hit) * side
    offs = (np.arange(8) + 0.5) / 8.0 * side
    sub = np.meshgrid(*[corner[d] + offs for d in range(root.dim)], indexing="ij")
    sub_rsq = np.zeros_like(sub[0])
    for d in range(root.dim):
        sub_rsq += (sub[d] - x0[d]) ** 2
    good = sub_rsq > 0
    vals[hit] = np.max(power(sub_rsq[good], -gamma / 2.0))
    return vals


def generate_input(
    root: RootSpec, kind: str, seed, spikes: int = 3
) -> LeafField | LeafMeasure:
    """Deterministic input of the requested kind.

    Field kinds return a LeafField, measure kinds a LeafMeasure; the
    same (root, kind, seed) always reproduces identical bytes.  `seed` is
    anything np.random.default_rng takes; a Generator is drawn from as is.
    "power-spike" is |x - x0|^(-dim/4) around a seeded point x0, and
    "sparse-spikes" puts `spikes` tall values on seeded leaves.
    """
    rng = np.random.default_rng(seed)
    shape = root.grid_shape
    if kind == "constant":
        return LeafField(root, np.ones(shape))
    if kind == "uniform":
        return LeafField(root, rng.uniform(0.0, 1.0, size=shape))
    if kind == "power-spike":
        return LeafField(root, _power_spike(root, rng))
    if kind == "sparse-spikes":
        vals = np.zeros(shape)
        count = min(spikes, root.leaf_count)
        where = rng.choice(root.leaf_count, size=count, replace=False)
        heights = power(2.0, rng.uniform(0.0, 8.0, size=count))
        flat = vals.reshape(-1)
        flat[where] = heights
        return LeafField(root, vals)
    if kind == "atom-measure":
        count = min(3, root.leaf_count)
        where = rng.choice(root.leaf_count, size=count, replace=False)
        masses = power(2.0, rng.uniform(0.0, 4.0, size=count))
        atoms = tuple((int(i), float(m)) for i, m in zip(where, masses))
        return LeafMeasure(root, "atomic", atoms=atoms)
    if kind == "density-measure":
        dens = power(2.0, rng.uniform(-4.0, 2.0, size=shape))
        return LeafMeasure(root, "density", density=dens)
    raise BadKind(f"unknown input kind {kind!r}")
