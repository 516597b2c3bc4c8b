"""Every sha256 pin of dtl output, by name, with the recipe that rebuilds it.

A pin is the sha256 of the items its recipe yields, in the order yielded,
each turned into bytes by to_bytes: a JSON document as its canonical_json
text, a CSV as its text, a file's bytes as they are, a float64 array as
its raw bytes and a sup result as its repr.  The tests read the digests
here and nowhere else (a guard in test_imports.py holds that), and
tests/repin.py rebuilds every pin at two versions of the package and
prints how far each moved.

Kinds:
- "sweep": canonical_json(doc) + sweep_csv of a seed-0, 3-trial sweep;
- "verify": canonical_json(verify_suite("all", dim, depth, trials=4, seed=0));
- "decompose": the concatenated `dtl decompose` outputs of decompose_inputs
  for d1 L8 and d2 L5;
- "operators": one operator or norm over seeded d1, d2 and d3 inputs with
  a zeroed subtree, atomic measures included (operator_pass).

Re-pinning: a change that moves bytes on purpose edits digests here only,
and pastes the table of `python tests/repin.py <parent>` into CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import pathlib
import tempfile
from typing import NamedTuple

import numpy as np

from dtl import (
    CubeAddr,
    ExponentProfile,
    KernelWeight,
    LeafField,
    LeafMeasure,
    RootSpec,
    aggregate,
    build_sparse_family,
    dyadic_integral_operator,
    fractional_maximal,
    morrey_norm,
    multilinear_maximal,
    payload,
    product_morrey_norm,
    radon_morrey_norm,
    sparse_integral_operator,
)
from dtl.cli import main
from dtl.generators import FIELD_KINDS, generate_input
from dtl.harness import ExperimentSpec, sweep, verify_suite
from dtl.norms import localized_maximal_integrals, maximal_testing_sup
from dtl.report import canonical_json, sweep_csv, write_text


class Pin(NamedTuple):
    kind: str
    args: tuple
    sha256: str


def _sweep(ineq_id, dims, depths, sha256):
    span = f"{depths[0]}-{depths[-1]}" if len(depths) > 1 else f"{depths[0]}"
    dim = ",".join(map(str, dims))
    return f"sweep {ineq_id} d{dim} L{span}", Pin("sweep", (ineq_id, dims, depths), sha256)


def _verify(dim, depth, sha256):
    return f"verify d{dim} L{depth}", Pin("verify", (dim, depth), sha256)


def _operators(name, sha256):
    return f"operators {name}", Pin("operators", (name,), sha256)


PINS: dict[str, Pin] = dict([
    # recorded before finite float lists were formatted in one call
    _sweep("hedberg-pointwise", (2,), (2, 3),
           "0d500bdeda0936fceea919dc77b4fe9397ac58bb1af2cf8716cd73add6c17ff3"),
    _sweep("thm2.1a", (1,), (4, 5),
           "61f85f3d5ecdd76f418b01710b766e4a7a870f8467fe017b5df5e93177cb21bc"),
    _sweep("morrey-nesting", (1,), (3, 4),
           "80a76476b6cd6618ae9a75e27ba54fb67cd2654ae7c35799dc89bf2a9ab6fe11"),
    # family-sup ids, recorded before cq_supremum searched one layout
    _sweep("thm2.4", (1,), (4, 5, 6),
           "887c50a97173ec51da6283b98d3536fb32ad13a3bc31c2da095cb33ae2f1c25d"),
    _sweep("thm2.4", (2,), (2, 3),
           "d485deca9231841cb233df94f1af9fb4c28230834bb6e6cd172ae31d79bf6598"),
    _sweep("thm2.6", (1,), (4, 5, 6),
           "82ddceff56bd23ff562f6cfb9f6b93492105cb9f4dbb6380d1809e921f18b12e"),
    _sweep("thm2.6", (2,), (2, 3),
           "3a1291ded98093b173527f958dde1fb3b6ead1c575841c1daa646015f21003e3"),
    _sweep("lemma2.5", (1,), (6, 7, 8),
           "bb95c12b6bd25c69035d0d888660b8d9edd3100d1e172ffdd144a8cdbfc0fec2"),
    # kernel quadrature, recorded before each leaf's kernel was sliced
    # from one lag table
    _sweep("discretization", (1,), (4, 5, 6),
           "0e38e35dd37afa9bdf8022b7c0e5bae9a4ecaaf3116b48e1dd54615bd6628a64"),
    _sweep("discretization", (2,), (2, 3),
           "efd09ee16ff03f7158b8390e44a64da495f8915133178eb879ef89b48f5b62f6"),
    # witness lists of 1,024 to 65,536 floats, recorded before long float
    # lists went through the report kernel; morrey-lebesgue-identity holds
    # one constant field only
    _sweep("thm1.1a", (2,), (7, 8),
           "264dcc8ffe4417764118f8c311a617e18ed2a6ec8d2a3e905ea2e0714d8daee0"),
    _sweep("hedberg-pointwise", (2,), (5, 6),
           "286826345d9bcb7e306e4722c7b450f2190f3ee51e245e586879e6a56343c013"),
    _sweep("morrey-lebesgue-identity", (1,), (14,),
           "889c7a90941be086b88abf54b5172cc12f319a9963788382344a0c24bd61ecee"),
    # recorded before the corona checks read the owner tables
    _verify(1, 3, "42cd3bf6238842b6aa15285eb9ea95cce3a957ad26e7e722f9613419cc300b0a"),
    _verify(2, 5, "66da3d211006703e402773146ed5826116eb24427a4f99d6b076c40a909d4f7e"),
    _verify(1, 8, "28c15f7f7fde75ec7e9818eabbf68531b997f294a3ddfb42d1eb9f0bbbcbd6f5"),
    # recorded before the stopping scans became level sweeps
    ("decompose",
     Pin("decompose", (), "8c6940c8d43a4e4661253dcd3fa2b01519a6001f17984cc707d98fb6271f977c")),
    # recorded before these paths were folded onto shared helpers, so a
    # change in summation or multiplication order shows up here; the
    # testing sup and its numerator tables also on one d1 L14 and one d2 L7
    # grid, recorded before their one-layout rewrite
    _operators("fractional_maximal",
               "754d311add925cfc4e3369937bdc781d2426bbd82924715d624fc0919c1d170f"),
    _operators("multilinear_maximal",
               "b327466b64fea930617e2de9e47343d79d345a5e40e36d27d0b7e8140a1b65da"),
    _operators("dyadic_integral_operator",
               "8baa12d576b7c0057fa25a00dde0d9e95820191c91500d9461abf0c52a6095c1"),
    _operators("sparse_integral_operator",
               "8bc5627898a9799fdbb6401c2c5a87e7817ffd12b93a63d1d428e666a619d444"),
    _operators("morrey_norm",
               "7b86811a96b0054f826df56b3bc0cc59198e7dac98b38b1841a88b95e54ca20e"),
    _operators("product_morrey_norm",
               "ceb4b586b38c3f5f1a29d7c8f2f1b1be52736f6da15fcaa2e247207e4b9a3374"),
    _operators("radon_morrey_norm",
               "5cbc4dd501d981b73fc41171d0729e450d06e8e549213a4df493e036e999dcb1"),
    _operators("maximal_testing_sup",
               "532b29b519de7a1811f063158bccafb9d2071f1073642ceb295c825a53655761"),
    _operators("localized_maximal_integrals",
               "668f8767c47fc2aeff0c4ebcbc462fb1104f1ec890f7ac6ce4829a1b4e0f86a0"),
])


def rows(kind: str) -> list[tuple]:
    """(*args, sha256) of every pin of `kind`, in table order."""
    return [(*pin.args, pin.sha256) for pin in PINS.values() if pin.kind == kind]


def to_bytes(item) -> bytes:
    if isinstance(item, bytes):
        return item
    if isinstance(item, str):
        return item.encode("utf-8")
    if isinstance(item, np.ndarray):
        return item.tobytes()
    if isinstance(item, tuple):
        return repr(item).encode()
    return canonical_json(item).encode("utf-8")


def sha256(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(to_bytes(item))
    return h.hexdigest()


# ---- recipes: each yields the items its digest hashes, in hashing order ----


def sweep_items(ineq_id, dims, depths):
    rep = sweep(ExperimentSpec(ineq_id, dims=dims, depths=depths, trials=3, seed=0))
    yield rep.to_doc()
    yield sweep_csv(rep)


def verify_items(dim, depth):
    yield verify_suite("all", dim=dim, depth=depth, trials=4, seed=0)


def decompose_inputs(dim, depth):
    """Sparse and corona inputs: one and two fields, no measure, a
    density measure and an atomic measure (zero-mass subtrees)."""
    root = RootSpec(dim, depth)
    spikes, power, uniform = (
        payload(generate_input(root, kind, 11))
        for kind in ("sparse-spikes", "power-spike", "uniform")
    )
    density = payload(generate_input(root, "density-measure", 12))
    # atoms on the leaves of six spikes plus three elsewhere
    hot = generate_input(root, "sparse-spikes", 13, spikes=6)
    atoms = generate_input(root, "atom-measure", 13).atoms + tuple(
        (int(leaf), 1.0) for leaf in np.flatnonzero(hot.values)
    )
    atomic = payload(LeafMeasure(root, "atomic", atoms=atoms))
    return (
        ("sparse", spikes),
        ("sparse", {"fields": [power, uniform]}),
        ("corona", power),
        ("corona", {"field": spikes, "measure": density}),
        ("corona", {"field": payload(hot), "measure": atomic}),
    )


def decompose_items():
    with tempfile.TemporaryDirectory() as tmp:
        for dim, depth in ((1, 8), (2, 5)):
            for n, (what, doc) in enumerate(decompose_inputs(dim, depth)):
                src = pathlib.Path(tmp, f"in{dim}{n}.json")
                out = pathlib.Path(tmp, f"out{dim}{n}.json")
                write_text(str(src), canonical_json(doc))
                code = main(["decompose", what, "--input", str(src), "--out", str(out)])
                if code != 0:
                    raise AssertionError(f"dtl decompose {what} on d{dim} L{depth} exited {code}")
                yield out.read_bytes()


_GRIDS = ((1, 7), (2, 4), (3, 2))
# deeper than any naive oracle runs; only the testing sup is pinned there
_DEEP_GRIDS = ((1, 14), (2, 7))


def inputs(root, seed):
    """Four fields and two measures on `root`, with the leaves of one
    seeded cube zeroed in the fields and the density, and its atoms
    dropped."""
    rng = np.random.default_rng([seed, root.dim, root.depth])
    level = int(rng.integers(1, root.depth + 1))
    index = tuple(int(i) for i in rng.integers(1 << level, size=root.dim))
    keep = np.ones(root.grid_shape)
    keep[CubeAddr(level, index).leaf_slices(root.depth)] = 0.0
    keep = keep.ravel()
    fields = [
        LeafField(root, generate_input(root, kind, seed + i).values * keep)
        for i, kind in enumerate(FIELD_KINDS)
    ]
    density = generate_input(root, "density-measure", seed).density * keep
    atoms = generate_input(root, "atom-measure", seed).atoms
    measures = [
        LeafMeasure(root, "density", density=density),
        LeafMeasure(root, "atomic", atoms=tuple(a for a in atoms if keep[a[0]])),
    ]
    return fields, measures


def cases():
    for dim, depth in _GRIDS:
        root = RootSpec(dim, depth)
        for seed in range(3):
            yield root, *inputs(root, seed)


def _operator_pass():
    """(operator name, item) for every operator pin, in hashing order."""

    def sup(res):
        return res.value, res.witness.level, res.witness.index

    def testing(data, betas, ps):
        agg = aggregate(data)
        for beta in betas:
            for p in ps:
                yield "maximal_testing_sup", sup(maximal_testing_sup(agg, beta, p))
                for table in localized_maximal_integrals(agg, beta, p):
                    yield "localized_maximal_integrals", table

    for root, fields, measures in cases():
        n = root.dim
        aggs = [aggregate(f) for f in fields]
        for data in fields + measures:
            for alpha in (0.0, 0.3 * n, 0.7 * n):
                yield "fractional_maximal", fractional_maximal(aggregate(data), alpha).values
        for group in (aggs[:1], aggs[1:3], aggs[1:4]):
            m = len(group)
            yield "multilinear_maximal", multilinear_maximal(group, 0.4 * m * n).values
            table = [2.0 ** -k for k in range(root.depth + 1)]
            table[1] = 0.0
            kernels = (
                KernelWeight.canonical(0.5 * m * n, m, n),
                KernelWeight.from_table(table, m),
            )
            families = (
                build_sparse_family(group, root.root_cube()).cubes,
                list(root.cubes())[1::3] + list(root.cubes())[::5],
                (),
            )
            for kernel in kernels:
                yield "dyadic_integral_operator", dyadic_integral_operator(group, kernel).values
                for family in families:
                    op = sparse_integral_operator(group, kernel, family)
                    yield "sparse_integral_operator", op.values
        for f in fields:
            for p, p0 in ((1.3, 1.9), (2.0, 2.0), (0.7, 3.0)):
                yield "morrey_norm", sup(morrey_norm(f, p, p0))
        for m in (1, 2, 3):
            for low_p in (False, True)[: 1 + (m > 1)]:
                profile = ExponentProfile.default(m, n, low_p=low_p)
                # every ordering: the factors round differently in each
                for group in itertools.permutations(fields, m):
                    yield "product_morrey_norm", sup(product_morrey_norm(list(group), profile))
        for g in fields:
            for mu in measures:
                for q, q0 in ((2.0, 2.5), (1.0, 3.0)):
                    yield "radon_morrey_norm", sup(radon_morrey_norm(g, q, q0, mu))
        # the constant field's zeroed subtree makes exact ties between cubes
        for data in fields + measures:
            yield from testing(data, (0.0, 0.3 * n, 0.7 * n), (1.3, 2.0, 3.0))
    for dim, depth in _DEEP_GRIDS:
        root = RootSpec(dim, depth)
        fields, measures = inputs(root, 0)
        for data in fields[1:3] + measures:
            yield from testing(data, (0.5 * dim,), (1.3, 2.0))


@functools.cache
def operator_pass() -> tuple:
    """_operator_pass, run once: every operator pin shares it."""
    return tuple(_operator_pass())


def operator_items(name):
    return (item for which, item in operator_pass() if which == name)


RECIPES = {
    "sweep": sweep_items,
    "verify": verify_items,
    "decompose": decompose_items,
    "operators": operator_items,
}


@functools.cache
def build(kind: str, *args) -> tuple:
    """The items of the pin of `kind` with `args`, built once per process."""
    return tuple(RECIPES[kind](*args))
