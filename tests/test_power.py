"""grid.power is the only part of a run whose bits depend on numpy's SIMD
dispatch.

Syntax cannot tell an array `x ** y` from a scalar one, so this is shown
at run time.  Two children, one under numpy's default dispatch and one
with its AVX-512 targets off, replace every module's `power` binding
with a stand-in built on the C library's pow, element by element, then
hash every trial of every id (inputs included), three verify suites,
sweeps under an exponent profile with no integer exponent, and direct
calls of each function that raises an array to a power.  Equal digests
mean that nothing outside grid.power picks its bits by dispatch; the
stand-in must have been called from every module that imports power.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

import dtl.grid
import simd
from dtl import ExponentProfile, LeafField, RootSpec, aggregate
from dtl.constants import a0_constant, ap_characteristic, family_scores
from dtl.errors import LabError
from dtl.generators import FIELD_KINDS, MEASURE_KINDS, generate_input
from dtl.grid import payload
from dtl.harness import ExperimentSpec, run_trial, sweep, verify_suite, witness_doc
from dtl.norms import localized_maximal_integrals, morrey_norm, product_morrey_norm
from dtl.operators import KernelWeight, kernel_integral
from dtl.registry import registry_ids
from dtl.report import canonical_json

_ODD = ExponentProfile(m=2, n=1, alpha=0.37, beta=0.21, p_vec=(2.3, 3.1), p0=1.9, r=1.7)


def _libm_pow(x: float, y: float) -> float:
    """math.pow, with np.power's inf for overflow and for 0 to a negative
    power (and its NaN for a negative base to a fractional power)."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.inf if x == 0 else math.nan


def _install_libm_power() -> tuple[set, set]:
    """Bind the stand-in in place of grid.power in every dtl module that
    binds grid.power; returns (those modules, the modules it is called
    from), the second filled as the run goes."""
    callers: set = set()

    def power(base, exponent, out=None):
        callers.add(sys._getframe(1).f_globals["__name__"])
        b, e = np.broadcast_arrays(np.asarray(base, np.float64), np.asarray(exponent, np.float64))
        flat = list(map(_libm_pow, b.ravel().tolist(), e.ravel().tolist()))
        res = np.array(flat, np.float64).reshape(b.shape)
        if out is None:
            return res
        out[...] = res
        return out

    bound = {
        name for name, mod in sys.modules.items()
        if name.startswith("dtl") and vars(mod).get("power") is dtl.grid.power
    }
    for name in bound:
        sys.modules[name].power = power
    return bound, callers


def _digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _direct_docs() -> dict:
    """Each array-power call site on grids of 1,024 leaves (d1 L10, d2
    L5; d1 L6 for the kernel quadrature), where a last-bit difference
    between dispatches shows in almost every table."""
    docs = {}
    for dim, depth in ((1, 10), (2, 5)):
        root = RootSpec(dim, depth)
        profile = _ODD.with_dim(dim)
        kernel = KernelWeight.canonical(profile.alpha, profile.m, dim)
        inputs = {kind: generate_input(root, kind, 7) for kind in FIELD_KINDS + MEASURE_KINDS}
        f, g = inputs["uniform"], inputs["power-spike"]
        mu = inputs["density-measure"]
        docs[f"inputs d{dim}"] = [payload(x) for x in inputs.values()]
        docs[f"leaf powers d{dim}"] = [
            f.power(1.7).values.tolist(), mu.power(profile.r).density.tolist()
        ]
        docs[f"norms d{dim}"] = [
            morrey_norm(g, 1.3, 2.1).value,
            product_morrey_norm([f, g], profile).value,
        ]
        docs[f"testing numerators d{dim}"] = [
            t.tolist() for t in localized_maximal_integrals(aggregate(mu), profile.beta, 1.4)
        ]
        docs[f"constants d{dim}"] = [
            family_scores(root, aggregate(mu).flat, kernel, 1.4).tolist(),
            ap_characteristic(LeafField(root, mu.density), 2.5).value,
            *(a0_constant(mu, profile, form).value
              for form in ("weight-a", "bump-b", "sparse-a", "sparse-b")),
        ]
    root = RootSpec(1, 6)
    fields = [generate_input(root, kind, 3) for kind in ("uniform", "power-spike")]
    docs["kernel quadrature d1"] = kernel_integral(fields, _ODD.alpha).values.tolist()
    return docs


def _routed_digests() -> dict:
    """Run in a child: {label: sha256} of every hashed part, under the
    libm stand-in, plus the modules that bind power and those that called
    it."""
    bound, callers = _install_libm_power()
    out = {}
    for ineq in registry_ids():
        docs = []
        for dim, depths in ((1, (3, 4, 5)), (2, (2, 3))):
            spec = ExperimentSpec(ineq, dims=(dim,), depths=depths, trials=4, seed=0)
            # each trial in a sweep's witness form, which evaluates its
            # deferred extras: ap_characteristic runs on every trial here
            for depth in depths:
                docs += [witness_doc(run_trial(spec, dim, depth, t)) for t in range(4)]
        out[f"trials {ineq}"] = _digest(docs)
    for dim, depth in ((1, 3), (2, 2), (1, 5)):
        out[f"verify d{dim} L{depth}"] = _digest(verify_suite("all", dim, depth, trials=4, seed=0))
    for ineq in registry_ids():
        spec = ExperimentSpec(ineq, dims=(1, 2), depths=(2, 3), trials=3, seed=0, profile=_ODD)
        try:
            doc = sweep(spec).to_doc()
        except LabError as exc:  # p outside the id's range
            doc = f"{type(exc).__name__}: {exc}"
        out[f"odd profile {ineq}"] = _digest(doc)
    for label, doc in _direct_docs().items():
        out[label] = _digest(doc)
    return {"digests": out, "bound": sorted(bound), "callers": sorted(callers)}


def test_only_grid_power_depends_on_simd_dispatch():
    code = "import json, test_power\nprint(json.dumps(test_power._routed_digests()))\n"
    default, avx512_off = (json.loads(out) for out in simd.run_children(code))
    assert default["bound"] == [
        "dtl.constants", "dtl.generators", "dtl.grid", "dtl.norms", "dtl.operators",
        "dtl.registry",
    ]
    assert default["callers"] == default["bound"]
    differ = [
        label for label, digest in default["digests"].items()
        if avx512_off["digests"][label] != digest
    ]
    assert differ == []
    assert avx512_off == default
