"""Span tracer for the benchmark's traced run.

The tracer wraps public dtl functions from outside the package.  Modules
bind each other's functions at import time (``from .norms import
morrey_norm``), so a function is replaced at every binding that holds it,
in every loaded ``dtl`` module, and restored at the same bindings when the
tracer exits.  The program's source is never touched.

Each call of a wrapped function records a span ``[name, start, end,
parent, group]``: ``parent`` is the index of the enclosing span, and
``group`` is shared by every span inside one ``harness.run_trial`` call
(spans outside any trial share the group of their outermost span).
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
table once a pass ends, and ``reset`` drops them.

A few hot internals are counted rather than timed, because a span around
them would cost more than the work: ``CubeAddr`` constructions,
``TreeAggregate.restricted`` calls, and calls from ``dtl.constants`` to
``containment_forest`` (one per family-certification attempt).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import dtl  # noqa: F401  (loads every module the tracer patches)
from dtl.errors import ComplexityRefusal

_MARK = "__bench_span__"


def _cq_span(args, kwargs) -> str:
    mode = args[4] if len(args) > 4 else kwargs.get("mode", "greedy")
    return f"constants.cq_{mode}"


# (defining module, function, span name or a function of the call's args)
SPANS = (
    ("dtl.grid", "aggregate", "grid.aggregate"),
    ("dtl.grid", "payload", "grid.payload"),
    ("dtl.generators", "generate_input", "generators.generate_input"),
    ("dtl.operators", "fractional_maximal", "operators.fractional_maximal"),
    ("dtl.operators", "dyadic_integral_operator", "operators.dyadic_integral_operator"),
    ("dtl.operators", "kernel_integral", "operators.kernel_integral"),
    ("dtl.norms", "maximal_testing_sup", "norms.maximal_testing_sup"),
    ("dtl.norms", "scan_sup", "norms.scan_sup"),
    ("dtl.norms", "morrey_norm", "norms.cube_norms"),
    ("dtl.norms", "product_morrey_norm", "norms.cube_norms"),
    ("dtl.norms", "radon_morrey_norm", "norms.cube_norms"),
    ("dtl.norms", "lebesgue_norm", "norms.cube_norms"),
    ("dtl.norms", "modified_morrey_norm", "norms.cube_norms"),
    ("dtl.constants", "cq_constant", _cq_span),
    ("dtl.constants", "sparse_score_sup", "constants.sparse_score_sup"),
    ("dtl.constants", "ks_testing_constant", "constants.scan_constants"),
    ("dtl.constants", "a0_constant", "constants.scan_constants"),
    ("dtl.constants", "adams_constant", "constants.scan_constants"),
    ("dtl.constants", "ap_characteristic", "constants.scan_constants"),
    ("dtl.decompositions", "build_sparse_family", "decompositions.build_sparse_family"),
    ("dtl.decompositions", "verify_sparse", "decompositions.verify_sparse"),
    ("dtl.decompositions", "build_principal_cubes", "decompositions.build_principal_cubes"),
    ("dtl.decompositions", "stopping_parent", "decompositions.stopping_parent"),
    ("dtl.decompositions", "classify_children", "decompositions.classify_children"),
    ("dtl.decompositions", "corona_projection", "decompositions.corona_projection"),
    ("dtl.registry", "evaluate_inequality", "registry.evaluate_inequality"),
    ("dtl.harness", "run_trial", "harness.run_trial"),
    ("dtl.harness", "sweep", "harness.sweep"),
    ("dtl.harness", "verify_suite", "harness.verify_suite"),
    ("dtl.report", "canonical_json", "report.canonical_json"),
    ("dtl.report", "sweep_csv", "report.sweep_csv"),
)

_TRIAL_SPAN = "harness.run_trial"


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = len(spans)
            parent = stack[-1] if stack else None
            if parent is None or label == _TRIAL_SPAN:
                group = sid
            else:
                group = spans[parent][4]
            rec = [label, 0.0, 0.0, parent, group]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except ComplexityRefusal:
                counts[label + ".refusals"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            self._after(label, out)
            return out

        setattr(wrapper, _MARK, name)
        return wrapper

    def _after(self, label, out) -> None:
        counts = self.counts
        if label == "grid.payload":
            counts["grid.payload.floats"] += len(out.get("values", ())) + len(
                out.get("atoms", ())
            )
        elif label == "decompositions.build_sparse_family":
            counts["decompositions.sparse_members"] += len(out.cubes)
        elif label in ("report.canonical_json", "report.sweep_csv"):
            counts["report.bytes"] += len(out.encode("utf-8"))

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, key)
        return wrapper

    def _greedy_score_sup(self, fn):
        """sparse_score_sup plus the greedy accept ratio's two counts."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            mode = args[3] if len(args) > 3 else kwargs["mode"]
            before = counts["constants.certify_checks"]
            best, family = fn(*args, **kwargs)
            if mode == "greedy":
                counts["constants.greedy_attempts"] += (
                    counts["constants.certify_checks"] - before
                )
                counts["constants.greedy_accepted"] += len(family)
            return best, family

        setattr(wrapper, _MARK, "constants.sparse_score_sup")
        return wrapper

    # ---- installing ----

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for mod in dtl_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._replace(mod, attr, new)

    def __enter__(self) -> Tracer:
        try:
            for modname, attr, name in SPANS:
                original = getattr(sys.modules[modname], attr)
                wrapped = self._span(name, original)
                if attr == "sparse_score_sup":
                    wrapped = self._greedy_score_sup(wrapped)
                self._replace_everywhere(original, wrapped)
            grid = sys.modules["dtl.grid"]
            constants = sys.modules["dtl.constants"]
            post_init = grid.CubeAddr.__dict__["__post_init__"]
            self._replace(
                grid.CubeAddr, "__post_init__", self._counter("grid.cube_addr.count", post_init)
            )
            restricted = grid.TreeAggregate.__dict__["restricted"]
            self._replace(
                grid.TreeAggregate, "restricted", self._counter("grid.restricted.calls", restricted)
            )
            self._replace(
                constants,
                "containment_forest",
                self._counter("constants.certify_checks", constants.containment_forest),
            )
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop the recorded spans and counts (between passes)."""
        self.spans.clear()
        self.counts.clear()

    # ---- reduction ----

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time (the span's duration
        minus the time its direct child spans cover)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, group in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for i, (name, start, end, parent, group) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += end - start - covered[i]
        return dict(table)


def dtl_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "dtl" or name.startswith("dtl."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in dtl modules or the two patched classes still bound to a
    tracer wrapper; empty once a tracer has exited."""
    grid = sys.modules["dtl.grid"]
    owners = dtl_modules() + [grid.CubeAddr, grid.TreeAggregate]
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, val in vars(owner).items()
        if hasattr(val, _MARK)
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, value from (span table, counts, pass extras))
def _calls(name):
    return lambda t, c, x: t.get(name, {}).get("calls", 0)


def _self(name):
    return lambda t, c, x: t.get(name, {}).get("self_s", 0.0)


def _count(key):
    return lambda t, c, x: c.get(key, 0)


def _extra(key):
    return lambda t, c, x: x[key]


PER_LAYER = (
    ("grid.cube_addr.count", "count", _count("grid.cube_addr.count")),
    ("grid.restricted.calls", "count", _count("grid.restricted.calls")),
    ("grid.aggregate.calls", "count", _calls("grid.aggregate")),
    ("grid.aggregate.s", "s", _self("grid.aggregate")),
    ("grid.payload.calls", "count", _calls("grid.payload")),
    ("grid.payload.s", "s", _self("grid.payload")),
    ("grid.payload.floats", "count", _count("grid.payload.floats")),
    ("generators.generate_input.s", "s", _self("generators.generate_input")),
    ("operators.fractional_maximal.calls", "count", _calls("operators.fractional_maximal")),
    ("operators.fractional_maximal.s", "s", _self("operators.fractional_maximal")),
    ("operators.dyadic_integral_operator.s", "s", _self("operators.dyadic_integral_operator")),
    ("operators.kernel_integral.s", "s", _self("operators.kernel_integral")),
    ("norms.maximal_testing_sup.calls", "count", _calls("norms.maximal_testing_sup")),
    ("norms.maximal_testing_sup.s", "s", _self("norms.maximal_testing_sup")),
    ("norms.scan_sup.calls", "count", _calls("norms.scan_sup")),
    ("norms.scan_sup.s", "s", _self("norms.scan_sup")),
    ("norms.cube_norms.s", "s", _self("norms.cube_norms")),
    ("constants.cq_greedy.calls", "count", _calls("constants.cq_greedy")),
    ("constants.cq_greedy.s", "s", _self("constants.cq_greedy")),
    ("constants.sparse_score_sup.calls", "count", _calls("constants.sparse_score_sup")),
    ("constants.sparse_score_sup.s", "s", _self("constants.sparse_score_sup")),
    ("constants.certify_checks", "count", _count("constants.certify_checks")),
    (
        "constants.greedy_accept_ratio",
        "ratio",
        lambda t, c, x: _ratio(
            c.get("constants.greedy_accepted", 0), c.get("constants.greedy_attempts", 0)
        ),
    ),
    ("constants.cq_exhaustive.s", "s", _self("constants.cq_exhaustive")),
    ("constants.scan_constants.s", "s", _self("constants.scan_constants")),
    (
        "decompositions.build_sparse_family.calls",
        "count",
        _calls("decompositions.build_sparse_family"),
    ),
    ("decompositions.build_sparse_family.s", "s", _self("decompositions.build_sparse_family")),
    ("decompositions.sparse_members", "count", _count("decompositions.sparse_members")),
    ("decompositions.verify_sparse.s", "s", _self("decompositions.verify_sparse")),
    (
        "decompositions.build_principal_cubes.s",
        "s",
        _self("decompositions.build_principal_cubes"),
    ),
    ("decompositions.stopping_parent.calls", "count", _calls("decompositions.stopping_parent")),
    ("decompositions.stopping_parent.s", "s", _self("decompositions.stopping_parent")),
    ("decompositions.classify_children.s", "s", _self("decompositions.classify_children")),
    ("decompositions.corona_projection.s", "s", _self("decompositions.corona_projection")),
    ("registry.evaluate_inequality.self_s", "s", _self("registry.evaluate_inequality")),
    ("registry.refusals", "count", _count("registry.evaluate_inequality.refusals")),
    ("harness.run_trial.self_s", "s", _self("harness.run_trial")),
    (
        "harness.payload_kept_ratio",
        "ratio",
        lambda t, c, x: _ratio(x["witnesses_kept"], t.get("harness.run_trial", {}).get("calls", 0)),
    ),
    ("report.canonical_json.s", "s", _self("report.canonical_json")),
    ("report.bytes", "bytes", _count("report.bytes")),
    ("numpy.runtime_warnings", "count", _extra("runtime_warnings")),
)

# measured across passes, not from one pass's spans
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def layer_metrics(tracer: Tracer, extras: dict) -> dict[str, float]:
    """The per-layer table of one traced pass."""
    table = tracer.span_table()
    return {name: fn(table, tracer.counts, extras) for name, unit, fn in PER_LAYER}


def layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, fn in PER_LAYER}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units
