"""Package layout: no dtl module imports another module's private names,
no module imports a name it never uses, and every name the benchmark
tracer patches exists."""

from __future__ import annotations

import ast
import importlib
import pathlib
import sys

import pytest

import dtl

_BENCH_SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("dtl"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {name}"


def _unused_imports(path):
    """Names a module imports and never references.  `__future__` imports
    and names on a `# noqa: F401` line are exempt."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield f"{path.name}:{alias.lineno}: {name}"


def _sources():
    sources = sorted(pathlib.Path(dtl.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    return sources


def test_no_module_imports_a_private_name():
    found = [hit for path in _sources() for hit in _private_imports(path)]
    assert found == []


def test_no_module_imports_an_unused_name():
    # the package's __init__ imports only to re-export
    found = [
        hit
        for path in _sources()
        if path.name != "__init__.py"
        for hit in _unused_imports(path)
    ]
    assert found == []


def test_private_import_scan_sees_relative_and_absolute_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .operators import _sweep, product_tables\n"
        "from dtl.grid import _check_values\n"
        "from . import __version__\n"
        "from numpy import _core\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _private_imports(probe)] == [
        "from .operators import _sweep",
        "from dtl.grid import _check_values",
    ]


def test_unused_import_scan_sees_a_planted_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .grid import (\n"
        "    CubeAddr,\n"
        "    RootSpec,\n"
        ")\n"
        "from .errors import ZeroMeasure  # noqa: F401\n"
        "from .norms import SupResult\n"
        "def f(c: CubeAddr) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _unused_imports(probe)] == [
        "os",
        "RootSpec",
        "SupResult",
    ]


def _traced_names(path):
    """(module, function) pairs of the tracer's SPANS tuple, read with
    ast so that the tracer itself is never imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["SPANS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no SPANS tuple in {path}")


@pytest.mark.skipif(not _BENCH_SPANS.exists(), reason="no bench/ next to tests/")
def test_bench_tracer_names_resolve():
    # a renamed function would silently drop out of the traced run
    pairs = _traced_names(_BENCH_SPANS)
    assert len(pairs) > 20
    missing = [
        f"{mod}.{name}"
        for mod, name in pairs
        if not callable(vars(importlib.import_module(mod)).get(name))
    ]
    assert missing == []
    # the internals the tracer counts rather than times
    grid = sys.modules["dtl.grid"]
    assert callable(vars(grid.CubeAddr).get("__post_init__"))
    assert callable(vars(grid.TreeAggregate).get("restricted"))
    assert callable(vars(sys.modules["dtl.constants"]).get("containment_forest"))
