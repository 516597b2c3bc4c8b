"""Package layout: no dtl module imports another module's private names."""

from __future__ import annotations

import ast
import pathlib

import dtl


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


def test_no_module_imports_a_private_name():
    sources = sorted(pathlib.Path(dtl.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [hit for path in sources for hit in _private_imports(path)]
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
