"""Package layout: no dtl module imports another module's private names,
and no module imports a name it never uses."""

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
