"""Package layout: no dtl module imports another module's private names,
no module, test modules included, imports a name it never uses, no
module reads the environment,
only grid.py lays cubes out in one array or converts positions to cubes,
only grid.power calls a numpy transcendental or raises an array in place
to a power that is not an integer literal, only the screen's allowance
makes a band, the report emitter rebuilds no array from Python floats,
no module adds floats with the builtin sum or math.fsum, every name the
benchmark tracer patches exists, the README's documented usage still
works, every digest of dtl output lives in tests/pins.py and a test
reads every pin there."""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import shlex
import sys

import pytest

import dtl
import pins
from dtl.cli import build_parser

_TESTS = pathlib.Path(__file__).resolve().parent
_BENCH_SPANS = _TESTS.parent / "bench" / "spans.py"
_README = _TESTS.parent / "README.md"


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


def _environment_reads(path):
    """Reads of os.environ or os.getenv, as attributes or imported names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if getattr(node.value, "id", None) == "os":
                yield f"{path.name}:{node.lineno}: os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    yield f"{path.name}:{node.lineno}: from os import {alias.name}"


_LAYOUT_CALLS = ("unravel_index", "ravel_multi_index", "concatenate")


def _layout_code(path):
    """Calls that build a cube layout or convert between positions and
    index vectors, imports of bisect, which finds a position's level, and
    CubeAddr calls outside grid.py: grid.py writes the one layout of the
    package and makes its cubes (other modules ask RootSpec.cube_at)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _LAYOUT_CALLS or (name == "CubeAddr" and path.name != "grid.py"):
                yield f"{path.name}:{node.lineno}: {name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "bisect":
                    yield f"{path.name}:{node.lineno}: import bisect"
        elif isinstance(node, ast.ImportFrom) and node.module == "bisect":
            yield f"{path.name}:{node.lineno}: from bisect import"


_TRANSCENDENTAL = re.compile(r"(log|exp)\w*|power|float_power")


# numpy's constructors of an array from a Python sequence
_FROM_SEQUENCE = re.compile(r"array|asarray|asanyarray|fromiter")


def _numpy_calls(path, pattern=_TRANSCENDENTAL):
    """Calls of the numpy functions whose names fullmatch `pattern` (by
    default log*, exp*, power and float_power), as attributes of the
    numpy module (or a submodule) or as names imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, imported = {"numpy"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if pattern.fullmatch(alias.name):
                    imported.add(alias.asname or alias.name)
                    yield node.lineno, f"from {node.module} import {alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            yield node.lineno, func.id
        elif isinstance(func, ast.Attribute) and pattern.fullmatch(func.attr):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) in modules:
                yield node.lineno, func.attr


def _enclosing_functions(tree):
    """{line: name of the top-level function holding it} of a module."""
    return {
        line: node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line in range(node.lineno, node.end_lineno + 1)
    }


def _transcendentals_outside_power(path):
    """Numpy transcendental calls of a module, except np.power inside a
    top-level function `power`."""
    inside = _enclosing_functions(ast.parse(path.read_text(encoding="utf-8")))
    for line, name in _numpy_calls(path):
        if not (name == "power" and inside.get(line) == "power"):
            yield f"{path.name}:{line}: {name}"


def _arrays_from_sequences(path):
    """numpy array constructors of a module, except inside the top-level
    function `_tables`."""
    inside = _enclosing_functions(ast.parse(path.read_text(encoding="utf-8")))
    for line, name in _numpy_calls(path, _FROM_SEQUENCE):
        if inside.get(line) != "_tables":
            yield f"{path.name}:{line}: {name}"


def _inplace_powers(path):
    """`x **= e` where e is not an integer literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            value = node.value
            if not (isinstance(value, ast.Constant) and type(value.value) is int):
                yield f"{path.name}:{node.lineno}: **= {ast.unparse(value)}"


# numpy's calls that select array entries: a comparison inside one, or
# inside a subscript, picks a band
_SELECTING = frozenset({"flatnonzero", "nonzero", "argwhere", "where", "extract", "compress"})
_ALLOWANCE = ("_SCREEN_MARGIN", "_SCREEN_FLOOR")


def _band_rules(path):
    """Band rules other than the screen's allowance (norms.screen_low and
    screen_high): a margin literal, a nonzero float below 1e-6, in a
    comparison that selects array entries or makes an assigned mask (as
    cq_supremum's kept regions are); a float literal below 1e-300, an
    absolute floor, anywhere; and a use of the allowance's constants
    outside those two functions and the constants' own assignments."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = _enclosing_functions(tree)
    own = {
        node.lineno for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] in ([n] for n in _ALLOWANCE)
    }

    def literals(node, limit):
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and type(sub.value) is float
            and 0.0 < abs(sub.value) < limit
        ]

    margins = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            parts = node.args if name in _SELECTING else []
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            # a mask: an assigned comparison, alone or joined by & | ~
            mask = isinstance(node.value, (ast.Compare, ast.BinOp, ast.UnaryOp))
            parts = [node.value] if mask else []
        else:
            parts = [node.slice] if isinstance(node, ast.Subscript) else []
        for part in parts:
            for cmp in (sub for sub in ast.walk(part) if isinstance(sub, ast.Compare)):
                margins += literals(cmp, 1e-6)
    for lit in margins:
        yield f"{path.name}:{lit.lineno}: margin {lit.value!r}"
    for lit in literals(tree, 1e-300):
        if lit.lineno not in own and all(lit is not m for m in margins):
            yield f"{path.name}:{lit.lineno}: floor {lit.value!r}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _ALLOWANCE and node.lineno not in own:
            if inside.get(node.lineno) not in ("screen_low", "screen_high"):
                yield f"{path.name}:{node.lineno}: allowance {node.id}"


def _float_sums(path):
    """Reads of the name `sum`, the builtin whose float algorithm changed
    in Python 3.12, and of fsum, which rounds once; a field or keyword
    named sum is not a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name == "fsum" or (name == "sum" and isinstance(node, ast.Name)):
            yield f"{path.name}:{node.lineno}: {name}"


def _sources():
    sources = sorted(pathlib.Path(dtl.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    return sources


def test_no_module_imports_a_private_name():
    found = [hit for path in _sources() for hit in _private_imports(path)]
    assert found == []


def test_no_module_imports_an_unused_name():
    # the package's __init__ imports only to re-export; the test modules
    # are held to the same rule
    found = [
        hit
        for path in _sources() + sorted(_TESTS.glob("*.py"))
        if path.name != "__init__.py"
        for hit in _unused_imports(path)
    ]
    assert found == []


def test_no_module_reads_the_environment():
    # every setting is an argument or a constant, so a run depends on its inputs only
    found = [hit for path in _sources() for hit in _environment_reads(path)]
    assert found == []


def test_only_grid_lays_cubes_out():
    """One layout order and one position <-> cube conversion
    (RootSpec.offsets), both in grid.py.  Every per-cube table is stored
    in that layout, so no module, grid.py included, concatenates tables
    or unravels an index: grid.py keeps only the bisect of cube_at."""
    found = [
        (path.name, hit.split(": ", 1)[1]) for path in _sources() for hit in _layout_code(path)
    ]
    assert found == [("grid.py", "import bisect")]


def test_only_grid_power_calls_a_numpy_transcendental():
    """numpy's log, exp and power give different bits under different SIMD
    kernels, so no module calls them (the report emitter is built from
    IEEE basic operations), except grid.power, the one array power, which
    calls np.power once."""
    found = [hit for path in _sources() for hit in _transcendentals_outside_power(path)]
    assert found == []
    grid_py = pathlib.Path(dtl.__file__).parent / "grid.py"
    assert [name for _, name in _numpy_calls(grid_py)] == ["power"]


def test_no_inplace_power_outside_grid():
    # an array raised in place goes through grid.power(x, e, out=x)
    found = [
        hit for path in _sources() if path.name != "grid.py" for hit in _inplace_powers(path)
    ]
    assert found == []


def test_only_the_screen_allowance_makes_a_band():
    """Every screen (the layout sups' bounds, the testing sup's ratio band
    and hedberg's leaf band) widens by norms.screen_low / screen_high, one
    margin and one floor whose soundness tests/test_grid.py checks; no
    module keeps a band rule of its own."""
    found = [hit for path in _sources() for hit in _band_rules(path)]
    assert found == []
    norms_py = pathlib.Path(dtl.__file__).parent / "norms.py"
    text = norms_py.read_text(encoding="utf-8")
    assert "_SCREEN_MARGIN = 1e-12\n" in text and "_SCREEN_FLOOR = 1e-320\n" in text


def test_report_builds_no_array_from_python_floats():
    """Report values reach the emitter as float64 arrays (grid.payload)
    and go to text from them, so report.py rebuilds no array from a list
    of Python floats; only the kernel's tables, built once per process
    from exact integer arithmetic, come from Python sequences."""
    report_py = pathlib.Path(dtl.__file__).parent / "report.py"
    assert list(_arrays_from_sequences(report_py)) == []


def test_no_module_uses_the_builtin_sum():
    """Every scalar float sum is grid.ordered_sum, a left fold: the
    builtin sum compensates from Python 3.12 on and math.fsum rounds
    once, so either would make report bytes depend on the interpreter."""
    found = [hit for path in _sources() for hit in _float_sums(path)]
    assert found == []


def test_sum_scan_sees_planted_code(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "total = sum(x for x in (1.0, 2.0))\n"
        "add = sum\n"
        "exact = math.fsum([0.1, 0.2])\n"
        "arr = np.sum(np.ones(3)) + np.ones(2).sum()\n"
        "@dataclass\n"
        "class Stats:\n"
        "    sum: float\n"
        "s = Stats(sum=1.0)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _float_sums(probe)] == ["sum", "sum", "fsum"]


def test_array_scan_sees_planted_code(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as xp\n"
        "from numpy import asarray\n"
        "def _tables():\n"
        "    return xp.array([1.0, 2.0]), xp.fromiter(map(float, 'ab'), float)\n"
        "def _float_list(seq):\n"
        "    x = xp.array(seq[:4096], dtype=xp.float64)\n"
        "    y = asarray(seq) + xp.asanyarray(seq) + xp.fromiter(seq, float)\n"
        "    return x, y, xp.empty(3), xp.frombuffer(b'', xp.uint8), xp.ascontiguousarray(x)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in sorted(_arrays_from_sequences(probe))] == [
        "from numpy import asarray",
        "array",
        "asanyarray",
        "asarray",
        "fromiter",
    ]


def test_transcendental_scan_sees_planted_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "import numpy as xp\n"
        "from numpy import log2, frexp\n"
        "a = xp.log10(2.0)\n"
        "b = xp.exp(a) + xp.expm1(a)\n"
        "c = xp.power(a, b) + xp.float_power(a, 2)\n"
        "d = log2(a) + xp.emath.logn(2, a)\n"
        "m, k = frexp(a)\n"
        "e = xp.ldexp(m, k) + math.log(2) + xp.sqrt(a)\n"
    )
    assert sorted(_numpy_calls(probe)) == [
        (3, "from numpy import log2"),
        (4, "log10"),
        (5, "exp"),
        (5, "expm1"),
        (6, "float_power"),
        (6, "power"),
        (7, "log2"),
        (7, "logn"),
    ]


def test_power_scans_see_planted_code(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "def power(base, e, out=None):\n"
        "    return np.power(base, e, out=out)\n"
        "def other(x, p):\n"
        "    x **= 2\n"
        "    x **= p\n"
        "    x **= 2.0\n"
        "    return np.power(x, 0.5) + np.exp(x)\n"
        "class Field:\n"
        "    def power(self, p):\n"
        "        return np.power(self, p)\n"
        "y = np.log(2.0)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _inplace_powers(probe)] == ["**= p", "**= 2.0"]
    assert {hit.split(":", 1)[1] for hit in _transcendentals_outside_power(probe)} == {
        "8: power",
        "8: exp",
        "11: power",
        "12: log",
    }


def test_band_scan_sees_planted_rules(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "_SCREEN_MARGIN = 1e-12\n"
        "_SCREEN_FLOOR = 1e-320\n"
        "def screen_low(x, s=1.0):\n"
        "    return x * (1.0 - _SCREEN_MARGIN * s) - _SCREEN_FLOOR * s\n"
        "def bands(a, top):\n"
        "    keep = np.flatnonzero(a >= top * (1.0 - 1e-12) - 1e-320)\n"
        "    near = a[a > top - 1e-9]\n"
        "    fine = np.flatnonzero(a >= screen_low(top)), a[a > 0.0], a[a >= 1e-3]\n"
        "    return keep, near, fine, top * _SCREEN_MARGIN, top - 4e-321\n"
        "tolerance = 1.0 + 1e-12\n"
        "def regions(ub, floor):\n"
        "    keep = ub * (1 + 1e-12) >= floor\n"
        "    keep &= ub > floor - 1e-15\n"
        "    mask: object = ~(ub < floor) | (ub + 1e-7 >= floor)\n"
        "    return keep, mask, ub >= screen_low(floor)\n"
    )
    assert sorted(_band_rules(probe)) == [
        "probe.py:10: allowance _SCREEN_MARGIN",
        "probe.py:10: floor 4e-321",
        "probe.py:13: margin 1e-12",
        "probe.py:14: margin 1e-15",
        "probe.py:15: margin 1e-07",
        "probe.py:7: margin 1e-12",
        "probe.py:7: margin 1e-320",
        "probe.py:8: margin 1e-09",
    ]


def test_layout_scan_sees_planted_code(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import bisect\n"
        "from bisect import bisect_right\n"
        "import numpy as np\n"
        "from numpy import unravel_index\n"
        "flat = np.concatenate([np.zeros(1), np.ones(2)])\n"
        "vec = unravel_index(2, (2, 2))\n"
        "pos = np.ravel_multi_index((1, 1), (2, 2))\n"
        "rows = np.stack([flat, flat])\n"
        "cube = grid.CubeAddr(1, tuple(vec))\n"
    )
    assert [hit.split(": ", 1)[1] for hit in _layout_code(probe)] == [
        "import bisect",
        "from bisect import",
        "concatenate",
        "unravel_index",
        "ravel_multi_index",
        "CubeAddr",
    ]


def test_environment_scan_sees_planted_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "from os import getenv\n"
        "CAP = os.environ.get('CAP')\n"
        "LIMIT = os.getenv('LIMIT')\n"
        "HERE = os.path.dirname(__file__)\n"
    )
    assert [hit.split(": ", 1)[1] for hit in sorted(_environment_reads(probe))] == [
        "from os import getenv",
        "os.environ",
        "os.getenv",
    ]


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


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", _README.read_text(encoding="utf-8"), re.S)


@pytest.mark.skipif(not _README.exists(), reason="no README.md next to tests/")
def test_readme_usage_runs(capsys):
    # a deleted public name or option must not break the documented usage
    (example,) = _readme_blocks("python")
    exec(compile(example, str(_README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
    commands = [
        shlex.split(line)[1:]
        for block in _readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("dtl ")
    ]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).fn)


_DIGEST = re.compile(r"\b[0-9a-f]{64}\b")


def test_only_the_pin_table_holds_digests():
    # test_sums.py pins CPython's sum, not dtl output
    holders = sorted(p.name for p in _TESTS.rglob("*.py") if _DIGEST.search(p.read_text("utf-8")))
    assert holders == ["pins.py", "test_sums.py"]


def _pins_read(path):
    """Pin names the test functions of a module read, in their bodies or
    their decorators: every pin of a kind through pins.rows(kind), one
    through pins.PINS[name]."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "pins.rows":
                kind = node.args[0].value
                yield from (name for name, pin in pins.PINS.items() if pin.kind == kind)
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "pins.PINS":
                yield node.slice.value


def test_every_pin_is_read_by_a_test():
    read = {name for path in _TESTS.glob("test_*.py") for name in _pins_read(path)}
    assert read == set(pins.PINS)


def test_pin_scan_sees_planted_reads(tmp_path):
    planted = tmp_path / "test_planted.py"
    planted.write_text(
        "import pins\n"
        "def helper():\n"
        "    return pins.rows('sweep')\n"
        "@pytest.mark.parametrize('a,b,digest', pins.rows('verify'))\n"
        "def test_a(a, b, digest):\n"
        "    assert pins.PINS['decompose']\n"
    )
    assert sorted(_pins_read(planted)) == ["decompose", "verify d1 L3", "verify d1 L8", "verify d2 L5"]
