"""Rebuild every pin at a base and at this checkout, and print how far it moved.

    python tests/repin.py BASE

BASE is a git ref or the literal avx512-off.  For a ref, the ref is
checked out with `git worktree add --detach` into a temporary directory
(removed on exit, failure included), and two children
(tests/simd.run_children) build every pin of tests/pins.py with this
checkout's recipes: one against the ref's src/, one against this
checkout's.  For avx512-off, both children run this checkout, one under
numpy's default SIMD dispatch and one with its AVX-512 targets off.

Per pin it prints the floats compared, the floats that moved and the
largest distance in ulp (over the ordered int64 bit patterns, so ±0 are
0 ulp apart), then every other difference with its path: a key, int,
string, verdict, witness cube or CSV cell.  A pin with none of these
reads "nothing moved".  Nothing in the checkout changes but the
temporary worktree, and no network is needed.
"""

from __future__ import annotations

import ast
import base64
import contextlib
import json
import math
import pathlib
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np

_TESTS = pathlib.Path(__file__).resolve().parent
_REPO = _TESTS.parent
_CHILD = "import repin\nrepin.dump()\n"


def dump() -> None:
    """In a child: print {pin name: [[tag, text], ...]} as one JSON line."""
    import pins  # only the children import dtl

    def encode(item) -> list[str]:
        if isinstance(item, np.ndarray):  # every pinned array is float64
            return ["f64", base64.b64encode(item.tobytes()).decode()]
        if isinstance(item, tuple):
            return ["repr", repr(item)]
        if isinstance(item, str):
            return ["csv", item]
        return ["json", pins.to_bytes(item).decode("utf-8")]  # a document or a JSON file

    built = {name: pins.build(pin.kind, *pin.args) for name, pin in pins.PINS.items()}
    print(json.dumps({name: list(map(encode, parts)) for name, parts in built.items()}))


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(tag: str, text: str):
    """The values of one encoded item: JSON, CSV rows of cells, floats or a repr."""
    if tag == "json":
        return json.loads(text)
    if tag == "csv":
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
    if tag == "f64":
        return np.frombuffer(base64.b64decode(text), dtype=np.float64).tolist()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _ordered(x: float) -> int:
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(base, head) -> tuple[int, int, int, list[tuple[str, str, str]]]:
    """(floats compared, floats moved, largest ulp distance, other rows) of
    two parsed documents.  A pair of numbers is a float pair when either
    is a float (canonical JSON writes an integral float as an int); every
    other difference is a row (path, base, head), a missing key reading
    "(no key)" and a list of another length "(n items)"."""
    compared = moved = worst = 0
    rows: list[tuple[str, str, str]] = []

    def walk(a, b, path):
        nonlocal compared, moved, worst
        if isinstance(a, dict) and isinstance(b, dict):
            for key in [*a, *(k for k in b if k not in a)]:
                where = f"{path}/{key}"
                if key not in b or key not in a:
                    rows.append((where, "(key)" if key in a else "(no key)",
                                 "(key)" if key in b else "(no key)"))
                else:
                    walk(a[key], b[key], where)
        elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                rows.append((path, f"({len(a)} items)", f"({len(b)} items)"))
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}/{i}")
        elif _number(a) and _number(b) and float in (type(a), type(b)):
            x, y = float(a), float(b)
            if math.isnan(x) != math.isnan(y):
                rows.append((path, repr(a), repr(b)))
                return
            compared += 1
            if struct.pack("<d", x) != struct.pack("<d", y):
                moved += 1
                worst = max(worst, abs(_ordered(x) - _ordered(y)))
        elif type(a) is not type(b) or a != b:
            rows.append((path, repr(a), repr(b)))

    walk(base, head, "")
    return compared, moved, worst, rows


def table(base: dict, head: dict) -> str:
    """The audit's report: one line per pin of either side, each followed
    by its other differences."""
    width = max(map(len, [*base, *head, "pin"]))
    lines = [f"{'pin':<{width}}  {'floats':>8}  {'moved':>7}  {'max ulp':>8}"]
    for name in [*base, *(n for n in head if n not in base)]:
        if name not in base or name not in head:
            lines.append(f"{name:<{width}}  only at the {'head' if name in head else 'base'}")
            continue
        a, b = ([parse(*item) for item in side[name]] for side in (base, head))
        compared, moved, worst, rows = diff(a, b)
        if not rows and not moved and base[name] != head[name]:
            rows = [("", "text", "other text, same values")]
        note = "  nothing moved" if not (moved or rows) else ""
        lines.append(f"{name:<{width}}  {compared:>8}  {moved:>7}  {worst:>8}{note}")
        lines += [f"    {path or '/'}: {old} -> {new}" for path, old, new in rows]
    return "\n".join(lines)


@contextlib.contextmanager
def _worktree(ref: str):
    """A detached checkout of `ref` in a temporary directory."""
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repin-"))
    tree = tmp / "tree"
    git = ["git", "-C", str(_REPO), "worktree"]
    try:
        if subprocess.run([*git, "add", "--detach", "--quiet", str(tree), ref]).returncode:
            raise SystemExit(f"repin: cannot check {ref} out")
        yield tree
    finally:
        subprocess.run([*git, "remove", "--force", str(tree)], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([*git, "prune"], capture_output=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/repin.py BASE  (a git ref, or avx512-off)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(_REPO / "src"))  # simd imports dtl
    import simd

    if argv[0] == "avx512-off":
        outs = simd.run_children(_CHILD)
    else:
        with _worktree(argv[0]) as tree:
            outs = simd.run_children(_CHILD, (True, True), srcs=[tree / "src", _REPO / "src"])
    base, head = map(json.loads, outs)
    print(table(base, head))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
