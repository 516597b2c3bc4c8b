"""Deterministic report emission.

JSON is written with insertion-order keys and every float printed with
17 significant digits, so identical runs emit identical bytes and every
value round-trips exactly.  Sweep reports also flatten to a small CSV
(one row per depth) meant for direct plotting.

Witness inputs make up most of a report: one list of plain, finite
floats per leaf field or density, up to 65,536 long.  Such a list is
formatted in one `%` call with the same FMT that `_float_token` uses, so
its tokens are exactly the per-element ones without a Python dispatch
per float.  Any other list (NaN or ±inf inside, numpy scalars, bools,
ints, atom pairs) goes element by element.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IoFailure


FMT = "%.17g"


def _float_token(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return FMT % x


def _plain_finite_floats(seq) -> bool:
    """Non-empty, every element exactly a float, none NaN or ±inf."""
    return set(map(type, seq)) == {float} and all(map(math.isfinite, seq))


def _string_token(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_float_token(float(obj)))
    elif isinstance(obj, str):
        parts.append(_string_token(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(_string_token(str(key)))
            parts.append(": ")
            _emit(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) and _plain_finite_floats(obj):
        parts.append("[" + ", ".join([FMT] * len(obj)) % tuple(obj) + "]")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(val, parts)
        parts.append("]")
    else:
        raise IoFailure(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    parts.append("\n")
    return "".join(parts)


def sweep_csv(report) -> str:
    """Depth table of a sweep: one row per (dim, depth), the fitted
    slope repeated on each row of its dim; single-dim sweeps drop the
    dim column."""
    multi = len(report.dims) > 1
    lines = ["dim,depth,max_ratio,slope" if multi else "depth,max_ratio,slope"]
    for row in report.rows:
        slope = report.slopes[str(row["dim"])]
        cells = [str(row["depth"]), _float_token(row["max_ratio"]), _float_token(slope)]
        if multi:
            cells.insert(0, str(row["dim"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def constants_csv(reports) -> str:
    """Flat table of ConstantReport rows."""
    lines = ["name,value,mode,witness_level,witness_index"]
    for rep in reports:
        if rep.witness is None:
            lev, idx = "", ""
        else:
            lev = str(rep.witness.level)
            idx = ";".join(str(i) for i in rep.witness.index)
        lines.append(
            ",".join([rep.name, _float_token(rep.value), rep.mode, lev, idx])
        )
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
