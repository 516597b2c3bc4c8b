"""Deterministic report emission.

JSON is written with insertion-order keys and every float printed as
`FMT % x` (17 significant digits), so identical runs emit identical bytes
and every value but −0.0 (leaf data holds none) round-trips exactly.
Sweep reports also flatten to a small CSV (one row per depth) for plots.
`canonical_json` returns the text; `write_json` writes the same bytes to
a file piece by piece as they are formed, so it never holds the whole
document.

Witness inputs make up most of a report: one float64 array per leaf
field or density (`grid.payload`), up to 65,536 long, which goes to text
with no Python float built per element.  A 1-D array of finite float64
values is formatted as a whole; any other array (NaN or ±inf inside,
another dtype, 0-d or n-d) and every list goes element by element, so
its tokens are exactly the per-element ones.  An array of one repeated
nonzero value (a constant field) has its token formatted once.  Any
other array shorter than `_CROSSOVER` is formatted in one `%` call with
the same FMT on its `tolist`: the crossover, 2,048 floats, sits above
the measured break-even of about 200 random-digit floats, because the
first long array of a process also builds the kernel's tables (see the
constant).  A longer array goes through a numpy kernel, `_BLOCK` floats
of the array itself at a time, that gives the same bytes as `%`.  The
kernel uses only IEEE basic operations (+, -, *, rint, frexp,
compares), integer arithmetic and table lookups, so its output does not
depend on which SIMD kernels numpy dispatches to.

Digits.  Write |x| = m 2^e with m in [1/2, 1) (frexp).  The decimal
exponent E = floor(log10 |x|) is floor((e - 1) log10 2), plus one when
|x| is at least the least double >= 10^(that + 1); a table by e holds
both, so E is exact.  `%` prints the 17-digit integer
D = round(|x| 10^(16 - E)).  A table by E holds 10^(16 - E) as a
double-double (hi + lo) 2^b with hi in [1, 2), and 2^b, which reaches
2^1129, as two powers of two s1 = 2^(b >> 1) and s2 = 2^(b - (b >> 1)),
all built on first use from integer arithmetic (nothing is built at
import).  M = |x| s1 s2 = |x| 2^b is exact: for every |x| of decade E,
subnormals included, neither |x| s1 nor M leaves the normal range.
M * hi is formed exactly as ph + pl by Dekker's two-product (1971), and
M * lo is added to pl.  ph is an even integer, as it is at least 2^53,
so rint of the low part rounds D half to even, as `%` does.

Error bound.  When 10^(16 - E) is a double (0 <= 16 - E <= 22, lo = 0)
the sum is |x| 10^(16 - E) exactly, ties included.  Otherwise
M = |x| 10^(16 - E) / t with t = 10^(16 - E) 2^-b in [1, 2), so
M < 10^17 < 2^57.  The table's own rounding (|hi + lo - t| < 2^-106),
the product M * lo and the final sum then each leave an error below
2^-49 in the low part, so the low part is within 2^-47 of its exact
value.

Fallback.  Ziv's rounding test ("Fast evaluation of elementary
mathematical functions with correctly rounded last bit", ACM TOMS 1991)
sends an element to `FMT % x` when the bound cannot separate it from a
rounding boundary: its low part lies within `_ZIV` = 2^-44 of a half
integer while lo != 0.  An element also goes there when D falls outside
[10^16, 10^17), which happens when the rounding carries to 10^17.  Its
`%` token (at most 24 bytes) and ", " then fill its frame.  The kernel
covers zeros, subnormals and both signs itself, so every finite double
is in its range; random doubles take the fallback about once in 2^43.

Layout.  Each token is written into a 32-byte frame of four
little-endian words: sign and "0.000" prefix, the 17 digits with the
decimal point shifted in at its place, exponent, and the ", " separator.
The words come from tables by (sign, E), by 4-digit chunk (D's chunks
by `//` and a multiply-subtract) and by (point, digit count), and are
combined in place.  Bytes a token does not use (trailing zeros,
stripped as `%g` strips them, and unused prefix and exponent bytes) are
NUL, and `bytes.translate` drops them from the block's bytes.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import IoFailure


FMT = "%.17g"

# Arrays this long or longer take the kernel.  On a 2-core Xeon (Python
# 3.11, numpy 2.4) the kernel takes about 70 us for 64 random floats in
# [0, 1), 85 us for 256, 0.23 ms for 2,048 and 1.0 ms for 8,192, and one
# `%` call about 440 ns per such float: they break even near 200 floats.
# But the first long array of a process also builds the tables (about
# 3 ms; the 40 MB family-sup and trace-testing benchmark workers, whose
# witness arrays hold at most 1,024 floats, peaked 0.6-0.8 MB higher with
# a crossover of 512).  From 2,048 floats on, each array saves 0.5 ms or
# more.
_CROSSOVER = 2048
# Floats per kernel pass.  A pass holds about 170 bytes per float at its
# peak (tracemalloc).  On the wide-grid benchmark, blocks of 8,192 floats
# took 2% less `wall_s` than blocks of 4,096 and 0.2 MB more peak RSS
# (59.49 against 59.26 MB at seed 0, six runs each).
_BLOCK = 8192
# Ziv bound on the low part: 8x the proven 2^-47.
_ZIV = 2.0 ** -44
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's product
_B_MIN, _B_MAX = -1073, 1024  # frexp exponents of the finite doubles
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero finite doubles
_D_LOW, _D_SPAN = 10**16, 9 * 10**16  # 17-digit D lies in [LOW, LOW + SPAN)


class _Tables(NamedTuple):
    dec: np.ndarray  # floor((e - 1) log10 2), by e - _B_MIN
    above: np.ndarray  # the least double >= 10^(dec + 1), by e - _B_MIN
    hi: np.ndarray  # 10^(16 - E) = (hi + lo) 2^b with hi in [1, 2), by E - _E_MIN
    lo: np.ndarray
    b: np.ndarray  # int32
    s1: np.ndarray  # 2^(b >> 1) and 2^(b - (b >> 1)): normal doubles whose product is 2^b
    s2: np.ndarray
    hi_hi: np.ndarray  # hi split in two halves of 26 and 27 bits for Dekker
    hi_lo: np.ndarray
    half: np.ndarray  # 1/2 - _ZIV, or 1/2 where lo = 0
    chunk: np.ndarray  # uint64: ASCII of 0000..9999, first digit in the low byte
    chunk_tz: np.ndarray  # trailing zeros of each 4-digit chunk
    row: np.ndarray  # mask row of all 17 digits, point code * 18 + 17, by E - _E_MIN
    lead: np.ndarray  # frame word 0: sign and prefix, by neg * span + E - _E_MIN
    tail: np.ndarray  # frame word 3: exponent and ", ", by E - _E_MIN
    keep: np.ndarray  # (3, 18 * 18) masks of frame words 1..3 by point * 18 + digits
    shift: np.ndarray  # the same for the bytes that move up one place
    dot: np.ndarray  # the same holding the "." byte


def _pow10(j: int) -> tuple[float, float, int, bool]:
    """10^j = (hi + lo) 2^b with hi in [1, 2), |lo| <= ulp(hi) / 2, from
    integers; the flag says whether hi + lo is exact."""
    if j >= 0:  # 10^j / 2^b = num / den
        num = 10**j
        b = num.bit_length() - 1
        den = 1 << b
    else:
        den = 10**-j
        b = -den.bit_length()
        num = 1 << -b
    q, r = divmod(num << 120, den)
    hi = math.ldexp(float(q), -120)
    rest = q - int(math.ldexp(hi, 120))
    return hi, math.ldexp(float(rest), -120), b, not (rest or r)


def _at_least_pow10(j: int) -> float:
    """The least double >= 10^j."""
    num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
    v = num / den  # correctly rounded
    n, d = v.as_integer_ratio()
    return v if n * den >= num * d else math.nextafter(v, math.inf)


@cache
def _tables() -> _Tables:
    """Built on the first long array, from exact integer arithmetic."""
    Es = range(_E_MIN, _E_MAX + 1)
    at_least = np.array([_at_least_pow10(E) for E in Es])
    hi, lo, b, exact = np.array([_pow10(16 - E) for E in Es]).T
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    e = np.arange(_B_MIN, _B_MAX + 1)
    dec = (e - 1) * 78913 >> 18  # floor((e - 1) log10 2), exact on this range

    n = np.arange(10000, dtype=np.uint16)
    ascii4 = (n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    chunk = ascii4.view("<u4").reshape(-1).astype(np.uint64)
    chunk_tz = (n % 10 == 0).astype(np.uint8) + (n % 100 == 0) + (n % 1000 == 0) + (n == 0)

    point = np.array([E + 1 if 0 <= E <= 16 else (0 if -4 <= E < 0 else 1) for E in Es])
    tail = b"".join(
        b"\0" + (b"" if -4 <= E <= 16 else b"e%+03d" % E).ljust(5, b"\0") + b", " for E in Es
    )
    lead = b"".join(
        (sign + (b"0." + b"0" * (-E - 1) if -4 <= E < 0 else b"")).ljust(8, b"\0")
        for sign in (b"", b"-") for E in Es
    )

    # Masks by (point code, digit count).  Run byte i (frame byte 7 + i)
    # holds digit i before the point, the point, or digit i - 1 after it,
    # and a run keeps its first `kept` bytes; code 0 (the "0.000ddd" form)
    # has no point in the run.  Run bytes 1..17, then the exponent and the
    # separator, fill frame words 1..3.
    code, digits = np.ogrid[:18, :18]
    at = np.where(code == 0, 17, code)
    kept = np.where(digits > at, digits + 1, np.where(code == 0, digits, at))[..., None]
    i = np.arange(1, 18)
    live = i < kept
    run = np.zeros((3, 18, 18, 24), np.uint8)
    run[0, ..., :17] = 0xFF * (live & (i < at[..., None]))
    run[1, ..., :17] = 0xFF * (live & (i > at[..., None]))
    run[2, ..., :17] = 46 * (live & (i == at[..., None]))
    run[0, ..., 17:] = 0xFF  # exponent and ", " pass
    masks = run.reshape(3, 18 * 18, 24).view("<u8").astype(np.uint64).transpose(0, 2, 1)
    b = b.astype(np.int32)
    return _Tables(
        dec, at_least[dec + 1 - _E_MIN], hi, lo, b, np.ldexp(1.0, b >> 1),
        np.ldexp(1.0, b - (b >> 1)), hi_hi, hi - hi_hi, np.where(exact, 0.5, 0.5 - _ZIV),
        chunk, chunk_tz, (point * 18 + 17).astype(np.intp),
        np.frombuffer(lead, "<u8").astype(np.uint64),
        np.frombuffer(tail, "<u8").astype(np.uint64),
        *(np.ascontiguousarray(kind) for kind in masks),
    )


def _digits(a: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, fallback) for nonnegative finite doubles a: a's 17 significant
    digits as an integer, its decimal exponent, and where `%` must decide."""
    e = np.frexp(a)[1].astype(np.intp)
    e -= _B_MIN
    up = a >= t.above[e]
    E = t.dec[e]
    E += up
    zero = a == 0
    E[zero] = 0  # zero prints as "0"
    k = E - _E_MIN  # the table row of 10^(16 - E)
    m = t.s1[k]
    m *= a
    m *= t.s2[k]  # M = |x| 2^b, exact: M (hi + lo) is |x| 10^(16 - E)
    ph, low = _two_product(m, k, t)  # ph is an even integer, as ph >= 2^53
    lo = t.lo[k]
    lo *= m
    low += lo
    r = np.rint(low)
    low -= r
    fallback = np.abs(low, out=low) > t.half[k]  # Ziv's test; exact ties pass
    D = ph.astype(np.int64)
    D += r.astype(np.int64)
    fallback |= ((D - _D_LOW).view(np.uint64) >= _D_SPAN) & ~zero
    return D, E, fallback


def _two_product(m: np.ndarray, k: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """(ph, pl) with ph = fl(m hi) and ph + pl = m hi exactly (Dekker)."""
    mh = m * _SPLIT
    ml = mh - m
    mh -= ml
    np.subtract(m, mh, out=ml)
    ph = t.hi[k]
    ph *= m
    hh, hl = t.hi_hi[k], t.hi_lo[k]
    pl = mh * hh
    pl -= ph
    mh *= hl
    pl += mh
    hh *= ml
    pl += hh
    hl *= ml
    pl += hl
    return ph, pl


def _divmod(n: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(n // d, n % d) for nonnegative n."""
    q = n // d
    r = q * d
    np.subtract(n, r, out=r)
    return q, r


def _chunks(D: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 17 digits of D as its first digit and four 4-digit chunks."""
    upper, lower = _divmod(D, 10**8)
    d0, rest = _divmod(upper, 10**8)
    return (d0, *_divmod(rest, 10**4), *_divmod(lower, 10**4))


def _frames(neg: np.ndarray, D: np.ndarray, E: np.ndarray, t: _Tables) -> np.ndarray:
    """(n, 4) little-endian words: each token in its frame, NUL where unused."""
    d0, c1, c2, c3, c4 = _chunks(D)
    tz = t.chunk_tz
    zeros = tz[c1]  # trailing zeros of D, chunk by chunk from the right
    for c in (c2, c3, c4):
        zeros *= c == 0
        zeros += tz[c]
    e = E - _E_MIN
    q = t.row[e]
    q -= zeros  # the mask row: point code, digits left once zeros are stripped
    by_sign = neg * (_E_MAX - _E_MIN + 1)
    by_sign += e
    w0 = t.lead[by_sign]
    d0 = d0.view(np.uint64)
    d0 += 48
    d0 <<= 56
    w0 |= d0
    ch = t.chunk
    w1 = ch[c2]
    w1 <<= 32
    w1 |= ch[c1]
    w2 = ch[c4]
    w2 <<= 32
    w2 |= ch[c3]
    out = np.empty((len(D), 4), "<u8")
    out[:, 0] = w0
    top = w0 >> 56
    for i, w in enumerate((w1, w2, t.tail[e])):
        up = w << 8
        up |= top  # every byte one place up
        np.right_shift(w, 56, out=top)
        up &= t.shift[i][q]
        w &= t.keep[i][q]
        w |= up
        np.bitwise_or(w, t.dot[i][q], out=out[:, i + 1])
    return out


def _block_text(x: np.ndarray, t: _Tables) -> str:
    """Tokens of one block, each followed by ", "."""
    D, E, fallback = _digits(np.abs(x), t)
    frames = _frames(np.signbit(x), D, E, t)
    whole = frames.view("S32")  # one NUL-padded bytes item per frame
    for i in np.flatnonzero(fallback).tolist():
        whole[i] = (FMT % float(x[i]) + ", ").encode("ascii")
    return frames.tobytes().translate(None, b"\0").decode("ascii")


def _emit_array(x: np.ndarray, sink: Callable[[str], object]) -> None:
    """Send the JSON text of an array to sink; a non-empty 1-D array of
    finite float64 values is formatted as a whole, any other goes element
    by element through its `tolist`."""
    if not (x.dtype == np.float64 and x.ndim == 1 and x.size and np.isfinite(x).all()):
        _emit(x.tolist(), sink)
        return
    first = x[0]  # equal nonzero floats have equal bits
    if first != 0 and first == x[-1] and (x == first).all():
        token = FMT % float(first)
        sink("[")
        sink((token + ", ") * (len(x) - 1))
        sink(token)
        sink("]")
    elif len(x) < _CROSSOVER:
        sink("[" + ", ".join([FMT] * len(x)) % tuple(x.tolist()) + "]")
    else:
        t = _tables()
        starts = range(0, len(x), _BLOCK)
        sink("[")
        for start in starts[:-1]:
            sink(_block_text(x[start:start + _BLOCK], t))
        sink(_block_text(x[starts[-1]:], t)[:-2])  # the last token takes no ", "
        sink("]")


def _float_token(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return FMT % x


# a string's escapes: the quote, the backslash and the 32 control characters
_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\"} | {chr(c): "\\u%04x" % c for c in range(0x20)})


def _string_token(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _emit(obj, sink: Callable[[str], object]) -> None:
    """Send the JSON text of obj to sink, piece by piece."""
    if obj is None:
        sink("null")
    elif obj is True:
        sink("true")
    elif obj is False:
        sink("false")
    elif isinstance(obj, (int, np.integer)):
        sink(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        sink(_float_token(float(obj)))
    elif isinstance(obj, str):
        sink(_string_token(obj))
    elif isinstance(obj, dict):
        sink("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                sink(", ")
            sink(_string_token(str(key)))
            sink(": ")
            _emit(val, sink)
        sink("}")
    elif isinstance(obj, np.ndarray):
        _emit_array(obj, sink)
    elif isinstance(obj, (list, tuple)):
        sink("[")
        for i, val in enumerate(obj):
            if i:
                sink(", ")
            _emit(val, sink)
        sink("]")
    else:
        raise IoFailure(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts.append)
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


def write_json(path: str, obj) -> None:
    """Write canonical_json(obj) to path as it is formed, so the document
    is never held whole; a document that cannot be serialized leaves no
    file behind."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            try:
                _emit(obj, fh.write)
            except IoFailure:
                fh.close()
                os.remove(path)
                raise
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
