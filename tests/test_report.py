"""The report emitter's float-array kernel: the same bytes as the
per-element `%` oracle, for arrays and for lists alike and for documents
whose arrays share a batch, exact tables, a fallback exactly where the
double-double bound cannot decide, one kernel pass per batch, and the
same bytes under another numpy SIMD dispatch."""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
import simd
import dtl
from dtl import report
from dtl.report import canonical_json


def _pow10(j):
    """The double nearest 10^j."""
    return float(10**j) if j >= 0 else 1 / 10**-j


def _tie(E, r):
    """A double x in [10^E, 10^(E+1)) whose x 10^(16-E) is a half integer:
    x = M 2^(E-17) with M odd.  These exist for E in [-8, 15] only, so no
    double of 1e17 or more is a 17th-digit tie."""
    scale = Fraction(2) ** (17 - E)
    lo = math.ceil(Fraction(10) ** E * scale) | 1
    hi = min(math.ceil(Fraction(10) ** (E + 1) * scale), 2**53)  # M < hi
    return math.ldexp(lo + 2 * (r % ((hi - lo + 1) // 2)), E - 17)


_BITS = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
_SIGN = st.sampled_from([1.0, -1.0])
_VALUE = st.one_of(
    _BITS,
    st.builds(lambda m, s: s * math.ldexp(m, -1074), st.integers(0, 2**52 - 1), _SIGN),
    st.builds(lambda j, s: s * _pow10(j), st.integers(-323, 308), _SIGN),
    st.builds(lambda k, s: s * math.ldexp(1.0, k), st.integers(-1074, 1023), _SIGN),
    st.builds(
        lambda j, s: math.nextafter(_pow10(j), s * math.inf), st.integers(-323, 308), _SIGN
    ),
    st.builds(lambda E, r, s: s * _tie(E, r), st.integers(-8, 15), st.integers(0, 2**40), _SIGN),
)
_LENGTHS = (
    1, 2, 2047, 2048, 2049,
    report._BLOCK - 1, report._BLOCK, report._BLOCK + 1, 2 * report._BLOCK + 1,
)


@st.composite
def _float_lists(draw):
    values = draw(st.lists(_VALUE, min_size=1, max_size=24))
    n = draw(st.sampled_from(_LENGTHS))
    seq = (values * (n // len(values) + 1))[:n]
    return seq if draw(st.booleans()) else tuple(seq)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_float_lists())
def test_long_float_lists_match_per_element_oracle(seq):
    # the array takes the kernel at every length; the list goes element by
    # element
    assert canonical_json(np.array(seq)) == oracles.canonical_json(seq)
    assert canonical_json(seq) == oracles.canonical_json(seq)


def _array_cases():
    """(label, array): every array branch of the emitter, at lengths on
    both sides of 2,048 and of a block."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 2047, 2048, 2049, report._BLOCK - 1, report._BLOCK, report._BLOCK + 1):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        yield f"random {n}", x
        yield f"strided {n}", np.repeat(x, 2)[::2]
        for bad in (np.nan, np.inf, -np.inf, -0.0):
            y = x.copy()
            y[n // 2] = bad
            yield f"{bad} inside {n}", y
        for c in (2.5, 0.0, -0.0, -1e-300):
            yield f"constant {c} {n}", np.full(n, c)
        y = np.full(n, 7.0)
        y[n // 2] = 8.0
        yield f"ends equal {n}", y
        with np.errstate(over="ignore"):
            x32 = x.astype(np.float32)  # large entries become float32 infinities
        yield f"float32 {n}", x32
        yield f"big-endian {n}", x.astype(">f8")
        yield f"int {n}", rng.integers(-(2 ** 62), 2 ** 62, n)
        yield f"bool {n}", rng.integers(0, 2, n).astype(bool)
    yield "0-d", np.array(1.5)
    yield "0-d nan", np.array(np.nan)
    yield "2-D", rng.random((3, 4))
    yield "2-D constant", np.full((2, 3), 2.5)
    yield "empty", np.empty(0)
    yield "empty 2-D", np.empty((0, 3))


def test_arrays_match_the_oracle_on_their_tolist():
    for label, x in _array_cases():
        assert canonical_json(x) == oracles.canonical_json(x.tolist()), label


def _exact_decimal(x):
    """(E, |x| 10^(16-E)) exactly, for a finite nonzero double."""
    v = abs(Fraction(x))
    E = math.floor(math.log10(abs(x)))
    while v < Fraction(10) ** E:
        E -= 1
    while v >= Fraction(10) ** (E + 1):
        E += 1
    return E, v * Fraction(10) ** (16 - E)


def test_tables_hold_exact_powers_of_ten():
    t = report._tables()
    for u, e in enumerate(range(report._B_MIN, report._B_MAX + 1)):
        dec = int(t.dec[u])
        assert Fraction(10) ** dec <= Fraction(2) ** (e - 1) < Fraction(10) ** (dec + 1)
        above = Fraction(float(t.above[u]))
        assert above >= Fraction(10) ** (dec + 1) > Fraction(math.nextafter(t.above[u], 0))
    for k, E in enumerate(range(report._E_MIN, report._E_MAX + 1)):
        exact = Fraction(10) ** (16 - E) / Fraction(2) ** int(t.b[k])
        hi, lo = Fraction(float(t.hi[k])), Fraction(float(t.lo[k]))
        assert 1 <= hi < 2 and abs(hi + lo - exact) <= Fraction(1, 2**105)
        assert (lo == 0) == (hi == exact) == (t.half[k] == 0.5) == (0 <= 16 - E <= 22)
        hh, hl = float(t.hi_hi[k]), float(t.hi_lo[k])
        assert hh + hl == float(t.hi[k]) and Fraction(hh).denominator <= 2**26


def _decade_ends(E):
    """The least and the largest double in [10^E, 10^(E+1)), subnormals
    included."""
    low, high = Fraction(10) ** E, Fraction(10) ** (E + 1)
    least = float(low)
    if least < low:
        least = math.nextafter(least, math.inf)
    largest = float(high) if high <= sys.float_info.max else sys.float_info.max
    if largest >= high:
        largest = math.nextafter(largest, 0)
    return least, largest


def test_tables_scale_by_two_exact_powers_of_two():
    # M = |x| s1 s2 replaces ldexp(m, e + b): exact, as neither product
    # leaves the normal range for any x of the row's decade
    t = report._tables()
    tiny, huge = sys.float_info.min, sys.float_info.max
    for k, E in enumerate(range(report._E_MIN, report._E_MAX + 1)):
        s1, s2, b = float(t.s1[k]), float(t.s2[k]), int(t.b[k])
        assert Fraction(s1) * Fraction(s2) == Fraction(2) ** b
        assert tiny <= s1 <= huge and tiny <= s2 <= huge
        for x in _decade_ends(E):
            assert tiny <= x * s1 <= huge, (E, x)
            assert Fraction(x * s1 * s2) == Fraction(x) * Fraction(2) ** b
    assert _decade_ends(report._E_MIN)[0] == math.ulp(0.0)
    assert _decade_ends(report._E_MAX)[1] == sys.float_info.max


def test_fallback_is_exactly_carries_and_undecidable_ties():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64)
    values = bits[np.isfinite(bits) & (bits != 0)].tolist()
    values += [_pow10(j) for j in range(-323, 309)]
    values += [math.nextafter(_pow10(j), s) for j in range(-323, 309) for s in (0, math.inf)]
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [_tie(E, r) for E in range(-8, 16) for r in range(4)]
    carries, undecided = [], []
    for x in values:
        E, scaled = _exact_decimal(x)
        carries.append(round(scaled) == 10**17)
        off = abs(scaled - math.floor(scaled) - Fraction(1, 2))
        # the bound is 2^-44 where 10^(16-E) is not a double; the low
        # part may be 2^-46 off, so no sample may sit that close to 2^-44
        assert abs(off - Fraction(1, 2**44)) > Fraction(1, 2**46)
        undecided.append(not 0 <= 16 - E <= 22 and off < Fraction(1, 2**44))
    _, _, fallback = report._digits(np.abs(np.array(values)), report._tables())
    assert fallback.tolist() == [c or u for c, u in zip(carries, undecided)]
    # 10^-305 and 10^-243 round up to "1e-305" and "1e-243"; the ties at
    # E = -7 and -8 meet a 10^(16-E) that is not a double
    assert any(carries) and any(undecided)


def _kernel_digest():
    """sha256 of a document whose float arrays all take the kernel."""
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64)
    ties = [_tie(E, r) for E in range(-8, 16) for r in range(40)]
    doc = {
        "bits": bits[np.isfinite(bits)],
        "unit": rng.random(report._BLOCK + 3),
        "ties": np.array(ties * 3),
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def test_kernel_bytes_do_not_depend_on_simd_dispatch():
    """A child process with numpy's AVX-512 targets turned off formats the
    same document to the same bytes as this process (see simd.py for the
    targets and for a host without them)."""
    code = (
        "import simd, test_report\n"
        "found = simd.cpu()[1]\n"
        f"print([n for n in {simd.avx512_targets()!r} if found.get(n)], test_report._kernel_digest())\n"
    )
    (out,) = simd.run_children(code, avx512=(False,))
    assert out.split() == ["[]", _kernel_digest()]


def test_fallback_tokens_at_frame_and_block_edges():
    # carries to 10^17 ("1e-305", "-1e-243") at the first and last frame
    # of a block and of the array: each token is written into its own frame
    n = 2 * report._BLOCK + 1
    x = np.random.default_rng(7).random(n)
    at = [0, report._BLOCK - 1, report._BLOCK, n - 1]
    x[at] = [1 / 10**305, -1 / 10**243, -1 / 10**243, 1 / 10**305]
    _, _, fallback = report._digits(np.abs(x), report._tables())
    assert np.flatnonzero(fallback).tolist() == at
    assert canonical_json(x) == oracles.canonical_json(x.tolist())


def _peak_bytes(fn):
    """The tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emission_memory_stays_near_the_text(tmp_path):
    # the kernel's block temporaries: canonical_json holds its pieces and
    # their join (2x the text), write_json about one block's worth
    report._tables()  # built once per process, outside the peaks
    rng = np.random.default_rng(13)
    x = rng.random(1 << 16)
    text = canonical_json(x)
    assert _peak_bytes(lambda: canonical_json(x)) <= 2.2 * len(text)
    doc = {"a": x, "b": rng.random(1 << 16), "c": rng.random(1 << 16)}
    size = len(canonical_json(doc))
    path = tmp_path / "doc.json"
    assert _peak_bytes(lambda: report.write_json(str(path), doc)) <= 0.5 * size
    assert path.stat().st_size == size
    # 256 arrays of 256 floats share eight batches: write_json peaks at one
    # batch's temporaries, as for a document of one batch, not at the
    # document's size
    one = {f"a{i}": rng.random(256) for i in range(32)}
    many = {f"a{i}": rng.random(256) for i in range(256)}
    batch_peak = _peak_bytes(lambda: report.write_json(str(path), one))
    many_peak = _peak_bytes(lambda: report.write_json(str(path), many))
    assert many_peak <= 1.1 * batch_peak
    assert many_peak <= 0.7 * path.stat().st_size


def _as_lists(obj):
    """obj with every array replaced by its tolist, for the oracle."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(val) for val in obj]
    return obj


def _batched(obj):
    """The arrays of obj that go to the kernel batch, in document order."""
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim == 1 and obj.size and np.isfinite(obj).all():
            if not (obj[0] != 0 and (obj == obj[0]).all()):
                yield obj
    elif isinstance(obj, dict):
        for val in obj.values():
            yield from _batched(val)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            yield from _batched(val)


def _kernel_passes(doc):
    """The number of kernel passes the batching rule gives for doc: one
    when the batch is full, one before an array of `_BLOCK` floats or
    more, and one at the end."""
    held = passes = 0
    for x in _batched(doc):
        if len(x) >= report._BLOCK and held:
            passes, held = passes + 1, 0
        passes += (held + len(x)) // report._BLOCK
        held = (held + len(x)) % report._BLOCK
    return passes + (held > 0)


@contextlib.contextmanager
def _kernel_calls():
    """The lengths of the kernel passes made inside the block, in order."""
    calls = []
    real = report._digits

    def counted(a, t):
        calls.append(len(a))
        return real(a, t)

    report._digits = counted
    try:
        yield calls
    finally:
        report._digits = real


def _mixed_document():
    """Short, long, constant, non-finite, strided and non-float arrays
    between lists and scalars.  The batched floats fill a batch at the
    end of one array and start the next batch with the next array, and
    later fill one inside an array; fallback tokens sit at the first and
    last float of a batched array, and -0.0 and subnormals inside it."""
    B = report._BLOCK
    rng = np.random.default_rng(17)

    def floats(n):
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)

    edges = floats(100)
    edges[[0, -1]] = [1 / 10**305, -1 / 10**243]
    edges[[10, 11, 12]] = [-0.0, 5e-324, -2.225e-308]
    nan_inside = floats(30)
    nan_inside[3] = np.nan
    strided = np.repeat(floats(1000), 2)[::2]
    doc = {
        "scalar": 1.5,
        "list": [1, 2.5, None, "s", -0.0, [3.25, True]],
        "edges": edges,
        "constant": np.full(50, 2.5),
        "nan inside": nan_inside,
        "strided": strided,
        "to the edge": floats(B - 1100 - 2),
        "ends a batch": floats(2),  # the batch is full at its last float
        "starts a batch": [floats(3000), {"zeros": np.zeros(4)}, -1e-300],
        "crosses": floats(B - 3000 - 4 + 17),  # the batch is full inside it
        "long": floats(2 * B + 1),
        "after long": [floats(5), np.full(3, -0.0), np.full(3, 1e-300)],
        "others": [rng.random(6).astype(np.float32), np.arange(4), rng.random((2, 3)), np.empty(0)],
        "0-d": np.array(0.5),
        "last": floats(7),
    }
    lengths = [len(x) for x in _batched(doc)]
    assert sum(lengths[:4]) == B and lengths[3:5] == [2, 3000]  # full at an edge
    assert sum(lengths[:7]) > 2 * B > sum(lengths[:6])  # full inside "crosses"
    return doc


def test_mixed_documents_match_the_oracle_and_write_the_same_bytes(tmp_path):
    doc = _mixed_document()
    with _kernel_calls() as calls:
        text = canonical_json(doc)
    assert text == oracles.canonical_json(_as_lists(doc))
    # full, full inside "crosses", before "long", its two blocks, the end
    B = report._BLOCK
    assert calls == [B, B, 17, B, B, 16] and len(calls) == _kernel_passes(doc)
    path = tmp_path / "doc.json"
    report.write_json(str(path), doc)
    assert path.read_bytes() == text.encode("utf-8")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 7, 255, 2047, report._BLOCK - 1, report._BLOCK, report._BLOCK + 1]),
            st.sampled_from(["random", "constant", "nan", "list", "edges"]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_batched_arrays_match_the_oracle(specs):
    # any order of array lengths and kinds: each document is the oracle's,
    # and its kernel passes are one per batch
    rng = np.random.default_rng(len(specs))
    doc = []
    for n, kind in specs:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        if kind == "constant":
            x[:] = x[0]
        elif kind == "nan":
            x[n // 2] = np.nan
        elif kind == "edges":
            x[[0, -1]] = [-1 / 10**243, 1 / 10**305]
        doc.append(x.tolist() if kind == "list" else x)
        doc.append(n)
    with _kernel_calls() as calls:
        text = canonical_json(doc)
    assert text == oracles.canonical_json(_as_lists(doc))
    assert len(calls) == _kernel_passes(doc)


def test_a_sweep_document_takes_one_kernel_pass_per_batch():
    # the witness arrays of a thm1.2b d1 L7-9 sweep, six of them batched,
    # share one kernel pass instead of one formatting call each
    spec = dtl.ExperimentSpec("thm1.2b", dims=(1,), depths=(7, 8, 9), trials=2, seed=0)
    doc = dtl.sweep(spec).to_doc()
    with _kernel_calls() as calls:
        canonical_json(doc)
    batched = [len(x) for x in _batched(doc)]
    assert len(batched) == 6 and sum(batched) < report._BLOCK
    assert calls == [sum(batched)] and _kernel_passes(doc) == 1
