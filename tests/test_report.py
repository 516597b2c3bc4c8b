"""The report emitter's float-array kernel: the same bytes as the
per-element `%` oracle, for arrays and for lists alike, exact tables, a
fallback exactly where the double-double bound cannot decide, and the
same bytes under another numpy SIMD dispatch."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
import simd
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
    1, 2, report._CROSSOVER - 1, report._CROSSOVER, report._CROSSOVER + 1,
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
    # the array takes the kernel from _CROSSOVER floats on; the list goes
    # element by element
    assert canonical_json(np.array(seq)) == oracles.canonical_json(seq)
    assert canonical_json(seq) == oracles.canonical_json(seq)


def _array_cases():
    """(label, array): every array branch of the emitter, at lengths on
    both sides of the crossover and of a block."""
    rng = np.random.default_rng(3)
    for n in (1, 2, report._CROSSOVER - 1, report._CROSSOVER, report._CROSSOVER + 1,
              report._BLOCK - 1, report._BLOCK, report._BLOCK + 1):
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
    assert min(map(len, doc.values())) >= report._CROSSOVER
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
