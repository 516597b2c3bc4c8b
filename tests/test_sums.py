"""The package's one scalar float sum and the stand-in for Python 3.12's.

grid.ordered_sum is a left fold with +.  tests/pysum.py reproduces the
compensated float sum of CPython 3.12's builtin, so a test on any
supported Python can show what a report would be under 3.12; its
outputs here were recorded once from the CPython 3.12.1 interpreter.
"""

from __future__ import annotations

import hashlib
import random
import struct
from fractions import Fraction

import pytest

import pysum
from dtl.grid import ordered_sum

INF = float("inf")

# (arguments, CPython 3.12.1's sum as float.hex() or repr)
_RECORDED = (
    (([1.0, 2**-53, 2**-53],), "0x1.0000000000001p+0"),
    (([0.1] * 10,), "0x1.0000000000000p+0"),
    (([1e100, 1.0, -1e100],), "0x1.0000000000000p+0"),
    (([INF, 1.0],), "inf"),
    (([1e308, 1e308],), "inf"),
    (([INF, -INF],), "nan"),
    (([-0.0], -0.0), "-0x0.0p+0"),
    (([-0.0],), "0x0.0p+0"),
    (([],), "0"),
    (([], 0.0), "0x0.0p+0"),
    (([1e16, 1, 1],), "0x1.1c37937e08000p+53"),
    (([1e16, 1.0, 1.0],), "0x1.1c37937e08001p+53"),
    (([1, 2, True],), "4"),
    (([2**63, 1.0, 2**-60],), "0x1.0000000000000p+63"),
    (([1e16, 2**70, 1.0, 1.0],), "0x1.00008e1bc9bf0p+70"),
    (([1.0, 2**-53, Fraction(1), 2**-53, 2**-53],), "0x1.0000000000000p+1"),
    (([2**-53, 2**-53], 1.0), "0x1.0000000000001p+0"),
    (([3, 2**-53, 2**-53],), "0x1.8000000000000p+1"),
    (([-1.0, 1.0, -0.0], -0.0), "0x0.0p+0"),
)

# sha256 of the 600 outputs of _lists() joined by newlines, and how many
# of them differ from a left fold, both under CPython 3.12.1
_RECORDED_DIGEST = "60a7c8564194e528d12ba0c4223df6c9f82882eea62b5c84fa3dfa5d65bc9f68"
_RECORDED_MOVED = 263


def _text(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _lists() -> list[list]:
    """600 float lists, a few with an int, built from getrandbits only so
    that every Python version builds the same ones; exponents spread over
    1 to 300 binades, so that sums cancel and round."""
    rng = random.Random(20261020)

    def draw(spread):
        exponent = 1023 + rng.randrange(-spread, spread + 1)
        bits = rng.getrandbits(1) << 63 | exponent << 52 | rng.getrandbits(52)
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    out = []
    for n in range(600):
        length = rng.randrange(0, 40)
        spread = (1, 8, 60, 300)[n % 4]
        xs = [draw(spread) for _ in range(length)]
        if n % 5 == 0:
            xs = [abs(x) for x in xs]
        if n % 7 == 0:
            xs = xs + [-x for x in xs[: length // 2]]
        if n % 11 == 0 and xs:
            xs.insert(rng.randrange(len(xs)), rng.randrange(-5, 6))
        out.append(xs)
    return out


def _left_fold(xs, start=0):
    total = start
    for x in xs:
        total = total + x
    return total


@pytest.mark.parametrize("args,want", _RECORDED)
def test_stand_in_matches_recorded_python312_sums(args, want):
    assert _text(pysum.sum(*args)) == want


def test_stand_in_matches_recorded_python312_digest():
    lists = _lists()
    text = "\n".join(_text(pysum.sum(xs)) for xs in lists)
    assert hashlib.sha256(text.encode()).hexdigest() == _RECORDED_DIGEST
    moved = sum(pysum.sum(xs) != _left_fold(xs) for xs in lists)  # ints: any sum is exact
    assert moved == _RECORDED_MOVED


def test_ordered_sum_folds_left_to_right():
    # 3.12's sum rounds the two halves of an ulp in; the left fold drops each
    assert ordered_sum([1.0, 2**-53, 2**-53]) == 1.0
    assert ordered_sum([]) == 0.0 and type(ordered_sum([])) is float
    assert ordered_sum([2**-53, 2**-53], 1.0) == 1.0
    assert ordered_sum(iter([0.5, 0.25])) == 0.75
    for xs in _lists():
        got, want = ordered_sum(xs), _left_fold(xs, 0.0)
        assert got == want or got != got and want != want
