"""CPython 3.12's builtin sum, in pure Python.

From Python 3.12 on, sum() adds floats with Neumaier's compensated
summation (A. Neumaier, ZAMM 54, 1974) and rounds the compensation in
once at the end, so a float sum may differ in the last bit from the left
to right fold of 3.10 and 3.11.  The package adds its floats through
grid.ordered_sum instead, and a test binds this function as `sum` to show
that no report depends on which algorithm the interpreter's sum uses.

It follows the C code of 3.12 (Python/bltinmodule.c, builtin_sum_impl):
ints (bools included) are added exactly while the total is an int; once
it is a float, floats go into the compensated sum and ints that fit a C
long are added to the running total without compensation; anything else
rounds the compensation in and continues with plain `+`.  The
compensation is added only when it is nonzero and finite, so an infinite
or overflowed total stays infinite and -0.0 keeps its sign.
"""

from __future__ import annotations

import math

_LONG_MIN, _LONG_MAX = -(2 ** 63), 2 ** 63 - 1


def _finish(hi: float, lo: float) -> float:
    return hi + lo if lo and math.isfinite(lo) else hi


def sum(iterable, /, start=0):
    """sum(iterable, start) as CPython 3.12 computes it where a C long has 64 bits."""
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            exact = (type(item) is int or type(item) is bool) and _LONG_MIN <= item <= _LONG_MAX
            result = result + item
            if not (exact and _LONG_MIN <= result <= _LONG_MAX):
                break
        else:
            return result
    if type(result) is float:
        hi, lo = result, 0.0
        for item in items:
            if type(item) is float:
                t = hi + item
                if abs(hi) >= abs(item):
                    lo += (hi - t) + item
                else:
                    lo += (item - t) + hi
                hi = t
            elif isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                hi += float(item)
            else:
                result = _finish(hi, lo) + item
                break
        else:
            return _finish(hi, lo)
    for item in items:
        result = result + item
    return result
