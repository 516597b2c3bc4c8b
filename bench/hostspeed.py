"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts where other tenants slow this process
by up to about 1.5x for seconds to minutes at a time; CPU time grows with
wall time, so the loss is in effective CPU speed, not in scheduling.  A
fixed reference computation, independent of dtl, is timed between the
operations and trials of every pass.  Timings are then reported at a
nominal host speed: a time measured while the reference took ``r`` seconds
is scaled by ``REF_S / r``.  A change to dtl moves the scaled times exactly
as it moves the raw ones, while the host's own drift cancels.  The raw
times and the scale factors are kept in every result document.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# nominal time of one reference() call, a round figure between its fastest
# (1.4 ms) and its median under load (2.4 ms) on a 2-core Intel Xeon host
# with Python 3.11 and numpy 2.4
REF_S = 0.002


@dataclass(frozen=True)
class _Cell:
    level: int
    index: tuple

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(self.level)


_TABLE = np.linspace(0.0, 1.0, 4096)


def reference() -> float:
    """The mix dtl's hot paths are made of: frozen-dataclass keys in sets
    and dicts, small numpy reductions, and float formatting."""
    seen = set()
    count: dict = {}
    for i in range(600):
        cell = _Cell(i & 7, (i >> 3, i & 3))
        seen.add(cell)
        count[cell.level] = count.get(cell.level, 0) + (cell in seen)
    acc = 0.0
    for k in range(1, 40):
        block = _TABLE[k::k]
        acc += float(np.sum(block**1.5)) + float(block.max())
    text = ",".join("%.17g" % x for x in _TABLE[:600])
    return acc + len(text) + len(count)


def sample(samples: list[float]) -> float:
    """Time one reference() call, append it, and return the time taken."""
    t0 = time.perf_counter()
    reference()
    took = time.perf_counter() - t0
    samples.append(took)
    return took


def scale(samples: list[float]) -> float:
    """Factor that brings times measured alongside `samples` to REF_S speed."""
    return REF_S / statistics.median(samples)
