"""The benchmark's workloads.

Each workload is a fixed list of operations through the public dtl API:
a sweep of one registry id over one dim and a depth ladder, or a
``verify_suite("all")`` call at one (dim, depth).  Each is built so that
one layer does most of its work and little or none in another, so a
later change to that layer shows its gain on one workload and "no
change" on the others:

* ``family-sup``: cost grows with the square of the cube count; nearly
  all of it is the greedy family search (``constants.cq_constant`` ->
  ``sparse_score_sup``, with ``CubeAddr.contains`` scans and a
  containment forest per certification).  Every config stays at or below
  the registry's 511-cube family-sup limit, so nothing is refused.
* ``trace-testing``: cost grows as cubes x leaves, in
  ``norms.maximal_testing_sup`` (one localized ``fractional_maximal`` and
  one ``TreeAggregate.restricted`` per cube).  No family search and no
  stopping builder.
* ``wide-grid``: cost grows with the leaf count: stopping scans in
  ``build_sparse_family``, the per-leaf loops of the hedberg evaluator
  and witness payloads with their report JSON.  Bypasses
  ``maximal_testing_sup`` and ``cq_constant``.
* ``verify-all``: the ``dtl verify --suite all`` path.  ``cq_constant``
  runs in exhaustive mode, the corona builders run, and the exact suite
  goes through ``maximal_testing_sup``.

Trials per depth cover both measure kinds (density and atoms), which
differ in cost by an order of magnitude on the family-sup ids.  Trial
counts also place the 90th percentile of trial times inside a cluster of
similar trials rather than in the gap between two clusters, where it
would jump with the seed: the wide-grid sparse-family ids run 4 trials,
so that their deepest, slowest trials make up 15% of that workload's
trials.  On verify-all the trial latency is that of each
``verify_suite`` call, its unit of work.

Ladders end where a pass stays short enough for several passes per
measuring window on a 2-core Xeon: the three heaviest wide-grid ladders
stop at d2 L8 (at L9 one pass emits about 53 MB of report JSON, takes
about 9 s and peaks near 230 MB), and the trace-testing ladders stop at
d1 L9 and d2 L5, where a pass takes about 1 s instead of 5 s.

The tier-1 test suite is deliberately not a workload: it takes about
30 s, and its heaviest part (acceptance test 08's exhaustive family
search) is already covered by ``verify-all`` at d1 L3.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    inequality: str
    dim: int
    depths: tuple[int, ...]
    trials: int = 2


@dataclass(frozen=True)
class Verify:
    dim: int
    depth: int
    trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "family-sup",
            "greedy family-sup search, quadratic in the cube count; stresses "
            "constants.cq_constant, sparse_score_sup and CubeAddr",
            ops=(
                Sweep("thm2.6", 1, (6, 7, 8)),
                Sweep("thm2.6", 2, (3, 4)),
                Sweep("thm2.4", 1, (6, 7, 8)),
                Sweep("thm2.4", 2, (3, 4)),
                Sweep("lemma2.5", 1, (8, 9, 10)),
            ),
        ),
        Workload(
            "trace-testing",
            "localized-maximal testing sup, cubes x leaves; stresses "
            "norms.maximal_testing_sup and operators.fractional_maximal",
            ops=(
                Sweep("thm1.2b", 1, (7, 8, 9)),
                Sweep("thm1.2b", 2, (3, 4, 5)),
                Sweep("eq1.4-left", 2, (3, 4, 5)),
                Sweep("eq1.4-right", 1, (7, 8, 9)),
                Sweep("eq4.1", 1, (7, 8, 9)),
            ),
        ),
        Workload(
            "wide-grid",
            "many leaves, linear passes; stresses stopping scans, per-leaf "
            "loops, witness payloads and report JSON",
            ops=(
                Sweep("thm1.1a", 2, (6, 7, 8)),
                Sweep("thm4.1", 2, (6, 7, 8)),
                Sweep("hedberg-pointwise", 2, (6, 7, 8)),
                Sweep("thm2.1a", 2, (6, 7, 8), trials=4),
                Sweep("lemma2.2b", 2, (6, 7, 8), trials=4),
                Sweep("morrey-lebesgue-identity", 1, (14, 15, 16)),
                Sweep("discretization", 1, (6, 7, 8)),
            ),
        ),
        Workload(
            "verify-all",
            "the dtl verify path: exhaustive family search, corona builders "
            "and the exact suite",
            ops=(Verify(1, 3, trials=4), Verify(2, 5, trials=4), Verify(1, 8, trials=4)),
        ),
    )
}
