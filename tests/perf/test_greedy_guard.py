"""Speedup guard for the batched split-the-bottleneck greedy.

:func:`~repro.algorithms.heuristics.greedy_interval_period` scores each
round as one candidate batch; the reference oracle
(:mod:`tests.algorithms.reference_greedy`) scores one materialized
``Mapping`` per candidate.  On a 2 x 8-stage instance on 10 two-mode
processors (the size of the ``cold-serve`` benchmark workload's
instances) the batched greedy measured about 10x faster than the
reference on a 2-vCPU x86-64 host.  The guard asserts at least 3x: a
ratio of two timings on the same machine holds on slower or faster
hosts, and 3x is far enough below the measured value that scheduler
noise cannot trip it while a return to per-candidate scoring would.
"""

import time

from repro.algorithms.heuristics import greedy_interval_period
from repro.core.types import PlatformClass
from repro.generators import small_random_problem

from ..algorithms.reference_greedy import reference_greedy_interval_period

MIN_SPEEDUP = 3.0


def best_of_three(solve, problem) -> float:
    solve(problem)  # warm the evaluation context and batch tables
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        solve(problem)
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_greedy_beats_per_candidate_reference():
    problem = small_random_problem(
        11,
        platform_class=PlatformClass.FULLY_HETEROGENEOUS,
        stage_range=(8, 8),
        n_procs=10,
        n_modes=2,
    )
    solution = greedy_interval_period(problem)
    assert solution.stats["n_rounds"] >= 3
    assert solution == reference_greedy_interval_period(problem)
    batched = best_of_three(greedy_interval_period, problem)
    reference = best_of_three(reference_greedy_interval_period, problem)
    speedup = reference / batched
    assert speedup >= MIN_SPEEDUP, (
        f"batched greedy {batched * 1e3:.2f} ms vs reference "
        f"{reference * 1e3:.2f} ms: {speedup:.1f}x < {MIN_SPEEDUP}x"
    )
