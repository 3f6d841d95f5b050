"""Wall-clock regression guards for the batched hill climb.

``benchmarks/BENCH_neighborhood.json`` records, next to the speedup
table, a ``guard`` block: the hill-climb wall-clock on a fixed reference
instance plus a machine-calibration time (a fixed NumPy + Python
workload).  The first test replays the reference instance and fails
when hill climbing has regressed to more than 1.5x the recorded
wall-clock -- after rescaling the recorded baseline by the calibration
ratio, so a slower CI machine moves the bar instead of tripping it.  A
degenerate recorded calibration (zero, negative or non-finite) falls
back to scale 1.0 rather than dividing by zero.  Skipped when the
baseline JSON has not been recorded.

The second test needs no recorded baseline: on the same reference
instance, the one-``Mapping``-at-a-time oracle
(:mod:`tests.algorithms.reference_local_search`) must take at least 3x
the batched climb's best-of-3 wall-clock.  A 2-vCPU x86-64 host
measured 162.8 ms against 12.7 ms (12.8x), and 18.2 ms against 2.4 ms
(7.6x) on a ``cold-serve``-sized instance; a ratio of two timings on the
same machine holds on slower or faster hosts, and 3x is far enough below
both that scheduler noise cannot trip it while a return to
per-candidate scoring would.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

import pytest

from repro.algorithms.heuristics import greedy_interval_period, hill_climb
from repro.core.types import Criterion

from ..algorithms.reference_local_search import reference_hill_climb

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BASELINE = BENCH_DIR / "BENCH_neighborhood.json"

#: Allowed regression over the (rescaled) recorded wall-clock.
MAX_REGRESSION = 1.5

#: Noise floor: never fail on differences below this many seconds.
ABSOLUTE_FLOOR = 0.05

#: Least allowed oracle / batched wall-clock ratio.
MIN_SPEEDUP = 3.0


def load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_neighborhood", BENCH_DIR / "bench_neighborhood.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calibration_scale(bench, guard) -> float:
    """This machine's speed relative to the baseline machine's.

    A corrupt or hand-edited baseline can carry a zero/negative/NaN
    ``calibration_seconds``; rescaling by it would divide by zero (or
    flip the bar's sign), so anything non-positive or non-finite
    degrades to scale 1.0 (compare raw wall-clocks).
    """
    recorded = guard.get("calibration_seconds")
    if (
        not isinstance(recorded, (int, float))
        or not math.isfinite(recorded)
        or recorded <= 0.0
    ):
        return 1.0
    return bench.calibrate() / recorded


def guard_instance():
    """The recorded guard block, the reference problem and its greedy
    start."""
    guard = json.loads(BASELINE.read_text())["guard"]
    bench = load_bench_module()
    problem = bench.build_instance(guard["seed"], tiny=guard["tiny"])
    start = greedy_interval_period(problem).mapping
    return guard, bench, problem, start


def best_of_three(climb, problem, start, max_iterations):
    """Warm the kernel tables (attempt 0), then keep the best of three
    runs so a scheduler hiccup cannot fail the guard."""
    best = float("inf")
    for attempt in range(4):
        t0 = time.perf_counter()
        solution = climb(
            problem, start, Criterion.PERIOD, max_iterations=max_iterations
        )
        elapsed = time.perf_counter() - t0
        if attempt > 0:  # attempt 0 is the warm-up
            best = min(best, elapsed)
    return solution, best


@pytest.mark.skipif(
    not BASELINE.exists(),
    reason="BENCH_neighborhood.json baseline not recorded",
)
def test_hill_climb_has_not_regressed_past_recorded_baseline():
    guard, bench, problem, start = guard_instance()
    # Rescale the recorded baseline to this machine's speed.
    scale = calibration_scale(bench, guard)
    solution, best = best_of_three(
        hill_climb, problem, start, guard["max_iterations"]
    )
    assert solution.stats["n_steps"] >= 1

    baseline_seconds = guard["batched_seconds"]
    allowed = max(
        MAX_REGRESSION * baseline_seconds * scale,
        ABSOLUTE_FLOOR,
    )
    assert best <= allowed, (
        f"hill_climb took {best:.3f}s on the reference instance; "
        f"recorded baseline {baseline_seconds:.3f}s "
        f"(calibration scale {scale:.2f}) allows at most {allowed:.3f}s"
    )


@pytest.mark.skipif(
    not BASELINE.exists(),
    reason="BENCH_neighborhood.json guard instance not recorded",
)
def test_batched_hill_climb_beats_oracle():
    guard, _bench, problem, start = guard_instance()
    iterations = guard["max_iterations"]
    solution, batched = best_of_three(hill_climb, problem, start, iterations)
    oracle_solution, oracle = best_of_three(
        reference_hill_climb, problem, start, iterations
    )
    assert solution == oracle_solution
    speedup = oracle / batched
    assert speedup >= MIN_SPEEDUP, (
        f"batched hill_climb {batched * 1e3:.2f} ms vs oracle "
        f"{oracle * 1e3:.2f} ms: {speedup:.1f}x < {MIN_SPEEDUP}x"
    )
