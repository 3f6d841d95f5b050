"""Kernel speedup micro-benchmark: scalar vs vectorized evaluation, and
sequential vs pooled batch solving.

Run as a script to (re)record the performance baseline::

    PYTHONPATH=src python benchmarks/bench_kernel_speedup.py

It writes ``BENCH_kernel.json`` next to this file with four series:

* ``evaluate_scalar`` / ``evaluate_kernel`` -- microseconds per full
  mapping evaluation of a 200-stage application split over 50 processors
  (the ISSUE's reference size), for both communication models;
* ``solve_batch_sequential`` / ``solve_batch_pooled`` -- seconds to solve
  100 random instances across >= 3 registry cells, sequentially and over
  a process pool.

The acceptance bar (asserted when run as a script): the
:class:`repro.kernel.EvaluationContext` path is at least 5x faster than
the scalar reference on the 200/50 instance.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import sys
import time
from pathlib import Path
from typing import Dict

from repro import (
    Application,
    Assignment,
    CommunicationModel,
    EvaluationContext,
    Mapping,
    MappingRule,
    Platform,
    PlatformClass,
)
from repro.core.evaluation import evaluate_scalar
from repro.generators import small_random_problem
from repro.service import solve_batch

#: Reference instance size from the ISSUE acceptance criteria.
N_STAGES = 200
N_PROCS = 50
#: Required kernel speedup over the scalar path.
MIN_SPEEDUP = 5.0


def reference_instance():
    """A deterministic 200-stage application mapped over 50 processors."""
    works = [1.0 + ((7 * i) % 13) for i in range(N_STAGES)]
    sizes = [float((3 * i) % 5) for i in range(N_STAGES)]
    app = Application.from_lists(
        works, sizes, input_data_size=2.0, name="bench-200"
    )
    platform = Platform.fully_homogeneous(
        N_PROCS, speeds=[1.0, 2.0], bandwidth=4.0, static_energy=0.5
    )
    per_proc = N_STAGES // N_PROCS
    assignments = []
    for u in range(N_PROCS):
        lo = u * per_proc
        hi = lo + per_proc - 1
        assignments.append(
            Assignment(app=0, interval=(lo, hi), proc=u, speed=2.0)
        )
    return (app,), platform, Mapping.from_assignments(assignments)


def _time_per_call(fn, *, min_seconds: float = 0.3) -> float:
    """Average seconds per call over enough repetitions to be stable."""
    fn()  # warm-up (also populates per-app caches on both paths)
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / n
        n = max(n + 1, int(n * min_seconds / max(elapsed, 1e-9)) + 1)


def bench_evaluate() -> Dict[str, Dict[str, float]]:
    """Scalar vs kernel evaluation times (microseconds per call)."""
    apps, platform, mapping = reference_instance()
    out: Dict[str, Dict[str, float]] = {}
    for model in CommunicationModel:
        context = EvaluationContext(apps, platform, model=model)
        scalar = _time_per_call(
            lambda: evaluate_scalar(apps, platform, mapping, model=model)
        )
        kernel = _time_per_call(lambda: context.evaluate(mapping))
        out[model.value] = {
            "evaluate_scalar_us": scalar * 1e6,
            "evaluate_kernel_us": kernel * 1e6,
            "speedup": scalar / kernel,
        }
    return out


def bench_batch(count: int = 100, workers: int = 4) -> Dict[str, object]:
    """Sequential vs pooled solve_batch on random instances across cells.

    Instances are sized so one solve takes tens of milliseconds (heuristic
    search on the NP-hard cells) -- large enough for the process pool to
    amortize its startup, small enough to keep the bench under a minute.
    The pooled pass runs through the process's work-stealing worker pool
    (:mod:`repro.service.pool`).  ``pool_speedup`` is only meaningful on
    multi-core machines — see the ``caveats`` field and ``cpu_count`` in
    the JSON.
    """
    workers = max(2, min(workers, os.cpu_count() or 1))
    classes = list(PlatformClass)
    problems = [
        small_random_problem(
            seed,
            platform_class=classes[seed % len(classes)],
            rule=MappingRule.INTERVAL,
            n_apps=2,
            n_modes=2,
            stage_range=(4, 6),
        )
        for seed in range(count)
    ]
    sequential = solve_batch(problems, objective="period", workers=None)
    pooled = solve_batch(problems, objective="period", workers=workers)
    assert sequential.n_failed == 0 and pooled.n_failed == 0
    return {
        "count": float(count),
        "workers": float(workers),
        "sequential_s": sequential.total_time,
        "pooled_s": pooled.total_time,
        "pool_speedup": sequential.total_time / pooled.total_time,
        "n_ok_sequential": float(sequential.n_ok),
        "n_ok_pooled": float(pooled.n_ok),
        "bytes_pickled_per_job": pooled.stats.get("bytes_pickled_per_job"),
    }


def main(output: str = "") -> int:
    """Run both benches, print the numbers, write ``BENCH_kernel.json``."""
    evaluate_series = bench_evaluate()
    batch_series = bench_batch()
    cpu_count = os.cpu_count() or 1
    caveats = []
    if cpu_count < int(batch_series["workers"]):
        caveats.append(
            f"pool_speedup was measured with {int(batch_series['workers'])} "
            f"workers on a {cpu_count}-CPU machine: values near (or below) "
            "1.0x reflect the runner's core count, not a regression. "
            "Re-run on a multi-core machine before comparing."
        )
    record = {
        "instance": {"n_stages": N_STAGES, "n_processors": N_PROCS},
        "python": sys.version.split()[0],
        "machine": _platform.machine(),
        "cpu_count": cpu_count,
        "caveats": caveats,
        "evaluate": evaluate_series,
        "solve_batch": batch_series,
    }
    path = Path(output) if output else Path(__file__).with_name(
        "BENCH_kernel.json"
    )
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"reference instance: {N_STAGES} stages / {N_PROCS} processors")
    worst = float("inf")
    for model, series in evaluate_series.items():
        print(
            f"  {model:<11} scalar {series['evaluate_scalar_us']:8.1f} us"
            f"  kernel {series['evaluate_kernel_us']:8.1f} us"
            f"  speedup {series['speedup']:5.1f}x"
        )
        worst = min(worst, series["speedup"])
    b = batch_series
    print(
        f"solve_batch: {int(b['count'])} instances, sequential "
        f"{b['sequential_s']:.2f}s vs {int(b['workers'])} workers "
        f"{b['pooled_s']:.2f}s ({b['pool_speedup']:.2f}x)"
    )
    print(f"baseline written to {path}")
    assert worst >= MIN_SPEEDUP, (
        f"kernel speedup {worst:.2f}x below the {MIN_SPEEDUP}x bar"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
