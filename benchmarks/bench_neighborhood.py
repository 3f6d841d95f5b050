"""Neighborhood benchmark: one-``Mapping``-at-a-time vs batched hill climbing.

Run as a script to (re)record the performance baseline::

    PYTHONPATH=src python benchmarks/bench_neighborhood.py [output.json] [--tiny]

It builds a grid of 100-stage / 20-processor NP-hard instances (two
50-stage applications on fully heterogeneous and comm-homogeneous
multi-modal platforms), runs
:func:`repro.algorithms.heuristics.hill_climb` (array-native candidate
generation + one ``evaluate_many`` kernel call per step) and its test
oracle ``reference_hill_climb`` (one ``Mapping`` per neighbor, scored by
delta-evaluation; loaded from ``tests/algorithms/reference_local_search.py``)
from the same greedy start, and writes ``BENCH_neighborhood.json`` next
to this file.

Asserted when run as a script:

* both return **byte-identical** solutions (same mapping, same
  objective, same stats) on every instance;
* the geometric-mean speedup of the batched climb over the oracle is
  **>= 4x** (``--tiny`` relaxes the bar to >= 1.5x for the CI smoke
  grid).

The JSON also records a ``guard`` block (reference-instance wall-clock
plus a machine-calibration time) consumed by
``tests/perf/test_hill_climb_guard.py``, which fails when hill climbing
on the reference instance regresses to more than 1.5x the recorded
wall-clock (after rescaling by the calibration ratio).
"""

from __future__ import annotations

import importlib.util
import json
import math
import platform as _platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms.heuristics import greedy_interval_period, hill_climb
from repro.core.problem import ProblemInstance
from repro.core.types import Criterion
from repro.generators import random_applications, rng_from
from repro.generators.platforms import (
    random_comm_homogeneous_platform,
    random_fully_heterogeneous_platform,
)

ORACLE = (
    Path(__file__).resolve().parents[1]
    / "tests"
    / "algorithms"
    / "reference_local_search.py"
)

#: Hill-climbing steps per instance: enough to amortize the greedy start
#: while keeping the scalar baseline affordable.
MAX_ITERATIONS = 8

#: The instance replayed by the wall-clock guard test.
GUARD_SEED = 0


def load_oracle():
    """The one-``Mapping``-at-a-time hill climb, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "reference_local_search", ORACLE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_hill_climb


def build_instance(seed: int, *, tiny: bool = False) -> ProblemInstance:
    """One bench instance: 2 x 50 stages on 20 processors (2 x 10 stages
    on 8 processors under ``--tiny``), NP-hard heterogeneous cells."""
    rng = rng_from(seed)
    stages = 10 if tiny else 50
    procs = 8 if tiny else 20
    apps = random_applications(rng, 2, stage_range=(stages, stages))
    if seed % 2 == 0:
        platform = random_fully_heterogeneous_platform(
            rng, procs, 2, n_modes=2
        )
    else:
        platform = random_comm_homogeneous_platform(rng, procs, n_modes=2)
    return ProblemInstance(apps=apps, platform=platform)


def calibrate() -> float:
    """A fixed NumPy + Python workload timing the machine, recorded next
    to the guard wall-clock so the guard test can rescale the recorded
    baseline to the executing machine's speed."""
    rng = np.random.default_rng(0)
    data = rng.random((400, 400))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        acc += float(np.linalg.norm(data @ data.T)) % 97.0
        acc += sum((data[0] * i).sum() for i in range(10))
    elapsed = time.perf_counter() - t0
    assert math.isfinite(acc)
    return elapsed


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _timed_hill_climb(climb, problem, start):
    t0 = time.perf_counter()
    solution = climb(
        problem, start, Criterion.PERIOD, max_iterations=MAX_ITERATIONS
    )
    return solution, time.perf_counter() - t0


def _same_solution(a, b) -> bool:
    return (
        a.mapping == b.mapping
        and a.objective == b.objective
        and a.values == b.values
        and a.stats == b.stats
    )


def run(output: Path, tiny: bool = False) -> dict:
    climbs = {"scalar": load_oracle(), "batched": hill_climb}
    seeds = range(2) if tiny else range(6)
    per_instance = []
    identical = True
    guard = None
    for seed in seeds:
        problem = build_instance(seed, tiny=tiny)
        start = greedy_interval_period(problem).mapping
        timings = {}
        solutions = {}
        for name, climb in climbs.items():
            solutions[name], timings[name] = _timed_hill_climb(
                climb, problem, start
            )
        same = _same_solution(solutions["batched"], solutions["scalar"])
        identical = identical and same
        per_instance.append(
            {
                "seed": seed,
                "n_stages": problem.n_stages_total,
                "n_processors": problem.platform.n_processors,
                "scalar_seconds": round(timings["scalar"], 6),
                "batched_seconds": round(timings["batched"], 6),
                "speedup": round(timings["scalar"] / timings["batched"], 3),
                "objective": solutions["batched"].objective,
                "n_steps": solutions["batched"].stats["n_steps"],
                "identical_solutions": same,
            }
        )
        if seed == GUARD_SEED:
            guard = {
                "seed": seed,
                "batched_seconds": timings["batched"],
                "calibration_seconds": calibrate(),
                "max_iterations": MAX_ITERATIONS,
                "tiny": tiny,
            }
    speedup = geomean([r["speedup"] for r in per_instance])
    payload = {
        "bench": "neighborhood-engine",
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "tiny": tiny,
        "engines": list(climbs),
        "n_instances": len(per_instance),
        "max_iterations": MAX_ITERATIONS,
        "instances": per_instance,
        "geomean_speedup": round(speedup, 3),
        "identical_solutions": identical,
        "guard": guard,
    }
    output.write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))
    return payload


def main() -> int:
    argv = list(sys.argv[1:])
    tiny = "--tiny" in argv
    argv = [a for a in argv if a != "--tiny"]
    output = (
        Path(argv[0])
        if argv
        else Path(__file__).parent / "BENCH_neighborhood.json"
    )
    payload = run(output, tiny=tiny)
    assert payload["identical_solutions"], (
        "batched and oracle hill_climb returned different solutions"
    )
    bar = 1.5 if tiny else 4.0
    assert payload["geomean_speedup"] >= bar, (
        f"geomean speedup {payload['geomean_speedup']}x below the "
        f"{bar}x acceptance bar"
    )
    print(
        f"ok: batched neighborhood engine {payload['geomean_speedup']}x "
        f"geomean speedup over the one-Mapping-at-a-time oracle "
        f"({payload['n_instances']} instances, byte-identical solutions)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
