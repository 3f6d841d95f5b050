"""Batch solve service: many instances, one API, optional process pool.

The ROADMAP's north star is a system that serves *many* mapping problems
fast, not one at a time.  This package provides that serving layer:

* :func:`solve_one` -- strategy-aware dispatch of a single
  :class:`~repro.core.problem.ProblemInstance`: the legacy ``method=``
  strings alias the registered strategies of :mod:`repro.strategies`,
  and ``strategy=``/``budget=`` accept any registered name or composite
  spec (``"portfolio(greedy,annealing)"``) with a per-solve budget;
* :func:`solve_batch` -- fan a sequence of instances out over the
  process's worker pool (or solve sequentially) with auto-sized
  chunking, collecting per-instance :class:`BatchItem` records with
  timing, status and telemetry;
* :mod:`repro.service.pool` -- the one long-lived work-stealing process
  pool shared by batches, anytime fronts and the daemon, with
  deterministic result ordering and worker-crash containment;
* the ``repro-pipelines solve-batch`` CLI subcommand built on top.

For a *persistent* front end — an HTTP daemon whose priority job queue
executes each job through this package and deduplicates identical
submissions against the campaign results cache — see
:mod:`repro.server` and its client :mod:`repro.client`.

Quickstart::

    from repro.generators import small_random_problem
    from repro.service import solve_batch

    problems = [small_random_problem(seed) for seed in range(100)]
    result = solve_batch(problems, objective="period", workers=4)
    print(result.summary())
    for item in result.items:
        print(item.index, item.status, item.wall_time, item.objective)
"""

from .batch import (
    BatchItem,
    BatchResult,
    dispatch_method,
    solve_batch,
    solve_one,
)
from .pool import PoolStats, close_pool, get_pool

__all__ = [
    "BatchItem",
    "BatchResult",
    "PoolStats",
    "close_pool",
    "dispatch_method",
    "get_pool",
    "solve_batch",
    "solve_one",
]
