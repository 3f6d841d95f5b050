"""The batch-solve engine behind :mod:`repro.service`.

Design notes
------------
* Every solve runs one strategy of :mod:`repro.strategies` through its
  :meth:`~repro.strategies.SolverStrategy.run` harness: ``strategy=``
  accepts any registered name (``"registry"``, the Tables 1-2 dispatch,
  by default) or composite spec
  (``"portfolio(greedy,local_search,annealing)"``) plus an optional
  per-solve :class:`~repro.strategies.SolveBudget`.
* Parallelism uses a *process* pool: the solvers are pure CPU-bound
  Python/NumPy, so threads would serialize on the GIL.  Problems and
  solutions are plain picklable dataclasses, which keeps the fan-out
  boilerplate-free.  ``workers=None`` or ``workers<=1`` solves inline.
  Strategies cross the pool as their spec strings and are re-resolved
  worker-side.
* Execution runs on the process's one long-lived worker pool
  (:mod:`repro.service.pool`): job chunks sit on one queue and idle
  workers take the next one, so a straggler instance does not serialize
  the tail.  Result ordering stays deterministic (futures in job order)
  and a worker death is contained to ``status="error"`` items for the
  jobs it had not finished.
* Instances cross the pool pickled, inside the job chunks.  The shared
  solve configuration (objective, thresholds, strategy spec, budget,
  trace context) travels *once per worker per batch* instead of
  inside every job.  When every job solves the *same* instance (the
  repeat-solve pattern, ``solve_batch([problem] * n)``), the instance
  moves into that configuration too: each worker receives it once per
  batch, builds its :class:`~repro.kernel.EvaluationContext` on the first
  job and reuses it for every other one, and the jobs shrink to a bare
  index.
* Failures never poison a batch: each instance yields a
  :class:`BatchItem` whose ``status`` is ``"ok"``, ``"infeasible"``
  (:class:`~repro.core.exceptions.InfeasibleProblemError`) or ``"error"``
  (anything else, with the message preserved), plus its wall-clock time
  and a :class:`~repro.strategies.SolveTelemetry` record.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

# Imported eagerly, though only the strategies call into it: pool workers
# are forked from this process and inherit the loaded solvers instead of
# each importing them on its first solve (about 45 ms per worker on a
# 2-vCPU x86-64 host).
from .. import algorithms  # noqa: F401
from ..core.objectives import Thresholds
from ..core.problem import ProblemInstance, Solution
from ..obs import spans as _spans
from ..strategies import (
    SolveBudget,
    SolveTelemetry,
    SolverStrategy,
    dispatch_strategy,
    parse_strategy,
)
from ..strategies.builtin import DISPATCH_STRATEGIES, require_period_bound
from . import pool as _pool

__all__ = [
    "BatchItem",
    "BatchResult",
    "dispatch_strategy",
    "solve_batch",
    "solve_one",
]

#: Objectives accepted by :func:`solve_one` / :func:`solve_batch`.
_OBJECTIVES = ("period", "latency", "energy")

#: One strategy spec: a registered name, a composite spec string or an
#: instance.
StrategyLike = Union[str, SolverStrategy]


def solve_one(
    problem: ProblemInstance,
    objective: str = "period",
    strategy: Optional[StrategyLike] = None,
    thresholds: Optional[Thresholds] = None,
    *,
    budget: Optional[SolveBudget] = None,
    method: Optional[str] = None,
) -> Solution:
    """Solve a single instance.

    Parameters
    ----------
    problem:
        The instance to solve.
    objective:
        ``"period"``, ``"latency"`` or ``"energy"`` (energy requires a
        period bound in ``thresholds``).
    strategy:
        A registered strategy name, a composite spec string
        (``"portfolio(greedy,annealing)"``) or a
        :class:`~repro.strategies.SolverStrategy` instance.  The default
        ``"registry"`` consults :func:`dispatch_strategy` and uses the
        polynomial solver when the cell allows it, the heuristics
        otherwise; ``"auto"``, ``"exact"`` and ``"heuristic"`` force
        one of those paths.
    thresholds:
        Optional bounds on the non-optimized criteria (required for the
        energy objective: Section 3.5's energy is only meaningful under a
        period constraint).
    budget:
        Per-solve :class:`~repro.strategies.SolveBudget` enforced
        cooperatively inside the heuristic/exact loops.
    method:
        The older spelling of ``strategy`` (one of the four names
        above), read only when ``strategy`` is not given.

    Returns
    -------
    Solution
        The solver's mapping, objective value and full criteria.

    Raises
    ------
    ValueError
        On an unknown objective, or an energy objective without a
        period threshold for one of the four dispatch strategies.
    InfeasibleProblemError
        When no mapping satisfies the constraints.
    StrategyError
        When a strategy spec cannot be resolved or the strategy failed
        (including ``"auto"`` outside the polynomial cells).
    """
    if objective not in _OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {_OBJECTIVES}"
        )
    if strategy is None:
        strategy = "registry" if method is None else method
    if strategy in DISPATCH_STRATEGIES:
        # Refused inside the strategy too; here it surfaces as itself
        # rather than as a contained StrategyError.
        require_period_bound(objective, thresholds)
    result = parse_strategy(strategy).run(
        problem, objective, thresholds=thresholds, budget=budget
    )
    return result.raise_for_status()


@dataclass(frozen=True)
class BatchItem:
    """Outcome of one instance inside a batch.

    ``status`` is ``"ok"`` (``solution`` is set), ``"infeasible"`` (no
    mapping satisfies the constraints) or ``"error"`` (``error`` holds the
    exception message).  ``wall_time`` is the per-instance solve time in
    seconds, measured in the worker that ran it.  ``telemetry`` carries
    the structured :class:`~repro.strategies.SolveTelemetry` record
    (strategy spec, budget consumption, per-member portfolio outcomes).
    ``spans`` carries the solve's trace spans (plain dicts, see
    :mod:`repro.obs.spans`) when the batch ran under an active trace —
    recorded in the worker process and shipped back on the item so the
    submitting process (e.g. the daemon) can ingest them into its own
    ring buffer; empty when untraced.
    """

    index: int
    status: str
    wall_time: float
    solution: Optional[Solution] = None
    error: Optional[str] = None
    telemetry: Optional[SolveTelemetry] = None
    spans: Tuple[Dict[str, Any], ...] = ()

    @property
    def objective(self) -> float:
        """The solved objective value (``math.inf`` when not solved)."""
        if self.solution is None:
            return math.inf
        return self.solution.objective


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a whole :func:`solve_batch` call."""

    items: Tuple[BatchItem, ...]
    objective: str
    workers: int
    #: End-to-end wall-clock of the batch (seconds), including pool setup.
    total_time: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def n_ok(self) -> int:
        """Number of successfully solved instances."""
        return sum(1 for x in self.items if x.status == "ok")

    @property
    def n_failed(self) -> int:
        """Number of instances that errored (not merely infeasible)."""
        return sum(1 for x in self.items if x.status == "error")

    @property
    def solve_time(self) -> float:
        """Total per-instance solve time (sum over workers; with ``w``
        workers a perfectly parallel batch has ``total_time ~=
        solve_time / w``)."""
        return sum(x.wall_time for x in self.items)

    def summary(self) -> str:
        """One-line, human-readable description of the batch outcome."""
        return (
            f"{self.n_ok}/{len(self.items)} ok "
            f"({self.n_failed} errors) objective={self.objective} "
            f"workers={self.workers} "
            f"wall={self.total_time:.3f}s cpu={self.solve_time:.3f}s"
        )


def _solve_indexed(
    config: Dict[str, Any], index: int, problem: Optional[ProblemInstance]
) -> BatchItem:
    """Pool job: solve one indexed instance under the batch's shared
    configuration; ``problem`` is ``None`` when the instance itself
    travelled in ``config`` (the shared-instance path).

    ``config`` also carries two test seams: ``_crash_on_index`` kills the
    worker hard (no cleanup, like a segfault or OOM kill) before that
    job, ``_exit_after_index`` retires it once the job's task is sent.
    """
    if index == config.get("_crash_on_index"):
        os._exit(13)
    trace = config["trace"] or (None, None)
    with _spans.trace_context(*trace):
        item = _solve_job(
            index,
            config["problem"] if problem is None else problem,
            config["objective"],
            config["thresholds"],
            config["strategy"],
            config["budget"],
        )
    if index == config.get("_exit_after_index"):
        _pool._retire_after_task()
    return item


def _solve_pooled(
    jobs: Sequence[Tuple[int, Optional[ProblemInstance]]],
    config: Dict[str, Any],
    n_workers: int,
    chunksize: int,
) -> Tuple[List[BatchItem], _pool.PoolStats]:
    """Run ``(index, problem)`` jobs on the shared pool of ``n_workers``;
    a job whose worker died (or that raised) becomes an error item."""
    futures, stats = _pool.get_pool(n_workers).map(
        _solve_indexed, jobs, chunksize, config
    )
    items = []
    for (index, _problem), future in zip(jobs, futures):
        exc = future.exception()
        items.append(
            future.result()
            if exc is None
            else BatchItem(
                index=index,
                status="error",
                wall_time=0.0,
                error=f"{type(exc).__name__}: {exc}",
            )
        )
    return items, stats


def _solve_job(
    index: int,
    problem: ProblemInstance,
    objective: str,
    thresholds: Optional[Thresholds],
    strategy: StrategyLike,
    budget: Optional[SolveBudget],
) -> BatchItem:
    """Solve one indexed instance; the strategy harness contains any
    failure in the item's status instead of crashing the pool."""
    trace_id = _spans.current_trace_id()
    t0 = time.perf_counter()
    with _spans.span(
        "solve.run", strategy=str(strategy), index=index
    ) as solve_span:
        result = parse_strategy(strategy).run(
            problem, objective, thresholds=thresholds, budget=budget
        )
    telemetry = result.telemetry
    if solve_span.span_id is not None:
        telemetry = replace(
            telemetry, trace_id=trace_id, span_id=solve_span.span_id
        )
    return BatchItem(
        index=index,
        status=result.status,
        wall_time=time.perf_counter() - t0,
        solution=result.solution,
        error=result.telemetry.error,
        telemetry=telemetry,
        spans=_take_trace_spans(trace_id),
    )


def _take_trace_spans(
    trace_id: Optional[str],
) -> Tuple[Dict[str, Any], ...]:
    """Drain this process's spans for ``trace_id`` onto a result item.

    The spans ride back to the submitting process attached to the
    :class:`BatchItem` (surviving the pool pickle boundary) instead of
    staying stranded in a worker's ring buffer."""
    if not trace_id:
        return ()
    return tuple(_spans.recorder().take(trace_id))


def _auto_chunksize(n_jobs: int, workers: int) -> int:
    """Default work-unit granularity: ~4 chunks per worker, so large
    batches of tiny instances stop paying per-item IPC overhead while
    stragglers still rebalance."""
    return max(1, n_jobs // (4 * workers))


def solve_batch(
    problems: Sequence[ProblemInstance],
    objective: str = "period",
    strategy: StrategyLike = "registry",
    *,
    workers: Optional[int] = None,
    thresholds: Optional[Thresholds] = None,
    chunksize: Optional[int] = None,
    budget: Optional[SolveBudget] = None,
) -> BatchResult:
    """Solve many instances, optionally fanning out over a process pool.

    Parameters
    ----------
    problems:
        The instances; results keep their order (``items[i].index == i``)
        regardless of which worker solved what.
    objective / strategy / thresholds / budget:
        Per-instance solve parameters, as in :func:`solve_one`.  The
        budget applies *per solve*, not to the whole batch.
    workers:
        ``None`` or ``<= 1`` solves sequentially in-process; ``n >= 2``
        fans out over the process's shared pool of ``n`` workers
        (:mod:`repro.service.pool`), started on first use.  Inside a pool
        worker the batch solves inline.
    chunksize:
        Work-unit granularity: jobs per task-queue entry.  ``None``
        (default) auto-sizes to ``max(1, len(problems) // (4 *
        workers))``; pass an explicit value to override (``1`` =
        per-job stealing, maximal balance, maximal queue traffic).
    Returns
    -------
    BatchResult
        Per-instance :class:`BatchItem` records plus batch-level timing
        and pool accounting (``stats["bytes_pickled_per_job"]``).
    """
    if objective not in _OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {_OBJECTIVES}"
        )
    parse_strategy(strategy)  # fail fast on a bad spec, pre-pool
    problems = list(problems)
    # Repeat-solve pattern: one instance solved many times travels to
    # each worker once per batch instead of once per job.
    shared = (
        problems[0]
        if problems and all(p is problems[0] for p in problems[1:])
        else None
    )
    n_workers = 0 if workers is None else int(workers)
    t0 = time.perf_counter()
    extra_stats: Dict[str, float] = {}
    if n_workers <= 1 or _pool.in_worker():
        items: List[BatchItem] = [
            _solve_job(i, problem, objective, thresholds, strategy, budget)
            for i, problem in enumerate(problems)
        ]
        effective_workers = 1
    else:
        active_trace = _spans.current_trace_id()
        config: Dict[str, Any] = {
            "objective": objective,
            "thresholds": thresholds,
            "strategy": strategy,
            "budget": budget,
            "problem": shared,
            # Trace context crosses the pool inside the shared config;
            # each job re-establishes it around its solve.
            "trace": (
                None
                if active_trace is None
                else (active_trace, _spans.current_parent_id())
            ),
        }
        jobs = [
            (i, problem if shared is None else None)
            for i, problem in enumerate(problems)
        ]
        effective_workers = min(n_workers, max(1, len(jobs)))
        items, pool_stats = _solve_pooled(
            jobs,
            config,
            n_workers,
            chunksize
            if chunksize is not None
            else _auto_chunksize(len(jobs), effective_workers),
        )
        extra_stats = {
            "bytes_job_payload": float(pool_stats.bytes_jobs),
            "bytes_pickled_per_job": (
                pool_stats.bytes_jobs / len(jobs) if jobs else 0.0
            ),
            "bytes_worker_config": float(pool_stats.bytes_config),
            "n_chunks": float(pool_stats.n_chunks),
            "n_crashed_workers": float(pool_stats.n_crashed),
        }
    total = time.perf_counter() - t0
    solve_time = sum(x.wall_time for x in items)
    return BatchResult(
        items=tuple(items),
        objective=objective,
        workers=effective_workers,
        total_time=total,
        stats={
            "n_instances": float(len(items)),
            "solve_time": solve_time,
            "parallel_efficiency": (
                solve_time / (total * effective_workers) if total > 0 else 0.0
            ),
            **extra_stats,
        },
    )
