"""The batch-solve engine behind :mod:`repro.service`.

Design notes
------------
* Dispatch goes through the solver-strategy layer
  (:mod:`repro.strategies`): the legacy ``method`` strings
  (``"registry"|"auto"|"exact"|"heuristic"``) are thin aliases of the
  registered strategies of the same name, and ``strategy=`` accepts any
  registered name or composite spec
  (``"portfolio(greedy,local_search,annealing)"``) plus an optional
  per-solve :class:`~repro.strategies.SolveBudget`.
* Parallelism uses a *process* pool: the solvers are pure CPU-bound
  Python/NumPy, so threads would serialize on the GIL.  Problems and
  solutions are plain picklable dataclasses, which keeps the fan-out
  boilerplate-free.  ``workers=None`` or ``workers<=1`` solves inline.
  Strategies cross the pool as their spec strings and are re-resolved
  worker-side.
* Execution is *work-stealing* (:mod:`repro.service.pool`): job chunks
  sit on one shared queue and workers pull whenever they run dry, so a
  straggler instance no longer serializes the tail the way a static
  ``Executor.map`` partition did.  Result ordering stays deterministic
  (re-ordered by index in the parent) and worker death is contained to
  ``status="error"`` items for the lost indices.
* Instance payloads cross the pool through a pluggable *transport*
  (:mod:`repro.service.transport`): ``transport="shm"`` packs every
  instance's numeric arrays into one ``multiprocessing.shared_memory``
  segment per batch and workers rebuild NumPy views without copying;
  ``"pickle"`` is the classic per-job pickle; ``"auto"`` (default)
  picks shm when available and worthwhile.  Both transports produce
  byte-identical solutions.
* The shared solve configuration (objective, method, thresholds,
  strategy spec, budget — plus the shm descriptors under the shm
  transport) is shipped *once per worker* instead of being re-pickled
  into every job; job payloads carry only ``(index, problem)`` — or a
  bare index under shm.  When every job solves the *same* instance (the
  repeat-solve pattern, ``solve_batch([problem] * n)``), the instance
  itself moves into the per-worker config too -- each worker receives
  it once, prebuilds its :class:`~repro.kernel.EvaluationContext`
  eagerly, and the jobs shrink to a bare index.
* Failures never poison a batch: each instance yields a
  :class:`BatchItem` whose ``status`` is ``"ok"``, ``"infeasible"``
  (:class:`~repro.core.exceptions.InfeasibleProblemError`) or ``"error"``
  (anything else, with the message preserved), plus its wall-clock time
  and a :class:`~repro.strategies.SolveTelemetry` record.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

# Imported eagerly, though only the strategies call into it: pool workers
# are forked per batch and inherit the loaded solvers instead of each
# importing them on its first solve (about 45 ms per worker on a 2-vCPU
# x86-64 host).
from .. import algorithms  # noqa: F401
from ..core.exceptions import InfeasibleProblemError
from ..core.objectives import Thresholds
from ..core.problem import ProblemInstance, Solution
from ..core.types import Criterion
from ..obs import spans as _spans
from ..strategies import (
    BudgetMeter,
    SolveBudget,
    SolveTelemetry,
    SolverStrategy,
    dispatch_method,
    parse_strategy,
    solve_via_method,
)
from .pool import run_work_stealing
from .transport import ShmBatch, resolve_transport

__all__ = [
    "BatchItem",
    "BatchResult",
    "dispatch_method",
    "solve_batch",
    "solve_one",
]

#: Objectives accepted by :func:`solve_one` / :func:`solve_batch`.
_OBJECTIVES = ("period", "latency", "energy")

#: One strategy spec (string or instance) or a legacy ``method`` string.
StrategyLike = Union[str, SolverStrategy]


def solve_one(
    problem: ProblemInstance,
    objective: str = "period",
    method: str = "registry",
    thresholds: Optional[Thresholds] = None,
    *,
    strategy: Optional[StrategyLike] = None,
    budget: Optional[SolveBudget] = None,
) -> Solution:
    """Solve a single instance.

    Parameters
    ----------
    problem:
        The instance to solve.
    objective:
        ``"period"``, ``"latency"`` or ``"energy"`` (energy requires a
        period bound in ``thresholds``).
    method:
        ``"registry"`` (default) consults :func:`dispatch_method` and uses
        the polynomial solver when the cell allows it, the heuristics
        otherwise; ``"auto"``, ``"exact"`` and ``"heuristic"`` force the
        corresponding :mod:`repro.algorithms` path.  Ignored when
        ``strategy`` is given.
    thresholds:
        Optional bounds on the non-optimized criteria (required for the
        energy objective: Section 3.5's energy is only meaningful under a
        period constraint).
    strategy:
        A registered strategy name, a composite spec string
        (``"portfolio(greedy,annealing)"``) or a
        :class:`~repro.strategies.SolverStrategy` instance; overrides
        ``method``.
    budget:
        Per-solve :class:`~repro.strategies.SolveBudget` enforced
        cooperatively inside the heuristic/exact loops.

    Returns
    -------
    Solution
        The solver's mapping, objective value and full criteria.

    Raises
    ------
    ValueError
        On an unknown objective, or an energy objective without a
        period threshold.
    InfeasibleProblemError
        When no mapping satisfies the constraints.
    StrategyError
        When a strategy spec cannot be resolved or the strategy failed
        outside its declared capabilities.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {_OBJECTIVES}"
        )
    if strategy is not None:
        result = parse_strategy(strategy).run(
            problem, objective, thresholds=thresholds, budget=budget
        )
        return result.raise_for_status()
    meter = budget.meter() if budget is not None else None
    return solve_via_method(problem, objective, method, thresholds, meter)


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
    #: Effective instance transport: ``"inline"`` (sequential),
    #: ``"pickle"`` or ``"shm"`` — the *resolved* value, after any
    #: ``"auto"`` selection or shared-memory fallback.
    transport: str = "inline"

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
            f"workers={self.workers} transport={self.transport} "
            f"wall={self.total_time:.3f}s cpu={self.solve_time:.3f}s"
        )


#: Per-worker solve configuration, installed once by :func:`_init_worker`
#: (via the pool initializer) instead of travelling inside every job.
_WORKER_CONFIG: Dict[str, object] = {}


def _init_worker(config: Dict[str, object]) -> None:
    """Pool initializer: install the shared solve configuration and,
    when all jobs target one instance, prebuild its evaluation context
    so every solve in this worker starts from warm kernel tables."""
    _WORKER_CONFIG.clear()
    _WORKER_CONFIG.update(config)
    trace = config.get("trace")
    if trace is not None:
        # The whole worker lifetime belongs to this batch's trace; spans
        # recorded here are drained back to the parent on each item.
        _spans.set_ambient_trace(trace[0], trace[1])
    shared = config.get("problem")
    if shared is not None:
        shared.evaluation_context()


def _solve_indexed(
    args: Tuple[int, Optional[ProblemInstance]],
) -> BatchItem:
    """Worker-side wrapper around :func:`_solve_job`: job payloads carry
    only ``(index, problem)`` -- or ``(index, None)`` when the instance
    was shipped through the initializer."""
    index, problem = args
    config = _WORKER_CONFIG
    if problem is None:
        problem = config["problem"]
    return _solve_job(
        index,
        problem,
        config["objective"],
        config["method"],
        config["thresholds"],
        config["strategy"],
        config["budget"],
    )


def _solve_job(
    index: int,
    problem: ProblemInstance,
    objective: str,
    method: str,
    thresholds: Optional[Thresholds],
    strategy: Optional[StrategyLike],
    budget: Optional[SolveBudget],
) -> BatchItem:
    """Solve one indexed instance, catching failures into the item's
    status instead of crashing the pool."""
    trace_id = _spans.current_trace_id()
    if strategy is not None:
        t0 = time.perf_counter()
        with _spans.span(
            "solve.run", strategy=str(strategy), index=index
        ) as solve_span:
            result = parse_strategy(strategy).run(
                problem, objective, thresholds=thresholds, budget=budget
            )
        telemetry = result.telemetry
        if solve_span.span_id is not None and telemetry is not None:
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
    meter = BudgetMeter(budget)
    t0 = time.perf_counter()
    solution: Optional[Solution] = None
    status = "ok"
    error: Optional[str] = None
    with _spans.span("solve.run", method=method, index=index) as solve_span:
        try:
            # The meter is threaded into the solver loops only when a
            # budget was requested, keeping the legacy hot path
            # overhead-free.
            solution = solve_via_method(
                problem,
                objective,
                method,
                thresholds,
                meter if budget is not None else None,
            )
        except InfeasibleProblemError as exc:
            status, error = "infeasible", str(exc)
        except Exception as exc:  # contained: one bad instance, one error
            status, error = "error", f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return BatchItem(
        index=index,
        status=status,
        wall_time=wall,
        solution=solution,
        error=error,
        telemetry=SolveTelemetry(
            strategy=method,
            status=status,
            wall_time=wall,
            evaluations=meter.n_evaluations,
            budget_exhausted=meter.exhausted,
            objective=None if solution is None else solution.objective,
            error=error,
            values=(
                None
                if solution is None
                else (
                    solution.values.period,
                    solution.values.latency,
                    solution.values.energy,
                )
            ),
            trace_id=trace_id,
            span_id=solve_span.span_id,
        ),
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
    method: str = "registry",
    *,
    workers: Optional[int] = None,
    thresholds: Optional[Thresholds] = None,
    chunksize: Optional[int] = None,
    strategy: Optional[StrategyLike] = None,
    budget: Optional[SolveBudget] = None,
    transport: str = "auto",
) -> BatchResult:
    """Solve many instances, optionally fanning out over a process pool.

    Parameters
    ----------
    problems:
        The instances; results keep their order (``items[i].index == i``)
        regardless of which worker solved what.
    objective / method / thresholds / strategy / budget:
        Per-instance solve parameters, as in :func:`solve_one`.  The
        budget applies *per solve*, not to the whole batch.
    workers:
        ``None`` or ``<= 1`` solves sequentially in-process; ``n >= 2``
        fans out over ``n`` work-stealing worker processes
        (:mod:`repro.service.pool`).
    chunksize:
        Work-unit granularity: jobs per task-queue entry.  ``None``
        (default) auto-sizes to ``max(1, len(problems) // (4 *
        workers))``; pass an explicit value to override (``1`` =
        per-job stealing, maximal balance, maximal queue traffic).
    transport:
        How instance payloads reach the workers — ``"shm"`` (one
        shared-memory segment per batch, zero-copy NumPy views
        worker-side), ``"pickle"`` (per-job pickling) or ``"auto"``
        (default: shm when available and the batch payload clears
        :data:`~repro.service.transport.SHM_AUTO_MIN_BYTES`).  ``"shm"``
        degrades to ``"pickle"`` when shared memory is unavailable; the
        resolved value is reported on ``BatchResult.transport``.  Both
        transports produce byte-identical solutions.

    Returns
    -------
    BatchResult
        Per-instance :class:`BatchItem` records plus batch-level timing
        and transport accounting (``stats["bytes_pickled_per_job"]``).
    """
    if objective not in _OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {_OBJECTIVES}"
        )
    if strategy is not None and isinstance(strategy, str):
        parse_strategy(strategy)  # fail fast on a bad spec, pre-pool
    problems = list(problems)
    # Repeat-solve pattern: one instance solved many times travels to
    # each worker once (initializer) instead of once per job.
    shared = (
        problems[0]
        if problems and all(p is problems[0] for p in problems[1:])
        else None
    )
    n_workers = 0 if workers is None else int(workers)
    t0 = time.perf_counter()
    extra_stats: Dict[str, float] = {}
    if n_workers <= 1:
        items: List[BatchItem] = [
            _solve_job(
                i, problem, objective, method, thresholds, strategy, budget
            )
            for i, problem in enumerate(problems)
        ]
        effective_workers = 1
        effective_transport = "inline"
    else:
        effective_transport = resolve_transport(transport, problems, shared)
        active_trace = _spans.current_trace_id()
        config: Dict[str, object] = {
            "objective": objective,
            "method": method,
            "thresholds": thresholds,
            "strategy": strategy,
            "budget": budget,
            "problem": shared,
            # Trace context crosses the pool inside the per-worker
            # config; workers re-establish it in the initializer.
            "trace": (
                None
                if active_trace is None
                else (active_trace, _spans.current_parent_id())
            ),
        }
        shm_batch = None
        if effective_transport == "shm":
            try:
                shm_batch = ShmBatch.pack(problems)
            except Exception:
                # Allocation failed (full /dev/shm, exotic platform):
                # the documented degradation is per-job pickling.
                effective_transport = "pickle"
            else:
                config["shm_descriptors"] = shm_batch.descriptors
        try:
            jobs = [
                (
                    i,
                    problem
                    if shared is None and effective_transport != "shm"
                    else None,
                )
                for i, problem in enumerate(problems)
            ]
            effective_workers = min(n_workers, max(1, len(jobs)))
            effective_chunksize = (
                chunksize
                if chunksize is not None
                else _auto_chunksize(len(jobs), effective_workers)
            )
            items, pool_stats = run_work_stealing(
                jobs,
                config,
                effective_workers,
                effective_chunksize,
                shm_name=None if shm_batch is None else shm_batch.name,
            )
        finally:
            # One finally covers normal completion, worker crashes and
            # KeyboardInterrupt: the parent owns the segment and always
            # unlinks it.
            if shm_batch is not None:
                shm_batch.close_and_unlink()
        extra_stats = {
            "bytes_job_payload": float(pool_stats.bytes_jobs),
            "bytes_pickled_per_job": (
                pool_stats.bytes_jobs / len(jobs) if jobs else 0.0
            ),
            "bytes_worker_config": float(pool_stats.bytes_config),
            "n_chunks": float(pool_stats.n_chunks),
            "n_crashed_workers": float(pool_stats.n_crashed),
        }
        if shm_batch is not None:
            extra_stats["bytes_shm_segment"] = float(shm_batch.nbytes)
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
        transport=effective_transport,
    )
