"""The asynchronous solve queue behind the daemon's HTTP API.

Design notes
------------
* **One cell, many jobs.**  Submissions are content-addressed with the
  campaign cache key (:func:`repro.experiments.cell_key`), so identical
  (instance, solver) submissions — whether queued, running or already
  solved — collapse onto one *cell*.  The solver runs once per cell;
  every attached job is resolved from that single outcome, and a
  submission whose key is already in the results cache completes
  immediately without touching the queue.
* **Priority queue, FIFO ties.**  Cells wait in a binary heap ordered
  by ``(-priority, submission sequence)``: larger ``priority`` runs
  first, equal priorities run in submission order.  A coalescing
  submission with a higher priority bumps its cell (lazy re-push; stale
  heap entries are skipped on pop).
* **Execution reuses the batch service.**  Each cell is handed to the
  process's worker pool (:mod:`repro.service.pool`; solving is
  CPU-bound Python) or to a thread executor, which runs
  :func:`repro.service.solve_batch` on the single instance,
  so strategies, budgets and telemetry behave exactly as in batch and
  campaign runs.  The cache record written afterwards is
  campaign-compatible: a later ``repro-pipelines campaign run`` over
  the same cells reuses daemon-solved results and vice versa.
* **Bounded queue, explicit shedding.**  With ``max_queue_depth`` set,
  a submission that would *grow* the queue beyond the bound is rejected
  up front with :class:`ServiceOverloadedError` (HTTP 429 + a
  ``Retry-After`` hint derived from observed solve times) — before any
  job record exists, so an accepted job is never dropped.  Coalescing
  and cache-hit submissions are always admitted: they complete without
  adding queue work.
* **Graceful shutdown.**  :meth:`SolveService.shutdown` stops intake,
  cancels still-queued cells (unless asked to drain them) and waits for
  in-flight solves to finish and resolve their jobs.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import inspect
import sys
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .. import __version__
from ..core.exceptions import ReproError
from ..core.problem import ProblemInstance
from ..experiments.cache import ResultsCache, cell_key
from ..experiments.runner import RECORD_SCHEMA
from ..experiments.spec import SolverSpec
from ..io import solution_to_dict
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..service import get_pool, solve_batch
from .jobs import JobOutcome, JobRecord, JobState, new_job_id

__all__ = [
    "MemoryCache",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "SolveService",
    "UnknownJobError",
    "solve_cell",
]


class ServiceClosedError(ReproError):
    """Raised when submitting to a service that is shutting down."""


class UnknownJobError(ReproError):
    """Raised when a job id is not known to the service."""


class ServiceOverloadedError(ReproError):
    """Raised when a submission is shed by the bounded queue.

    ``retry_after`` is the service's own estimate (seconds) of when
    capacity frees up — surfaced as the HTTP ``Retry-After`` header.
    The submission was rejected *before* a job record was created;
    nothing about it is retained server-side.
    """

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def solve_cell(
    problem: ProblemInstance,
    solver: SolverSpec,
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
):
    """Solve one cell through the batch service (pool-side).

    Module-level (hence picklable) so it crosses the worker-pool
    boundary; returns the single :class:`repro.service.BatchItem`, which
    carries status, solution, wall-clock and telemetry.  ``trace_id`` /
    ``parent_id`` re-establish the submission's trace context in the
    worker process; the recorded solver-phase spans ride back to the
    daemon on the returned item (``BatchItem.spans``).
    """
    with obs_spans.trace_context(trace_id, parent_id):
        batch = solve_batch(
            [problem],
            objective=solver.objective,
            thresholds=solver.thresholds(),
            method=solver.method,
            strategy=solver.strategy,
            budget=solver.budget,
            workers=None,
        )
    return batch.items[0]


class MemoryCache:
    """Dict-backed stand-in for :class:`~repro.experiments.ResultsCache`.

    Used when the daemon runs without a cache directory: dedup against
    previously solved cells still works for the lifetime of the
    process, it just is not persistent or shared.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._entries.get(key)

    def put(self, key: str, record: Dict[str, Any]) -> None:
        self._entries[key] = record

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class _Cell:
    """One unit of solving work, shared by all coalesced jobs."""

    key: str
    problem: ProblemInstance
    solver: SolverSpec
    priority: int
    seq: int
    state: JobState = JobState.QUEUED
    jobs: List[JobRecord] = field(default_factory=list)
    #: Bumped on every (re-)push; heap entries carrying an older id are
    #: stale and skipped on pop (lazy deletion).
    entry_id: int = 0
    #: Trace context of the submission that created the cell (queue-wait
    #: / dispatch / cache-write spans parent onto it); ``None`` untraced.
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    #: Monotonic enqueue instant — queue-wait is measured from this, so
    #: a wall-clock adjustment mid-wait cannot skew the histogram.
    submitted_mono: float = field(default_factory=time.monotonic)


def _make_executor(
    executor: Union[str, Executor], concurrency: int
) -> Tuple[Optional[Executor], bool]:
    """Resolve the ``executor`` parameter to an instance + owned flag;
    ``None`` stands for the process's shared worker pool."""
    if isinstance(executor, str):
        if executor == "process":
            return None, False
        if executor == "thread":
            return ThreadPoolExecutor(max_workers=concurrency), True
        raise ValueError(
            f"unknown executor {executor!r}; expected 'process', 'thread' "
            "or an Executor instance"
        )
    return executor, False


class SolveService:
    """Priority job queue with cache-backed dedup and coalescing.

    Parameters
    ----------
    cache:
        A :class:`~repro.experiments.ResultsCache`, a directory path for
        one, or ``None`` for an in-process :class:`MemoryCache`.
        Submissions whose cell key is present complete instantly.
    concurrency:
        Number of cells solved at once (also the size of the pool or
        thread executor).
    executor:
        ``"process"`` (default; real parallelism for CPU-bound solves)
        runs cells on the process's shared worker pool
        (:func:`repro.service.get_pool`), started on the first dispatch;
        a worker that dies fails only its own cell and is replaced.
        ``"thread"`` (cheap, used in tests) or a ready-made
        ``concurrent.futures.Executor`` are the test seams.
    runner:
        The callable executed per cell, ``(problem, solver) ->
        BatchItem``-like.  Defaults to :func:`solve_cell`; tests inject
        counting or blocking stubs here.
    max_jobs_retained:
        Finished jobs kept for status/result queries; the oldest are
        evicted beyond this.
    max_queue_depth:
        Bound on *queued* (not running) cells.  ``None`` (default)
        queues unboundedly; with a bound, a submission that would grow
        the queue past it raises :class:`ServiceOverloadedError` (the
        HTTP layer maps this to ``429`` + ``Retry-After``).  Coalescing
        and cache-hit submissions are exempt — they add no queue work.
    shard:
        Optional shard identity of this daemon in a routed fleet
        (``repro-pipelines serve --shard-name``).  Surfaced in
        :meth:`metrics` and ``/v1/healthz`` so the router and operators
        can attribute fleet-wide counters to the daemon that produced
        them; ``None`` for a standalone daemon.
    slow_solve_threshold:
        Seconds; a solved cell whose wall time exceeds it gets its span
        tree dumped to stderr (``repro-pipelines serve
        --slow-solve-threshold``).  ``None`` (default) disables the
        slow-solve log.

    All public methods must be called from the event-loop thread (the
    HTTP handlers do); no internal locking is performed.
    """

    def __init__(
        self,
        *,
        cache: Union[ResultsCache, MemoryCache, str, Path, None] = None,
        concurrency: int = 2,
        executor: Union[str, Executor] = "process",
        runner: Optional[Callable[[ProblemInstance, SolverSpec], Any]] = None,
        max_jobs_retained: int = 4096,
        max_queue_depth: Optional[int] = None,
        shard: Optional[str] = None,
        slow_solve_threshold: Optional[float] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        if isinstance(cache, (str, Path)):
            cache = ResultsCache(cache)
        self.cache = cache if cache is not None else MemoryCache()
        self.concurrency = concurrency
        self.max_queue_depth = max_queue_depth
        self.shard = shard
        self._executor, self._owns_executor = _make_executor(
            executor, concurrency
        )
        self._runner = runner if runner is not None else solve_cell
        # Custom runners (test stubs included) usually take a bare
        # ``(problem, solver)``; only pass the trace context through
        # when the runner's signature accepts it.
        try:
            params = inspect.signature(self._runner).parameters
            self._runner_takes_trace = "trace_id" in params
        except (TypeError, ValueError):  # pragma: no cover - builtins etc.
            self._runner_takes_trace = False
        self.slow_solve_threshold = slow_solve_threshold
        self._max_jobs_retained = max_jobs_retained

        self._jobs: Dict[str, JobRecord] = {}
        self._job_order: List[str] = []
        self._inflight: Dict[str, _Cell] = {}
        self._heap: List[Tuple[int, int, int, _Cell]] = []
        self._seq = 0
        self._cond: Optional[asyncio.Condition] = None
        self._workers: List[asyncio.Task] = []
        self._running_cells = 0
        self._closing = False
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "solved": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "cancelled": 0,
            "errors": 0,
            "infeasible": 0,
            "shed": 0,
        }
        self._evaluations_total = 0
        self._solve_time_total = 0.0
        #: EWMA of recent solve wall times (alpha=0.25), used by the
        #: ``Retry-After`` hint so it tracks the current workload mix
        #: instead of the lifetime mean; ``None`` before the first solve.
        self._solve_time_recent: Optional[float] = None
        self.metrics_registry = obs_metrics.MetricsRegistry()
        self._h_queue_wait = self.metrics_registry.histogram(
            "queue_wait_seconds",
            "Time cells spent queued before their solve started.",
            obs_metrics.LATENCY_BUCKETS,
        )
        self._h_solve_wall = self.metrics_registry.histogram(
            "solve_wall_seconds",
            "Wall-clock time of executed solves (cache hits excluded).",
            obs_metrics.LATENCY_BUCKETS,
        )
        self._h_cache_lookup = self.metrics_registry.histogram(
            "cache_lookup_seconds",
            "Duration of the dedup/cache lookup on the submit path.",
            obs_metrics.FAST_LATENCY_BUCKETS,
        )
        self._h_evaluations = self.metrics_registry.histogram(
            "evaluations_per_job",
            "Solver evaluations performed per executed cell.",
            obs_metrics.COUNT_BUCKETS,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._workers:
            return
        self._cond = asyncio.Condition()
        self._closing = False
        self._started_at = time.time()
        self._started_mono = time.monotonic()
        self._workers = [
            asyncio.create_task(self._worker(), name=f"solve-worker-{i}")
            for i in range(self.concurrency)
        ]

    async def shutdown(self, *, drain_queue: bool = False) -> None:
        """Stop the service gracefully.

        In-flight cells always run to completion and resolve their jobs
        (*draining*).  Still-queued cells are cancelled unless
        ``drain_queue=True``, in which case the whole queue is worked
        off first.  New submissions are rejected from the first call on.
        """
        self._closing = True
        if self._cond is None:
            self._shutdown_executor()
            return
        async with self._cond:
            if not drain_queue:
                for cell in list(self._inflight.values()):
                    if cell.state is JobState.QUEUED:
                        self._cancel_cell(cell)
                self._heap.clear()
            self._cond.notify_all()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._shutdown_executor()

    def _shutdown_executor(self) -> None:
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    @property
    def uptime(self) -> float:
        """Seconds since :meth:`start` (or construction) — a monotonic
        delta, immune to wall-clock adjustment; ``_started_at`` remains
        the wall-clock display timestamp."""
        return time.monotonic() - self._started_mono

    # ------------------------------------------------------------------
    # submission / queries
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: ProblemInstance,
        solver: SolverSpec,
        *,
        priority: int = 0,
        trace_id: Optional[str] = None,
    ) -> JobRecord:
        """Submit one (instance, solver) job.

        Returns the job record, which may already be ``DONE`` (cache
        hit).  Identical submissions of an in-flight cell coalesce onto
        it — the solver runs once for all of them.  ``trace_id``
        correlates the job with a distributed trace (defaults to the
        ambient trace context the HTTP layer establishes from the
        ``X-Repro-Trace-Id`` header).

        Raises
        ------
        ServiceClosedError
            When the service is shutting down.
        ServiceOverloadedError
            When ``max_queue_depth`` is set and the submission would
            grow the queue past it.  The check runs *before* the job
            record is created: once ``submit`` returns a record, that
            job is never dropped.  Coalescing and cache-hit submissions
            are admitted even at full depth (they add no queue work).
        """
        if self._closing:
            raise ServiceClosedError("service is shutting down")
        if trace_id is None:
            trace_id = obs_spans.current_trace_id()
        parent_id = obs_spans.current_parent_id()

        lookup_wall = time.time()
        lookup_t0 = time.perf_counter()
        key = cell_key(problem, solver.to_dict())
        cell = self._inflight.get(key)
        coalesce = cell is not None and not cell.state.finished
        payload = None
        if not coalesce:
            payload = self.cache.get(key)
        cache_hit = payload is not None and payload.get("status") in (
            "ok",
            "infeasible",
        )
        lookup_s = time.perf_counter() - lookup_t0
        self._h_cache_lookup.observe(lookup_s)
        if trace_id is not None:
            obs_spans.record_span(
                "daemon.dedup_lookup",
                start=lookup_wall,
                duration=lookup_s,
                trace_id=trace_id,
                parent_id=parent_id,
                coalesced=coalesce,
                cache_hit=cache_hit,
            )

        if coalesce:
            job = self._accept(key, problem, solver, priority, trace_id)
            cell.jobs.append(job)
            self._counters["coalesced"] += 1
            if priority > cell.priority and cell.state is JobState.QUEUED:
                cell.priority = priority
                self._push_cell(cell)
            if cell.state is JobState.RUNNING:
                job.mark_running(cell.jobs[0].started_at)
            return job

        if cache_hit:
            job = self._accept(key, problem, solver, priority, trace_id)
            outcome = JobOutcome.from_cache_payload(payload)
            job.resolve(outcome, source="cache")
            self._counters["cache_hits"] += 1
            self._count_completion(outcome)
            return job

        if (
            self.max_queue_depth is not None
            and self.queue_depth >= self.max_queue_depth
        ):
            self._counters["shed"] += 1
            raise ServiceOverloadedError(
                f"queue is full ({self.queue_depth}/{self.max_queue_depth} "
                "cells queued); retry later",
                retry_after=self._retry_after_hint(),
            )

        job = self._accept(key, problem, solver, priority, trace_id)
        cell = _Cell(
            key=key,
            problem=problem,
            solver=solver,
            priority=priority,
            seq=self._next_seq(),
            jobs=[job],
            trace_id=trace_id,
            parent_span_id=parent_id,
        )
        self._inflight[key] = cell
        self._push_cell(cell)
        return job

    def _accept(
        self,
        key: str,
        problem: ProblemInstance,
        solver: SolverSpec,
        priority: int,
        trace_id: Optional[str] = None,
    ) -> JobRecord:
        """Create and retain the job record for an *admitted* submission
        (everything after this point completes, one way or another)."""
        job = JobRecord(
            id=new_job_id(),
            key=key,
            priority=priority,
            problem=problem,
            solver=solver,
            trace_id=trace_id,
        )
        self._remember(job)
        self._counters["submitted"] += 1
        return job

    @property
    def queue_depth(self) -> int:
        """Number of cells waiting in the queue (excluding running)."""
        return sum(
            1
            for c in self._inflight.values()
            if c.state is JobState.QUEUED
        )

    def _retry_after_hint(self) -> float:
        """Estimate (seconds) until queue capacity frees up: *recent*
        solve time (EWMA, alpha=0.25) x queued cells / concurrency,
        floored at 0.1s (1.0s is assumed before any cell has been
        solved).  The sliding estimate tracks workload shifts — one
        early batch of hour-long solves no longer poisons the hint for
        the rest of the process lifetime the way a lifetime mean did."""
        mean = (
            self._solve_time_recent
            if self._solve_time_recent is not None
            else 1.0
        )
        depth = max(1, self.queue_depth)
        return max(0.1, round(mean * depth / self.concurrency, 2))

    def job(self, job_id: str) -> JobRecord:
        """Look up a job record by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def jobs(
        self, *, state: Optional[JobState] = None, limit: Optional[int] = None
    ) -> List[JobRecord]:
        """All retained jobs, newest first, optionally filtered."""
        out: List[JobRecord] = []
        for job_id in reversed(self._job_order):
            if limit is not None and len(out) >= limit:
                break
            job = self._jobs[job_id]
            if state is not None and job.state is not state:
                continue
            out.append(job)
        return out

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job.

        Returns ``True`` when the job was still queued and is now
        cancelled; ``False`` for running or finished jobs (in-flight
        work is never aborted mid-solve).  When the last job of a
        queued cell is cancelled the cell itself leaves the queue.
        """
        job = self.job(job_id)
        if job.state is not JobState.QUEUED:
            return False
        cell = self._inflight.get(job.key)
        job.cancel()
        self._counters["cancelled"] += 1
        if cell is not None and job in cell.jobs:
            cell.jobs.remove(job)
            if not cell.jobs and cell.state is JobState.QUEUED:
                cell.state = JobState.CANCELLED
                del self._inflight[cell.key]
        return True

    async def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> JobRecord:
        """Wait until a job reaches a terminal state.

        Awaits the job's completion event (:meth:`JobRecord.finished`),
        set where the job is resolved or cancelled; raises
        ``asyncio.TimeoutError`` past ``timeout`` seconds."""
        job = self.job(job_id)
        if not job.state.finished:
            try:
                await asyncio.wait_for(job.finished(), timeout)
            except asyncio.TimeoutError:
                raise asyncio.TimeoutError(
                    f"job {job_id} not finished within {timeout}s"
                ) from None
        return job

    @property
    def jobs_in_flight(self) -> int:
        """Retained jobs not yet in a terminal state (queued or
        running, coalesced riders included)."""
        return sum(
            1 for job in self._jobs.values() if not job.state.finished
        )

    def metrics(self) -> Dict[str, Any]:
        """Counters and gauges for ``GET /v1/metrics``.

        The shape is additive-only across releases: existing keys keep
        their meaning, new telemetry lands under new keys
        (``jobs_in_flight``, ``histograms``, ``solver.solve_time_recent_s``).
        The Prometheus text of ``GET /metrics`` is rendered from this
        very payload (:func:`repro.obs.export.to_prometheus`), so the
        two views cannot drift apart.
        """
        return {
            "version": __version__,
            "shard": self.shard,
            "uptime_s": self.uptime,
            "queue": {
                "depth": self.queue_depth,
                "running": self._running_cells,
                "concurrency": self.concurrency,
                "max_depth": self.max_queue_depth,
                "shed": self._counters["shed"],
            },
            "jobs": dict(self._counters),
            "jobs_in_flight": self.jobs_in_flight,
            "solver": {
                "evaluations": self._evaluations_total,
                "solve_time_s": self._solve_time_total,
                "solve_time_recent_s": self._solve_time_recent,
            },
            "cache": {"entries": len(self.cache)}
            if hasattr(self.cache, "__len__")
            else {},
            "histograms": self.metrics_registry.to_dict(
                kinds=("histogram",)
            ),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _remember(self, job: JobRecord) -> None:
        self._jobs[job.id] = job
        self._job_order.append(job.id)
        while len(self._job_order) > self._max_jobs_retained:
            oldest = self._job_order[0]
            if not self._jobs[oldest].state.finished:
                break  # never evict live jobs
            self._job_order.pop(0)
            del self._jobs[oldest]

    def _push_cell(self, cell: _Cell) -> None:
        cell.entry_id += 1
        heapq.heappush(
            self._heap, (-cell.priority, cell.seq, cell.entry_id, cell)
        )
        if self._cond is not None:
            cond = self._cond

            async def _notify() -> None:
                async with cond:
                    cond.notify()

            try:
                asyncio.get_running_loop()
            except RuntimeError:
                return  # no loop yet; workers will see the heap on start
            asyncio.ensure_future(_notify())

    def _cancel_cell(self, cell: _Cell) -> None:
        cell.state = JobState.CANCELLED
        for job in cell.jobs:
            if not job.state.finished:
                job.cancel()
                self._counters["cancelled"] += 1
        self._inflight.pop(cell.key, None)

    async def _next_cell(self) -> Optional[_Cell]:
        assert self._cond is not None
        async with self._cond:
            while True:
                while self._heap:
                    _, _, entry_id, cell = heapq.heappop(self._heap)
                    if (
                        cell.state is JobState.QUEUED
                        and entry_id == cell.entry_id
                    ):
                        cell.state = JobState.RUNNING
                        self._running_cells += 1
                        return cell
                if self._closing:
                    return None
                await self._cond.wait()

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            cell = await self._next_cell()
            if cell is None:
                return
            now = time.time()
            queue_wait = time.monotonic() - cell.submitted_mono
            self._h_queue_wait.observe(queue_wait)
            if cell.trace_id is not None:
                obs_spans.record_span(
                    "daemon.queue_wait",
                    start=now - queue_wait,
                    duration=queue_wait,
                    trace_id=cell.trace_id,
                    parent_id=cell.parent_span_id,
                )
            for job in cell.jobs:
                job.mark_running(now)
            # Pre-allocate the dispatch span id so executor-side spans
            # can parent onto it before the span itself is recorded.
            dispatch_id = (
                obs_spans.new_span_id()
                if cell.trace_id is not None
                else None
            )
            trace = (
                {"trace_id": cell.trace_id, "parent_id": dispatch_id}
                if dispatch_id is not None and self._runner_takes_trace
                else {}
            )
            call = functools.partial(
                self._runner, cell.problem, cell.solver, **trace
            )
            t0 = time.perf_counter()
            try:
                if self._executor is None:
                    item = await asyncio.wrap_future(
                        get_pool(self.concurrency).submit(call)
                    )
                else:
                    item = await loop.run_in_executor(self._executor, call)
                outcome = JobOutcome.from_batch_item(item)
            except Exception as exc:  # contained: one bad cell, one error
                outcome = JobOutcome(
                    status="error",
                    wall_time=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if dispatch_id is not None:
                obs_spans.record_span(
                    "daemon.pool_dispatch",
                    start=now,
                    duration=time.perf_counter() - t0,
                    trace_id=cell.trace_id,
                    parent_id=cell.parent_span_id,
                    span_id=dispatch_id,
                    executor=(
                        "WorkerPool"
                        if self._executor is None
                        else type(self._executor).__name__
                    ),
                    status=outcome.status,
                )
            self._finish_cell(cell, outcome)

    def _finish_cell(self, cell: _Cell, outcome: JobOutcome) -> None:
        cell.state = JobState.DONE
        self._running_cells -= 1
        self._inflight.pop(cell.key, None)
        if outcome.spans:
            # Solver-phase spans recorded in the executor process ride
            # back on the outcome; fold them into this daemon's ring so
            # GET /v1/traces/{id} serves the whole tree.
            obs_spans.recorder().ingest(outcome.spans)
        if outcome.status in ("ok", "infeasible"):
            # Deterministic outcomes persist; transient errors do not,
            # so a resubmission after a crash re-solves the cell.
            write_wall = time.time()
            write_t0 = time.perf_counter()
            self.cache.put(cell.key, self._cache_record(cell, outcome))
            if cell.trace_id is not None:
                obs_spans.record_span(
                    "daemon.cache_write",
                    start=write_wall,
                    duration=time.perf_counter() - write_t0,
                    trace_id=cell.trace_id,
                    parent_id=cell.parent_span_id,
                )
        self._counters["solved"] += 1
        self._solve_time_total += outcome.wall_time
        self._h_solve_wall.observe(outcome.wall_time)
        alpha = 0.25
        self._solve_time_recent = (
            outcome.wall_time
            if self._solve_time_recent is None
            else alpha * outcome.wall_time
            + (1.0 - alpha) * self._solve_time_recent
        )
        if outcome.telemetry is not None:
            self._evaluations_total += outcome.telemetry.evaluations
            self._h_evaluations.observe(outcome.telemetry.evaluations)
        for i, job in enumerate(cell.jobs):
            if job.state.finished:
                continue
            job.resolve(outcome, source="solved" if i == 0 else "coalesced")
            self._count_completion(outcome)
        if (
            self.slow_solve_threshold is not None
            and outcome.wall_time > self.slow_solve_threshold
        ):
            self._log_slow_solve(cell, outcome)

    def _log_slow_solve(self, cell: _Cell, outcome: JobOutcome) -> None:
        """Dump a slow cell's span tree to stderr (operator surface)."""
        from ..obs.render import format_span_tree

        header = (
            f"[slow-solve] cell {cell.key[:12]} wall={outcome.wall_time:.3f}s"
            f" threshold={self.slow_solve_threshold:g}s"
            f" status={outcome.status} trace={cell.trace_id or '-'}"
        )
        lines = [header]
        if cell.trace_id is not None:
            spans = obs_spans.recorder().spans_for(cell.trace_id)
            if spans:
                lines.append(format_span_tree(spans))
        print("\n".join(lines), file=sys.stderr, flush=True)

    def _count_completion(self, outcome: JobOutcome) -> None:
        self._counters["completed"] += 1
        if outcome.status == "error":
            self._counters["errors"] += 1
        elif outcome.status == "infeasible":
            self._counters["infeasible"] += 1

    def _cache_record(
        self, cell: _Cell, outcome: JobOutcome
    ) -> Dict[str, Any]:
        """A campaign-compatible cache record, plus the full solution
        payload the daemon serves back (per-application criteria
        included)."""
        from ..io import mapping_to_dict

        record: Dict[str, Any] = {
            "schema": RECORD_SCHEMA,
            "status": outcome.status,
            "wall_time": outcome.wall_time,
            "objective": None,
            "values": None,
            "algorithm": None,
            "optimal": None,
            "error": outcome.error,
            "solver_spec": cell.solver.to_dict(),
            "telemetry": (
                None
                if outcome.telemetry is None
                else outcome.telemetry.to_dict()
            ),
        }
        if outcome.solution is not None:
            record.update(
                objective=outcome.solution.objective,
                values={
                    "period": outcome.solution.values.period,
                    "latency": outcome.solution.values.latency,
                    "energy": outcome.solution.values.energy,
                },
                algorithm=outcome.solution.solver,
                optimal=outcome.solution.optimal,
                mapping=mapping_to_dict(outcome.solution.mapping),
                solution=solution_to_dict(
                    outcome.solution, telemetry=outcome.telemetry
                ),
            )
        return record
