"""Job records of the solve-service daemon.

A *job* is one client submission: a problem instance plus a solver
configuration (the same :class:`~repro.experiments.SolverSpec` shape a
campaign uses), identified by the content-addressed cell key of
:func:`repro.experiments.cell_key`.  Jobs move through a small
lifecycle::

    QUEUED ──> RUNNING ──> DONE
       └────────────────> CANCELLED

Several jobs may share one *cell* (identical instance + solver): the
queue solves the cell once and resolves every attached job from that
single outcome (see :mod:`repro.server.service`).  A job served from
the results cache is born ``DONE``.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from ..core.problem import ProblemInstance, Solution
from ..experiments.spec import SolverSpec
from ..io import solution_from_dict
from ..strategies import SolveTelemetry

__all__ = ["JobOutcome", "JobRecord", "JobState", "new_job_id"]

#: Monotonic per-process sequence baked into job ids so they sort in
#: submission order even within one clock tick.
_JOB_SEQ = 0


def new_job_id() -> str:
    """A fresh job id: submission-ordered prefix + random suffix."""
    global _JOB_SEQ
    _JOB_SEQ += 1
    return f"j{_JOB_SEQ:06d}-{secrets.token_hex(4)}"


class JobState(str, Enum):
    """Lifecycle state of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        """True for the two terminal states."""
        return self in (JobState.DONE, JobState.CANCELLED)


@dataclass(frozen=True)
class JobOutcome:
    """Terminal result of one solved (or cache-served) cell.

    ``status`` mirrors :class:`repro.service.BatchItem`: ``"ok"``
    (``solution`` set), ``"infeasible"`` or ``"error"`` (``error``
    holds the message).
    """

    status: str
    wall_time: float = 0.0
    solution: Optional[Solution] = None
    telemetry: Optional[SolveTelemetry] = None
    error: Optional[str] = None
    #: Trace spans recorded in the worker process that solved the cell
    #: (plain dicts, see :mod:`repro.obs.spans`); empty when untraced.
    #: The service ingests them into its own span ring buffer so
    #: ``GET /v1/traces/{id}`` covers the solver phases too.
    spans: Tuple[Dict[str, Any], ...] = ()

    @property
    def ok(self) -> bool:
        """True when the solve produced a solution."""
        return self.status == "ok"

    @classmethod
    def from_batch_item(cls, item: Any) -> "JobOutcome":
        """Build from a :class:`repro.service.BatchItem` (or any
        duck-typed stand-in a test runner returns — ``spans`` is
        optional there)."""
        return cls(
            status=item.status,
            wall_time=item.wall_time,
            solution=item.solution,
            telemetry=item.telemetry,
            error=item.error,
            spans=tuple(getattr(item, "spans", ()) or ()),
        )

    @classmethod
    def from_cache_payload(cls, payload: Dict[str, Any]) -> "JobOutcome":
        """Rebuild from a results-cache record.

        Understands both record flavours sharing the cache:

        * daemon-written records embed the full solution payload under
          ``"solution"`` (:func:`repro.io.solution_to_dict`);
        * campaign-written records (:mod:`repro.experiments.runner`)
          carry the mapping plus the three global criteria — the
          per-application breakdown is not stored, so it reads back
          empty.
        """
        status = str(payload.get("status", "error"))
        solution: Optional[Solution] = None
        if status == "ok":
            if payload.get("solution") is not None:
                solution = solution_from_dict(payload["solution"])
            elif payload.get("mapping") is not None:
                from ..core.evaluation import CriteriaValues
                from ..io import mapping_from_dict

                values = payload.get("values") or {}
                solution = Solution(
                    mapping=mapping_from_dict(payload["mapping"]),
                    objective=float(payload.get("objective", 0.0)),
                    values=CriteriaValues(
                        periods={},
                        latencies={},
                        period=float(values.get("period", 0.0)),
                        latency=float(values.get("latency", 0.0)),
                        energy=float(values.get("energy", 0.0)),
                    ),
                    solver=str(payload.get("algorithm") or ""),
                    optimal=bool(payload.get("optimal", False)),
                )
            else:
                status = "error"
        telemetry_raw = payload.get("telemetry")
        return cls(
            status=status,
            wall_time=float(payload.get("wall_time", 0.0)),
            solution=solution,
            telemetry=(
                None
                if telemetry_raw is None
                else SolveTelemetry.from_dict(telemetry_raw)
            ),
            error=payload.get("error"),
        )


@dataclass
class JobRecord:
    """One client submission and its current state.

    Mutable by design — the service mutates it as the job advances; all
    mutation happens on the event-loop thread, so no locking is needed.
    ``source`` records how the outcome was produced: ``"solved"`` (this
    job's cell was executed), ``"cache"`` (served from the results cache
    without solving) or ``"coalesced"`` (rode along on another job's
    identical in-flight cell).

    The ``*_at`` timestamps are wall-clock (``time.time``) and exist
    for display and API payloads only.  Every *duration* (queue wait,
    time-to-finish) must come from the parallel ``*_mono`` fields,
    which are ``time.monotonic`` readings immune to wall-clock
    adjustment (NTP step, manual set).  ``trace_id`` correlates the job
    with its spans in ``GET /v1/traces/{trace_id}`` when the submission
    was traced.
    """

    id: str
    key: str
    priority: int
    problem: ProblemInstance
    solver: SolverSpec
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    source: Optional[str] = None
    outcome: Optional[JobOutcome] = None
    trace_id: Optional[str] = None
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    #: Made by the first :meth:`finished` call (on the serving loop) and
    #: set on the terminal transition (:meth:`resolve` or :meth:`cancel`).
    _done: Optional[asyncio.Event] = field(
        default=None, init=False, repr=False, compare=False
    )

    async def finished(self) -> None:
        """Return once the job is in a terminal state."""
        if not self.state.finished:
            if self._done is None:
                self._done = asyncio.Event()
            await self._done.wait()

    def request_summary(self) -> Dict[str, Any]:
        """Compact description of what was submitted (for listings)."""
        spec: Dict[str, Any] = {"objective": self.solver.objective}
        if self.solver.strategy is not None:
            spec["strategy"] = self.solver.strategy
        else:
            spec["method"] = self.solver.method
        if self.solver.budget is not None:
            spec["budget"] = self.solver.budget.to_dict()
        return {
            "apps": self.problem.n_apps,
            "stages": self.problem.n_stages_total,
            "processors": self.problem.platform.n_processors,
            "platform": self.problem.platform_class.value,
            "rule": self.problem.rule.value,
            "model": self.problem.model.value,
            "solver": spec,
        }

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds spent queued before the solve started (monotonic
        delta; ``None`` while still queued)."""
        if self.started_mono is None:
            return None
        return self.started_mono - self.submitted_mono

    def mark_running(self, now: Optional[float] = None) -> None:
        """QUEUED → RUNNING.  ``now`` optionally pins the *display*
        wall-clock timestamp (coalesced jobs share the cell's); the
        monotonic reading is always taken fresh."""
        self.state = JobState.RUNNING
        self.started_at = time.time() if now is None else now
        self.started_mono = time.monotonic()

    def resolve(self, outcome: JobOutcome, source: str) -> None:
        """Terminal transition into DONE with the cell's outcome."""
        self.outcome = outcome
        self.source = source
        self.state = JobState.DONE
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        if self._done is not None:
            self._done.set()

    def cancel(self) -> None:
        """Terminal transition into CANCELLED (queued jobs only)."""
        self.state = JobState.CANCELLED
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        if self._done is not None:
            self._done.set()
