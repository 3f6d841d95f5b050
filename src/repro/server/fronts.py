"""Anytime Pareto fronts served by the solve daemon.

A *front* is one ``POST /v1/fronts`` submission: a problem instance whose
period/energy trade-off curve the daemon computes as a fan-out of
epsilon-constraint *cells* — ordinary solve jobs submitted through
:class:`~repro.server.service.SolveService`, so every cell rides the
existing dedup/cache/priority machinery (two overlapping fronts, or a
front overlapping ad-hoc jobs, coalesce cell-by-cell for free).

The sweep plan comes from :func:`repro.analysis.front_engine.plan_front`:
the deduped threshold list shared with the offline exact sweep, submitted
in bisection order so the queue solves the coarse skeleton of the curve
first.  As cells finish, :meth:`FrontRecord.refresh` folds their achieved
``(period, energy)`` points — and the achieved points of every feasible
*member* of a composite strategy run (portfolio contributors, via
``SolveTelemetry.values``) — into an
:class:`~repro.analysis.front_engine.IncrementalFront`, so ``GET
/v1/fronts/{id}`` always returns the best front known so far plus
hypervolume and done/total telemetry.

With the default per-cell solvers (``"auto"`` on polynomial cells,
``"exact"`` elsewhere — :func:`repro.analysis.front_engine.cell_dispatch_method`)
the finished merge is byte-identical to
:func:`repro.analysis.pareto.period_energy_front_exact`.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..analysis.front_engine import (
    IncrementalFront,
    cell_dispatch_method,
    plan_front,
)
from ..core.problem import ProblemInstance
from ..experiments.spec import SolverSpec
from ..strategies import SolveTelemetry
from .jobs import JobRecord
from .service import SolveService, UnknownJobError

__all__ = ["FrontRecord", "FrontStore", "new_front_id"]

#: Monotonic per-process sequence baked into front ids (same scheme as
#: :func:`repro.server.jobs.new_job_id`).
_FRONT_SEQ = 0


def new_front_id() -> str:
    """A fresh front id: submission-ordered prefix + random suffix."""
    global _FRONT_SEQ
    _FRONT_SEQ += 1
    return f"f{_FRONT_SEQ:06d}-{secrets.token_hex(4)}"


def _member_points(
    telemetry: Optional[SolveTelemetry],
) -> List[Tuple[float, float]]:
    """Achieved ``(period, energy)`` points of every successful run in a
    telemetry tree.  Every member of a portfolio evaluated a real mapping,
    so its achieved values are valid front contributions even when it lost
    the race."""
    if telemetry is None:
        return []
    out: List[Tuple[float, float]] = []
    stack = [telemetry]
    while stack:
        node = stack.pop()
        if node.ok and node.values is not None:
            out.append((node.values[0], node.values[2]))
        stack.extend(node.members)
    return out


@dataclass
class FrontRecord:
    """One front submission and its merge state.

    Mutable by design, like :class:`~repro.server.jobs.JobRecord`; all
    mutation happens on the daemon's event-loop thread.
    """

    id: str
    problem: ProblemInstance
    thresholds: List[float]
    jobs: List[JobRecord]
    priority: int = 0
    submitted_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    merged: IncrementalFront = field(default_factory=IncrementalFront)
    n_infeasible: int = 0
    n_failed: int = 0
    _folded: Set[str] = field(default_factory=set)

    @property
    def total(self) -> int:
        """Number of sweep cells."""
        return len(self.jobs)

    @property
    def done(self) -> int:
        """Number of cells in a terminal state."""
        return len(self._folded)

    @property
    def finished(self) -> bool:
        """True once every cell reached a terminal state."""
        return self.done == self.total

    def refresh(self) -> None:
        """Fold every newly finished cell into the merged front."""
        changed = False
        for job in self.jobs:
            if job.id in self._folded or not job.state.finished:
                continue
            self._folded.add(job.id)
            changed = True
            outcome = job.outcome
            if outcome is None:  # cancelled before running
                self.n_failed += 1
                continue
            if outcome.status == "infeasible":
                self.n_infeasible += 1
                continue
            if not outcome.ok or outcome.solution is None:
                self.n_failed += 1
                continue
            values = outcome.solution.values
            self.merged.add((values.period, values.energy))
            for point in _member_points(outcome.telemetry):
                self.merged.add(point)
        if changed:
            self.updated_at = time.time()

    def to_dict(self) -> Dict[str, Any]:
        """Status view for ``GET /v1/fronts/{id}`` (refresh first)."""
        front = self.merged.front()
        return {
            "id": self.id,
            "state": "done" if self.finished else "running",
            "total": self.total,
            "done": self.done,
            "infeasible": self.n_infeasible,
            "failed": self.n_failed,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "points_merged": self.merged.n_added,
            "front": [list(p) for p in front],
            "hypervolume": self.merged.hypervolume(),
            "reference": (
                None
                if self.merged.reference() is None
                else list(self.merged.reference())
            ),
            "thresholds": {
                "count": len(self.thresholds),
                "min": self.thresholds[0] if self.thresholds else None,
                "max": self.thresholds[-1] if self.thresholds else None,
            },
            "jobs": [job.id for job in self.jobs],
        }


class FrontStore:
    """Front records of one daemon, keyed by front id.

    Lives next to the :class:`SolveService` inside
    :class:`~repro.server.http.SolveServer`; cells are plain service jobs,
    so the store adds no execution machinery of its own — it only plans,
    submits and merges.
    """

    def __init__(self, service: SolveService, *, max_fronts: int = 256) -> None:
        self.service = service
        self.max_fronts = max_fronts
        self._fronts: Dict[str, FrontRecord] = {}

    def submit(
        self,
        problem: ProblemInstance,
        *,
        template: Optional[Dict[str, Any]] = None,
        max_points: int = 200,
        priority: int = 0,
    ) -> FrontRecord:
        """Plan the sweep and submit every cell.

        ``template`` optionally overrides the per-cell solver
        (strategy/method/budget, the
        :func:`~repro.server.protocol.parse_front_payload` shape); by
        default each cell uses the dispatch that keeps the finished front
        byte-identical to the offline exact sweep.  Cells are submitted in
        bisection order at equal priority — FIFO tie-breaking inside the
        queue preserves the coarse-to-fine schedule.

        Raises whatever :meth:`SolveService.submit` raises
        (``ServiceClosedError``, ``ServiceOverloadedError``).  On overload
        mid-fan-out no front is registered; already-submitted cells stay
        queued as ordinary jobs and warm the cache for a retry.
        """
        thresholds, order = plan_front(problem, max_points=max_points)
        base = dict(template or {})
        base.setdefault("name", "front-cell")
        if "strategy" not in base:
            base.setdefault("method", cell_dispatch_method(problem))
        jobs: List[JobRecord] = []
        for index in order:
            solver = SolverSpec.from_dict(
                {
                    **base,
                    "objective": "energy",
                    "max_period": thresholds[index],
                }
            )
            jobs.append(
                self.service.submit(problem, solver, priority=priority)
            )
        record = FrontRecord(
            id=new_front_id(),
            problem=problem,
            thresholds=thresholds,
            jobs=jobs,
            priority=priority,
        )
        record.refresh()  # cache-served cells are merged immediately
        self._fronts[record.id] = record
        self._evict()
        return record

    def front(self, front_id: str) -> FrontRecord:
        """Look up a front by id, refreshed to the latest merge state."""
        try:
            record = self._fronts[front_id]
        except KeyError:
            raise UnknownJobError(f"unknown front id {front_id!r}") from None
        record.refresh()
        return record

    def fronts(self) -> List[FrontRecord]:
        """All retained fronts, newest first, refreshed."""
        out = sorted(
            self._fronts.values(), key=lambda r: r.submitted_at, reverse=True
        )
        for record in out:
            record.refresh()
        return out

    def _evict(self) -> None:
        """Drop the oldest *finished* fronts beyond the retention cap."""
        if len(self._fronts) <= self.max_fronts:
            return
        for record in sorted(
            list(self._fronts.values()), key=lambda r: r.submitted_at
        ):
            if len(self._fronts) <= self.max_fronts:
                break
            record.refresh()
            if record.finished:
                del self._fronts[record.id]
