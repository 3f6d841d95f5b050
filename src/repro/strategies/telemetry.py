"""Structured per-solve telemetry.

Every strategy run produces a :class:`SolveTelemetry` record: which
strategy ran, how it ended, how much budget it consumed, and — for the
composite strategies — the outcome of every member.  The record is
JSON-round-trippable so the campaign results cache persists it and the
analysis layer (:func:`repro.analysis.campaigns.strategy_telemetry_table`)
aggregates it without re-solving anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["SolveTelemetry"]


@dataclass(frozen=True)
class SolveTelemetry:
    """Outcome record of one strategy run.

    Parameters
    ----------
    strategy:
        The strategy spec that ran (``"annealing"``,
        ``"portfolio(greedy,local_search)"``, ``"registry"``).
    status:
        ``"ok"``, ``"infeasible"`` or ``"error"``.
    wall_time:
        Wall-clock seconds of this run (members included).
    evaluations:
        Candidate evaluations / search nodes charged to the budget
        meter (0 when the strategy does not meter its work).
    budget_exhausted:
        True when the run stopped because the budget ran out rather
        than because the search converged.
    objective:
        Achieved objective value (``None`` unless ``status == "ok"``).
    error:
        Failure message for non-``ok`` statuses.
    members:
        Per-member telemetry of a composite (portfolio/fallback) run,
        in execution order; empty for atomic strategies.
    values:
        The achieved ``(period, latency, energy)`` triple when the run
        produced a solution.  This is what lets every feasible *member*
        of a portfolio contribute its achieved point to a Pareto-front
        merge, not just the race winner.
    trace_id / span_id:
        Observability correlation ids (:mod:`repro.obs.spans`): the
        trace this solve ran under and the span covering the solve
        itself, when the solve was traced (``None`` otherwise).  They
        let a cached record point back at the phase breakdown served by
        ``GET /v1/traces/{trace_id}``.
    """

    strategy: str
    status: str
    wall_time: float
    evaluations: int = 0
    budget_exhausted: bool = False
    objective: Optional[float] = None
    error: Optional[str] = None
    members: Tuple["SolveTelemetry", ...] = field(default_factory=tuple)
    values: Optional[Tuple[float, float, float]] = None
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the run produced a solution."""
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (recursive; unset fields omitted)."""
        out: Dict[str, Any] = {
            "strategy": self.strategy,
            "status": self.status,
            "wall_time": self.wall_time,
            "evaluations": self.evaluations,
            "budget_exhausted": self.budget_exhausted,
        }
        if self.objective is not None:
            out["objective"] = self.objective
        if self.error is not None:
            out["error"] = self.error
        if self.members:
            out["members"] = [m.to_dict() for m in self.members]
        if self.values is not None:
            out["values"] = list(self.values)
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveTelemetry":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            strategy=str(payload["strategy"]),
            status=str(payload["status"]),
            wall_time=float(payload.get("wall_time", 0.0)),
            evaluations=int(payload.get("evaluations", 0)),
            budget_exhausted=bool(payload.get("budget_exhausted", False)),
            objective=(
                None
                if payload.get("objective") is None
                else float(payload["objective"])
            ),
            error=payload.get("error"),
            members=tuple(
                cls.from_dict(m) for m in payload.get("members", ())
            ),
            values=(
                None
                if payload.get("values") is None
                else tuple(float(v) for v in payload["values"])
            ),
            trace_id=payload.get("trace_id"),
            span_id=payload.get("span_id"),
        )
