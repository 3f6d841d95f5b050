"""Wire format of the solve-service HTTP API.

Requests and responses are plain JSON built from the existing
:mod:`repro.io` serializers: a job submission carries a problem payload
(:func:`repro.io.problem_to_dict` format) plus a solver configuration in
the exact shape of a campaign ``solvers`` entry
(:meth:`repro.experiments.SolverSpec.from_dict` — same keys, same strict
validation), and a result is served as a
:func:`repro.io.solution_to_dict` payload with the solve's telemetry
embedded.  The solver's older key ``method`` is read as ``strategy``
(one of the four dispatch strategies; giving both is a 400), so
``{"method": "exact"}`` and ``{"strategy": "exact"}`` are the same
request with the same cache key.

Submission payload::

    {
      "problem": { ... problem_to_dict ... },
      "solver": {                      # optional; defaults shown
        "objective": "period",         # period | latency | energy
        "strategy": "registry",        # any spec, e.g. "portfolio(...)"
        "budget": {"time_limit": 1.0, "max_evaluations": 10000, "seed": 0},
        "max_period": 2.0              # thresholds, energy needs max_period
      },
      "priority": 0                    # larger runs earlier
    }
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.exceptions import ReproError
from ..core.problem import ProblemInstance
from ..experiments.spec import CampaignSpecError, SolverSpec
from ..io import problem_from_dict, solution_to_dict
from .jobs import JobRecord

__all__ = [
    "ProtocolError",
    "job_to_dict",
    "parse_front_payload",
    "parse_job_payload",
    "result_to_dict",
]

#: Solver name injected when the request does not provide one (the name
#: is excluded from the cache digest, so it never affects dedup).
DEFAULT_SOLVER_NAME = "request"


class ProtocolError(ReproError):
    """A malformed request payload (maps to HTTP 400)."""


#: What :func:`repro.io.problem_from_dict` raises on a malformed problem
#: (a wrong type deep in the payload is not a ``SerializationError``).
_PROBLEM_ERRORS = (ReproError, AttributeError, IndexError, KeyError, TypeError, ValueError)


def parse_job_payload(
    payload: Any,
) -> Tuple[ProblemInstance, SolverSpec, int]:
    """Validate a submission payload into (problem, solver, priority).

    Raises
    ------
    ProtocolError
        On any malformed part; the message names the offending field.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = sorted(set(payload) - {"problem", "solver", "priority"})
    if unknown:
        raise ProtocolError(
            f"unknown key(s) {unknown}; allowed: ['priority', 'problem', 'solver']"
        )
    if "problem" not in payload:
        raise ProtocolError("missing required key 'problem'")
    try:
        problem = problem_from_dict(payload["problem"])
    except _PROBLEM_ERRORS as exc:
        raise ProtocolError(f"invalid 'problem': {exc}") from None
    solver_raw = payload.get("solver") or {}
    if not isinstance(solver_raw, dict):
        raise ProtocolError("'solver' must be a JSON object")
    solver_raw = dict(solver_raw)
    solver_raw.setdefault("name", DEFAULT_SOLVER_NAME)
    try:
        solver = SolverSpec.from_dict(solver_raw)
    except CampaignSpecError as exc:
        raise ProtocolError(f"invalid 'solver': {exc}") from None
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError(f"'priority' must be an int, got {priority!r}")
    return problem, solver, priority


#: Solver keys a front submission may set: the sweep owns the objective
#: and the period threshold, so neither may appear in the template.
_FRONT_SOLVER_KEYS = ("name", "strategy", "method", "budget")


def parse_front_payload(
    payload: Any,
) -> Tuple[ProblemInstance, Dict[str, Any], int, int]:
    """Validate a ``POST /v1/fronts`` payload into
    ``(problem, solver_template, max_points, priority)``.

    The solver template is a *partial* solver configuration applied to
    every sweep cell (strategy/budget; ``method`` spells a strategy as
    in a job's solver); the front engine
    fills in ``objective="energy"`` and the per-cell ``max_period``, so a
    template carrying either of those — or any other job-payload key —
    is rejected.

    Raises
    ------
    ProtocolError
        On any malformed part; the message names the offending field.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    allowed = {"problem", "solver", "points", "priority"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )
    if "problem" not in payload:
        raise ProtocolError("missing required key 'problem'")
    try:
        problem = problem_from_dict(payload["problem"])
    except _PROBLEM_ERRORS as exc:
        raise ProtocolError(f"invalid 'problem': {exc}") from None
    template = payload.get("solver") or {}
    if not isinstance(template, dict):
        raise ProtocolError("'solver' must be a JSON object")
    bad = sorted(set(template) - set(_FRONT_SOLVER_KEYS))
    if bad:
        raise ProtocolError(
            f"front solver template: unknown/forbidden key(s) {bad}; "
            f"allowed: {sorted(_FRONT_SOLVER_KEYS)} (the sweep sets "
            "'objective' and 'max_period' itself)"
        )
    template = dict(template)
    template.setdefault("name", DEFAULT_SOLVER_NAME)
    # Validate strategy/budget by building a probe spec on a
    # placeholder threshold; the front engine re-builds per cell.
    try:
        SolverSpec.from_dict(
            {**template, "objective": "energy", "max_period": 1.0}
        )
    except CampaignSpecError as exc:
        raise ProtocolError(f"invalid 'solver': {exc}") from None
    points = payload.get("points", 200)
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ProtocolError(f"'points' must be a positive int, got {points!r}")
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError(f"'priority' must be an int, got {priority!r}")
    return problem, template, points, priority


def job_to_dict(job: JobRecord) -> Dict[str, Any]:
    """Status view of a job (``GET /v1/jobs/{id}``): lifecycle, timing,
    outcome summary and telemetry — everything except the solution
    payload, which ``/result`` serves."""
    outcome = job.outcome
    out: Dict[str, Any] = {
        "id": job.id,
        "key": job.key,
        "state": job.state.value,
        "priority": job.priority,
        "source": job.source,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "trace_id": job.trace_id,
        "queue_wait": job.queue_wait,
        "request": job.request_summary(),
        "status": None,
        "objective": None,
        "wall_time": None,
        "error": None,
        "telemetry": None,
    }
    if outcome is not None:
        out.update(
            status=outcome.status,
            objective=(
                None if outcome.solution is None else outcome.solution.objective
            ),
            wall_time=outcome.wall_time,
            error=outcome.error,
            telemetry=(
                None
                if outcome.telemetry is None
                else outcome.telemetry.to_dict()
            ),
        )
    return out


def result_to_dict(job: JobRecord) -> Optional[Dict[str, Any]]:
    """Result view of a finished job (``GET /v1/jobs/{id}/result``).

    ``None`` while the job is still queued or running.  The
    ``"solution"`` sub-payload is the :func:`repro.io.solution_to_dict`
    wire format (telemetry embedded); it is absent for infeasible,
    errored or cancelled jobs.
    """
    if not job.state.finished:
        return None
    out: Dict[str, Any] = {
        "id": job.id,
        "state": job.state.value,
        "source": job.source,
        "status": None,
        "wall_time": None,
        "error": None,
        "telemetry": None,
        "solution": None,
    }
    outcome = job.outcome
    if outcome is not None:
        out.update(
            status=outcome.status,
            wall_time=outcome.wall_time,
            error=outcome.error,
            telemetry=(
                None
                if outcome.telemetry is None
                else outcome.telemetry.to_dict()
            ),
        )
        if outcome.solution is not None:
            out["solution"] = solution_to_dict(
                outcome.solution, telemetry=outcome.telemetry
            )
    return out
