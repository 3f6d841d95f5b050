"""JSON-friendly serialization of instances, mappings and solutions.

Round-trippable dictionaries (and JSON strings/files) for every core
object, so experiments can be archived, shared and replayed:

* :func:`application_to_dict` / :func:`application_from_dict`
* :func:`platform_to_dict` / :func:`platform_from_dict`
* :func:`mapping_to_dict` / :func:`mapping_from_dict`
* :func:`problem_to_dict` / :func:`problem_from_dict`
* :func:`solution_to_dict` / :func:`solution_from_dict`
* :func:`save_problem` / :func:`load_problem` (JSON files)

Solution payloads carry the mapping, the full criteria values and —
optionally — the structured :class:`~repro.strategies.SolveTelemetry`
record of the solve that produced them; they are the result wire format
of the solve-service daemon (:mod:`repro.server`).

The schema is versioned (``schema`` field); loaders reject unknown
versions instead of guessing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .core.application import Application, Stage
from .core.energy import EnergyModel
from .core.evaluation import CriteriaValues
from .core.exceptions import ReproError
from .core.mapping import Assignment, Mapping
from .core.platform import Platform
from .core.problem import ProblemInstance, Solution
from .core.processor import Processor
from .core.types import CommunicationModel, MappingRule

#: Current serialization schema version.
SCHEMA_VERSION = 1


class SerializationError(ReproError):
    """Raised on malformed or unsupported serialized payloads."""


def _require(payload: Dict[str, Any], key: str) -> Any:
    if key not in payload:
        raise SerializationError(f"missing field {key!r}")
    return payload[key]


# ----------------------------------------------------------------------
# Applications
# ----------------------------------------------------------------------
def application_to_dict(app: Application) -> Dict[str, Any]:
    """Serialize an application."""
    return {
        "works": list(app.works),
        "output_sizes": list(app.output_sizes),
        "input_data_size": app.input_data_size,
        "weight": app.weight,
        "name": app.name,
    }


def application_from_dict(payload: Dict[str, Any]) -> Application:
    """Deserialize an application."""
    return Application.from_lists(
        works=_require(payload, "works"),
        output_sizes=_require(payload, "output_sizes"),
        input_data_size=payload.get("input_data_size", 0.0),
        weight=payload.get("weight", 1.0),
        name=payload.get("name", ""),
    )


# ----------------------------------------------------------------------
# Platforms
# ----------------------------------------------------------------------
def platform_to_dict(platform: Platform) -> Dict[str, Any]:
    """Serialize a platform (link tables keyed as strings for JSON)."""
    return {
        "processors": [
            {
                "speeds": list(p.speeds),
                "static_energy": p.static_energy,
                "name": p.name,
            }
            for p in platform.processors
        ],
        "default_bandwidth": platform.default_bandwidth,
        "links": [[u, v, bw] for (u, v), bw in sorted(platform.links.items())],
        "in_links": [
            [a, u, bw] for (a, u), bw in sorted(platform.in_links.items())
        ],
        "out_links": [
            [a, u, bw] for (a, u), bw in sorted(platform.out_links.items())
        ],
        "app_bandwidths": [
            [a, bw] for a, bw in sorted(platform.app_bandwidths.items())
        ],
        "name": platform.name,
    }


def platform_from_dict(payload: Dict[str, Any]) -> Platform:
    """Deserialize a platform."""
    processors = tuple(
        Processor(
            speeds=tuple(entry["speeds"]),
            static_energy=entry.get("static_energy", 0.0),
            name=entry.get("name", ""),
        )
        for entry in _require(payload, "processors")
    )
    return Platform(
        processors=processors,
        default_bandwidth=payload.get("default_bandwidth", 1.0),
        links={(u, v): bw for u, v, bw in payload.get("links", [])},
        in_links={(a, u): bw for a, u, bw in payload.get("in_links", [])},
        out_links={(a, u): bw for a, u, bw in payload.get("out_links", [])},
        app_bandwidths={a: bw for a, bw in payload.get("app_bandwidths", [])},
        name=payload.get("name", ""),
    )


# ----------------------------------------------------------------------
# Mappings
# ----------------------------------------------------------------------
def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize a mapping."""
    return {
        "assignments": [
            {
                "app": x.app,
                "interval": list(x.interval),
                "proc": x.proc,
                "speed": x.speed,
            }
            for x in mapping.assignments
        ]
    }


def mapping_from_dict(payload: Dict[str, Any]) -> Mapping:
    """Deserialize a mapping."""
    return Mapping.from_assignments(
        Assignment(
            app=entry["app"],
            interval=tuple(entry["interval"]),
            proc=entry["proc"],
            speed=entry["speed"],
        )
        for entry in _require(payload, "assignments")
    )


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------
def problem_to_dict(problem: ProblemInstance) -> Dict[str, Any]:
    """Serialize a full problem instance."""
    return {
        "schema": SCHEMA_VERSION,
        "apps": [application_to_dict(a) for a in problem.apps],
        "platform": platform_to_dict(problem.platform),
        "rule": problem.rule.value,
        "model": problem.model.value,
        "energy_alpha": problem.energy_model.alpha,
    }


def problem_from_dict(payload: Dict[str, Any]) -> ProblemInstance:
    """Deserialize a problem instance (schema-checked)."""
    schema = payload.get("schema", None)
    if schema != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return ProblemInstance(
        apps=tuple(
            application_from_dict(a) for a in _require(payload, "apps")
        ),
        platform=platform_from_dict(_require(payload, "platform")),
        rule=MappingRule(payload.get("rule", "interval")),
        model=CommunicationModel(payload.get("model", "overlap")),
        energy_model=EnergyModel(alpha=payload.get("energy_alpha", 2.0)),
    )


# ----------------------------------------------------------------------
# Solutions
# ----------------------------------------------------------------------
def solution_to_dict(
    solution: Solution, telemetry: Optional[Any] = None
) -> Dict[str, Any]:
    """Serialize a solver :class:`~repro.core.problem.Solution`.

    Parameters
    ----------
    solution:
        The solution to serialize (mapping, objective, full criteria,
        solver name, optimality flag, stats).
    telemetry:
        Optional per-solve telemetry to embed — either a
        :class:`~repro.strategies.SolveTelemetry` (anything with a
        ``to_dict()``) or an already-JSON-friendly dict.  Kept opaque
        here so :mod:`repro.io` stays below the strategy layer;
        :func:`solution_from_dict` hands it back verbatim under the
        ``"telemetry"`` key for the caller to decode.

    Returns
    -------
    dict
        JSON-friendly payload; the result wire format of the solve
        service (:mod:`repro.server`).
    """
    values = solution.values
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "mapping": mapping_to_dict(solution.mapping),
        "objective": solution.objective,
        "values": {
            "period": values.period,
            "latency": values.latency,
            "energy": values.energy,
            # JSON objects key by string; keys are restored to ints on load.
            "periods": {str(k): v for k, v in sorted(values.periods.items())},
            "latencies": {
                str(k): v for k, v in sorted(values.latencies.items())
            },
        },
        "solver": solution.solver,
        "optimal": solution.optimal,
        "stats": dict(solution.stats),
    }
    if telemetry is not None:
        payload["telemetry"] = (
            telemetry.to_dict() if hasattr(telemetry, "to_dict") else telemetry
        )
    return payload


def solution_from_dict(payload: Dict[str, Any]) -> Solution:
    """Deserialize a :class:`~repro.core.problem.Solution` (schema-checked).

    The optional ``"telemetry"`` sub-payload is *not* consumed here (a
    :class:`~repro.core.problem.Solution` has no telemetry field); decode
    it with :meth:`repro.strategies.SolveTelemetry.from_dict` if needed.
    """
    schema = payload.get("schema", None)
    if schema != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    values_raw = _require(payload, "values")
    values = CriteriaValues(
        periods={int(k): float(v) for k, v in values_raw.get("periods", {}).items()},
        latencies={
            int(k): float(v) for k, v in values_raw.get("latencies", {}).items()
        },
        period=float(_require(values_raw, "period")),
        latency=float(_require(values_raw, "latency")),
        energy=float(_require(values_raw, "energy")),
    )
    return Solution(
        mapping=mapping_from_dict(_require(payload, "mapping")),
        objective=float(_require(payload, "objective")),
        values=values,
        solver=payload.get("solver", ""),
        optimal=bool(payload.get("optimal", False)),
        stats=dict(payload.get("stats", {})),
    )


def save_problem(
    problem: ProblemInstance, path: Union[str, Path]
) -> None:
    """Write a problem instance to a JSON file."""
    Path(path).write_text(
        json.dumps(problem_to_dict(problem), indent=2, sort_keys=True)
    )


def load_problem(path: Union[str, Path]) -> ProblemInstance:
    """Read a problem instance from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return problem_from_dict(payload)
