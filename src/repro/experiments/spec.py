"""Declarative campaign specifications.

A *campaign* is a grid of scenarios (the cross product of platform
classes, communication models, mapping rules, application counts, mode
counts and seeds — the axes of the paper's Tables 1-2) crossed with a
list of named solver configurations.  Specs are plain data: a Python
dict, a JSON file or a YAML file all describe the same
:class:`CampaignSpec`, so a sweep that today is a bespoke script becomes
a one-file artifact that can be versioned, re-run and extended.

Example (YAML)::

    name: small-sweep
    scenarios:
      platforms: [fully-homogeneous, comm-homogeneous]
      models: [overlap, no-overlap]
      rules: [interval]
      apps: [2]
      modes: [1]
      stage_range: [2, 4]
      seeds: 3
    solvers:
      - name: registry
        objective: period
      - name: greedy
        objective: period
        method: heuristic
      - name: racer
        objective: period
        strategy: portfolio(greedy,local_search,annealing)
        budget:
          max_evaluations: 20000
          seed: 0

Every axis except ``platforms`` has a default, so the minimal spec is a
name, one platform class and one solver.  Solver entries name either a
legacy ``method`` or a ``strategy`` (any registered name or composite
spec from :mod:`repro.strategies`), optionally with a per-solve
``budget``.  Validation is strict: unknown
keys, unknown enum values, empty axes and ill-formed solver entries all
raise :class:`CampaignSpecError` with the offending field named.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.exceptions import ReproError
from ..core.objectives import Thresholds
from ..core.problem import ProblemInstance
from ..core.types import CommunicationModel, MappingRule, PlatformClass
from ..strategies import SolveBudget, StrategyError, parse_strategy

__all__ = [
    "CampaignSpec",
    "CampaignSpecError",
    "Scenario",
    "ScenarioGrid",
    "SolverSpec",
    "load_spec",
]

#: Objectives a solver configuration may optimize.
OBJECTIVES = ("period", "latency", "energy")
#: Dispatch methods accepted by :func:`repro.service.solve_one`.
METHODS = ("registry", "auto", "exact", "heuristic")


class CampaignSpecError(ReproError):
    """Raised when a campaign spec is malformed."""


def _reject_unknown(payload: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise CampaignSpecError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _parse_enum(enum_cls, value: Any, where: str):
    try:
        return enum_cls(value)
    except ValueError:
        valid = [e.value for e in enum_cls]
        raise CampaignSpecError(
            f"invalid value {value!r} for {where}; expected one of {valid}"
        ) from None


def _parse_enum_list(enum_cls, values: Any, where: str) -> tuple:
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise CampaignSpecError(f"{where} must be a list, got {values!r}")
    if not values:
        raise CampaignSpecError(f"{where} must not be empty")
    return tuple(_parse_enum(enum_cls, v, where) for v in values)


def _parse_int_list(values: Any, where: str, minimum: int = 1) -> Tuple[int, ...]:
    if isinstance(values, bool) or isinstance(values, int):
        values = [values]
    if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
        raise CampaignSpecError(f"{where} must be an int or a list of ints")
    if not values:
        raise CampaignSpecError(f"{where} must not be empty")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise CampaignSpecError(f"{where} entries must be ints, got {v!r}")
        if v < minimum:
            raise CampaignSpecError(f"{where} entries must be >= {minimum}, got {v}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class Scenario:
    """One fully-instantiated point of the scenario grid.

    A scenario is *declarative*: it stores the axes, not the instance.
    :meth:`problem` materializes the corresponding
    :class:`~repro.core.problem.ProblemInstance` deterministically from
    the seed, so two processes that agree on the scenario agree on the
    instance (and therefore on its cache key).
    """

    platform_class: PlatformClass
    model: CommunicationModel
    rule: MappingRule
    n_apps: int
    n_modes: int
    seed: int
    stage_range: Tuple[int, int] = (2, 4)

    def problem(self) -> ProblemInstance:
        """Materialize the scenario's problem instance.

        Returns
        -------
        ProblemInstance
            The deterministic random instance for this grid point,
            generated by
            :func:`repro.generators.small_random_problem`.
        """
        from ..generators import small_random_problem

        return small_random_problem(
            self.seed,
            platform_class=self.platform_class,
            rule=self.rule,
            model=self.model,
            n_apps=self.n_apps,
            n_modes=self.n_modes,
            stage_range=self.stage_range,
        )

    def axes(self) -> Dict[str, Any]:
        """The scenario as a flat, JSON-friendly dict of axis values."""
        return {
            "platform": self.platform_class.value,
            "model": self.model.value,
            "rule": self.rule.value,
            "apps": self.n_apps,
            "modes": self.n_modes,
            "seed": self.seed,
            "stage_range": list(self.stage_range),
        }

    @property
    def label(self) -> str:
        """Compact human-readable identifier used in tables and logs."""
        return (
            f"{self.platform_class.value}/{self.model.value}/"
            f"{self.rule.value}/a{self.n_apps}m{self.n_modes}s{self.seed}"
        )


@dataclass(frozen=True)
class ScenarioGrid:
    """The scenario axes of a campaign (cross product semantics)."""

    platforms: Tuple[PlatformClass, ...]
    models: Tuple[CommunicationModel, ...] = (CommunicationModel.OVERLAP,)
    rules: Tuple[MappingRule, ...] = (MappingRule.INTERVAL,)
    apps: Tuple[int, ...] = (2,)
    modes: Tuple[int, ...] = (1,)
    seeds: Tuple[int, ...] = (0,)
    stage_range: Tuple[int, int] = (2, 4)

    _KEYS = (
        "platforms",
        "models",
        "rules",
        "apps",
        "modes",
        "seeds",
        "stage_range",
    )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioGrid":
        """Parse and validate the ``scenarios`` section of a spec.

        Parameters
        ----------
        payload:
            Mapping with a required ``platforms`` list and optional
            ``models``, ``rules``, ``apps``, ``modes``, ``seeds`` and
            ``stage_range`` entries.  ``seeds`` may be an int ``n``
            (meaning seeds ``0..n-1``) or an explicit list.

        Raises
        ------
        CampaignSpecError
            On unknown keys, unknown enum values or empty axes.
        """
        if not isinstance(payload, Mapping):
            raise CampaignSpecError("'scenarios' must be a mapping")
        _reject_unknown(payload, cls._KEYS, "'scenarios'")
        if "platforms" not in payload:
            raise CampaignSpecError("'scenarios' requires a 'platforms' list")
        seeds_raw = payload.get("seeds", 1)
        if isinstance(seeds_raw, bool):
            raise CampaignSpecError("'scenarios.seeds' must be an int or list of ints")
        if isinstance(seeds_raw, int):
            if seeds_raw < 1:
                raise CampaignSpecError("'scenarios.seeds' count must be >= 1")
            seeds: Tuple[int, ...] = tuple(range(seeds_raw))
        else:
            seeds = _parse_int_list(seeds_raw, "'scenarios.seeds'", minimum=0)
        stage_range_raw = payload.get("stage_range", (2, 4))
        stage_range = tuple(_parse_int_list(stage_range_raw, "'scenarios.stage_range'"))
        if len(stage_range) != 2 or stage_range[0] > stage_range[1]:
            raise CampaignSpecError(
                "'scenarios.stage_range' must be [lo, hi] with lo <= hi, "
                f"got {list(stage_range)}"
            )
        return cls(
            platforms=_parse_enum_list(
                PlatformClass, payload["platforms"], "'scenarios.platforms'"
            ),
            models=_parse_enum_list(
                CommunicationModel,
                payload.get("models", [CommunicationModel.OVERLAP.value]),
                "'scenarios.models'",
            ),
            rules=_parse_enum_list(
                MappingRule,
                payload.get("rules", [MappingRule.INTERVAL.value]),
                "'scenarios.rules'",
            ),
            apps=_parse_int_list(payload.get("apps", [2]), "'scenarios.apps'"),
            modes=_parse_int_list(payload.get("modes", [1]), "'scenarios.modes'"),
            seeds=seeds,
            stage_range=stage_range,  # type: ignore[arg-type]
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly round-trip of the grid."""
        return {
            "platforms": [p.value for p in self.platforms],
            "models": [m.value for m in self.models],
            "rules": [r.value for r in self.rules],
            "apps": list(self.apps),
            "modes": list(self.modes),
            "seeds": list(self.seeds),
            "stage_range": list(self.stage_range),
        }

    def scenarios(self) -> List[Scenario]:
        """Expand the grid into its scenarios, in deterministic order."""
        return [
            Scenario(
                platform_class=p,
                model=m,
                rule=r,
                n_apps=a,
                n_modes=k,
                seed=s,
                stage_range=self.stage_range,
            )
            for p, m, r, a, k, s in itertools.product(
                self.platforms, self.models, self.rules, self.apps, self.modes, self.seeds
            )
        ]

    def __len__(self) -> int:
        return (
            len(self.platforms)
            * len(self.models)
            * len(self.rules)
            * len(self.apps)
            * len(self.modes)
            * len(self.seeds)
        )


@dataclass(frozen=True)
class SolverSpec:
    """One named solver configuration of a campaign.

    Parameters
    ----------
    name:
        Unique label used in reports and cache records.
    objective:
        ``"period"``, ``"latency"`` or ``"energy"``.
    method:
        Dispatch method handed to :func:`repro.service.solve_one`
        (``"registry"`` consults the complexity registry).  Ignored
        when ``strategy`` is set; giving both explicitly is an error.
    strategy:
        Named solver strategy or composite spec string
        (``"annealing"``, ``"portfolio(greedy,local_search)"``); see
        :mod:`repro.strategies`.
    budget:
        Per-solve :class:`~repro.strategies.SolveBudget` (``time_limit``
        seconds, ``max_evaluations``, RNG ``seed``) enforced
        cooperatively inside the solver loops.
    max_period, max_latency, max_energy:
        Optional thresholds on the non-optimized criteria; the energy
        objective requires ``max_period`` (the paper's "server
        problem").
    """

    name: str
    objective: str = "period"
    method: str = "registry"
    strategy: Optional[str] = None
    budget: Optional[SolveBudget] = None
    max_period: Optional[float] = None
    max_latency: Optional[float] = None
    max_energy: Optional[float] = None

    _KEYS = (
        "name",
        "objective",
        "method",
        "strategy",
        "budget",
        "max_period",
        "max_latency",
        "max_energy",
    )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolverSpec":
        """Parse and validate one entry of the ``solvers`` list.

        Raises
        ------
        CampaignSpecError
            On missing/empty ``name``, unknown keys, unknown objective
            or method, an unparsable ``strategy`` spec, an ill-formed
            ``budget``, both ``method`` and ``strategy`` given,
            non-numeric thresholds, or an energy objective without
            ``max_period``.
        """
        if not isinstance(payload, Mapping):
            raise CampaignSpecError(f"solver entries must be mappings, got {payload!r}")
        _reject_unknown(payload, cls._KEYS, "a 'solvers' entry")
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise CampaignSpecError("every solver needs a non-empty string 'name'")
        objective = payload.get("objective", "period")
        if objective not in OBJECTIVES:
            raise CampaignSpecError(
                f"solver {name!r}: unknown objective {objective!r}; "
                f"expected one of {list(OBJECTIVES)}"
            )
        method = payload.get("method", "registry")
        if method not in METHODS:
            raise CampaignSpecError(
                f"solver {name!r}: unknown method {method!r}; "
                f"expected one of {list(METHODS)}"
            )
        strategy = payload.get("strategy")
        if strategy is not None:
            if "method" in payload:
                raise CampaignSpecError(
                    f"solver {name!r}: give either 'strategy' or 'method', "
                    "not both (the method strings are aliases of the "
                    "strategies of the same name)"
                )
            if not strategy or not isinstance(strategy, str):
                raise CampaignSpecError(
                    f"solver {name!r}: 'strategy' must be a non-empty string"
                )
            try:
                parse_strategy(strategy)
            except StrategyError as exc:
                raise CampaignSpecError(
                    f"solver {name!r}: invalid strategy: {exc}"
                ) from None
        budget = None
        if payload.get("budget") is not None:
            try:
                budget = SolveBudget.from_dict(payload["budget"])
            except ValueError as exc:
                raise CampaignSpecError(
                    f"solver {name!r}: invalid budget: {exc}"
                ) from None
        bounds = {}
        for key in ("max_period", "max_latency", "max_energy"):
            value = payload.get(key)
            if value is not None:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise CampaignSpecError(
                        f"solver {name!r}: {key} must be a number, got {value!r}"
                    )
                if value <= 0:
                    raise CampaignSpecError(
                        f"solver {name!r}: {key} must be positive, got {value}"
                    )
                bounds[key] = float(value)
        if objective == "energy" and "max_period" not in bounds:
            raise CampaignSpecError(
                f"solver {name!r}: the energy objective requires 'max_period' "
                "(energy is only meaningful under a period bound)"
            )
        return cls(
            name=name,
            objective=objective,
            method=method,
            strategy=strategy,
            budget=budget,
            **bounds,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly round-trip of the solver configuration."""
        out: Dict[str, Any] = {
            "name": self.name,
            "objective": self.objective,
        }
        # strategy and method are mutually exclusive on input; emit the
        # one that is actually in effect so the dict round-trips.
        if self.strategy is not None:
            out["strategy"] = self.strategy
        else:
            out["method"] = self.method
        if self.budget is not None:
            out["budget"] = self.budget.to_dict()
        for key in ("max_period", "max_latency", "max_energy"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def thresholds(self) -> Optional[Thresholds]:
        """The :class:`~repro.core.objectives.Thresholds` for this config
        (``None`` when unconstrained)."""
        if self.max_period is None and self.max_latency is None and self.max_energy is None:
            return None
        return Thresholds(
            period=self.max_period,
            latency=self.max_latency,
            energy=self.max_energy,
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: a scenario grid crossed with solver configs."""

    name: str
    grid: ScenarioGrid
    solvers: Tuple[SolverSpec, ...]
    description: str = ""

    _KEYS = ("name", "description", "scenarios", "solvers")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Parse and validate a spec dict (the YAML/JSON document root).

        Parameters
        ----------
        payload:
            Mapping with ``name`` (str), ``scenarios`` (see
            :meth:`ScenarioGrid.from_dict`), ``solvers`` (non-empty list
            of solver entries with unique names) and an optional
            ``description``.

        Returns
        -------
        CampaignSpec

        Raises
        ------
        CampaignSpecError
            On any malformed section; the message names the field.
        """
        if not isinstance(payload, Mapping):
            raise CampaignSpecError(
                f"campaign spec must be a mapping, got {type(payload).__name__}"
            )
        _reject_unknown(payload, cls._KEYS, "the campaign spec")
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise CampaignSpecError("campaign spec requires a non-empty string 'name'")
        if "scenarios" not in payload:
            raise CampaignSpecError("campaign spec requires a 'scenarios' section")
        solvers_raw = payload.get("solvers")
        if not isinstance(solvers_raw, Sequence) or isinstance(solvers_raw, (str, bytes)):
            raise CampaignSpecError("campaign spec requires a 'solvers' list")
        if not solvers_raw:
            raise CampaignSpecError("'solvers' must not be empty")
        solvers = tuple(SolverSpec.from_dict(s) for s in solvers_raw)
        names = [s.name for s in solvers]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise CampaignSpecError(f"duplicate solver name(s): {dupes}")
        return cls(
            name=name,
            grid=ScenarioGrid.from_dict(payload["scenarios"]),
            solvers=solvers,
            description=str(payload.get("description", "")),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly round-trip of the whole spec."""
        out: Dict[str, Any] = {
            "name": self.name,
            "scenarios": self.grid.to_dict(),
            "solvers": [s.to_dict() for s in self.solvers],
        }
        if self.description:
            out["description"] = self.description
        return out

    def scenarios(self) -> List[Scenario]:
        """All scenarios of the grid, in deterministic order."""
        return self.grid.scenarios()

    def cells(self) -> List[Tuple[Scenario, SolverSpec]]:
        """The campaign's work units: every (scenario, solver) pair."""
        return [
            (scenario, solver)
            for solver in self.solvers
            for scenario in self.grid.scenarios()
        ]

    @property
    def n_cells(self) -> int:
        """Total number of (scenario, solver) work units."""
        return len(self.grid) * len(self.solvers)


def load_spec(source: Union[str, Path, Mapping[str, Any]]) -> CampaignSpec:
    """Load a campaign spec from a dict or a YAML/JSON file.

    Parameters
    ----------
    source:
        A mapping (returned as-is through :meth:`CampaignSpec.from_dict`)
        or a path.  ``.json`` files are parsed with :mod:`json`; anything
        else (``.yaml``/``.yml``) with PyYAML when available.  JSON being
        a YAML subset, a JSON document in a ``.yaml`` file also loads.

    Raises
    ------
    CampaignSpecError
        When the file is missing, unparsable, or fails validation.
    """
    if isinstance(source, Mapping):
        return CampaignSpec.from_dict(source)
    path = Path(source)
    if not path.exists():
        raise CampaignSpecError(f"spec file not found: {path}")
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(f"invalid JSON in {path}: {exc}") from exc
    else:
        try:
            import yaml
        except ImportError:  # pragma: no cover - yaml ships in the dev env
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                raise CampaignSpecError(
                    f"PyYAML is not installed and {path} is not JSON; "
                    "install pyyaml or use a .json spec"
                ) from None
        else:
            try:
                payload = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise CampaignSpecError(f"invalid YAML in {path}: {exc}") from exc
    return CampaignSpec.from_dict(payload)
