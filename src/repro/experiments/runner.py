"""Campaign execution: enumerate cells, reuse the cache, batch the rest.

:func:`run_campaign` is deliberately a thin deterministic loop on top of
the existing layers — scenarios materialize through
:mod:`repro.generators`, solving goes through
:func:`repro.service.solve_batch` (process-pool fan-out included), and
persistence through :class:`~repro.experiments.cache.ResultsCache`.
Killing a campaign at any point loses at most the in-flight cells;
rerunning the same spec recomputes only what is missing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..io import mapping_to_dict
from ..service import solve_batch
from ..strategies import SolveTelemetry
from .cache import ResultsCache, combine_digests, instance_digest, solver_digest
from .spec import CampaignSpec, Scenario, SolverSpec

__all__ = [
    "CampaignResult",
    "CampaignStatus",
    "CellRecord",
    "campaign_status",
    "load_records",
    "run_campaign",
]

#: Version stamp written into every cache record.  Schema 2 added the
#: ``telemetry`` field; schema-1 entries simply read back without it.
RECORD_SCHEMA = 2


@dataclass(frozen=True)
class CellRecord:
    """Outcome of one campaign cell (scenario x solver configuration).

    ``status`` mirrors :class:`repro.service.BatchItem`: ``"ok"``,
    ``"infeasible"`` or ``"error"``.  ``cached`` records whether the cell
    was served from the results cache (``True``) or solved during this
    run (``False``).
    """

    scenario: Scenario
    solver: SolverSpec
    key: str
    status: str
    wall_time: float
    cached: bool
    objective: float = math.inf
    values: Optional[Dict[str, float]] = None
    algorithm: Optional[str] = None
    optimal: Optional[bool] = None
    error: Optional[str] = None
    #: Structured per-solve telemetry (strategy spec, evaluations, budget
    #: consumption, portfolio member outcomes); ``None`` for records
    #: written before the strategy layer existed.
    telemetry: Optional[SolveTelemetry] = None

    @property
    def ok(self) -> bool:
        """True when the cell solved successfully."""
        return self.status == "ok"


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :func:`run_campaign` call."""

    spec: CampaignSpec
    cache_dir: Path
    records: Tuple[CellRecord, ...]
    #: End-to-end wall-clock of the run, including cache probing.
    total_time: float
    workers: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        """Total cells in the campaign."""
        return len(self.records)

    @property
    def n_cached(self) -> int:
        """Cells served from the results cache without solving."""
        return sum(1 for r in self.records if r.cached)

    @property
    def n_solved(self) -> int:
        """Cells actually solved during this run."""
        return sum(1 for r in self.records if not r.cached)

    @property
    def n_ok(self) -> int:
        """Cells with a successful solution (cached or fresh)."""
        return sum(1 for r in self.records if r.ok)

    @property
    def n_failed(self) -> int:
        """Cells that errored (not merely infeasible)."""
        return sum(1 for r in self.records if r.status == "error")

    def summary(self) -> str:
        """One-line human-readable description of the run."""
        return (
            f"campaign {self.spec.name!r}: {self.n_cells} cells, "
            f"{self.n_cached} cached + {self.n_solved} solved "
            f"({self.n_ok} ok, {self.n_failed} errors) "
            f"workers={self.workers} wall={self.total_time:.3f}s"
        )


@dataclass(frozen=True)
class CampaignStatus:
    """Cache coverage of a campaign spec, without solving anything."""

    spec: CampaignSpec
    cache_dir: Path
    n_cells: int
    n_done: int
    per_solver: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def n_missing(self) -> int:
        """Cells not yet present in the results cache."""
        return self.n_cells - self.n_done

    @property
    def complete(self) -> bool:
        """True when every cell is cached."""
        return self.n_missing == 0

    def summary(self) -> str:
        """One-line human-readable description of the coverage."""
        return (
            f"campaign {self.spec.name!r}: {self.n_done}/{self.n_cells} "
            f"cells cached, {self.n_missing} missing"
        )


def _enumerate_cells(
    spec: CampaignSpec,
) -> List[Tuple[Scenario, SolverSpec, Any, str]]:
    """Materialize every (scenario, solver, problem, cache-key) cell.

    Problems and instance digests are computed once per scenario and
    shared across solver configurations, which keeps cache probing
    linear in scenarios + cells rather than re-serializing each instance
    per solver.
    """
    scenarios = spec.scenarios()
    problems = [s.problem() for s in scenarios]
    digests = [instance_digest(p) for p in problems]
    cells = []
    for solver in spec.solvers:
        sd = solver_digest(solver.to_dict())
        for scenario, problem, digest in zip(scenarios, problems, digests):
            cells.append((scenario, solver, problem, combine_digests(digest, sd)))
    return cells


def _record_from_payload(
    scenario: Scenario, solver: SolverSpec, key: str, payload: Dict[str, Any], cached: bool
) -> CellRecord:
    objective = payload.get("objective")
    telemetry = payload.get("telemetry")
    return CellRecord(
        scenario=scenario,
        solver=solver,
        key=key,
        status=payload.get("status", "error"),
        wall_time=float(payload.get("wall_time", 0.0)),
        cached=cached,
        objective=math.inf if objective is None else float(objective),
        values=payload.get("values"),
        algorithm=payload.get("algorithm"),
        optimal=payload.get("optimal"),
        error=payload.get("error"),
        telemetry=(
            None if telemetry is None else SolveTelemetry.from_dict(telemetry)
        ),
    )


def run_campaign(
    spec: CampaignSpec,
    cache_dir: Union[str, Path],
    *,
    workers: Optional[int] = None,
    force: bool = False,
) -> CampaignResult:
    """Execute a campaign, reusing every cached cell.

    Parameters
    ----------
    spec:
        The campaign to run (see :class:`~repro.experiments.CampaignSpec`).
    cache_dir:
        Directory of the content-addressed results cache.  Interrupted
        or extended campaigns pointed at the same directory resume:
        cells already present are *not* re-solved.
    workers:
        Process-pool size for the underlying
        :func:`repro.service.solve_batch` calls (``None``/``<=1`` solves
        sequentially in-process).
    force:
        When ``True``, ignore (and overwrite) cached entries.

    Returns
    -------
    CampaignResult
        One :class:`CellRecord` per cell, in deterministic spec order,
        each flagged ``cached`` or freshly solved.
    """
    cache = ResultsCache(cache_dir)
    t0 = time.perf_counter()
    cells = _enumerate_cells(spec)
    records: List[Optional[CellRecord]] = [None] * len(cells)
    misses: Dict[str, List[int]] = {}
    solvers_by_name = {s.name: s for s in spec.solvers}
    for i, (scenario, solver, problem, key) in enumerate(cells):
        payload = None if force else cache.get(key)
        if payload is not None:
            records[i] = _record_from_payload(scenario, solver, key, payload, cached=True)
        else:
            misses.setdefault(solver.name, []).append(i)

    # Solve in bounded chunks so results reach the cache as the campaign
    # progresses: a kill loses at most one chunk, not a whole solver batch.
    chunk_size = max(16, 4 * (workers or 1))
    effective_workers = 1
    for solver_name, indices in misses.items():
        solver = solvers_by_name[solver_name]
        for start in range(0, len(indices), chunk_size):
            chunk = indices[start : start + chunk_size]
            batch = solve_batch(
                [cells[i][2] for i in chunk],
                objective=solver.objective,
                workers=workers,
                thresholds=solver.thresholds(),
                strategy=solver.strategy,
                budget=solver.budget,
            )
            effective_workers = max(effective_workers, batch.workers)
            for item in batch.items:
                i = chunk[item.index]
                scenario, cell_solver, _problem, key = cells[i]
                payload: Dict[str, Any] = {
                    "schema": RECORD_SCHEMA,
                    "status": item.status,
                    "wall_time": item.wall_time,
                    "objective": None,
                    "values": None,
                    "algorithm": None,
                    "optimal": None,
                    "error": item.error,
                    "scenario": scenario.axes(),
                    "solver_spec": cell_solver.to_dict(),
                    "telemetry": (
                        None
                        if item.telemetry is None
                        else item.telemetry.to_dict()
                    ),
                }
                if item.solution is not None:
                    payload.update(
                        objective=item.solution.objective,
                        values={
                            "period": item.solution.values.period,
                            "latency": item.solution.values.latency,
                            "energy": item.solution.values.energy,
                        },
                        algorithm=item.solution.solver,
                        optimal=item.solution.optimal,
                        mapping=mapping_to_dict(item.solution.mapping),
                    )
                cache.put(key, payload)
                records[i] = _record_from_payload(
                    scenario, cell_solver, key, payload, cached=False
                )

    done = [r for r in records if r is not None]
    assert len(done) == len(cells), "every cell must produce a record"
    total = time.perf_counter() - t0
    return CampaignResult(
        spec=spec,
        cache_dir=Path(cache_dir),
        records=tuple(done),
        total_time=total,
        workers=effective_workers,
        stats={
            "n_cells": float(len(cells)),
            "n_cached": float(sum(1 for r in done if r.cached)),
            "solve_time": sum(r.wall_time for r in done if not r.cached),
        },
    )


def campaign_status(
    spec: CampaignSpec, cache_dir: Union[str, Path]
) -> CampaignStatus:
    """Report cache coverage of a campaign without solving anything.

    Parameters
    ----------
    spec:
        The campaign spec to check.
    cache_dir:
        The results-cache directory a previous (possibly interrupted)
        run wrote to.

    Returns
    -------
    CampaignStatus
        Total/done/missing cell counts, plus a per-solver breakdown
        mapping each solver name to ``(done, total)``.
    """
    cache = ResultsCache(cache_dir)
    cells = _enumerate_cells(spec)
    per_solver: Dict[str, List[int]] = {
        s.name: [0, 0] for s in spec.solvers
    }
    n_done = 0
    for _scenario, solver, _problem, key in cells:
        per_solver[solver.name][1] += 1
        if key in cache:
            per_solver[solver.name][0] += 1
            n_done += 1
    return CampaignStatus(
        spec=spec,
        cache_dir=Path(cache_dir),
        n_cells=len(cells),
        n_done=n_done,
        per_solver={k: (v[0], v[1]) for k, v in per_solver.items()},
    )


def load_records(
    spec: CampaignSpec, cache_dir: Union[str, Path]
) -> List[CellRecord]:
    """Load the cached records of a campaign, skipping missing cells.

    Parameters
    ----------
    spec:
        The campaign spec whose cells to look up.
    cache_dir:
        The results-cache directory.

    Returns
    -------
    list of CellRecord
        Records for every cell already present in the cache, in
        deterministic spec order (all flagged ``cached=True``).  Use
        :func:`campaign_status` to see how many cells are missing.
    """
    cache = ResultsCache(cache_dir)
    out = []
    for scenario, solver, _problem, key in _enumerate_cells(spec):
        payload = cache.get(key)
        if payload is not None:
            out.append(_record_from_payload(scenario, solver, key, payload, cached=True))
    return out
