"""Anytime period/energy front engine: warm-started epsilon-constraint
sweeps with incremental merging.

:func:`repro.analysis.pareto.period_energy_front_exact` is a cold
sequential loop: one full solve per period threshold, nothing usable until
the last cell finishes.  This module re-plans the same sweep as an
*anytime* pipeline:

* **Planner** -- :func:`plan_front` takes the deduped threshold list
  (:func:`repro.analysis.pareto.front_thresholds`) and orders the cells in
  **bisection order** (:func:`bisection_order`): both extremes first, then
  recursive midpoints.  The smallest threshold pins the high-energy end,
  the largest pins the global minimum energy, and every midpoint halves the
  largest unexplored gap -- so the hypervolume of the partial front climbs
  steeply long before the sweep completes.
* **Work sharing** -- adjacent cells warm-start each other.  Any completed
  cell whose *achieved* period fits under a pending cell's threshold is a
  feasible incumbent there, so its energy seeds the branch-and-bound prune
  bound (``exact_minimize(..., upper_bound=...)``).  The warm search keeps
  the cold search's first-optimal leaf (see the solver docstring), so the
  merged front stays byte-identical to the sequential sweep while the
  shared bounds cut the explored tree.
* **Incremental merge** -- :class:`IncrementalFront` folds ``(period,
  energy)`` points into a monotone non-dominated front as they land, with
  2-D hypervolume telemetry (:func:`hypervolume_2d`); the merged result
  equals a batch :func:`~repro.analysis.pareto.pareto_filter` of the same
  points under any arrival order.

:func:`compute_front_anytime` runs the whole pipeline in-process
(optionally across the process's worker pool); the daemon-side counterpart that
feeds the same merge through :class:`repro.server.service.SolveService`
lives in :mod:`repro.server.fronts`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.problem import ProblemInstance
from ..core.types import MappingRule, PlatformClass
from ..service import pool as _pool
from .pareto import _min_energy_at_period, front_thresholds, pareto_filter

__all__ = [
    "FrontEvent",
    "FrontResult",
    "IncrementalFront",
    "bisection_order",
    "cell_dispatch_strategy",
    "compute_front_anytime",
    "hypervolume_2d",
    "plan_front",
]


def bisection_order(n: int) -> List[int]:
    """A coarse-to-fine visiting order of ``range(n)``: the endpoints
    first, then breadth-first midpoints of the remaining gaps.

    Deterministic, and a permutation of ``range(n)`` for every ``n >= 0``.
    Early prefixes spread (nearly) evenly over the index range, which is
    what makes the anytime front converge fast: each solved midpoint
    bounds the front across the widest unexplored threshold gap.
    """
    if n <= 0:
        return []
    if n == 1:
        return [0]
    order = [0, n - 1]
    seen = {0, n - 1}
    segments = [(0, n - 1)]
    while segments:
        next_segments: List[Tuple[int, int]] = []
        for lo, hi in segments:
            if hi - lo < 2:
                continue
            mid = (lo + hi) // 2
            if mid not in seen:
                seen.add(mid)
                order.append(mid)
            next_segments.append((lo, mid))
            next_segments.append((mid, hi))
        segments = next_segments
    return order


def plan_front(
    problem: ProblemInstance, *, max_points: int = 200
) -> Tuple[List[float], List[int]]:
    """The sweep plan: ``(thresholds, order)`` where ``thresholds`` is the
    ascending deduped cell list shared with the sequential exact sweep and
    ``order`` is the bisection visiting order over its indices."""
    thresholds = front_thresholds(problem, max_points=max_points)
    return thresholds, bisection_order(len(thresholds))


def cell_dispatch_strategy(problem: ProblemInstance) -> str:
    """The strategy a daemon-submitted front cell must use to match
    :func:`~repro.analysis.pareto._min_energy_at_period` byte-for-byte:
    ``"auto"`` on the polynomial (rule, platform) cells it routes to the
    closed-form solvers, ``"exact"`` (branch-and-bound) everywhere else.

    The registry default ("heuristic" on NP-hard energy cells) is *not*
    acceptable here -- the merged front must equal the offline exact front.
    """
    if (
        problem.rule is MappingRule.ONE_TO_ONE
        and problem.platform.platform_class
        is not PlatformClass.FULLY_HETEROGENEOUS
    ):
        return "auto"
    if (
        problem.rule is MappingRule.INTERVAL
        and problem.platform.platform_class is PlatformClass.FULLY_HOMOGENEOUS
    ):
        return "auto"
    return "exact"


def hypervolume_2d(
    points: Sequence[Tuple[float, float]],
    ref: Tuple[float, float],
) -> float:
    """The 2-D hypervolume (area dominated between the front and the
    reference point, both coordinates minimized).

    Points not strictly better than ``ref`` in both coordinates contribute
    nothing.  With a fixed reference the measure is monotone non-decreasing
    under adding points, and zero for an empty front.
    """
    ref_p, ref_e = ref
    eligible = sorted(
        {(p, e) for p, e in points if p < ref_p and e < ref_e}
    )
    area = 0.0
    prev_e = ref_e
    for p, e in eligible:
        if e >= prev_e:
            continue  # dominated within the staircase
        area += (ref_p - p) * (prev_e - e)
        prev_e = e
    return area


class IncrementalFront:
    """A monotone non-dominated ``(period, energy)`` front built point by
    point.

    ``add`` folds one achieved point in; the maintained set always equals
    ``pareto_filter`` of everything added so far (dominance is transitive,
    so discarding dominated points early never loses a final member).
    ``hypervolume`` tracks a running reference at the *nadir* of all points
    ever seen (+ a small margin so extreme points still count): both the
    front and the reference only grow, so the reported value is monotone
    non-decreasing as results land.
    """

    #: Relative margin pushing the running reference past the nadir.
    NADIR_MARGIN = 1e-3

    def __init__(self) -> None:
        self._points: List[Tuple[float, float]] = []
        self._nadir: Optional[Tuple[float, float]] = None
        self.n_added = 0

    def __len__(self) -> int:
        return len(self._points)

    def add(self, point: Tuple[float, float]) -> bool:
        """Fold one achieved ``(period, energy)`` point in.  Returns True
        when the front changed (the point was new and non-dominated)."""
        period, energy = float(point[0]), float(point[1])
        point = (period, energy)
        self.n_added += 1
        if self._nadir is None:
            self._nadir = point
        else:
            self._nadir = (
                max(self._nadir[0], period),
                max(self._nadir[1], energy),
            )
        for q in self._points:
            if q == point:
                return False
            if q[0] <= period and q[1] <= energy:
                return False  # dominated (strictly in >= one coordinate)
        self._points = [
            q for q in self._points if not (period <= q[0] and energy <= q[1])
        ] + [point]
        return True

    def front(self) -> List[Tuple[float, float]]:
        """The current front, sorted lexicographically (the same order
        :func:`~repro.analysis.pareto.pareto_filter` returns)."""
        return sorted(self._points)

    def reference(self) -> Optional[Tuple[float, float]]:
        """The running hypervolume reference: the nadir of every point
        ever added, pushed out by ``NADIR_MARGIN`` relatively."""
        if self._nadir is None:
            return None
        return (
            self._nadir[0] * (1.0 + self.NADIR_MARGIN),
            self._nadir[1] * (1.0 + self.NADIR_MARGIN),
        )

    def hypervolume(self, ref: Optional[Tuple[float, float]] = None) -> float:
        """Hypervolume against ``ref``, defaulting to :meth:`reference`."""
        if ref is None:
            ref = self.reference()
        if ref is None:
            return 0.0
        return hypervolume_2d(self._points, ref)


@dataclass(frozen=True)
class FrontEvent:
    """One merge event of an anytime run: which cell landed when, and the
    achieved point (None for an infeasible cell)."""

    elapsed: float
    threshold: float
    point: Optional[Tuple[float, float]]
    warm_bound: Optional[float] = None


@dataclass
class FrontResult:
    """The outcome of :func:`compute_front_anytime`."""

    front: List[Tuple[float, float]]
    thresholds: List[float]
    events: List[FrontEvent] = field(default_factory=list)
    wall_time: float = 0.0
    n_cells: int = 0
    n_infeasible: int = 0
    n_warm: int = 0

    def hypervolume_trajectory(
        self, ref: Tuple[float, float]
    ) -> List[Tuple[float, float]]:
        """``(elapsed, hypervolume)`` after each merge event, against a
        fixed reference (use the final front's extremes + margin)."""
        points: List[Tuple[float, float]] = []
        out: List[Tuple[float, float]] = []
        for event in self.events:
            if event.point is not None:
                points.append(event.point)
            out.append((event.elapsed, hypervolume_2d(points, ref)))
        return out


def _solve_cell(
    problem: ProblemInstance,
    threshold: float,
    energy_ubound: Optional[float],
) -> Optional[Tuple[float, float]]:
    """One epsilon-constraint cell: min energy s.t. period <= threshold.
    Module-level so the worker pool can pickle it."""
    solution = _min_energy_at_period(
        problem, threshold, energy_ubound=energy_ubound
    )
    if solution is None:
        return None
    return (solution.values.period, solution.values.energy)


def _warm_bound(
    threshold: float, completed: Dict[float, Optional[Tuple[float, float]]]
) -> Optional[float]:
    """The tightest known-achievable energy at ``threshold``: the minimum
    energy over completed cells whose *achieved* period fits (strictly)
    under the threshold -- that very mapping is feasible here, so its
    energy is a sound branch-and-bound upper bound."""
    best: Optional[float] = None
    for point in completed.values():
        if point is None:
            continue
        period, energy = point
        if period <= threshold and (best is None or energy < best):
            best = energy
    return best


def compute_front_anytime(
    problem: ProblemInstance,
    *,
    max_points: int = 200,
    workers: int = 1,
    warm_start: bool = True,
    on_event=None,
) -> FrontResult:
    """The anytime counterpart of
    :func:`~repro.analysis.pareto.period_energy_front_exact`: same cells,
    same solves, bisection order, neighbor warm-starting, optional process
    parallelism -- and a byte-identical final front.

    Parameters
    ----------
    problem:
        Any problem instance.
    max_points:
        Sweep plan size cap (shared with the sequential exact sweep).
    workers:
        Size of the process's shared worker pool
        (:mod:`repro.service.pool`) and of the in-flight window; ``1``
        (default), or a call made inside a pool worker, solves inline in
        submission order, still warm-started.
    warm_start:
        Seed each exact cell's prune bound from the best completed
        incumbent achievable at its threshold (:func:`_warm_bound`).
    on_event:
        Optional callback invoked with each :class:`FrontEvent` as cells
        land (the anytime consumption hook).
    """
    start = time.perf_counter()
    thresholds, order = plan_front(problem, max_points=max_points)
    completed: Dict[float, Optional[Tuple[float, float]]] = {}
    merged = IncrementalFront()
    events: List[FrontEvent] = []
    n_warm = 0

    def record(
        threshold: float,
        point: Optional[Tuple[float, float]],
        bound: Optional[float],
    ) -> None:
        completed[threshold] = point
        if point is not None:
            merged.add(point)
        event = FrontEvent(
            elapsed=time.perf_counter() - start,
            threshold=threshold,
            point=point,
            warm_bound=bound,
        )
        events.append(event)
        if on_event is not None:
            on_event(event)

    if workers <= 1 or _pool.in_worker():
        for index in order:
            threshold = thresholds[index]
            bound = _warm_bound(threshold, completed) if warm_start else None
            if bound is not None:
                n_warm += 1
            record(threshold, _solve_cell(problem, threshold, bound), bound)
    else:
        # A sliding in-flight window: cells are launched in bisection
        # order, each warm-started from whatever has completed by its
        # submission time, so early extremes bound the midpoints.
        pool = _pool.get_pool(workers)
        pending = list(order)
        in_flight = {}
        while pending or in_flight:
            while pending and len(in_flight) < workers:
                index = pending.pop(0)
                threshold = thresholds[index]
                bound = (
                    _warm_bound(threshold, completed) if warm_start else None
                )
                if bound is not None:
                    n_warm += 1
                future = pool.submit(_solve_cell, problem, threshold, bound)
                in_flight[future] = (threshold, bound)
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                threshold, bound = in_flight.pop(future)
                record(threshold, future.result(), bound)

    points = [p for p in completed.values() if p is not None]
    result = FrontResult(
        front=pareto_filter(points),
        thresholds=thresholds,
        events=events,
        wall_time=time.perf_counter() - start,
        n_cells=len(thresholds),
        n_infeasible=sum(1 for p in completed.values() if p is None),
        n_warm=n_warm,
    )
    assert result.front == merged.front(), "incremental merge diverged"
    return result
