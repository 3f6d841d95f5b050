"""Solvers for every cell of the paper's Tables 1 and 2.

Polynomial algorithms (each implementing one theorem):

========================================  =====================================
function                                  theorem / cell
========================================  =====================================
:func:`minimize_period_one_to_one`        Thm 1 -- period, one-to-one, com-hom
:func:`minimize_period_interval`          Thm 3 -- period, interval, proc-hom
:func:`minimize_latency_one_to_one_fully_hom`  Thm 8 -- latency, one-to-one
:func:`minimize_latency_interval`         Thm 12 -- latency, interval, com-hom
:func:`bicriteria_one_to_one_fully_hom`   Thm 14 -- period/latency, one-to-one
:func:`minimize_latency_given_period`     Thms 15-16 -- period/latency DP
:func:`minimize_period_given_latency`     Thms 15-16 -- dual (binary search)
:func:`minimize_energy_given_period_interval`  Thms 18, 21 -- energy DP
:func:`minimize_energy_given_period_one_to_one` Thm 19 -- matching
:func:`tricriteria.minimize_*`            Thms 23-24 -- uni-modal tri-criteria
========================================  =====================================

NP-hard cells are served by :mod:`repro.algorithms.exact` (brute force and
branch-and-bound) and :mod:`repro.algorithms.heuristics`;
:mod:`repro.algorithms.reductions` contains the hardness gadgets.
The generic entry points :func:`minimize_period` / :func:`minimize_latency`
run the polynomial algorithm of the problem's mapping rule; choosing a
solver per cell (exact, heuristic, Tables 1-2 dispatch) is the job of the
strategies in :mod:`repro.strategies`.
"""

from ..core.problem import ProblemInstance, Solution
from ..core.types import MappingRule
from . import exact, heuristics, reductions
from .bicriteria_period_latency import (
    LatencyTable,
    bicriteria_one_to_one_fully_hom,
    minimize_latency_given_period,
    minimize_period_given_latency,
    single_app_latency_table,
    single_app_min_period_given_latency,
    single_app_period_candidates,
)
from .binary_search import BinarySearchResult, linear_smallest_feasible, smallest_feasible
from .energy_interval import (
    EnergyTable,
    minimize_energy_given_period_interval,
    single_app_energy_table,
)
from .energy_matching import minimize_energy_given_period_one_to_one
from .interval_period import SingleAppPeriodTable, single_app_period_table
from .latency import (
    canonical_one_to_one_mapping,
    minimize_latency_interval,
    minimize_latency_one_to_one_fully_hom,
)
from .multi_app_period import minimize_period_interval
from .one_to_one_period import greedy_assignment, minimize_period_one_to_one
from .processor_allocation import AllocationResult, allocate_processors
from .registry import (
    Complexity,
    ComplexityEntry,
    PlatformCell,
    TABLE1,
    TABLE2,
    classify_platform_cell,
    expected_complexity,
    lookup,
)
from .tricriteria import (
    minimize_energy_tri,
    minimize_latency_tri,
    minimize_period_tri,
    tricriteria_one_to_one,
)


def minimize_period(problem: ProblemInstance) -> Solution:
    """Minimize the global weighted period with the paper's polynomial
    algorithm for the instance's cell (Theorems 1, 3); raises
    :class:`~repro.core.exceptions.SolverError` outside the polynomial
    cells.  Other solvers are strategies: ``repro.service.solve_one(
    problem, "period", strategy="exact")``."""
    if problem.rule is MappingRule.ONE_TO_ONE:
        return minimize_period_one_to_one(problem)
    return minimize_period_interval(problem)


def minimize_latency(problem: ProblemInstance) -> Solution:
    """Minimize the global weighted latency (same contract as
    :func:`minimize_period`; polynomial cells are Theorems 8 and 12)."""
    if problem.rule is MappingRule.ONE_TO_ONE:
        return minimize_latency_one_to_one_fully_hom(problem)
    return minimize_latency_interval(problem)


__all__ = [
    "AllocationResult",
    "BinarySearchResult",
    "Complexity",
    "ComplexityEntry",
    "EnergyTable",
    "LatencyTable",
    "PlatformCell",
    "SingleAppPeriodTable",
    "TABLE1",
    "TABLE2",
    "allocate_processors",
    "bicriteria_one_to_one_fully_hom",
    "canonical_one_to_one_mapping",
    "classify_platform_cell",
    "exact",
    "expected_complexity",
    "greedy_assignment",
    "heuristics",
    "linear_smallest_feasible",
    "lookup",
    "minimize_energy_given_period_interval",
    "minimize_energy_given_period_one_to_one",
    "minimize_energy_tri",
    "minimize_latency",
    "minimize_latency_given_period",
    "minimize_latency_interval",
    "minimize_latency_one_to_one_fully_hom",
    "minimize_latency_tri",
    "minimize_period",
    "minimize_period_given_latency",
    "minimize_period_interval",
    "minimize_period_one_to_one",
    "minimize_period_tri",
    "reductions",
    "single_app_energy_table",
    "single_app_latency_table",
    "single_app_min_period_given_latency",
    "single_app_period_candidates",
    "single_app_period_table",
    "smallest_feasible",
    "tricriteria_one_to_one",
]
