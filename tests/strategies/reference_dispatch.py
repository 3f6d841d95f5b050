"""Reference oracle for the four dispatch strategies.

This is the solver dispatch that ``method=`` used to select:
``registry`` looks the instance's cell up in Tables 1-2 and runs the
paper's polynomial algorithm when the cell allows it, the heuristic
otherwise; ``auto`` always runs the polynomial algorithm; ``exact``
runs branch-and-bound; ``heuristic`` runs the greedy start plus hill
climbing (mode downgrading for energy).  Period and latency solves take
no thresholds here, exactly as before; energy solves require a period
bound.  The solvers get ``budget=None``, as the unbudgeted dispatch
passed them.

The library now runs this logic only in the bodies of the ``registry``,
``auto``, ``exact`` and ``heuristic`` strategies;
``tests/strategies/test_reference_dispatch.py`` asserts they return the
same answers and fail the same way.
"""

from typing import Optional

from repro import algorithms
from repro.algorithms import exact, heuristics
from repro.core.objectives import Thresholds
from repro.core.problem import ProblemInstance, Solution
from repro.core.types import Criterion, MappingRule
from repro.service import dispatch_strategy


def _greedy_start(problem: ProblemInstance) -> Solution:
    if problem.rule is MappingRule.ONE_TO_ONE:
        return heuristics.greedy_one_to_one_period(problem)
    return heuristics.greedy_interval_period(problem, budget=None)


def reference_minimize(
    problem: ProblemInstance, criterion: Criterion, method: str
) -> Solution:
    """Period or latency minimization by ``auto``/``exact``/``heuristic``."""
    if method == "exact":
        return exact.exact_minimize(problem, criterion, budget=None)
    if method == "heuristic":
        start = _greedy_start(problem)
        return heuristics.hill_climb(problem, start.mapping, criterion, budget=None)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    one_to_one = problem.rule is MappingRule.ONE_TO_ONE
    if criterion is Criterion.PERIOD:
        if one_to_one:
            return algorithms.minimize_period_one_to_one(problem)
        return algorithms.minimize_period_interval(problem)
    if one_to_one:
        return algorithms.minimize_latency_one_to_one_fully_hom(problem)
    return algorithms.minimize_latency_interval(problem)


def reference_solve_energy(
    problem: ProblemInstance, method: str, thresholds: Thresholds
) -> Solution:
    """Energy minimization under a period bound, per the method."""
    if method == "exact":
        return exact.exact_minimize(
            problem, Criterion.ENERGY, thresholds, budget=None
        )
    if method == "heuristic":
        start = _greedy_start(problem)
        return heuristics.greedy_mode_downgrade(
            problem, start.mapping, thresholds, budget=None
        )
    if problem.rule is MappingRule.ONE_TO_ONE:
        return algorithms.minimize_energy_given_period_one_to_one(
            problem, thresholds
        )
    return algorithms.minimize_energy_given_period_interval(problem, thresholds)


def reference_dispatch(
    problem: ProblemInstance,
    objective: str,
    method: str,
    thresholds: Optional[Thresholds] = None,
) -> Solution:
    """Solve one instance the way the method dispatch did; raises the
    solver's own exception on failure."""
    if method == "registry":
        method = dispatch_strategy(problem, objective)
    if objective == "energy":
        if thresholds is None or not thresholds.constrains(Criterion.PERIOD):
            raise ValueError(
                "the energy objective requires a period threshold "
                "(the paper's 'server problem', Theorems 18-21)"
            )
        return reference_solve_energy(problem, method, thresholds)
    return reference_minimize(problem, Criterion(objective), method)
