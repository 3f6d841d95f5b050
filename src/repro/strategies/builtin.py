"""The built-in strategy registry: every existing solve path, named.

Three groups:

* **dispatch strategies** (``registry``, ``auto``, ``exact``,
  ``heuristic``) — the default of every solve surface (``registry``
  follows Tables 1-2) and the three paths it chooses between.  Their
  names are also what the wire/YAML key ``method`` may spell
  (:meth:`repro.experiments.SolverSpec.from_dict`).
* **polynomial theorem solvers** (``period_one_to_one``,
  ``period_interval_dp``, ``latency_one_to_one``, ``latency_interval``,
  ``energy_matching``, ``energy_interval_dp``) — the paper's algorithms
  for the polynomial cells of Tables 1-2, each declaring the exact
  (objective, rule, platform-cell) domain the registry prescribes.
* **building blocks for the NP-hard cells** (``greedy``,
  ``local_search``, ``annealing``, ``mode_scaling``, ``brute_force``) —
  the atomic heuristics/exact searches that composite specs like
  ``portfolio(greedy,local_search,annealing)`` race under a budget.

All stochastic members draw from ``numpy.random.default_rng`` seeded by
the budget (:attr:`SolveBudget.seed <repro.strategies.SolveBudget.seed>`),
so identical budgets reproduce identical results.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.objectives import Thresholds
from ..core.problem import ProblemInstance, Solution
from ..core.types import Criterion, MappingRule
from .base import Capabilities
from .budget import BudgetMeter
from .registry import strategy

__all__ = ["DISPATCH_STRATEGIES", "dispatch_strategy", "require_period_bound"]

#: The Tables 1-2 dispatch (``registry``) and the three paths it chooses
#: between; also what the wire/YAML key ``method`` may spell.
DISPATCH_STRATEGIES = ("registry", "auto", "exact", "heuristic")

#: The platform cells (string values of
#: :class:`repro.algorithms.registry.PlatformCell`) where each theorem
#: solver is polynomial — mirrors Tables 1-2.
_UP_TO_COM_HOM: Tuple[str, ...] = ("proc-hom", "special-app", "proc-het com-hom")
_PROC_HOM: Tuple[str, ...] = ("proc-hom",)

#: Annealing iteration count when no budget bounds the run (the
#: historical default); a bounded budget lifts the cap and lets the
#: meter stop the loop instead.
_ANNEAL_DEFAULT_ITERATIONS = 2000
_ANNEAL_UNCAPPED_ITERATIONS = 1_000_000_000


def dispatch_strategy(problem: ProblemInstance, objective: str) -> str:
    """The strategy the complexity registry prescribes.

    Parameters
    ----------
    problem:
        The instance whose Table 1/2 cell is classified.
    objective:
        ``"period"``, ``"latency"`` or ``"energy"``.  The energy
        objective is period-constrained (Theorems 18-21), so its cell is
        looked up with both criteria.

    Returns
    -------
    str
        ``"auto"`` when the cell is polynomial for the given objective
        (the paper's algorithm applies), otherwise ``"heuristic"``.
    """
    from ..algorithms.registry import (
        Complexity,
        classify_platform_cell,
        lookup,
    )

    criteria: Tuple[Criterion, ...]
    if objective == "energy":
        criteria = (Criterion.PERIOD, Criterion.ENERGY)
    else:
        criteria = (Criterion(objective),)
    try:
        entry = lookup(criteria, problem.rule, classify_platform_cell(problem))
    except KeyError:
        return "heuristic"
    if entry.complexity is Complexity.POLYNOMIAL and entry.solver:
        return "auto"
    return "heuristic"


def require_period_bound(objective: str, thresholds: Optional[Thresholds]) -> None:
    """Energy is only meaningful under a period bound (the paper's
    'server problem'); the dispatch strategies refuse it otherwise."""
    if objective == "energy" and (
        thresholds is None or not thresholds.constrains(Criterion.PERIOD)
    ):
        raise ValueError(
            "the energy objective requires a period threshold "
            "(the paper's 'server problem', Theorems 18-21)"
        )


def _greedy_start(
    problem: ProblemInstance, meter: Optional[BudgetMeter] = None
) -> Solution:
    """The constructive greedy used as the common metaheuristic start."""
    from .. import algorithms

    if problem.rule is MappingRule.ONE_TO_ONE:
        return algorithms.heuristics.greedy_one_to_one_period(problem)
    return algorithms.heuristics.greedy_interval_period(problem, budget=meter)


def _with_objective(solution: Solution, objective: str) -> Solution:
    """Re-key a solution on the requested objective value."""
    value = getattr(solution.values, objective)
    if value == solution.objective:
        return solution
    from dataclasses import replace

    return replace(solution, objective=value)


# ----------------------------------------------------------------------
# Dispatch strategies.  Period and latency solves ignore thresholds
# here (only energy takes its period bound).


@strategy(
    "registry",
    capabilities=Capabilities(kind="dispatch"),
    summary="Tables 1-2 dispatch: polynomial solver when the cell allows, "
    "heuristic otherwise",
)
def _registry(problem, objective, thresholds, meter):
    solve = _auto if dispatch_strategy(problem, objective) == "auto" else _heuristic
    return solve(problem, objective, thresholds, meter)


@strategy(
    "auto",
    capabilities=Capabilities(kind="polynomial"),
    summary="the paper's polynomial algorithm for the instance's cell "
    "(errors outside the polynomial cells)",
)
def _auto(problem, objective, thresholds, meter):
    require_period_bound(objective, thresholds)
    one_to_one = problem.rule is MappingRule.ONE_TO_ONE
    solve = {
        "period": _period_one_to_one if one_to_one else _period_interval_dp,
        "latency": _latency_one_to_one if one_to_one else _latency_interval,
        "energy": _energy_matching if one_to_one else _energy_interval_dp,
    }[objective]
    return solve(problem, objective, thresholds, meter)


@strategy(
    "exact",
    capabilities=Capabilities(kind="exact"),
    summary="branch-and-bound with monotone pruning; optimal, "
    "budget-interruptible",
)
def _exact(problem, objective, thresholds, meter):
    from ..algorithms.exact import exact_minimize

    require_period_bound(objective, thresholds)
    return exact_minimize(
        problem,
        Criterion(objective),
        thresholds if objective == "energy" else Thresholds(),
        budget=meter,
    )


@strategy(
    "heuristic",
    capabilities=Capabilities(kind="heuristic"),
    summary="greedy start + hill climbing (mode downgrading for energy)",
)
def _heuristic(problem, objective, thresholds, meter):
    from .. import algorithms

    require_period_bound(objective, thresholds)
    if objective == "energy":
        return _mode_scaling(problem, objective, thresholds, meter)
    start = _greedy_start(problem, meter)
    return algorithms.heuristics.hill_climb(
        problem, start.mapping, Criterion(objective), budget=meter
    )


# ----------------------------------------------------------------------
# Polynomial theorem solvers.


@strategy(
    "period_one_to_one",
    capabilities=Capabilities(
        objectives=("period",),
        rules=(MappingRule.ONE_TO_ONE,),
        cells=_UP_TO_COM_HOM,
        kind="polynomial",
    ),
    summary="Theorem 1: binary search + greedy assignment",
)
def _period_one_to_one(problem, objective, thresholds, meter):
    from .. import algorithms

    return algorithms.minimize_period_one_to_one(problem)


@strategy(
    "period_interval_dp",
    capabilities=Capabilities(
        objectives=("period",),
        rules=(MappingRule.INTERVAL,),
        cells=_PROC_HOM,
        kind="polynomial",
    ),
    summary="Theorem 3: dynamic programming + greedy processor allocation",
)
def _period_interval_dp(problem, objective, thresholds, meter):
    from .. import algorithms

    return algorithms.minimize_period_interval(problem)


@strategy(
    "latency_one_to_one",
    capabilities=Capabilities(
        objectives=("latency",),
        rules=(MappingRule.ONE_TO_ONE,),
        cells=_PROC_HOM,
        kind="polynomial",
    ),
    summary="Theorem 8: fully homogeneous one-to-one latency",
)
def _latency_one_to_one(problem, objective, thresholds, meter):
    from .. import algorithms

    return algorithms.minimize_latency_one_to_one_fully_hom(problem)


@strategy(
    "latency_interval",
    capabilities=Capabilities(
        objectives=("latency",),
        rules=(MappingRule.INTERVAL,),
        cells=_UP_TO_COM_HOM,
        kind="polynomial",
    ),
    summary="Theorem 12: binary search + greedy assignment",
)
def _latency_interval(problem, objective, thresholds, meter):
    from .. import algorithms

    return algorithms.minimize_latency_interval(problem)


@strategy(
    "energy_matching",
    capabilities=Capabilities(
        objectives=("energy",),
        rules=(MappingRule.ONE_TO_ONE,),
        cells=_UP_TO_COM_HOM,
        needs_thresholds=True,
        kind="polynomial",
    ),
    summary="Theorem 19: minimum weighted bipartite matching under a "
    "period bound",
)
def _energy_matching(problem, objective, thresholds, meter):
    from .. import algorithms

    return algorithms.minimize_energy_given_period_one_to_one(
        problem, thresholds
    )


@strategy(
    "energy_interval_dp",
    capabilities=Capabilities(
        objectives=("energy",),
        rules=(MappingRule.INTERVAL,),
        cells=_PROC_HOM,
        needs_thresholds=True,
        kind="polynomial",
    ),
    summary="Theorems 18, 21: energy dynamic programming under a period bound",
)
def _energy_interval_dp(problem, objective, thresholds, meter):
    from .. import algorithms

    return algorithms.minimize_energy_given_period_interval(
        problem, thresholds
    )


# ----------------------------------------------------------------------
# Atomic NP-hard building blocks.


@strategy(
    "brute_force",
    capabilities=Capabilities(kind="exact"),
    summary="exhaustive enumeration (tiny instances only); the reference "
    "oracle",
)
def _brute_force(problem, objective, thresholds, meter):
    from ..algorithms.exact import brute_force_minimize

    return brute_force_minimize(
        problem,
        Criterion(objective),
        thresholds if thresholds is not None else Thresholds(),
        budget=meter,
    )


@strategy(
    "greedy",
    capabilities=Capabilities(objectives=("period", "latency"), kind="heuristic"),
    summary="constructive greedy only (split-the-bottleneck / "
    "list-scheduling), no local search",
)
def _greedy(problem, objective, thresholds, meter):
    return _with_objective(_greedy_start(problem, meter), objective)


@strategy(
    "local_search",
    capabilities=Capabilities(kind="heuristic"),
    summary="greedy start + best-improvement hill climbing over the "
    "mapping neighborhood",
)
def _local_search(problem, objective, thresholds, meter):
    from .. import algorithms

    start = _greedy_start(problem, meter)
    return algorithms.heuristics.hill_climb(
        problem,
        start.mapping,
        Criterion(objective),
        thresholds if thresholds is not None else Thresholds(),
        budget=meter,
    )


@strategy(
    "annealing",
    capabilities=Capabilities(kind="heuristic"),
    summary="greedy start + simulated annealing (Metropolis, geometric "
    "cooling), seeded by the budget",
)
def _annealing(problem, objective, thresholds, meter):
    from .. import algorithms

    start = _greedy_start(problem, meter)
    n_iterations = (
        _ANNEAL_DEFAULT_ITERATIONS
        if meter.budget.is_unlimited
        else _ANNEAL_UNCAPPED_ITERATIONS
    )
    return algorithms.heuristics.anneal(
        problem,
        start.mapping,
        Criterion(objective),
        thresholds if thresholds is not None else Thresholds(),
        seed=meter.seed if meter.seed is not None else 0,
        n_iterations=n_iterations,
        budget=meter,
    )


@strategy(
    "mode_scaling",
    capabilities=Capabilities(
        objectives=("energy",), needs_thresholds=True, kind="heuristic"
    ),
    summary="greedy period start + energy-greedy mode downgrading under "
    "the thresholds",
)
def _mode_scaling(problem, objective, thresholds, meter):
    from .. import algorithms

    start = _greedy_start(problem, meter)
    return algorithms.heuristics.greedy_mode_downgrade(
        problem, start.mapping, thresholds, budget=meter
    )
