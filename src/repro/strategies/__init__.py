"""Pluggable solver strategies: named pipelines, budgets, telemetry.

Tables 1-2 prescribe one algorithm per complexity cell; everything else
is a *choice* — greedy vs local search vs annealing vs exact, alone or
raced.  This package makes those choices first-class:

* :class:`SolverStrategy` — a named, introspectable solve pipeline with
  declared :class:`Capabilities`;
* the decorator-based registry (:func:`strategy`, :func:`get_strategy`,
  :func:`list_strategies`) holding every built-in path, from the
  Tables 1-2 dispatch (``registry``, the default) to the per-theorem
  polynomial solvers
  (:mod:`repro.strategies.builtin`);
* :class:`SolveBudget` / :class:`BudgetMeter` — per-solve wall-clock
  deadlines, evaluation caps and RNG seeds, enforced cooperatively
  inside the heuristic and exact loops;
* composites — :func:`portfolio` races members and keeps the best
  feasible solution, :func:`fallback` chains them; both nest and both
  parse from spec strings (:func:`parse_strategy`);
* :class:`SolveTelemetry` — the structured per-solve record the batch
  service emits, the campaign cache persists and the analysis layer
  aggregates.

Quickstart::

    from repro.strategies import SolveBudget, parse_strategy

    racer = parse_strategy("portfolio(greedy,local_search,annealing)")
    result = racer.run(
        problem, "period",
        budget=SolveBudget(time_limit=0.5, seed=7),
    )
    print(result.solution.objective)
    for member in result.telemetry.members:
        print(member.strategy, member.status, member.evaluations)

The same specs work end-to-end: ``solve_batch(problems,
strategy="portfolio(greedy,annealing)")``, campaign solver entries
(``strategy:`` / ``budget:`` keys) and the CLI
(``repro-pipelines strategies list``, ``solve-batch --strategy``).
"""

from . import builtin  # noqa: F401  (imports register the built-ins)
from .base import (
    Capabilities,
    FunctionStrategy,
    SolverStrategy,
    StrategyError,
    StrategyResult,
)
from .budget import BudgetMeter, SolveBudget
from .builtin import dispatch_strategy
from .composite import (
    FallbackStrategy,
    PortfolioStrategy,
    fallback,
    parse_strategy,
    portfolio,
)
from .registry import (
    get_strategy,
    list_strategies,
    register,
    strategy,
    strategy_names,
)
from .telemetry import SolveTelemetry

__all__ = [
    "BudgetMeter",
    "Capabilities",
    "FallbackStrategy",
    "FunctionStrategy",
    "PortfolioStrategy",
    "SolveBudget",
    "SolveTelemetry",
    "SolverStrategy",
    "StrategyError",
    "StrategyResult",
    "dispatch_strategy",
    "fallback",
    "get_strategy",
    "list_strategies",
    "parse_strategy",
    "portfolio",
    "register",
    "strategy",
    "strategy_names",
]
