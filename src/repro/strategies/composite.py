"""Composite strategies and the strategy-spec mini-language.

Two combinators turn atomic strategies into pipelines:

* :func:`portfolio` — *race* its members on the same instance and keep
  the best-objective feasible solution.  The budget is split across
  members (member ``i`` of ``n`` gets ``remaining / (n - i)`` of the
  wall-clock and evaluation budget, so early finishers donate their
  leftovers to later members).  Members run one after the other in the
  calling process; parallelism lives one level up, in the pool that runs
  many solves at once (:func:`repro.service.solve_batch`).
* :func:`fallback` — *chain* its members: each gets the full remaining
  budget, and the first feasible solution wins.

Both are expressible as spec strings — ``portfolio(greedy,annealing)``,
``fallback(auto,portfolio(local_search,annealing))`` — accepted
everywhere a strategy name is: :func:`repro.service.solve_one` /
``solve_batch``, campaign solver entries and the CLI.
:func:`parse_strategy` is the single parser behind them all.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

from ..core.objectives import Thresholds
from ..core.problem import ProblemInstance, Solution
from .base import (
    Capabilities,
    OBJECTIVES,
    SolverStrategy,
    StrategyError,
    StrategyResult,
)
from .budget import BudgetMeter, SolveBudget
from .registry import get_strategy
from .telemetry import SolveTelemetry

__all__ = [
    "FallbackStrategy",
    "PortfolioStrategy",
    "fallback",
    "parse_strategy",
    "portfolio",
]

#: Tolerance applied when checking a candidate solution against thresholds.
_FEASIBILITY_RTOL = 1e-9


def _is_feasible(solution: Solution, thresholds: Optional[Thresholds]) -> bool:
    """Whether a returned solution actually satisfies the thresholds
    (heuristics may return their penalized best even when it violates)."""
    if thresholds is None:
        return True
    values = solution.values
    if not values.meets(
        period=thresholds.period,
        latency=thresholds.latency,
        energy=thresholds.energy,
        rtol=_FEASIBILITY_RTOL,
    ):
        return False
    if thresholds.per_app_period is not None and any(
        values.periods[a] > thresholds.per_app_period[a] * (1 + _FEASIBILITY_RTOL)
        for a in values.periods
    ):
        return False
    if thresholds.per_app_latency is not None and any(
        values.latencies[a] > thresholds.per_app_latency[a] * (1 + _FEASIBILITY_RTOL)
        for a in values.latencies
    ):
        return False
    return True


def _union_capabilities(members: Sequence[SolverStrategy]) -> Capabilities:
    """A composite supports whatever some member supports; capability
    misses of individual members are contained per-member at run time."""
    objectives = tuple(
        o
        for o in OBJECTIVES
        if any(o in m.capabilities.objectives for m in members)
    )
    return Capabilities(
        objectives=objectives,
        rules=None,
        cells=None,
        needs_thresholds=all(m.capabilities.needs_thresholds for m in members),
        deterministic=all(m.capabilities.deterministic for m in members),
        kind="composite",
    )


def _member_budget(
    meter: BudgetMeter, share: int, seed_offset: int
) -> SolveBudget:
    """The budget slice for the next member: an equal share of whatever
    remains (``share`` = number of members still to run).

    ``seed_offset`` diversifies *duplicate* members: distinct algorithms
    keep the base seed (so a member's stochastic trajectory is a
    budget-prefix of its standalone run), while the k-th copy of the
    same member draws from ``seed + k``.
    """
    t_rem = meter.remaining_time()
    e_rem = meter.remaining_evaluations()
    return SolveBudget(
        time_limit=None if t_rem is None else max(t_rem / share, 1e-6),
        max_evaluations=None if e_rem is None else max(e_rem // share, 1),
        seed=None if meter.seed is None else meter.seed + seed_offset,
    )


def _seed_offsets(members: Sequence[SolverStrategy]) -> List[int]:
    """Per-member seed offsets: 0 for the first occurrence of each spec,
    1 for its second copy, and so on."""
    counts: dict = {}
    offsets = []
    for member in members:
        offsets.append(counts.get(member.spec, 0))
        counts[member.spec] = offsets[-1] + 1
    return offsets


class _CompositeStrategy(SolverStrategy):
    """Shared machinery of portfolio and fallback."""

    def __init__(self, members: Sequence[SolverStrategy]) -> None:
        if not members:
            raise StrategyError(f"{self.name}() needs at least one member")
        self.members: Tuple[SolverStrategy, ...] = tuple(members)
        self.capabilities = _union_capabilities(self.members)

    @property
    def spec(self) -> str:
        return f"{self.name}({','.join(m.spec for m in self.members)})"

    def solve(self, problem, objective, thresholds, meter):
        # Composites orchestrate through run(); solve() exists for API
        # completeness (e.g. a composite used as a member's member).
        return self.run(
            problem, objective, thresholds, meter=meter
        ).raise_for_status()

    def _finish(
        self,
        t0: float,
        meter: BudgetMeter,
        evals0: int,
        results: List[StrategyResult],
        winner: Optional[StrategyResult],
    ) -> StrategyResult:
        members = tuple(r.telemetry for r in results)
        if winner is not None:
            status, error = "ok", None
        elif any(r.status == "infeasible" for r in results):
            status = "infeasible"
            error = next(
                r.telemetry.error
                for r in results
                if r.status == "infeasible"
            )
        else:
            status = "error"
            error = "; ".join(
                f"{r.telemetry.strategy}: {r.telemetry.error}" for r in results
            ) or f"{self.name}: no member produced a solution"
        solution = None if winner is None else winner.solution
        return StrategyResult(
            solution=solution,
            telemetry=SolveTelemetry(
                strategy=self.spec,
                status=status,
                wall_time=time.perf_counter() - t0,
                evaluations=meter.n_evaluations - evals0,
                budget_exhausted=meter.exhausted,
                objective=None if solution is None else solution.objective,
                error=error,
                members=members,
                values=(
                    None
                    if solution is None
                    else (
                        solution.values.period,
                        solution.values.latency,
                        solution.values.energy,
                    )
                ),
            ),
        )


class PortfolioStrategy(_CompositeStrategy):
    """Race members on the same instance; keep the best feasible one.

    Members run one after the other, each on an equal share of the
    remaining budget (see :func:`_member_budget`).
    """

    name = "portfolio"
    summary = "race members, keep the best-objective feasible solution"

    def run(
        self,
        problem: ProblemInstance,
        objective: str = "period",
        thresholds: Optional[Thresholds] = None,
        budget: Optional[SolveBudget] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> StrategyResult:
        if meter is None:
            meter = BudgetMeter(budget)
        t0 = time.perf_counter()
        evals0 = meter.n_evaluations
        n = len(self.members)
        offsets = _seed_offsets(self.members)
        results: List[StrategyResult] = []
        for i, member in enumerate(self.members):
            if meter.exhausted:
                break  # a member overran its slice; stop launching
            results.append(
                member.run(
                    problem,
                    objective,
                    thresholds,
                    budget=_member_budget(meter, n - i, offsets[i]),
                )
            )
            meter.charge(results[-1].telemetry.evaluations)
        winner: Optional[StrategyResult] = None
        for res in results:
            if res.solution is None or not _is_feasible(
                res.solution, thresholds
            ):
                continue
            if winner is None or res.solution.objective < winner.solution.objective:
                winner = res
        return self._finish(t0, meter, evals0, results, winner)


class FallbackStrategy(_CompositeStrategy):
    """Chain members: the first feasible solution wins.

    Each member gets the full remaining budget; later members only run
    when every earlier one failed (errored, proved infeasible, or
    returned a threshold-violating solution).
    """

    name = "fallback"
    summary = "try members in order, first feasible solution wins"

    def run(
        self,
        problem: ProblemInstance,
        objective: str = "period",
        thresholds: Optional[Thresholds] = None,
        budget: Optional[SolveBudget] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> StrategyResult:
        if meter is None:
            meter = BudgetMeter(budget)
        t0 = time.perf_counter()
        evals0 = meter.n_evaluations
        results: List[StrategyResult] = []
        winner: Optional[StrategyResult] = None
        offsets = _seed_offsets(self.members)
        for i, member in enumerate(self.members):
            res = member.run(
                problem,
                objective,
                thresholds,
                budget=_member_budget(meter, 1, offsets[i]),
            )
            meter.charge(res.telemetry.evaluations)
            results.append(res)
            if res.solution is not None and _is_feasible(
                res.solution, thresholds
            ):
                winner = res
                break
            if meter.exhausted:
                break
        return self._finish(t0, meter, evals0, results, winner)


def portfolio(*members: Union[str, SolverStrategy]) -> PortfolioStrategy:
    """Build a :class:`PortfolioStrategy` from names or instances."""
    return PortfolioStrategy([parse_strategy(m) for m in members])


def fallback(*members: Union[str, SolverStrategy]) -> FallbackStrategy:
    """Build a :class:`FallbackStrategy` from names or instances."""
    return FallbackStrategy([parse_strategy(m) for m in members])


# ----------------------------------------------------------------------
# Spec parsing: NAME | ('portfolio'|'fallback') '(' spec (',' spec)* ')'
_COMPOSITES = {"portfolio": PortfolioStrategy, "fallback": FallbackStrategy}


def parse_strategy(spec: Union[str, SolverStrategy]) -> SolverStrategy:
    """Resolve a strategy spec into a strategy instance.

    Parameters
    ----------
    spec:
        A :class:`SolverStrategy` (returned as-is), a registered name
        (``"annealing"``) or a composite expression with arbitrary
        nesting (``"fallback(auto,portfolio(greedy,annealing))"``).
        Whitespace around names and commas is ignored.

    Raises
    ------
    StrategyError
        On an unknown name or a malformed expression; the message
        points at the offending position.
    """
    if isinstance(spec, SolverStrategy):
        return spec
    if not isinstance(spec, str):
        raise StrategyError(
            f"strategy spec must be a name, a spec string or a "
            f"SolverStrategy, got {type(spec).__name__}"
        )
    strategy, pos = _parse_expr(spec, 0)
    pos = _skip_ws(spec, pos)
    if pos != len(spec):
        raise StrategyError(
            f"trailing characters at position {pos} in strategy spec {spec!r}"
        )
    return strategy


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_expr(text: str, pos: int) -> Tuple[SolverStrategy, int]:
    pos = _skip_ws(text, pos)
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
        pos += 1
    name = text[start:pos]
    if not name:
        raise StrategyError(
            f"expected a strategy name at position {start} in {text!r}"
        )
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "(":
        if name not in _COMPOSITES:
            raise StrategyError(
                f"{name!r} is not a composite; only "
                f"{sorted(_COMPOSITES)} take members (in {text!r})"
            )
        members: List[SolverStrategy] = []
        pos += 1
        while True:
            member, pos = _parse_expr(text, pos)
            members.append(member)
            pos = _skip_ws(text, pos)
            if pos >= len(text):
                raise StrategyError(f"unclosed '(' in strategy spec {text!r}")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                return _COMPOSITES[name](members), pos + 1
            raise StrategyError(
                f"expected ',' or ')' at position {pos} in {text!r}"
            )
    return get_strategy(name), pos
