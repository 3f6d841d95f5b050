"""Reference oracle for the split-the-bottleneck greedy.

:func:`reference_greedy_interval_period` is the one-candidate-at-a-time
form of :func:`repro.algorithms.heuristics.greedy_interval_period`: each
round materializes one :class:`~repro.core.mapping.Mapping` per
(victim, cut, free processor), scores it with
:meth:`~repro.kernel.EvaluationContext.delta_evaluate` and ticks the
budget once per candidate.  The library's greedy scores each round as
one batch; the property tests assert both return the same solution and
leave the budget meter in the same state, and the perf guard times one
against the other.
"""

from typing import Optional, Tuple

from repro.algorithms.heuristics.greedy_interval import (
    _initial_whole_app_mapping,
)
from repro.core.exceptions import InfeasibleProblemError
from repro.core.mapping import Assignment, Mapping
from repro.core.problem import ProblemInstance, Solution


def reference_greedy_interval_period(
    problem: ProblemInstance, *, context=None, budget=None
) -> Solution:
    """Split-the-bottleneck greedy, one scored ``Mapping`` per candidate
    split and one ``budget.tick()`` per scored split; on exhaustion the
    best split found so far in the round is still taken."""
    if problem.n_apps > problem.platform.n_processors:
        raise InfeasibleProblemError(
            "need at least one processor per application"
        )
    ctx = problem.evaluation_context(context)
    assignments = _initial_whole_app_mapping(problem)
    mapping = Mapping.from_assignments(assignments)

    def rank(values) -> Tuple[float, float]:
        # Lexicographic score: the global weighted period first, then the
        # sum of weighted per-application periods, accumulated left to
        # right in application order.
        total = 0.0
        for a, t in values.periods.items():
            total += problem.apps[a].weight * t
        return (values.period, total)

    best_values = ctx.evaluate(mapping)
    best_rank = rank(best_values)
    n_rounds = 0
    exhausted = False
    while not exhausted:
        n_rounds += 1
        used = set(mapping.enrolled_processors)
        free = [u for u in range(problem.platform.n_processors) if u not in used]
        if not free:
            break
        improved: Optional[Tuple[Tuple[float, float], Mapping, object]] = None
        # Candidate splits: every splittable assignment, every cut, every
        # free processor for the right half.
        for victim in mapping.assignments:
            if exhausted:
                break
            lo, hi = victim.interval
            if lo == hi:
                continue
            others = [x for x in mapping.assignments if x is not victim]
            for cut in range(lo, hi):
                if exhausted:
                    break
                for u in free:
                    if budget is not None and not budget.tick():
                        exhausted = True
                        break
                    speed = problem.platform.processor(u).max_speed
                    candidate = Mapping.from_assignments(
                        others
                        + [
                            Assignment(
                                app=victim.app,
                                interval=(lo, cut),
                                proc=victim.proc,
                                speed=victim.speed,
                            ),
                            Assignment(
                                app=victim.app,
                                interval=(cut + 1, hi),
                                proc=u,
                                speed=speed,
                            ),
                        ]
                    )
                    candidate_values = ctx.delta_evaluate(
                        candidate, mapping, best_values
                    )
                    candidate_rank = rank(candidate_values)
                    if candidate_rank < best_rank and (
                        improved is None or candidate_rank < improved[0]
                    ):
                        improved = (candidate_rank, candidate, candidate_values)
        if improved is None:
            break
        _, mapping, best_values = improved
        best_rank = rank(best_values)
    return Solution(
        mapping=mapping,
        objective=best_values.period,
        values=best_values,
        solver="greedy-split-bottleneck",
        optimal=False,
        stats={
            "n_rounds": float(n_rounds),
            "budget_exhausted": float(exhausted),
        },
    )
