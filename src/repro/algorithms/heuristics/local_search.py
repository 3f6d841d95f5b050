"""Local search over mappings: neighborhood and hill climbing.

The neighborhood of a valid mapping contains every valid mapping obtained by
one elementary move:

* ``mode``: change the speed of one enrolled processor to an adjacent mode;
* ``swap``: exchange the processors (with their speeds re-clamped to the
  fastest mode of the new host when the old speed is unavailable) of two
  assignments;
* ``move``: relocate one assignment to a free processor;
* ``shift``: move one stage across the boundary of two adjacent intervals
  of the same application;
* ``split``: cut one interval in two, enrolling a free processor;
* ``merge``: fuse two adjacent intervals of the same application onto the
  first one's processor, releasing the second processor.

``split``/``merge``/``shift`` are disabled under the one-to-one rule.

:func:`hill_climb` minimizes a criterion subject to thresholds with
best-improvement descent over this neighborhood; infeasible neighbors are
scored with a large penalty per violated threshold so the search can walk
back into the feasible region.

Each descent step generates the whole neighborhood as stacked column
arrays (:func:`repro.kernel.generate_neighborhood`), scores it in one
vectorized kernel call
(:meth:`~repro.kernel.EvaluationContext.evaluate_many` +
:func:`score_many`) and materializes only the accepted candidate.  The
tests keep a one-``Mapping``-at-a-time form of the same search as the
oracle it must match byte for byte, unbudgeted or under an evaluation
cap.  A wall-clock ``time_limit`` is checked once per neighborhood
batch, so a deadline hit mid-scan still lets that scan finish.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ...core.mapping import Mapping
from ...core.objectives import Thresholds
from ...core.problem import ProblemInstance, Solution
from ...core.types import Criterion
from ...kernel import generate_neighborhood
from ...obs.spans import collect as _collect_spans
from ...obs.spans import track as _track

#: Penalty factor applied per unit of relative threshold violation.
_PENALTY = 1e9


def neighbors(
    problem: ProblemInstance, mapping: Mapping
) -> Iterator[Mapping]:
    """Yield all neighbors of a valid mapping (all of them valid), one
    materialized :func:`~repro.kernel.generate_neighborhood` candidate
    at a time, in the batch's order."""
    batch = generate_neighborhood(problem, mapping)
    for i in range(len(batch)):
        yield batch.materialize(i)


def score(
    problem: ProblemInstance,
    mapping: Mapping,
    criterion: Criterion,
    thresholds: Thresholds,
    *,
    context=None,
) -> float:
    """Penalized objective: criterion value plus a large penalty per unit of
    relative threshold violation (0 violation = plain objective).

    ``context`` optionally shares a prebuilt
    :class:`repro.kernel.EvaluationContext` (defaults to the problem's
    cached one)."""
    values = problem.evaluation_context(context).evaluate(mapping)
    return score_values(values, criterion, thresholds)


def score_values(
    values,
    criterion: Criterion,
    thresholds: Thresholds,
) -> float:
    """The penalized objective of already-computed
    :class:`~repro.core.evaluation.CriteriaValues` -- the form used on the
    hot path together with incremental
    :meth:`~repro.kernel.EvaluationContext.delta_evaluate`."""
    objective = {
        Criterion.PERIOD: values.period,
        Criterion.LATENCY: values.latency,
        Criterion.ENERGY: values.energy,
    }[criterion]
    penalty = 0.0
    for value, bound in (
        (values.period, thresholds.period),
        (values.latency, thresholds.latency),
        (values.energy, thresholds.energy),
    ):
        if bound is not None and value > bound:
            penalty += _PENALTY * (value / bound - 1.0) + _PENALTY
    if thresholds.per_app_period is not None:
        for a, t in values.periods.items():
            bound = thresholds.per_app_period[a]
            if t > bound:
                penalty += _PENALTY * (t / bound - 1.0) + _PENALTY
    if thresholds.per_app_latency is not None:
        for a, l in values.latencies.items():
            bound = thresholds.per_app_latency[a]
            if l > bound:
                penalty += _PENALTY * (l / bound - 1.0) + _PENALTY
    return objective + penalty


def score_many(
    values,
    criterion: Criterion,
    thresholds: Thresholds,
) -> np.ndarray:
    """Vectorized :func:`score_values` over a whole candidate batch.

    Parameters
    ----------
    values:
        A :class:`~repro.kernel.BatchCriteria` (criteria vectors of
        ``N`` candidates).
    criterion:
        The optimized criterion.
    thresholds:
        Bounds on the other criteria.

    Returns
    -------
    numpy.ndarray
        Shape ``(N,)`` penalized scores; entry ``i`` is bit-identical to
        ``score_values(values.select(i), ...)`` (the penalty terms
        accumulate in the same order as the scalar loop).
    """
    objective = {
        Criterion.PERIOD: values.period,
        Criterion.LATENCY: values.latency,
        Criterion.ENERGY: values.energy,
    }[criterion]
    penalty = np.zeros(len(objective))
    for value, bound in (
        (values.period, thresholds.period),
        (values.latency, thresholds.latency),
        (values.energy, thresholds.energy),
    ):
        if bound is not None:
            mask = value > bound
            if mask.any():
                penalty[mask] = penalty[mask] + (
                    _PENALTY * (value[mask] / bound - 1.0) + _PENALTY
                )
    for table, bounds in (
        (values.periods, thresholds.per_app_period),
        (values.latencies, thresholds.per_app_latency),
    ):
        if bounds is None:
            continue
        for a in range(table.shape[1]):
            bound = bounds[a]
            column = table[:, a]
            mask = column > bound
            if mask.any():
                penalty[mask] = penalty[mask] + (
                    _PENALTY * (column[mask] / bound - 1.0) + _PENALTY
                )
    return objective + penalty


def _solution(
    mapping: Mapping,
    values,
    score: float,
    criterion: Criterion,
    n_steps: int,
    exhausted: bool,
) -> Solution:
    objective = {
        Criterion.PERIOD: values.period,
        Criterion.LATENCY: values.latency,
        Criterion.ENERGY: values.energy,
    }[criterion]
    return Solution(
        mapping=mapping,
        objective=objective,
        values=values,
        solver="hill-climb",
        optimal=False,
        stats={
            "n_steps": float(n_steps),
            "score": score,
            "budget_exhausted": float(exhausted),
        },
    )


def hill_climb(
    problem: ProblemInstance,
    start: Mapping,
    criterion: Criterion,
    thresholds: Thresholds = Thresholds(),
    *,
    max_iterations: int = 10_000,
    context=None,
    budget=None,
) -> Solution:
    """Best-improvement descent from ``start`` over :func:`neighbors`.

    Each step generates the whole neighborhood as stacked column arrays,
    scores it in one vectorized kernel call and materializes only the
    accepted candidate: the best-scoring one, ties going to the earliest
    (a candidate must beat the running best by more than 1e-15).

    ``context`` optionally shares a prebuilt
    :class:`repro.kernel.EvaluationContext`.  ``budget`` optionally passes
    a cooperative budget meter (see :class:`repro.strategies.SolveBudget`)
    charged one evaluation per scored neighbor -- a batch of ``N``
    candidates counts as ``N`` evaluations, truncated to the evaluations
    remaining under the cap; on exhaustion the best mapping found so far
    is returned.  Returns the local optimum reached (``optimal=False``).
    """
    with _collect_spans("solve.hill_climb"):
        ctx = problem.evaluation_context(context)
        current = start
        current_values = ctx.evaluate(current)
        current_score = score_values(current_values, criterion, thresholds)
        n_steps = 0
        exhausted = False
        for _ in range(max_iterations):
            batch = generate_neighborhood(problem, current)
            n_candidates = len(batch)
            granted = (
                n_candidates
                if budget is None
                else budget.reserve(n_candidates)
            )
            if granted < n_candidates:
                exhausted = True
            if granted == 0:
                break
            scan = batch.truncate(granted)
            values = ctx.evaluate_many(scan)
            scores = score_many(values, criterion, thresholds)
            # Sequential best-improvement over the score vector: the first
            # strict improvement by more than 1e-15 wins ties.
            with _track("solve.accept"):
                best_index: Optional[int] = None
                best_score = current_score
                for i, s in enumerate(scores.tolist()):
                    if s < best_score - 1e-15:
                        best_score = s
                        best_index = i
                if best_index is not None:
                    current = scan.materialize(best_index)
                    current_values = values.select(best_index)
                    current_score = best_score
            if best_index is None:
                break
            n_steps += 1
            if exhausted:
                break
        return _solution(
            current, current_values, current_score, criterion, n_steps, exhausted
        )
