"""Simulated annealing over the mapping neighborhood.

A randomized escape from the local optima of :func:`hill_climb`: classical
Metropolis acceptance with geometric cooling over the same move set
(:func:`repro.kernel.generate_neighborhood`).  Fully deterministic given
the seed.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ...core.mapping import Mapping
from ...core.objectives import Thresholds
from ...core.problem import ProblemInstance, Solution
from ...core.types import Criterion
from ...kernel import generate_neighborhood
from ...obs.spans import collect as _collect_spans
from ...obs.spans import track as _track
from .local_search import score_values


def anneal(
    problem: ProblemInstance,
    start: Mapping,
    criterion: Criterion,
    thresholds: Thresholds = Thresholds(),
    *,
    seed: int = 0,
    n_iterations: int = 2000,
    initial_temperature: Optional[float] = None,
    cooling: float = 0.995,
    context=None,
    budget=None,
) -> Solution:
    """Simulated annealing from ``start``.

    Each proposal is drawn from the array-native neighborhood
    (:func:`repro.kernel.generate_neighborhood`): the candidate set
    exists only as stacked column arrays, the sampled candidate is
    scored through a one-candidate
    :meth:`~repro.kernel.EvaluationContext.evaluate_many` slice, and a
    ``Mapping`` is materialized only on acceptance.

    Parameters
    ----------
    seed:
        RNG seed (``numpy.random.default_rng``); results are reproducible.
    n_iterations:
        Number of proposed moves.
    initial_temperature:
        Defaults to 10% of the starting score (a mild, scale-aware choice).
    cooling:
        Geometric cooling factor applied per iteration.
    context:
        Optional prebuilt :class:`repro.kernel.EvaluationContext` to share
        (defaults to the problem's cached one).
    budget:
        Optional cooperative budget meter (see
        :class:`repro.strategies.SolveBudget`) ticked once per proposed
        move (one proposal = one scored candidate = one evaluation); on
        exhaustion the best mapping found so far is returned.
    """
    ctx = problem.evaluation_context(context)
    rng = np.random.default_rng(seed)
    current = start
    current_values = ctx.evaluate(current)
    current_score = score_values(current_values, criterion, thresholds)
    best = current
    best_values = current_values
    best_score = current_score
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(1e-9, 0.1 * current_score)
    )
    n_accepted = 0
    exhausted = False
    with _collect_spans("solve.anneal"):
        for _ in range(n_iterations):
            if budget is not None and not budget.tick():
                exhausted = True
                break
            batch = generate_neighborhood(problem, current)
            if len(batch) == 0:
                break
            proposal = batch.single(int(rng.integers(len(batch))))
            values = ctx.evaluate_many(proposal).select(0)
            s = score_values(values, criterion, thresholds)
            delta = s - current_score
            if delta <= 0 or rng.random() < math.exp(
                -delta / max(temperature, 1e-12)
            ):
                with _track("solve.accept"):
                    current = proposal.materialize(0)
                    current_values = values
                    current_score = s
                n_accepted += 1
                if s < best_score:
                    best = current
                    best_values = values
                    best_score = s
            temperature *= cooling
    values = best_values
    objective = {
        Criterion.PERIOD: values.period,
        Criterion.LATENCY: values.latency,
        Criterion.ENERGY: values.energy,
    }[criterion]
    return Solution(
        mapping=best,
        objective=objective,
        values=values,
        solver="simulated-annealing",
        optimal=False,
        stats={
            "n_accepted": float(n_accepted),
            "final_temperature": temperature,
            "score": best_score,
            "budget_exhausted": float(exhausted),
        },
    )
