"""Thresholds on the criteria a solve does not optimize must bind.

The dispatch strategies run period and latency solves without their
thresholds: asked for the minimum period under a latency bound ``L``
equal to the exact minimum latency, ``registry``, ``exact`` and
``heuristic`` return ``ok`` answers whose latency exceeds ``L``.  This
is the ROADMAP item "Answer the question that was asked: a threshold
reaches the solver, or the request is refused"; the test is a strict
xfail, so the change that mends it must flip it.
"""

import pytest

from repro.algorithms.exact import exact_minimize
from repro.core.exceptions import InfeasibleProblemError
from repro.core.objectives import Thresholds
from repro.core.types import Criterion, PlatformClass
from repro.generators import small_random_problem
from repro.service import solve_one


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP: 'Answer the question that was asked: a threshold "
    "reaches the solver, or the request is refused' (period and latency "
    "solves drop their thresholds)",
)
@pytest.mark.parametrize(
    "platform_class",
    [PlatformClass.FULLY_HOMOGENEOUS, PlatformClass.FULLY_HETEROGENEOUS],
    ids=lambda c: c.value,
)
@pytest.mark.parametrize("strategy", ["registry", "exact", "heuristic"])
def test_period_answers_meet_the_latency_bound(strategy, platform_class):
    broken = []
    for seed in range(10):
        problem = small_random_problem(seed, platform_class=platform_class)
        bound = exact_minimize(problem, Criterion.LATENCY).objective
        try:
            solution = solve_one(
                problem,
                "period",
                strategy=strategy,
                thresholds=Thresholds(latency=bound),
            )
        except InfeasibleProblemError:
            continue  # a refusal keeps the bound
        if solution.values.latency > bound * (1 + 1e-9):
            broken.append(seed)
    assert broken == []
