"""Constructive greedy heuristics for heterogeneous platforms.

*Interval rule* (:func:`greedy_interval_period`): start with every
application whole on the fastest available processor, then repeatedly
split one interval in two, trying every interval, every cut point and
every free processor for the detached half, and keep the split that most
reduces the global period (ties broken by the sum of weighted
per-application periods).  Stops at a local optimum or when processors
run out.  ``O(p * n_max^2 * p)`` overall -- polynomial.  A round's
candidates are scored as one batch through the shared kernel
(:func:`repro.kernel.split_candidates` +
:meth:`~repro.kernel.EvaluationContext.evaluate_many`); a budget meter is
charged per round with ``reserve(n)``, one evaluation per candidate, so
an evaluation cap stops the greedy at exactly the candidate a
one-at-a-time scan would stop at.

*One-to-one rule* (:func:`greedy_one_to_one_period`): stages sorted by
decreasing weighted work are assigned one by one to the free processor
minimizing the stage's (estimated) cycle-time.  Communication times are
estimated with the incident links available at decision time.

Both return ``Solution(optimal=False)``: they are the polynomial arm of the
NP-hard benches, to be contrasted with :mod:`repro.algorithms.exact`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...core.exceptions import InfeasibleProblemError
from ...core.mapping import Assignment, Mapping
from ...core.problem import ProblemInstance, Solution
from ...core.types import IN_ENDPOINT, OUT_ENDPOINT
from ...kernel import split_candidates


def _initial_whole_app_mapping(problem: ProblemInstance) -> List[Assignment]:
    """Each application whole on the fastest still-free processor (fastest
    applications-by-load first, so heavy applications get fast processors)."""
    order = sorted(
        range(problem.n_apps),
        key=lambda a: -problem.apps[a].weight * problem.apps[a].total_work,
    )
    by_speed = list(problem.platform.fastest_processors(problem.platform.n_processors))
    assignments: List[Assignment] = []
    for rank, a in enumerate(order):
        u = by_speed[rank]
        assignments.append(
            Assignment(
                app=a,
                interval=(0, problem.apps[a].n_stages - 1),
                proc=u,
                speed=problem.platform.processor(u).max_speed,
            )
        )
    return assignments


def greedy_interval_period(
    problem: ProblemInstance, *, context=None, budget=None
) -> Solution:
    """Split-the-bottleneck greedy for interval-mapping period minimization
    on arbitrary platforms (all processors at full speed).

    Each round emits every split of the current mapping as one
    :class:`~repro.kernel.CandidateBatch`
    (:func:`~repro.kernel.split_candidates`), scores it with one
    :meth:`~repro.kernel.EvaluationContext.evaluate_many` call and
    materializes only the winner: the first candidate of least
    ``(period, sum_a W_a * T_a)`` rank, taken when it strictly beats the
    current mapping.  ``context`` optionally shares a prebuilt
    :class:`repro.kernel.EvaluationContext`.  ``budget`` optionally passes
    a cooperative budget meter (see :class:`repro.strategies.SolveBudget`)
    from which each round claims its candidates with ``reserve(n)``, one
    evaluation per scored split; a round the meter cuts short still takes
    the best split among its granted prefix, then the greedy stops
    (always with a valid whole-application mapping)."""
    if problem.n_apps > problem.platform.n_processors:
        raise InfeasibleProblemError(
            "need at least one processor per application"
        )
    ctx = problem.evaluation_context(context)
    mapping = Mapping.from_assignments(_initial_whole_app_mapping(problem))
    weights = [app.weight for app in problem.apps]
    values = ctx.evaluate(mapping)
    # Lexicographic score: the global weighted period first, then the sum
    # of weighted per-application periods (accumulated left to right in
    # application order).  The tie-breaker lets the greedy keep splitting
    # non-critical applications when several tie at the bottleneck
    # (otherwise partition-like instances stall the search immediately).
    total = 0.0
    for a, w in enumerate(weights):
        total += w * values.periods[a]
    best_rank = (values.period, total)
    n_rounds = 0
    exhausted = False
    while not exhausted:
        n_rounds += 1
        batch = split_candidates(problem, mapping)
        n_candidates = len(batch)
        if n_candidates == 0:
            break
        granted = (
            n_candidates if budget is None else budget.reserve(n_candidates)
        )
        if granted < n_candidates:
            exhausted = True
        if granted == 0:
            break
        scan = batch.truncate(granted)
        crit = ctx.evaluate_many(scan)
        totals = np.zeros(granted)
        for a, w in enumerate(weights):
            totals += w * crit.periods[:, a]
        ties = np.flatnonzero(crit.period == crit.period.min())
        winner = int(ties[np.argmin(totals[ties])])
        rank = (float(crit.period[winner]), float(totals[winner]))
        if not rank < best_rank:
            break
        mapping = scan.materialize(winner)
        values = crit.select(winner)
        best_rank = rank
    return Solution(
        mapping=mapping,
        objective=values.period,
        values=values,
        solver="greedy-split-bottleneck",
        optimal=False,
        stats={
            "n_rounds": float(n_rounds),
            "budget_exhausted": float(exhausted),
        },
    )


def greedy_one_to_one_period(
    problem: ProblemInstance, *, context=None
) -> Solution:
    """List-scheduling greedy for one-to-one period minimization on
    arbitrary platforms: heaviest stages first, each on the free processor
    minimizing its estimated weighted cycle-time.  ``context`` optionally
    shares a prebuilt :class:`repro.kernel.EvaluationContext` for the final
    evaluation."""
    apps = problem.apps
    platform = problem.platform
    N = problem.n_stages_total
    if N > platform.n_processors:
        raise InfeasibleProblemError(
            "one-to-one mapping requires p >= N "
            f"(p={platform.n_processors}, N={N})"
        )
    stages = [
        (a, k) for a, app in enumerate(apps) for k in range(app.n_stages)
    ]
    stages.sort(key=lambda s: -apps[s[0]].weight * apps[s[0]].stages[s[1]].work)
    placed: dict = {}
    free = set(range(platform.n_processors))

    def estimated_cycle(a: int, k: int, u: int) -> float:
        # Neighbour processors may not be placed yet; their links are then
        # estimated with the platform default bandwidth.
        app = apps[a]
        if k == 0:
            bw_in = platform.bandwidth(IN_ENDPOINT, u, a)
        elif (a, k - 1) in placed:
            bw_in = platform.bandwidth(placed[(a, k - 1)], u, a)
        else:
            bw_in = platform.default_bandwidth
        if k == app.n_stages - 1:
            bw_out = platform.bandwidth(u, OUT_ENDPOINT, a)
        elif (a, k + 1) in placed:
            bw_out = platform.bandwidth(u, placed[(a, k + 1)], a)
        else:
            bw_out = platform.default_bandwidth
        t_in = app.input_size(k) / bw_in
        t_out = app.output_size(k) / bw_out
        t_comp = app.stages[k].work / platform.processor(u).max_speed
        return app.weight * problem.model.combine(t_in, t_comp, t_out)

    for a, k in stages:
        u_best = min(free, key=lambda u: (estimated_cycle(a, k, u), u))
        placed[(a, k)] = u_best
        free.remove(u_best)
    mapping = Mapping.from_assignments(
        Assignment(
            app=a,
            interval=(k, k),
            proc=u,
            speed=platform.processor(u).max_speed,
        )
        for (a, k), u in placed.items()
    )
    values = problem.evaluation_context(context).evaluate(mapping)
    return Solution(
        mapping=mapping,
        objective=values.period,
        values=values,
        solver="greedy-one-to-one",
        optimal=False,
    )
