"""Reference oracles for the local search: neighborhood, hill climb, annealing.

These are the one-candidate-at-a-time forms of the library's batched
search.  :func:`reference_neighbors` builds one
:class:`~repro.core.mapping.Mapping` per neighbor;
:func:`reference_hill_climb` scores each neighbor with
:meth:`~repro.kernel.EvaluationContext.delta_evaluate` and ticks the
budget once per scored neighbor; :func:`reference_anneal` materializes the
whole neighborhood per proposal.  The library generates each
neighborhood as one :class:`~repro.kernel.CandidateBatch`
(:func:`repro.kernel.generate_neighborhood`), scores it with one
``evaluate_many`` and materializes only the accepted candidate.  The
property tests assert both forms return the same solutions and leave the
budget meter in the same state; the perf guard times one against the
other.
"""

import math
from typing import Iterator, Optional

import numpy as np

from repro.algorithms.heuristics.local_search import _solution, score_values
from repro.core.mapping import Assignment, Mapping
from repro.core.objectives import Thresholds
from repro.core.problem import ProblemInstance, Solution
from repro.core.types import Criterion, MappingRule
from repro.kernel.neighborhood import clamp_speed


def reference_neighbors(
    problem: ProblemInstance, mapping: Mapping
) -> Iterator[Mapping]:
    """Yield all neighbors of a valid mapping, one ``Mapping`` each, in
    the order of :func:`repro.kernel.generate_neighborhood`."""
    platform = problem.platform
    assignments = list(mapping.assignments)
    used = set(mapping.enrolled_processors)
    free = [u for u in range(platform.n_processors) if u not in used]

    def replaced(idx: int, *new: Assignment) -> Mapping:
        return Mapping.from_assignments(
            assignments[:idx] + list(new) + assignments[idx + 1 :]
        )

    # mode moves
    for idx, x in enumerate(assignments):
        speeds = platform.processor(x.proc).speeds
        pos = min(range(len(speeds)), key=lambda i: abs(speeds[i] - x.speed))
        for new_pos in (pos - 1, pos + 1):
            if 0 <= new_pos < len(speeds):
                yield replaced(
                    idx,
                    Assignment(x.app, x.interval, x.proc, speeds[new_pos]),
                )

    # swap moves
    for i in range(len(assignments)):
        for j in range(i + 1, len(assignments)):
            a, b = assignments[i], assignments[j]
            rest = [x for k, x in enumerate(assignments) if k not in (i, j)]
            yield Mapping.from_assignments(
                rest
                + [
                    Assignment(
                        a.app,
                        a.interval,
                        b.proc,
                        clamp_speed(platform, b.proc, a.speed),
                    ),
                    Assignment(
                        b.app,
                        b.interval,
                        a.proc,
                        clamp_speed(platform, a.proc, b.speed),
                    ),
                ]
            )

    # move-to-free moves
    for idx, x in enumerate(assignments):
        for u in free:
            yield replaced(
                idx,
                Assignment(
                    x.app, x.interval, u, clamp_speed(platform, u, x.speed)
                ),
            )

    if problem.rule is not MappingRule.INTERVAL:
        return

    # shift / merge moves over adjacent interval pairs
    for a_idx in mapping.applications:
        parts = mapping.for_app(a_idx)
        for j in range(len(parts) - 1):
            left, right = parts[j], parts[j + 1]
            rest = [x for x in assignments if x not in (left, right)]
            l_lo, l_hi = left.interval
            r_lo, r_hi = right.interval
            if l_lo < l_hi:  # give left's last stage to right
                yield Mapping.from_assignments(
                    rest
                    + [
                        Assignment(
                            a_idx, (l_lo, l_hi - 1), left.proc, left.speed
                        ),
                        Assignment(
                            a_idx, (l_hi, r_hi), right.proc, right.speed
                        ),
                    ]
                )
            if r_lo < r_hi:  # give right's first stage to left
                yield Mapping.from_assignments(
                    rest
                    + [
                        Assignment(a_idx, (l_lo, r_lo), left.proc, left.speed),
                        Assignment(
                            a_idx, (r_lo + 1, r_hi), right.proc, right.speed
                        ),
                    ]
                )
            # merge onto the left processor
            yield Mapping.from_assignments(
                rest + [Assignment(a_idx, (l_lo, r_hi), left.proc, left.speed)]
            )

    # split moves
    for idx, x in enumerate(assignments):
        lo, hi = x.interval
        if lo == hi or not free:
            continue
        rest = assignments[:idx] + assignments[idx + 1 :]
        for cut in range(lo, hi):
            for u in free:
                yield Mapping.from_assignments(
                    rest
                    + [
                        Assignment(x.app, (lo, cut), x.proc, x.speed),
                        Assignment(
                            x.app,
                            (cut + 1, hi),
                            u,
                            platform.processor(u).max_speed,
                        ),
                    ]
                )


def reference_hill_climb(
    problem: ProblemInstance,
    start: Mapping,
    criterion: Criterion,
    thresholds: Thresholds = Thresholds(),
    *,
    max_iterations: int = 10_000,
    context=None,
    budget=None,
) -> Solution:
    """Best-improvement descent, one scored ``Mapping`` per neighbor and
    one ``budget.tick()`` per scored neighbor; on exhaustion the best
    neighbor found so far in the scan is still taken."""
    ctx = problem.evaluation_context(context)
    current = start
    current_values = ctx.evaluate(current)
    current_score = score_values(current_values, criterion, thresholds)
    n_steps = 0
    exhausted = False
    for _ in range(max_iterations):
        best_neighbor: Optional[Mapping] = None
        best_values = None
        best_score = current_score
        for candidate in reference_neighbors(problem, current):
            if budget is not None and not budget.tick():
                exhausted = True
                break
            values = ctx.delta_evaluate(candidate, current, current_values)
            s = score_values(values, criterion, thresholds)
            if s < best_score - 1e-15:
                best_score = s
                best_neighbor = candidate
                best_values = values
        if best_neighbor is None:
            break
        current = best_neighbor
        current_values = best_values
        current_score = best_score
        n_steps += 1
        if exhausted:
            break
    return _solution(
        current, current_values, current_score, criterion, n_steps, exhausted
    )


def reference_anneal(
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
    """Simulated annealing that materializes the whole neighborhood per
    proposal and scores the sampled neighbor with ``delta_evaluate``;
    one ``budget.tick()`` per proposal."""
    ctx = problem.evaluation_context(context)
    rng = np.random.default_rng(seed)
    current = start
    current_values = ctx.evaluate(current)
    current_score = score_values(current_values, criterion, thresholds)
    best, best_values, best_score = current, current_values, current_score
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(1e-9, 0.1 * current_score)
    )
    n_accepted = 0
    exhausted = False
    for _ in range(n_iterations):
        if budget is not None and not budget.tick():
            exhausted = True
            break
        options = list(reference_neighbors(problem, current))
        if not options:
            break
        candidate = options[int(rng.integers(len(options)))]
        values = ctx.delta_evaluate(candidate, current, current_values)
        s = score_values(values, criterion, thresholds)
        delta = s - current_score
        if delta <= 0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-12)
        ):
            current, current_values, current_score = candidate, values, s
            n_accepted += 1
            if s < best_score:
                best, best_values, best_score = candidate, values, s
        temperature *= cooling
    objective = {
        Criterion.PERIOD: best_values.period,
        Criterion.LATENCY: best_values.latency,
        Criterion.ENERGY: best_values.energy,
    }[criterion]
    return Solution(
        mapping=best,
        objective=objective,
        values=best_values,
        solver="simulated-annealing",
        optimal=False,
        stats={
            "n_accepted": float(n_accepted),
            "final_temperature": temperature,
            "score": best_score,
            "budget_exhausted": float(exhausted),
        },
    )
