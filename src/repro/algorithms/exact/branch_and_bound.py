"""Exact branch-and-bound solver for every cell of Tables 1 and 2.

Depth-first search placing one interval at a time, application by
application, stage by stage.  A search node extends the current partial
mapping with ``(interval end, processor, mode)``; children enumerate all
admissible extensions.  The three running criteria values (weighted period
lower bound, weighted latency lower bound, accumulated energy) are all
*monotone non-decreasing* along any root-to-leaf path, which yields sound
pruning rules:

* prune when any threshold is already exceeded;
* prune when the running value of the optimized criterion is already at
  least the incumbent.

Interval cycle-times are only fully known once the *next* interval's
processor is chosen (the outgoing bandwidth depends on it); the search
therefore keeps the last placed interval of the current application
*pending* and finalizes its cycle-time when the next processor (or the
virtual output processor) is known.  The pending interval contributes a
partial cycle-time (without its outgoing communication), which is a valid
lower bound under both communication models.

When energy is involved (as criterion or threshold) all processor modes are
enumerated; otherwise every processor is pinned to its fastest mode, as
pure-performance optimality permits.

Every node reads plain-Python lookup tables built once per problem
(:meth:`repro.kernel.EvaluationContext.search_tables`): bandwidths,
``(speed, energy)`` modes, prefix-sum works and data sizes are list
indexing, cycle-times are combined inline and thresholds are compared
against precomputed ceilings.  The partial mapping is a trail of plain
tuples; only the returned optimum becomes
:class:`~repro.core.mapping.Assignment` objects.

Exponential in the worst case -- this is the exact arm of the NP-hard
benches -- but the pruning makes it practical far beyond the brute-force
enumerator.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ...core.exceptions import InfeasibleProblemError, SolverError
from ...core.mapping import Assignment, Mapping
from ...core.objectives import Thresholds, threshold_ceiling
from ...core.problem import ProblemInstance, Solution
from ...core.types import CommunicationModel, Criterion, MappingRule


class _BudgetStop(Exception):
    """Internal signal: the cooperative budget ran out mid-search."""


def exact_minimize(
    problem: ProblemInstance,
    criterion: Criterion,
    thresholds: Thresholds = Thresholds(),
    *,
    fix_max_speed: Optional[bool] = None,
    node_limit: int = 20_000_000,
    budget=None,
    upper_bound: Optional[float] = None,
) -> Solution:
    """Exact optimum of one criterion under thresholds on the others.

    Parameters
    ----------
    problem:
        Any problem instance (all platform classes, both rules, both
        communication models).
    criterion:
        The criterion to minimize.
    thresholds:
        Bounds on the other criteria (global or per-application).
    fix_max_speed:
        Pin every processor to its fastest mode.  Defaults to ``True``
        exactly when energy plays no role.
    node_limit:
        Safety cap on explored nodes; :class:`SolverError` when exceeded.
    budget:
        Optional cooperative budget meter (see
        :class:`repro.strategies.SolveBudget`) ticked once per search
        node.  On exhaustion the incumbent is returned with
        ``optimal=False`` (it is only a feasible bound, not a proven
        optimum); :class:`SolverError` when the budget runs out before
        any feasible mapping was found.
    upper_bound:
        Optional warm-start bound on the objective: the search starts
        with ``best_objective = threshold_ceiling(upper_bound)`` instead
        of ``+inf``, so subtrees that cannot beat an already-known
        solution are pruned immediately.  The caller must guarantee a
        feasible solution with objective ``<= upper_bound`` exists
        (e.g. the incumbent of a neighboring epsilon-constraint cell);
        the seeded ceiling then sits strictly above the true optimum, so
        the search visits the exact same first-optimal leaf as the cold
        run and the returned solution is byte-identical.  A bound below
        every feasible objective makes the search report
        :class:`InfeasibleProblemError` even on feasible instances.

    Raises
    ------
    InfeasibleProblemError
        When no mapping satisfies the thresholds.
    SolverError
        When ``node_limit`` is exceeded, or the budget ran out with no
        incumbent.
    """
    apps = problem.apps
    p = problem.platform.n_processors
    A = len(apps)
    overlap = problem.model is CommunicationModel.OVERLAP
    by_period = criterion is Criterion.PERIOD
    by_latency = criterion is Criterion.LATENCY
    by_energy = criterion is Criterion.ENERGY
    if fix_max_speed is None:
        fix_max_speed = not by_energy and thresholds.energy is None

    tables = problem.evaluation_context().search_tables()
    prefixes, deltas = tables.prefix, tables.delta
    bw_in, bw_out, bw_link = tables.bw_in, tables.bw_out, tables.bw_link
    if problem.rule is MappingRule.ONE_TO_ONE:
        interval_ends = [[(lo,) for lo in range(app.n_stages)] for app in apps]
    else:
        interval_ends = tables.interval_ends
    last_stages = [app.n_stages - 1 for app in apps]
    weights = [app.weight for app in apps]
    # A value meets a threshold exactly when it is <= the threshold's
    # ceiling (`meets_threshold`'s tolerance, computed once).
    period_ceils = [
        threshold_ceiling(thresholds.period_bound_for_app(app, a))
        for a, app in enumerate(apps)
    ]
    latency_ceils = [
        threshold_ceiling(thresholds.latency_bound_for_app(app, a))
        for a, app in enumerate(apps)
    ]
    energy_ceil = threshold_ceiling(
        math.inf if thresholds.energy is None else thresholds.energy
    )

    # Symmetry breaking: when all links are homogeneous, processors with the
    # same speed set and static energy are fully interchangeable -- at each
    # node only the lowest-indexed free member of each class is branched on.
    symmetric = problem.platform.has_homogeneous_links
    class_of: dict = {}
    procs = []  # (index, free-mask bit, class bit, (speed, energy) modes)
    for u, proc in enumerate(problem.platform.processors):
        key = (proc.speeds, proc.static_energy) if symmetric else u
        class_bit = 1 << class_of.setdefault(key, len(class_of))
        modes = tables.modes[u]
        if fix_max_speed:
            modes = modes[-1:]  # speeds are stored in increasing order
        procs.append((u, 1 << u, class_bit, modes))

    # A warm-start bound is seeded through the same `threshold_ceiling`
    # slack as the threshold screens: any leaf tied with the known
    # incumbent still passes `objective < best_objective`, so the first
    # optimal leaf in DFS order -- the cold run's answer -- is kept.
    best_objective = (
        math.inf if upper_bound is None else threshold_ceiling(upper_bound)
    )
    best_trail: Optional[Tuple[tuple, ...]] = None
    nodes = 0
    trail: List[tuple] = []  # (app, lo, hi, proc, speed) per placed interval

    def place_app(
        a: int,
        stage: int,
        free: int,  # bitmask of free processors
        pending: Optional[tuple],  # (proc, t_in, t_comp, out_size)
        app_latency: float,
        app_period: float,  # unweighted, finalized cycles of app a so far
        energy: float,
        done_period_w: float,  # weighted period over completed apps
        done_latency_w: float,
    ) -> None:
        nonlocal best_objective, best_trail, nodes
        nodes += 1
        if nodes > node_limit:
            raise SolverError(
                f"exact_minimize: node limit {node_limit} exceeded"
            )
        if budget is not None and not budget.tick():
            raise _BudgetStop
        if a == A:
            objective = (
                done_period_w
                if by_period
                else done_latency_w if by_latency else energy
            )
            if objective < best_objective:
                best_objective = objective
                best_trail = tuple(trail)
            return
        prefix = prefixes[a]
        delta = deltas[a]
        period_ceil = period_ceils[a]
        latency_ceil = latency_ceils[a]
        last = last_stages[a]
        w_a = weights[a]
        work_lo = prefix[stage]
        in_size = delta[stage]
        ends = interval_ends[a][stage]
        if pending is None:
            bw_row = bw_in[a]
        else:
            pend_u, pend_t_in, pend_t_comp, pend_out = pending
            bw_row = bw_link[a][pend_u]
        tried = 0  # bitmask of branched processor classes
        for u, u_bit, class_bit, modes in procs:
            if not free & u_bit or tried & class_bit:
                continue
            tried |= class_bit
            # Incoming communication of the new interval.
            bw = bw_row[u]
            t_in = in_size / bw
            if pending is None:
                new_app_period = app_period
                base_latency = app_latency + t_in  # delta_0 / b, paid once
            else:
                # Finalize the pending interval: its outgoing link is known.
                fin_out = pend_out / bw
                if overlap:
                    fin_cycle = max(pend_t_in, pend_t_comp, fin_out)
                else:
                    fin_cycle = pend_t_in + pend_t_comp + fin_out
                if not fin_cycle <= period_ceil:
                    continue
                new_app_period = max(app_period, fin_cycle)
                base_latency = app_latency + fin_out
            if not base_latency <= latency_ceil:
                continue
            rest = free & ~u_bit
            for speed, e_add in modes:
                new_energy = energy + e_add
                if not new_energy <= energy_ceil:
                    continue
                if by_energy and new_energy >= best_objective:
                    continue
                # The period/latency screens are monotone in hi (t_comp
                # only grows), so the first violation ends the children.
                for hi in ends:
                    t_comp = (prefix[hi + 1] - work_lo) / speed
                    if overlap:
                        partial_cycle = t_comp if t_comp > t_in else t_in
                    else:
                        partial_cycle = t_in + t_comp
                    if not partial_cycle <= period_ceil:
                        break
                    new_latency = base_latency + t_comp
                    if not new_latency <= latency_ceil:
                        break
                    trail.append((a, stage, hi, u, speed))
                    if hi == last:
                        # Close the application: output to Pout_a.
                        t_out = delta[hi + 1] / bw_out[a][u]
                        if overlap:
                            last_cycle = max(t_in, t_comp, t_out)
                        else:
                            last_cycle = t_in + t_comp + t_out
                        final_latency = new_latency + t_out
                        if (
                            last_cycle <= period_ceil
                            and final_latency <= latency_ceil
                        ):
                            nxt_period_w = max(
                                done_period_w,
                                w_a
                                * max(new_app_period, partial_cycle, last_cycle),
                            )
                            nxt_latency_w = max(
                                done_latency_w, w_a * final_latency
                            )
                            if not (
                                (by_period and nxt_period_w >= best_objective)
                                or (
                                    by_latency
                                    and nxt_latency_w >= best_objective
                                )
                            ):
                                place_app(
                                    a + 1,
                                    0,
                                    rest,
                                    None,
                                    0.0,
                                    0.0,
                                    new_energy,
                                    nxt_period_w,
                                    nxt_latency_w,
                                )
                    else:
                        cycle = max(new_app_period, partial_cycle)
                        if not (
                            (
                                by_period
                                and max(done_period_w, w_a * cycle)
                                >= best_objective
                            )
                            or (
                                by_latency
                                and max(done_latency_w, w_a * new_latency)
                                >= best_objective
                            )
                        ):
                            place_app(
                                a,
                                hi + 1,
                                rest,
                                (u, t_in, t_comp, delta[hi + 1]),
                                new_latency,
                                cycle,
                                new_energy,
                                done_period_w,
                                done_latency_w,
                            )
                    trail.pop()

    exhausted = False
    try:
        place_app(0, 0, (1 << p) - 1, None, 0.0, 0.0, 0.0, 0.0, 0.0)
    except _BudgetStop:
        exhausted = True
        if best_trail is None:
            raise SolverError(
                f"exact_minimize: budget exhausted after {nodes} nodes "
                "with no feasible mapping found"
            ) from None
    if best_trail is None:
        raise InfeasibleProblemError(
            f"exact_minimize: no mapping satisfies the thresholds "
            f"({nodes} nodes explored)"
        )
    mapping = Mapping.from_assignments(
        Assignment(app=a, interval=(lo, hi), proc=u, speed=speed)
        for a, lo, hi, u, speed in best_trail
    )
    values = problem.evaluate(mapping)
    return Solution(
        mapping=mapping,
        objective=best_objective,
        values=values,
        solver="branch-and-bound",
        optimal=not exhausted,
        stats={"nodes": float(nodes), "budget_exhausted": float(exhausted)},
    )
