"""Reference oracle for the exact branch-and-bound solver.

:func:`reference_exact_minimize` is the helper-driven form of
:func:`repro.algorithms.exact.exact_minimize`: every search node resolves
bandwidths through ``Platform.bandwidth``, energies through
``EnergyModel.processor_energy`` and works through
``Application.work_sum``, combines cycle-times with
``CommunicationModel.combine``, builds one ``Assignment`` per child, and
screens fan-outs of eight or more interval ends in one NumPy pass.  The
library's solver runs the same depth-first search over per-problem
lookup tables; the property tests assert both explore the same tree and
return byte-identical solutions.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import InfeasibleProblemError, SolverError
from repro.core.mapping import Assignment, Mapping
from repro.core.objectives import THRESHOLD_RTOL, Thresholds, threshold_ceiling
from repro.core.problem import ProblemInstance, Solution
from repro.core.types import (
    CommunicationModel,
    Criterion,
    IN_ENDPOINT,
    MappingRule,
    OUT_ENDPOINT,
)
from repro.kernel.context import app_arrays

#: Minimum number of interval-end children per ``(processor, mode)``
#: branch before the feasibility screen switches from the scalar loop to
#: one vectorized pass (below this the NumPy call overhead dominates).
_VECTOR_HI_MIN = 8


@dataclass
class _Pending:
    """The last placed interval of the in-progress application, waiting for
    its outgoing bandwidth to be known."""

    proc: int
    t_in: float
    t_comp: float
    out_size: float


def _leq(value: float, bound: float) -> bool:
    """Threshold comparison with the library-wide relative tolerance."""
    return value <= bound * (1 + THRESHOLD_RTOL) + THRESHOLD_RTOL


class _BudgetStop(Exception):
    """Internal signal: the cooperative budget ran out mid-search."""


def reference_exact_minimize(
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
    platform = problem.platform
    model = problem.model
    em = problem.energy_model
    A = len(apps)
    p = platform.n_processors
    if fix_max_speed is None:
        fix_max_speed = (
            criterion is not Criterion.ENERGY and thresholds.energy is None
        )

    period_bounds = [
        thresholds.period_bound_for_app(app, a) for a, app in enumerate(apps)
    ]
    latency_bounds = [
        thresholds.latency_bound_for_app(app, a) for a, app in enumerate(apps)
    ]
    # Precomputed `_leq` right-hand sides and prefix-sum work arrays for
    # the batched child screen (bit-identical to the scalar checks).
    period_ceils = [threshold_ceiling(b) for b in period_bounds]
    latency_ceils = [threshold_ceiling(b) for b in latency_bounds]
    work_prefixes = [app_arrays(app)[0] for app in apps]
    energy_bound = thresholds.energy if thresholds.energy is not None else math.inf

    proc_speeds: List[Tuple[float, ...]] = [
        (platform.processor(u).max_speed,)
        if fix_max_speed
        else platform.processor(u).speeds
        for u in range(p)
    ]

    # Symmetry breaking: when all links are homogeneous, processors with the
    # same speed set and static energy are fully interchangeable -- at each
    # node only the lowest-indexed free member of each class is branched on.
    if platform.has_homogeneous_links:
        class_table: dict = {}
        proc_class: List[int] = []
        for u in range(p):
            key = (
                platform.processor(u).speeds,
                platform.processor(u).static_energy,
            )
            proc_class.append(class_table.setdefault(key, len(class_table)))
        n_classes = len(class_table)
    else:
        proc_class = list(range(p))
        n_classes = p

    # A warm-start bound is seeded through the same `threshold_ceiling`
    # slack as the threshold screens: any leaf tied with the known
    # incumbent still passes `objective < best_objective`, so the first
    # optimal leaf in DFS order -- the cold run's answer -- is kept.
    best_objective = (
        math.inf if upper_bound is None else threshold_ceiling(upper_bound)
    )
    best_assignments: Optional[Tuple[Assignment, ...]] = None
    nodes = 0

    trail: List[Assignment] = []

    def admissible_children(
        a: int,
        stage: int,
        hi_options: Tuple[int, ...],
        speed: float,
        t_in: float,
        base_latency: float,
    ):
        """The ``(hi, t_comp, partial_cycle, new_latency)`` children
        passing the period/latency screens, in ascending ``hi`` order.

        Both screens are monotone in ``hi`` (``t_comp`` only grows), so
        the admitted set is the prefix up to the first violation.  Large
        fan-outs are screened in one vectorized pass over the prefix-sum
        work array instead of one Python arithmetic chain per child;
        the two paths produce bit-identical floats, so pruning -- and
        hence the explored tree and the returned optimum -- is unchanged.
        """
        if len(hi_options) >= _VECTOR_HI_MIN:
            prefix = work_prefixes[a]
            his = np.asarray(hi_options, dtype=np.intp)
            t_comps = (prefix[his + 1] - prefix[stage]) / speed
            if model is CommunicationModel.OVERLAP:
                partials = np.maximum(t_in, t_comps)
            else:
                partials = (t_in + t_comps) + 0.0
            latencies = base_latency + t_comps
            ok = (partials <= period_ceils[a]) & (
                latencies <= latency_ceils[a]
            )
            limit = len(hi_options) if bool(ok.all()) else int(np.argmax(~ok))
            return list(
                zip(
                    hi_options[:limit],
                    t_comps[:limit].tolist(),
                    partials[:limit].tolist(),
                    latencies[:limit].tolist(),
                )
            )
        children = []
        app = apps[a]
        for hi in hi_options:
            t_comp = app.work_sum(stage, hi) / speed
            partial_cycle = model.combine(t_in, t_comp, 0.0)
            if not _leq(partial_cycle, period_bounds[a]):
                break  # t_comp only grows with hi
            new_latency = base_latency + t_comp
            if not _leq(new_latency, latency_bounds[a]):
                break
            children.append((hi, t_comp, partial_cycle, new_latency))
        return children

    def place_app(
        a: int,
        stage: int,
        free: int,  # bitmask of free processors
        pending: Optional[_Pending],
        app_latency: float,
        app_period: float,  # unweighted, finalized cycles of app a so far
        energy: float,
        done_period_w: float,  # weighted period over completed apps
        done_latency_w: float,
    ) -> None:
        nonlocal best_objective, best_assignments, nodes
        nodes += 1
        if nodes > node_limit:
            raise SolverError(
                f"exact_minimize: node limit {node_limit} exceeded"
            )
        if budget is not None and not budget.tick():
            raise _BudgetStop
        if a == A:
            objective = {
                Criterion.PERIOD: done_period_w,
                Criterion.LATENCY: done_latency_w,
                Criterion.ENERGY: energy,
            }[criterion]
            if objective < best_objective:
                best_objective = objective
                best_assignments = tuple(trail)
            return
        app = apps[a]
        n = app.n_stages
        w_a = app.weight
        in_size = app.input_size(stage)
        hi_options = (
            (stage,)
            if problem.rule is MappingRule.ONE_TO_ONE
            else tuple(range(stage, n))
        )
        tried_classes = [False] * n_classes
        for u in range(p):
            if not (free >> u) & 1:
                continue
            if tried_classes[proc_class[u]]:
                continue  # an interchangeable processor was already branched
            tried_classes[proc_class[u]] = True
            # Incoming communication of the new interval.
            if pending is None:
                bw_in = platform.bandwidth(IN_ENDPOINT, u, a)
            else:
                bw_in = platform.bandwidth(pending.proc, u, a)
            t_in = in_size / bw_in
            # Finalize the pending interval: its outgoing link is now known.
            fin_cycle = 0.0
            fin_out = 0.0
            if pending is not None:
                fin_out = pending.out_size / bw_in
                fin_cycle = model.combine(pending.t_in, pending.t_comp, fin_out)
                if not _leq(fin_cycle, period_bounds[a]):
                    continue
            new_app_period = max(app_period, fin_cycle)
            base_latency = app_latency + fin_out
            if pending is None:
                base_latency += t_in  # delta_0 / b, paid exactly once
            if not _leq(base_latency, latency_bounds[a]):
                continue
            for speed in proc_speeds[u]:
                e_add = em.processor_energy(platform.processor(u), speed)
                new_energy = energy + e_add
                if not _leq(new_energy, energy_bound):
                    continue
                if criterion is Criterion.ENERGY and new_energy >= best_objective:
                    continue
                for hi, t_comp, partial_cycle, new_latency in (
                    admissible_children(
                        a, stage, hi_options, speed, t_in, base_latency
                    )
                ):
                    assignment = Assignment(
                        app=a, interval=(stage, hi), proc=u, speed=speed
                    )
                    trail.append(assignment)
                    if hi == n - 1:
                        # Close the application: output to Pout_a.
                        bw_out = platform.bandwidth(u, OUT_ENDPOINT, a)
                        t_out = app.output_size(hi) / bw_out
                        last_cycle = model.combine(t_in, t_comp, t_out)
                        final_latency = new_latency + t_out
                        final_period = max(
                            new_app_period, partial_cycle, last_cycle
                        )
                        if (
                            _leq(last_cycle, period_bounds[a])
                            and _leq(final_latency, latency_bounds[a])
                        ):
                            nxt_period_w = max(
                                done_period_w, w_a * final_period
                            )
                            nxt_latency_w = max(
                                done_latency_w, w_a * final_latency
                            )
                            if not (
                                (
                                    criterion is Criterion.PERIOD
                                    and nxt_period_w >= best_objective
                                )
                                or (
                                    criterion is Criterion.LATENCY
                                    and nxt_latency_w >= best_objective
                                )
                            ):
                                place_app(
                                    a + 1,
                                    0,
                                    free & ~(1 << u),
                                    None,
                                    0.0,
                                    0.0,
                                    new_energy,
                                    nxt_period_w,
                                    nxt_latency_w,
                                )
                    else:
                        prune = False
                        if criterion is Criterion.PERIOD:
                            lb = max(
                                done_period_w,
                                w_a * max(new_app_period, partial_cycle),
                            )
                            prune = lb >= best_objective
                        elif criterion is Criterion.LATENCY:
                            lb = max(done_latency_w, w_a * new_latency)
                            prune = lb >= best_objective
                        if not prune:
                            place_app(
                                a,
                                hi + 1,
                                free & ~(1 << u),
                                _Pending(
                                    proc=u,
                                    t_in=t_in,
                                    t_comp=t_comp,
                                    out_size=app.output_size(hi),
                                ),
                                new_latency,
                                max(new_app_period, partial_cycle),
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
        if best_assignments is None:
            raise SolverError(
                f"exact_minimize: budget exhausted after {nodes} nodes "
                "with no feasible mapping found"
            ) from None
    if best_assignments is None:
        raise InfeasibleProblemError(
            f"exact_minimize: no mapping satisfies the thresholds "
            f"({nodes} nodes explored)"
        )
    mapping = Mapping.from_assignments(best_assignments)
    values = problem.evaluate(mapping)
    return Solution(
        mapping=mapping,
        objective=best_objective,
        values=values,
        solver="branch-and-bound",
        optimal=not exhausted,
        stats={"nodes": float(nodes), "budget_exhausted": float(exhausted)},
    )
