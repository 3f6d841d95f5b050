"""Property tests: the table-driven branch-and-bound explores the same
tree as the helper-driven reference and returns the same answer.

:func:`~repro.algorithms.exact.exact_minimize` reads per-problem lookup
tables and screens children in one scalar loop;
:func:`.reference_exact_minimize` resolves every bandwidth, energy and
work through the platform, energy-model and application helpers and
screens fan-outs of eight or more interval ends with NumPy.  On every
platform class, rule and communication model, for all three criteria
under global and per-application thresholds, with the speed pinned or
free, with warm-start bounds that are achievable or too low, and under
budgets and node limits that stop the search anywhere, the two must
return the same mapping, objective, criteria values, optimality flag
and stats (node count included), leave the budget meter in the same
state, or raise the same error.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CommunicationModel,
    Criterion,
    InfeasibleProblemError,
    MappingRule,
    PlatformClass,
    ProblemInstance,
    SolverError,
    Thresholds,
)
from repro.algorithms.exact import exact_minimize
from repro.generators import small_random_problem
from repro.strategies import SolveBudget

from .reference_branch_and_bound import reference_exact_minimize

THRESHOLDS = [
    "none",
    "period",
    "latency",
    "energy",
    "period+latency",
    "period+energy",
    "per-app period",
    "per-app latency",
    "per-app period+latency+energy",
]
UPPER_BOUNDS = ["none", "achievable", "below optimum"]
STOPS = ["none", "budget", "late budget", "node limit"]


@st.composite
def exact_problems(draw):
    """Small instances of every cell, or a single long application (8-9
    stages, interval rule) whose interval-end fan-outs reach eight."""
    long_app = draw(st.booleans())
    rule = (
        MappingRule.INTERVAL
        if long_app
        else draw(st.sampled_from(list(MappingRule)))
    )
    n_apps = 1 if long_app else draw(st.integers(1, 2))
    problem = small_random_problem(
        draw(st.integers(0, 10_000)),
        platform_class=draw(st.sampled_from(list(PlatformClass))),
        rule=rule,
        model=draw(st.sampled_from(list(CommunicationModel))),
        n_apps=n_apps,
        n_procs=draw(st.integers(2, 3)) if long_app else None,
        stage_range=(8, 9) if long_app else (1, 3),
        n_modes=draw(st.integers(1, 2)),
    )
    weights = draw(
        st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=n_apps, max_size=n_apps
        )
    )
    return ProblemInstance(
        apps=tuple(
            replace(app, weight=w) for app, w in zip(problem.apps, weights)
        ),
        platform=problem.platform,
        rule=problem.rule,
        model=problem.model,
    )


def outcome(solve, problem, criterion, **kwargs):
    """A comparable rendering of one run: the solution's fields, or the
    error's type and message."""
    try:
        s = solve(problem, criterion, **kwargs)
    except (InfeasibleProblemError, SolverError) as exc:
        return (type(exc), str(exc))
    return (
        s.mapping.assignments,
        s.objective,
        s.values,
        s.optimal,
        s.stats,
        s.solver,
    )


def thresholds_of(problem, kind: str, slack: float) -> Thresholds:
    """Thresholds of one kind, set ``slack`` times the reference's
    unconstrained optima (below 1 they may be infeasible)."""
    if kind == "none":
        return Thresholds()
    fastest = reference_exact_minimize(problem, Criterion.PERIOD)
    quickest = reference_exact_minimize(problem, Criterion.LATENCY)
    cheapest = reference_exact_minimize(problem, Criterion.ENERGY)
    if kind.startswith("per-app"):
        return Thresholds(
            per_app_period=tuple(
                slack * fastest.values.periods[a] for a in range(problem.n_apps)
            ),
            per_app_latency=(
                tuple(
                    slack * 1.2 * quickest.values.latencies[a]
                    for a in range(problem.n_apps)
                )
                if "latency" in kind
                else None
            ),
            energy=slack * 2 * cheapest.objective if "energy" in kind else None,
        )
    return Thresholds(
        period=slack * fastest.objective if "period" in kind else None,
        latency=slack * 1.2 * quickest.objective if "latency" in kind else None,
        energy=slack * 2 * cheapest.objective if "energy" in kind else None,
    )


@given(
    exact_problems(),
    st.sampled_from(list(Criterion)),
    st.sampled_from(THRESHOLDS),
    st.floats(0.95, 1.6),
    st.sampled_from([None, True, False]),
    st.sampled_from(UPPER_BOUNDS),
    st.sampled_from(STOPS),
    st.floats(0.0, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_table_driven_search_matches_reference(
    problem,
    criterion,
    threshold_kind,
    slack,
    fix_max_speed,
    upper_bound_kind,
    stop,
    fraction,
):
    thresholds = thresholds_of(problem, threshold_kind, slack)
    kwargs = {"thresholds": thresholds, "fix_max_speed": fix_max_speed}
    cold = outcome(reference_exact_minimize, problem, criterion, **kwargs)
    solved = not isinstance(cold[0], type)
    if solved and upper_bound_kind != "none":
        optimum = cold[1]
        kwargs["upper_bound"] = (
            optimum if upper_bound_kind == "achievable" else 0.9 * optimum
        )
    # Stop points spread over the cold run's nodes (an infeasible search
    # reports none; 50 is then as good a scale as any).  A late budget
    # stops in the second half, mostly after an incumbent was found.
    if stop == "late budget":
        fraction = 0.5 + fraction / 2
    stop_at = 1 + int(fraction * (cold[4]["nodes"] if solved else 50))
    meters = []
    if stop == "node limit":
        kwargs["node_limit"] = stop_at
    elif stop != "none":
        meters = [SolveBudget(max_evaluations=stop_at).meter() for _ in range(2)]
    got = outcome(
        exact_minimize,
        problem,
        criterion,
        **kwargs,
        **({"budget": meters[0]} if meters else {}),
    )
    want = outcome(
        reference_exact_minimize,
        problem,
        criterion,
        **kwargs,
        **({"budget": meters[1]} if meters else {}),
    )
    assert got == want
    if meters:
        assert meters[0].n_evaluations == meters[1].n_evaluations
        assert meters[0].exhausted == meters[1].exhausted
    if not isinstance(got[0], type):
        # Plain floats throughout, as from every other evaluation path.
        assert type(got[1]) is float
