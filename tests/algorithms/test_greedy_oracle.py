"""Property tests: the batched split-the-bottleneck greedy replays the
one-candidate-at-a-time reference exactly.

:func:`~repro.algorithms.heuristics.greedy_interval_period` scores each
round as one candidate batch; :func:`.reference_greedy_interval_period`
scores one materialized ``Mapping`` per candidate.  On every platform
class, both communication models and evaluation caps that stop the
greedy nowhere, early, in the middle of a round and exactly at a round
boundary, the two must return the same mapping, objective, criteria
values and stats, and leave the budget meter with the same evaluation
count and exhaustion flag.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CommunicationModel, PlatformClass
from repro.algorithms.heuristics import greedy_interval_period
from repro.algorithms.heuristics.greedy_interval import (
    _initial_whole_app_mapping,
)
from repro.core.mapping import Mapping
from repro.generators import small_random_problem
from repro.strategies import SolveBudget

from .reference_greedy import reference_greedy_interval_period

CAPS = ["none", "small", "mid-round", "round-1-end", "round-2-end", "total"]


def n_splits(problem, mapping) -> int:
    """Candidate count of one greedy round from ``mapping``: every cut of
    every interval times every free processor."""
    n_free = problem.platform.n_processors - len(mapping.enrolled_processors)
    return n_free * sum(a.interval[1] - a.interval[0] for a in mapping.assignments)


def evaluation_cap(problem, kind: str, fraction: float):
    """The ``max_evaluations`` of one cap kind, read off the reference
    run (``None`` = uncapped)."""
    if kind == "none":
        return None
    if kind == "small":
        return 1 + int(fraction * 4)
    if kind == "total":
        full = SolveBudget().meter()
        reference_greedy_interval_period(problem, budget=full)
        return max(1, full.n_evaluations)
    round_1 = n_splits(
        problem, Mapping.from_assignments(_initial_whole_app_mapping(problem))
    )
    if kind == "round-1-end" or round_1 == 0:
        return max(1, round_1)
    # With the cap at round 1's end, the greedy takes round 1's winner
    # and stops at the first candidate of round 2.
    after_1 = reference_greedy_interval_period(
        problem, budget=SolveBudget(max_evaluations=round_1).meter()
    ).mapping
    round_2 = n_splits(problem, after_1)
    if kind == "round-2-end":
        return round_1 + max(1, round_2)
    # mid-round: strictly inside round 1, or round 2 when round 1 has a
    # single candidate.
    if round_1 > 1:
        return 1 + int(fraction * (round_1 - 1))
    return round_1 + 1 + int(fraction * max(0, round_2 - 1))


@st.composite
def greedy_problems(draw):
    n_apps = draw(st.integers(1, 3))
    lo = draw(st.integers(1, 4))
    return small_random_problem(
        draw(st.integers(0, 10_000)),
        platform_class=draw(st.sampled_from(list(PlatformClass))),
        model=draw(
            st.sampled_from(
                [CommunicationModel.OVERLAP, CommunicationModel.NO_OVERLAP]
            )
        ),
        n_apps=n_apps,
        # None: one processor per stage, plus one at random.
        n_procs=draw(st.one_of(st.none(), st.integers(n_apps, n_apps + 6))),
        stage_range=(lo, lo + draw(st.integers(0, 4))),
        n_modes=draw(st.integers(1, 2)),
    )


def assert_same_run(problem, cap):
    meter = None if cap is None else SolveBudget(max_evaluations=cap).meter()
    ref_meter = None if cap is None else SolveBudget(max_evaluations=cap).meter()
    got = greedy_interval_period(problem, budget=meter)
    want = reference_greedy_interval_period(problem, budget=ref_meter)
    assert got.mapping.assignments == want.mapping.assignments
    assert got.objective == want.objective
    assert got.values == want.values
    assert got.stats == want.stats
    assert got.solver == want.solver and got.optimal == want.optimal
    if cap is not None:
        assert meter.n_evaluations == ref_meter.n_evaluations
        assert meter.exhausted == ref_meter.exhausted
    # Plain floats throughout, as from every other evaluation path.
    for value in (got.objective, got.values.latency, got.values.energy):
        assert type(value) is float
    return got


@given(
    greedy_problems(),
    st.sampled_from(CAPS),
    st.floats(0.0, 0.999),
)
@settings(max_examples=120, deadline=None)
def test_batched_greedy_matches_reference(problem, cap_kind, fraction):
    cap = evaluation_cap(problem, cap_kind, fraction)
    assert_same_run(problem, cap)


def test_cap_at_round_boundary_takes_the_round_and_stops():
    """A cap equal to round 1's candidate count: round 1 is scored in
    full and its winner taken; round 2 is granted nothing, so the meter
    is exhausted with exactly the cap spent."""
    problem = small_random_problem(
        7,
        platform_class=PlatformClass.FULLY_HETEROGENEOUS,
        stage_range=(4, 4),
        n_procs=8,
    )
    round_1 = evaluation_cap(problem, "round-1-end", 0.0)
    got = assert_same_run(problem, round_1)
    assert got.stats == {"n_rounds": 2.0, "budget_exhausted": 1.0}
    unlimited = greedy_interval_period(problem)
    assert unlimited.stats["n_rounds"] > 2
