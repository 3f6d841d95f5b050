"""Property tests: the array-native neighborhood engine is equivalent to
the one-``Mapping``-at-a-time oracles of
:mod:`tests.algorithms.reference_local_search`.

For every valid mapping, under both mapping rules, both communication
models and every platform class,

* :func:`~repro.kernel.generate_neighborhood` enumerates exactly the
  candidates of :func:`.reference_neighbors`, in the same order
  (candidate ``i`` materializes to the ``i``-th oracle neighbor), and
  :func:`repro.algorithms.heuristics.neighbors` yields that same list;
* :meth:`~repro.kernel.EvaluationContext.evaluate_many` over the batch
  is element-wise equal (within 1e-9 -- in fact bit-identical) to
  per-neighbor ``delta_evaluate``;
* :func:`~repro.algorithms.heuristics.local_search.score_many` matches
  per-candidate ``score_values``;
* :func:`~repro.algorithms.heuristics.hill_climb` and
  :func:`~repro.algorithms.heuristics.anneal` return the oracles'
  solutions and leave the budget meter in the same state, unbudgeted or
  under an evaluation cap that runs out anywhere, mid-scan included.

Hypothesis draws the platform class, rule and model at random, so one
run need not reach every combination; a pinned grid over all twelve
cells runs the same checks on a seeded instance per cell.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CommunicationModel,
    Criterion,
    EvaluationContext,
    MappingRule,
    PlatformClass,
    ProblemInstance,
    Thresholds,
)
from repro.algorithms.heuristics import (
    anneal,
    greedy_interval_period,
    greedy_one_to_one_period,
    hill_climb,
    neighbors,
)
from repro.algorithms.heuristics.local_search import score_many, score_values
from repro.generators import small_random_problem
from repro.kernel import generate_neighborhood
from repro.strategies import BudgetMeter, SolveBudget

from ..algorithms.reference_local_search import (
    reference_anneal,
    reference_hill_climb,
    reference_neighbors,
)
from ..properties.strategies import (
    het_mapped_instances,
    mapped_instances,
    mapped_problems,
    one_to_one_mapped_instances,
)

BOTH_MODELS = [CommunicationModel.OVERLAP, CommunicationModel.NO_OVERLAP]

RTOL = 1e-9


def assert_batch_matches_scalar(problem, mapping):
    """The batched neighborhood scores exactly like the oracle path."""
    ctx = problem.evaluation_context()
    base_values = ctx.evaluate(mapping)
    scalar = list(reference_neighbors(problem, mapping))
    assert list(neighbors(problem, mapping)) == scalar
    batch = generate_neighborhood(problem, mapping)
    assert len(batch) == len(scalar)
    values = ctx.evaluate_many(batch)
    assert len(values) == len(scalar)
    for i, candidate in enumerate(scalar):
        reference = ctx.delta_evaluate(candidate, mapping, base_values)
        got = values.select(i)
        assert got.period == pytest.approx(reference.period, rel=RTOL)
        assert got.latency == pytest.approx(reference.latency, rel=RTOL)
        assert got.energy == pytest.approx(reference.energy, rel=RTOL)
        for a in reference.periods:
            assert got.periods[a] == pytest.approx(
                reference.periods[a], rel=RTOL
            )
            assert got.latencies[a] == pytest.approx(
                reference.latencies[a], rel=RTOL
            )
        # The engines are in fact bit-identical, which is what makes
        # batched hill climbing reproduce the scalar walk exactly.
        assert got.period == reference.period
        assert got.latency == reference.latency
        assert got.energy == reference.energy
        assert batch.materialize(i) == candidate


@given(mapped_instances(max_apps=2, max_stages=4), st.sampled_from(BOTH_MODELS))
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_interval_homogeneous(instance, model):
    """INTERVAL rule, fully homogeneous platforms, both models."""
    apps, platform, mapping = instance
    problem = ProblemInstance(apps=apps, platform=platform, model=model)
    assert_batch_matches_scalar(problem, mapping)


@given(
    het_mapped_instances(max_apps=2, max_stages=4),
    st.sampled_from(BOTH_MODELS),
)
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_interval_heterogeneous(instance, model):
    """INTERVAL rule through every bandwidth-resolution path."""
    apps, platform, mapping = instance
    problem = ProblemInstance(apps=apps, platform=platform, model=model)
    assert_batch_matches_scalar(problem, mapping)


@given(
    one_to_one_mapped_instances(max_apps=2, max_stages=4),
    st.sampled_from(BOTH_MODELS),
)
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_one_to_one(instance, model):
    """ONE_TO_ONE rule: shift/split/merge disabled, same equivalence."""
    apps, platform, mapping = instance
    problem = ProblemInstance(
        apps=apps,
        platform=platform,
        rule=MappingRule.ONE_TO_ONE,
        model=model,
    )
    for candidate in generate_neighborhood(problem, mapping).kinds:
        assert candidate <= 2  # mode / swap / move only
    assert_batch_matches_scalar(problem, mapping)


@given(mapped_instances(max_apps=2, max_stages=4))
@settings(max_examples=25, deadline=None)
def test_score_many_matches_score_values(instance):
    """Vectorized scoring replicates the scalar penalty accumulation."""
    apps, platform, mapping = instance
    problem = ProblemInstance(apps=apps, platform=platform)
    ctx = problem.evaluation_context()
    base = ctx.evaluate(mapping)
    thresholds = Thresholds(
        period=base.period * 0.9,
        latency=base.latency * 1.1,
        energy=base.energy,
        per_app_period=tuple(
            base.periods[a] * 0.95 for a in sorted(base.periods)
        ),
        per_app_latency=tuple(
            base.latencies[a] * 1.05 for a in sorted(base.latencies)
        ),
    )
    batch = generate_neighborhood(problem, mapping)
    if len(batch) == 0:
        return
    values = ctx.evaluate_many(batch)
    for criterion in Criterion:
        scores = score_many(values, criterion, thresholds)
        for i in range(len(batch)):
            assert scores[i] == score_values(
                values.select(i), criterion, thresholds
            )


#: Evaluation caps: none (drawn as 0), or 1 to 60.  A two-app
#: neighborhood here holds up to a few dozen candidates, so a cap runs
#: out mid-way through the first scan, in a later one or never.
CAPS = st.integers(min_value=0, max_value=60).map(lambda cap: cap or None)


def run_metered(solve, cap, *args, **kwargs):
    """``solve`` under an evaluation cap, with the meter's final state."""
    meter = (
        None if cap is None else BudgetMeter(SolveBudget(max_evaluations=cap))
    )
    solution = solve(*args, budget=meter, **kwargs)
    state = (
        None if meter is None else (meter.n_evaluations, meter.exhausted)
    )
    return solution, state


def assert_same_solution(got, want):
    got_solution, got_meter = got
    want_solution, want_meter = want
    assert got_solution.mapping == want_solution.mapping
    assert got_solution.objective == want_solution.objective
    assert got_solution.values == want_solution.values
    assert got_solution.stats == want_solution.stats
    assert got_meter == want_meter


@given(mapped_problems(), st.sampled_from(list(Criterion)), CAPS)
@settings(max_examples=60, deadline=None)
def test_hill_climb_matches_oracle(instance, criterion, cap):
    """Every platform class, model and rule, capped or not."""
    problem, mapping = instance
    args = (problem, mapping, criterion)
    assert_same_solution(
        run_metered(hill_climb, cap, *args, max_iterations=6),
        run_metered(reference_hill_climb, cap, *args, max_iterations=6),
    )


@given(
    mapped_problems(),
    st.sampled_from(list(Criterion)),
    CAPS,
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_anneal_matches_oracle(instance, criterion, cap, seed):
    """Same proposals from the same seed, capped or not."""
    problem, mapping = instance
    args = (problem, mapping, criterion)
    kwargs = dict(seed=seed, n_iterations=40)
    assert_same_solution(
        run_metered(anneal, cap, *args, **kwargs),
        run_metered(reference_anneal, cap, *args, **kwargs),
    )


@given(mapped_problems())
@settings(max_examples=40, deadline=None)
def test_batch_matches_scalar_every_cell(instance):
    """The neighborhood itself, over every class, model and rule."""
    problem, mapping = instance
    assert_batch_matches_scalar(problem, mapping)


CELLS = pytest.mark.parametrize(
    "platform_class, rule, model",
    [
        (platform_class, rule, model)
        for platform_class in PlatformClass
        for rule in MappingRule
        for model in BOTH_MODELS
    ],
    ids=lambda value: value.name.lower(),
)


def pinned_cell(platform_class, rule, model):
    """A seeded two-app instance of one cell, its greedy period start
    and the search arguments.

    The search minimizes energy under a period bound looser than the
    start's, so every cell moves off the start and scores the bound's
    penalty.  Returns the problem, the positional search arguments and
    the evaluation caps to run under: none, the first candidate,
    mid-way through the first scan and mid-way through the second.
    """
    problem = small_random_problem(
        11,
        platform_class=platform_class,
        rule=rule,
        model=model,
        n_modes=2,
        stage_range=(2, 3),
    )
    if rule is MappingRule.ONE_TO_ONE:
        start = greedy_one_to_one_period(problem)
    else:
        start = greedy_interval_period(problem)
    thresholds = Thresholds(period=start.values.period * 1.5)
    n = len(generate_neighborhood(problem, start.mapping))
    args = (problem, start.mapping, Criterion.ENERGY, thresholds)
    return problem, args, (None, 1, n // 2 + 1, n + n // 2 + 1)


@CELLS
def test_hill_climb_matches_oracle_every_cell(platform_class, rule, model):
    """The neighborhood and the climb, pinned to one cell."""
    problem, args, caps = pinned_cell(platform_class, rule, model)
    assert_batch_matches_scalar(problem, args[1])
    for cap in caps:
        assert_same_solution(
            run_metered(hill_climb, cap, *args, max_iterations=6),
            run_metered(reference_hill_climb, cap, *args, max_iterations=6),
        )


@CELLS
def test_anneal_matches_oracle_every_cell(platform_class, rule, model):
    """Annealing from the same seed, pinned to one cell."""
    _problem, args, caps = pinned_cell(platform_class, rule, model)
    kwargs = dict(seed=5, n_iterations=40)
    for cap in caps:
        assert_same_solution(
            run_metered(anneal, cap, *args, **kwargs),
            run_metered(reference_anneal, cap, *args, **kwargs),
        )


def test_empty_batch_evaluates_to_empty_vectors(fig1_apps, fig1_platform):
    """A zero-candidate batch round-trips through evaluate_many."""
    import numpy as np

    class EmptyBatch:
        app = np.empty(0, dtype=np.intp)
        lo = np.empty(0, dtype=np.intp)
        hi = np.empty(0, dtype=np.intp)
        proc = np.empty(0, dtype=np.intp)
        speed = np.empty(0)
        starts = np.zeros(1, dtype=np.intp)

    ctx = EvaluationContext(fig1_apps, fig1_platform)
    values = ctx.evaluate_many(EmptyBatch())
    assert len(values) == 0
    assert values.period.shape == (0,)
