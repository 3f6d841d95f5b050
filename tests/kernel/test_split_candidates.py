"""Tests for :func:`repro.kernel.split_candidates` and the value types of
every evaluation path.

``split_candidates`` is the split block of
:func:`~repro.kernel.generate_neighborhood` on its own (one round of the
split-the-bottleneck greedy), so the two must emit the same rows in the
same order.  And ``evaluate``, ``delta_evaluate`` and
``BatchCriteria.select`` must all hand back plain Python floats, so a
solver's criteria do not change type with the path that scored them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CommunicationModel, PlatformClass, ProblemInstance
from repro.algorithms.heuristics import greedy_interval_period, neighbors
from repro.generators import small_random_problem
from repro.kernel import generate_neighborhood, split_candidates
from repro.kernel.neighborhood import KIND_NAMES

from ..properties.strategies import het_mapped_instances, mapped_instances

SPLIT = KIND_NAMES.index("split")
FIELDS = ("app", "lo", "hi", "proc", "speed")


def split_block(batch):
    """The split candidates of a full neighborhood batch, as row arrays
    plus per-candidate row counts."""
    sizes = np.diff(batch.starts)
    keep = np.repeat(batch.kinds == SPLIT, sizes)
    return {f: getattr(batch, f)[keep] for f in FIELDS}, sizes[
        batch.kinds == SPLIT
    ]


def assert_split_block_matches(problem, mapping):
    splits = split_candidates(problem, mapping)
    rows, sizes = split_block(generate_neighborhood(problem, mapping))
    assert len(splits) == len(sizes)
    assert np.array_equal(np.diff(splits.starts), sizes)
    assert (splits.kinds == SPLIT).all()
    for f in FIELDS:
        got = getattr(splits, f)
        assert got.dtype == rows[f].dtype
        assert np.array_equal(got, rows[f])
    for i in range(len(splits)):
        problem.check_mapping(splits.materialize(i))


@given(
    st.one_of(
        mapped_instances(max_apps=3, max_stages=5),
        het_mapped_instances(max_apps=2, max_stages=5),
    )
)
@settings(max_examples=60, deadline=None)
def test_split_candidates_is_the_neighborhood_split_block(instance):
    apps, platform, mapping = instance
    assert_split_block_matches(
        ProblemInstance(apps=apps, platform=platform), mapping
    )


def test_empty_without_a_free_processor_or_a_long_interval():
    busy = small_random_problem(4, n_apps=2, n_procs=2)
    mapping = greedy_interval_period(busy).mapping
    assert len(mapping.enrolled_processors) == 2
    assert len(split_candidates(busy, mapping)) == 0
    single = small_random_problem(4, n_apps=2, n_procs=5, stage_range=(1, 1))
    mapping = greedy_interval_period(single).mapping
    assert len(mapping.enrolled_processors) < 5
    assert len(split_candidates(single, mapping)) == 0


def test_every_evaluation_path_returns_plain_floats():
    for platform_class in PlatformClass:
        for model in CommunicationModel:
            problem = small_random_problem(
                11, platform_class=platform_class, model=model, n_modes=2
            )
            ctx = problem.evaluation_context()
            mapping = greedy_interval_period(problem).mapping
            base = ctx.evaluate(mapping)
            neighbor = next(iter(neighbors(problem, mapping)))
            batch = generate_neighborhood(problem, mapping)
            for values in (
                base,
                ctx.delta_evaluate(neighbor, mapping, base),
                ctx.evaluate_many(batch).select(0),
            ):
                scalars = [values.period, values.latency, values.energy]
                scalars += list(values.periods.values())
                scalars += list(values.latencies.values())
                for x in scalars:
                    assert type(x) is float, (type(x), platform_class, model)
