"""The anytime front engine: planner, incremental merge, hypervolume,
warm-started cells, and byte-identity with the sequential exact sweep."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Criterion, Thresholds
from repro.algorithms.exact import exact_minimize
from repro.analysis import (
    IncrementalFront,
    bisection_order,
    compute_front_anytime,
    front_thresholds,
    hypervolume_2d,
    pareto_filter,
    period_candidates_for_front,
    period_energy_front_exact,
    plan_front,
)
from repro.analysis.front_engine import cell_dispatch_strategy
from repro.analysis.pareto import _pareto_filter_scalar, dedupe_within_rtol
from repro.core.types import MappingRule, PlatformClass
from repro.generators import small_random_problem
from repro.paper import figure1_problem

#: Bounded positive floats keeping dominance comparisons well-conditioned.
coords = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
points_2d = st.lists(st.tuples(coords, coords), max_size=30)


def np_hard_problem(seed=0, n_apps=2):
    """An instance the energy sweep must branch-and-bound (interval rule
    on a non-fully-homogeneous platform is NP-hard per Table 2)."""
    return small_random_problem(
        seed,
        platform_class=PlatformClass.COMM_HOMOGENEOUS,
        rule=MappingRule.INTERVAL,
        n_apps=n_apps,
    )


class TestBisectionOrder:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 10, 33, 100])
    def test_is_a_permutation(self, n):
        order = bisection_order(n)
        assert sorted(order) == list(range(n))

    def test_endpoints_come_first(self):
        order = bisection_order(9)
        assert order[:2] == [0, 8]
        assert order[2] == 4  # first midpoint

    def test_deterministic(self):
        assert bisection_order(17) == bisection_order(17)

    def test_prefix_spreads_over_range(self):
        # After the first 2 + 2**k entries every gap is <= n / 2**k.
        order = bisection_order(65)
        prefix = sorted(order[: 2 + 1 + 2])  # endpoints + two levels
        gaps = [b - a for a, b in zip(prefix, prefix[1:])]
        assert max(gaps) <= 32


class TestVectorizedParetoFilter:
    @given(points_2d)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference(self, pts):
        assert pareto_filter(pts) == _pareto_filter_scalar(pts)

    @given(st.lists(st.tuples(coords, coords, coords), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_reference_3d(self, pts):
        assert pareto_filter(pts) == _pareto_filter_scalar(pts)

    def test_duplicates_and_ties(self):
        pts = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (1.0, 2.0)]
        assert pareto_filter(pts) == _pareto_filter_scalar(pts)

    def test_preserves_int_tuples(self):
        # The survivors are the original tuples, not float copies.
        front = pareto_filter([(1, 5), (2, 2), (3, 3)])
        assert front == [(1, 5), (2, 2)]
        assert all(isinstance(c, int) for p in front for c in p)

    def test_ragged_input_falls_back(self):
        pts = [(1.0, 2.0), (1.0, 2.0, 3.0)]
        assert pareto_filter(pts) == _pareto_filter_scalar(pts)


class TestCandidateDedup:
    def test_dedupe_within_rtol(self):
        vals = [1.0, 1.0 + 1e-12, 1.0 + 1e-6, 2.0, 2.0 * (1 + 1e-10)]
        assert dedupe_within_rtol(vals, rtol=1e-9) == [1.0, 1.0 + 1e-6, 2.0]

    def test_empty(self):
        assert dedupe_within_rtol([]) == []

    def test_candidates_have_relative_gaps(self):
        candidates = period_candidates_for_front(np_hard_problem(0))
        assert candidates == sorted(candidates)
        for a, b in zip(candidates, candidates[1:]):
            assert b > a * (1 + 1e-9)

    def test_plan_shared_with_exact_sweep(self):
        problem = np_hard_problem(1)
        thresholds, order = plan_front(problem, max_points=25)
        assert thresholds == front_thresholds(problem, max_points=25)
        assert sorted(order) == list(range(len(thresholds)))


class TestIncrementalFront:
    @given(points_2d)
    @settings(max_examples=200, deadline=None)
    def test_any_arrival_order_equals_batch_filter(self, pts):
        front = IncrementalFront()
        for p in pts:
            front.add(p)
        assert front.front() == pareto_filter(pts)

    @given(points_2d, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_order_invariance(self, pts, rng):
        shuffled = list(pts)
        rng.shuffle(shuffled)
        a, b = IncrementalFront(), IncrementalFront()
        for p in pts:
            a.add(p)
        for p in shuffled:
            b.add(p)
        assert a.front() == b.front()

    @given(points_2d)
    @settings(max_examples=100, deadline=None)
    def test_hypervolume_monotone_as_results_land(self, pts):
        front = IncrementalFront()
        last = 0.0
        for p in pts:
            front.add(p)
            hv = front.hypervolume()
            assert hv >= last - 1e-12 * max(1.0, abs(last))
            last = hv

    def test_add_reports_front_changes(self):
        front = IncrementalFront()
        assert front.add((2.0, 2.0))
        assert not front.add((3.0, 3.0))  # dominated
        assert not front.add((2.0, 2.0))  # duplicate
        assert front.add((1.0, 3.0))  # incomparable
        assert front.add((0.5, 0.5))  # dominates everything
        assert front.front() == [(0.5, 0.5)]


class TestHypervolume:
    def test_hand_example(self):
        # Staircase vs ref (4, 4): (1,3) adds 3*1, (2,2) adds 2*1,
        # (3,1) adds 1*1.
        pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        assert hypervolume_2d(pts, (4.0, 4.0)) == pytest.approx(6.0)

    def test_dominated_points_add_nothing(self):
        base = hypervolume_2d([(1.0, 1.0)], (4.0, 4.0))
        assert hypervolume_2d(
            [(1.0, 1.0), (2.0, 2.0)], (4.0, 4.0)
        ) == pytest.approx(base)

    def test_points_outside_ref_add_nothing(self):
        assert hypervolume_2d([(5.0, 1.0)], (4.0, 4.0)) == 0.0
        assert hypervolume_2d([], (4.0, 4.0)) == 0.0

    @given(points_2d, st.tuples(coords, coords))
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_adding_points_fixed_ref(self, pts, ref):
        hv = 0.0
        for i in range(len(pts)):
            nxt = hypervolume_2d(pts[: i + 1], ref)
            assert nxt >= hv - 1e-12 * max(1.0, abs(hv))
            hv = nxt


class TestWarmStartedExact:
    def test_warm_bound_returns_identical_solution(self):
        problem = np_hard_problem(0)
        thresholds = Thresholds(period=front_thresholds(problem)[-1])
        cold = exact_minimize(problem, Criterion.ENERGY, thresholds)
        for bound in (cold.objective, cold.objective * 1.5):
            warm = exact_minimize(
                problem, Criterion.ENERGY, thresholds, upper_bound=bound
            )
            assert warm.mapping == cold.mapping
            assert warm.values == cold.values
            assert warm.objective == cold.objective

    def test_warm_bound_prunes_nodes(self):
        problem = np_hard_problem(3, n_apps=3)
        thresholds = Thresholds(period=front_thresholds(problem)[-1])
        cold = exact_minimize(problem, Criterion.ENERGY, thresholds)
        warm = exact_minimize(
            problem,
            Criterion.ENERGY,
            thresholds,
            upper_bound=cold.objective,
        )
        assert warm.stats["nodes"] <= cold.stats["nodes"]

    def test_unachievable_bound_reports_infeasible(self):
        from repro.core.exceptions import InfeasibleProblemError

        problem = np_hard_problem(0)
        thresholds = Thresholds(period=front_thresholds(problem)[-1])
        with pytest.raises(InfeasibleProblemError):
            exact_minimize(
                problem, Criterion.ENERGY, thresholds, upper_bound=1e-9
            )


class TestAnytimeByteIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_np_hard_grid_matches_exact_sweep(self, seed):
        problem = np_hard_problem(seed)
        assert cell_dispatch_strategy(problem) == "exact"
        exact = period_energy_front_exact(problem, max_points=30)
        result = compute_front_anytime(problem, max_points=30)
        assert result.front == exact

    def test_polynomial_cells_match_exact_sweep(self):
        problem = small_random_problem(
            0,
            platform_class=PlatformClass.FULLY_HOMOGENEOUS,
            rule=MappingRule.INTERVAL,
            n_apps=2,
        )
        assert cell_dispatch_strategy(problem) == "auto"
        assert compute_front_anytime(
            problem, max_points=30
        ).front == period_energy_front_exact(problem, max_points=30)

    def test_figure1_front(self):
        problem = figure1_problem()
        assert compute_front_anytime(
            problem
        ).front == period_energy_front_exact(problem)

    def test_cold_run_matches_too(self):
        problem = np_hard_problem(1)
        warm = compute_front_anytime(problem, max_points=20)
        cold = compute_front_anytime(
            problem, max_points=20, warm_start=False
        )
        assert warm.front == cold.front
        assert warm.n_warm > 0 and cold.n_warm == 0

    def test_events_cover_every_cell(self):
        problem = np_hard_problem(2)
        result = compute_front_anytime(problem, max_points=20)
        assert len(result.events) == result.n_cells == len(result.thresholds)
        assert [e.elapsed for e in result.events] == sorted(
            e.elapsed for e in result.events
        )

    def test_hypervolume_trajectory_monotone(self):
        problem = np_hard_problem(0)
        result = compute_front_anytime(problem, max_points=20)
        lo_p = min(p for p, _ in result.front)
        lo_e = min(e for _, e in result.front)
        hi_p = max(p for p, _ in result.front)
        hi_e = max(e for _, e in result.front)
        ref = (hi_p * 1.01 + 1e-9, hi_e * 1.01 + 1e-9)
        curve = result.hypervolume_trajectory(ref)
        values = [hv for _, hv in curve]
        assert values == sorted(values)
        assert values[-1] >= (ref[0] - lo_p) * 0.0  # final hv is defined
        assert math.isfinite(values[-1])

    def test_parallel_workers_match(self):
        problem = np_hard_problem(0)
        sequential = compute_front_anytime(problem, max_points=15)
        parallel = compute_front_anytime(
            problem, max_points=15, workers=2
        )
        assert parallel.front == sequential.front
