"""Tests for the polynomial heuristics: validity always, optimality often
(measured against the exact solvers on small instances)."""

import math

import pytest

from repro import (
    CommunicationModel,
    Criterion,
    MappingRule,
    PlatformClass,
    Thresholds,
)
from repro.algorithms.exact import exact_minimize
from repro.algorithms.heuristics import (
    anneal,
    greedy_interval_period,
    greedy_mode_downgrade,
    greedy_one_to_one_period,
    hill_climb,
    neighbors,
)
from repro.generators import small_random_problem

from .reference_local_search import reference_anneal, reference_hill_climb

HET = PlatformClass.FULLY_HETEROGENEOUS


class TestGreedyInterval:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_and_within_factor(self, seed):
        problem = small_random_problem(
            seed, platform_class=HET, stage_range=(1, 3)
        )
        heur = greedy_interval_period(problem)
        problem.check_mapping(heur.mapping)
        assert not heur.optimal
        exact = exact_minimize(problem, Criterion.PERIOD)
        assert heur.objective >= exact.objective - 1e-9
        # The split-bottleneck greedy stays within a small constant factor
        # on these instance families.
        assert heur.objective <= 3.0 * exact.objective + 1e-9

    def test_uses_extra_processors_when_helpful(self):
        from repro import Application, Platform, ProblemInstance

        apps = (Application.from_lists([10, 10, 10], [0.1, 0.1, 0.1]),)
        platform = Platform.fully_homogeneous(3, [1.0])
        problem = ProblemInstance(apps=apps, platform=platform)
        heur = greedy_interval_period(problem)
        assert len(heur.mapping.enrolled_processors) == 3
        assert heur.objective == pytest.approx(10.0)


class TestGreedyOneToOne:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_and_reasonable(self, seed):
        problem = small_random_problem(
            seed + 10,
            platform_class=HET,
            rule=MappingRule.ONE_TO_ONE,
            stage_range=(1, 2),
        )
        heur = greedy_one_to_one_period(problem)
        problem.check_mapping(heur.mapping)
        exact = exact_minimize(problem, Criterion.PERIOD)
        assert heur.objective >= exact.objective - 1e-9


class TestNeighbors:
    def test_all_neighbors_valid(self):
        problem = small_random_problem(3, stage_range=(2, 3), n_modes=2)
        start = greedy_interval_period(problem).mapping
        count = 0
        for n in neighbors(problem, start):
            problem.check_mapping(n)
            count += 1
        assert count > 0

    def test_one_to_one_neighbors_stay_one_to_one(self):
        problem = small_random_problem(
            4, rule=MappingRule.ONE_TO_ONE, stage_range=(1, 2), n_modes=2
        )
        start = greedy_one_to_one_period(problem).mapping
        for n in neighbors(problem, start):
            assert n.is_one_to_one()
            problem.check_mapping(n)

    def test_neighbors_include_mode_changes(self):
        problem = small_random_problem(5, n_modes=3)
        start = greedy_interval_period(problem).mapping
        speeds = {
            tuple(sorted(a.speed for a in n.assignments))
            for n in neighbors(problem, start)
        }
        assert len(speeds) > 1


class TestHillClimb:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_start(self, seed):
        problem = small_random_problem(
            seed + 20, platform_class=HET, stage_range=(1, 3)
        )
        start = greedy_interval_period(problem)
        refined = hill_climb(problem, start.mapping, Criterion.PERIOD)
        assert refined.objective <= start.objective + 1e-9
        problem.check_mapping(refined.mapping)

    @pytest.mark.parametrize("seed", range(5))
    def test_often_reaches_optimum_on_small_instances(self, seed):
        problem = small_random_problem(
            seed + 30, platform_class=HET, stage_range=(1, 2)
        )
        start = greedy_interval_period(problem)
        refined = hill_climb(problem, start.mapping, Criterion.PERIOD)
        exact = exact_minimize(problem, Criterion.PERIOD)
        # Not guaranteed, but a 2x blowup would indicate a broken search.
        assert refined.objective <= 2.0 * exact.objective + 1e-9


class TestOracleParity:
    """The batched hill climb and annealing are byte-identical to their
    one-``Mapping``-at-a-time oracles."""

    @pytest.mark.parametrize("seed", range(4))
    def test_hill_climb_matches_oracle(self, seed):
        problem = small_random_problem(
            seed + 70, platform_class=HET, n_modes=2, stage_range=(2, 4)
        )
        start = greedy_interval_period(problem)
        batched = hill_climb(problem, start.mapping, Criterion.PERIOD)
        oracle = reference_hill_climb(problem, start.mapping, Criterion.PERIOD)
        assert batched.mapping == oracle.mapping
        assert batched.objective == oracle.objective
        assert batched.values == oracle.values
        assert batched.stats == oracle.stats

    @pytest.mark.parametrize("seed", range(3))
    def test_anneal_matches_oracle(self, seed):
        problem = small_random_problem(
            seed + 80, platform_class=HET, n_modes=2
        )
        start = greedy_interval_period(problem)
        runs = [
            solve(
                problem,
                start.mapping,
                Criterion.PERIOD,
                seed=3,
                n_iterations=120,
            )
            for solve in (anneal, reference_anneal)
        ]
        assert runs[0].mapping == runs[1].mapping
        assert runs[0].objective == runs[1].objective
        assert runs[0].stats == runs[1].stats

    def test_one_to_one_matches_oracle(self):
        problem = small_random_problem(
            90,
            platform_class=HET,
            rule=MappingRule.ONE_TO_ONE,
            n_modes=2,
            stage_range=(1, 2),
        )
        start = greedy_one_to_one_period(problem)
        batched = hill_climb(problem, start.mapping, Criterion.PERIOD)
        oracle = reference_hill_climb(problem, start.mapping, Criterion.PERIOD)
        assert batched.mapping == oracle.mapping
        assert batched.stats == oracle.stats


class TestAnnealing:
    def test_deterministic_given_seed(self):
        problem = small_random_problem(41, n_modes=2)
        start = greedy_interval_period(problem)
        s1 = anneal(problem, start.mapping, Criterion.PERIOD, seed=7, n_iterations=100)
        s2 = anneal(problem, start.mapping, Criterion.PERIOD, seed=7, n_iterations=100)
        assert s1.objective == s2.objective

    def test_best_never_worse_than_start(self):
        problem = small_random_problem(42, n_modes=2)
        start = greedy_interval_period(problem)
        s = anneal(problem, start.mapping, Criterion.PERIOD, seed=1, n_iterations=150)
        assert s.objective <= start.objective + 1e-9
        problem.check_mapping(s.mapping)


class TestModeDowngrade:
    @pytest.mark.parametrize("seed", range(5))
    def test_saves_energy_and_keeps_thresholds(self, seed):
        problem = small_random_problem(seed + 50, n_modes=3)
        start = greedy_interval_period(problem)
        bound = start.values.period * 2.0
        sol = greedy_mode_downgrade(
            problem, start.mapping, Thresholds(period=bound)
        )
        assert sol.values.energy <= start.values.energy + 1e-9
        assert sol.values.period <= bound * (1 + 1e-9)
        problem.check_mapping(sol.mapping)

    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_exact_on_small_instances(self, seed):
        problem = small_random_problem(
            seed + 60, n_modes=2, stage_range=(1, 2)
        )
        start = greedy_interval_period(problem)
        bound = start.values.period * 1.5
        heur = greedy_mode_downgrade(
            problem, start.mapping, Thresholds(period=bound)
        )
        exact = exact_minimize(
            problem, Criterion.ENERGY, Thresholds(period=bound)
        )
        assert heur.objective >= exact.objective - 1e-9
        assert heur.objective <= 2.5 * exact.objective + 1e-9

    def test_merge_move_can_release_processors(self):
        from repro import Application, Platform, ProblemInstance

        apps = (Application.from_lists([1, 1], [0.1, 0.1]),)
        platform = Platform.fully_homogeneous(2, [1.0, 4.0])
        problem = ProblemInstance(apps=apps, platform=platform)
        # Start deliberately split at top speed.
        from repro import Assignment, Mapping

        start = Mapping.from_assignments(
            [
                Assignment(app=0, interval=(0, 0), proc=0, speed=4.0),
                Assignment(app=0, interval=(1, 1), proc=1, speed=4.0),
            ]
        )
        sol = greedy_mode_downgrade(problem, start, Thresholds(period=10.0))
        assert len(sol.mapping.enrolled_processors) == 1
        assert sol.values.energy == pytest.approx(1.0)
