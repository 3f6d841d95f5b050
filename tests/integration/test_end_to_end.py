"""End-to-end integration tests: generate -> solve -> validate -> simulate
across every cell of the paper's taxonomy, plus registry/solver coherence."""

import math

import pytest

from repro import (
    CommunicationModel,
    Criterion,
    MappingRule,
    PlatformClass,
    SolverError,
    Thresholds,
)
from repro.algorithms import (
    Complexity,
    expected_complexity,
    minimize_latency,
    minimize_period,
)
from repro.algorithms.exact import exact_minimize
from repro.core.evaluation import application_latency, application_period
from repro.generators import small_random_problem
from repro.service import solve_one
from repro.simulation import simulate

ALL_CELLS = list(PlatformClass)
BOTH_RULES = list(MappingRule)
BOTH_MODELS = list(CommunicationModel)


class TestSolveValidateSimulate:
    @pytest.mark.parametrize("cell", ALL_CELLS)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    @pytest.mark.parametrize("model", BOTH_MODELS)
    def test_full_pipeline(self, cell, rule, model):
        """For every (cell, rule, model): solve exactly, validate the
        mapping, simulate it, and confirm analytic == measured."""
        problem = small_random_problem(
            3, platform_class=cell, rule=rule, model=model, stage_range=(1, 3)
        )
        solution = exact_minimize(problem, Criterion.PERIOD)
        problem.check_mapping(solution.mapping)
        result = simulate(
            problem.apps, problem.platform, solution.mapping, 120, model=model
        )
        for a in solution.mapping.applications:
            analytic_t = application_period(
                problem.apps, problem.platform, solution.mapping, a, model
            )
            analytic_l = application_latency(
                problem.apps, problem.platform, solution.mapping, a
            )
            assert result.measured_period(a) == pytest.approx(analytic_t)
            assert result.measured_latency(a) == pytest.approx(analytic_l)


class TestRegistrySolverCoherence:
    """The registry's 'polynomial' claims must be backed by a working
    solver, and the facade must refuse the NP-hard cells."""

    @pytest.mark.parametrize("cell", ALL_CELLS)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_period_facade_matches_registry(self, cell, rule):
        problem = small_random_problem(
            5, platform_class=cell, rule=rule, stage_range=(1, 2)
        )
        entry = expected_complexity(problem, [Criterion.PERIOD])
        if entry.complexity is Complexity.POLYNOMIAL:
            solution = minimize_period(problem)
            exact = exact_minimize(problem, Criterion.PERIOD)
            assert solution.objective == pytest.approx(exact.objective)
            assert solution.optimal
        else:
            with pytest.raises(SolverError):
                minimize_period(problem)
            # The exact/heuristic fallbacks still serve the cell.
            heur = solve_one(problem, "period", strategy="heuristic")
            assert not heur.optimal
            problem.check_mapping(heur.mapping)

    @pytest.mark.parametrize("cell", ALL_CELLS)
    @pytest.mark.parametrize("rule", BOTH_RULES)
    def test_latency_facade_matches_registry(self, cell, rule):
        problem = small_random_problem(
            6, platform_class=cell, rule=rule, stage_range=(1, 2)
        )
        entry = expected_complexity(problem, [Criterion.LATENCY])
        if entry.complexity is Complexity.POLYNOMIAL:
            solution = minimize_latency(problem)
            exact = exact_minimize(problem, Criterion.LATENCY)
            assert solution.objective == pytest.approx(exact.objective)
        else:
            with pytest.raises(SolverError):
                minimize_latency(problem)


class TestThresholdConsistency:
    """Optimizing X under a bound on Y, then Y under the achieved X, must
    not be able to improve both (weak Pareto consistency of the solvers)."""

    def test_period_latency_round_trip(self):
        from repro.algorithms import (
            minimize_latency_given_period,
            minimize_period_given_latency,
            minimize_period_interval,
        )

        problem = small_random_problem(
            8, platform_class=PlatformClass.FULLY_HOMOGENEOUS, stage_range=(2, 4)
        )
        base = minimize_period_interval(problem).objective
        s1 = minimize_latency_given_period(
            problem, Thresholds(period=base * 1.5)
        )
        s2 = minimize_period_given_latency(
            problem, Thresholds(latency=s1.objective)
        )
        # s2's period can be at most the bound s1 satisfied.
        assert s2.objective <= base * 1.5 * (1 + 1e-9)
        # And re-minimizing latency at s2's period cannot beat s1.
        s3 = minimize_latency_given_period(
            problem, Thresholds(period=s2.objective)
        )
        assert s3.objective >= s1.objective - 1e-9

    def test_energy_period_round_trip(self):
        from repro.algorithms import (
            minimize_energy_given_period_interval,
            minimize_period_interval,
        )

        problem = small_random_problem(
            9,
            platform_class=PlatformClass.FULLY_HOMOGENEOUS,
            stage_range=(2, 3),
            n_modes=3,
        )
        base = minimize_period_interval(problem).objective
        s1 = minimize_energy_given_period_interval(
            problem, Thresholds(period=base * 2.0)
        )
        # The energy optimum under the bound is feasible and honest.
        assert s1.values.period <= base * 2.0 * (1 + 1e-9)
        assert s1.objective == pytest.approx(s1.values.energy)


class TestDeterminism:
    """Identical seeds must yield identical problems and solutions."""

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_exact_solver_deterministic(self, cell):
        p1 = small_random_problem(11, platform_class=cell, stage_range=(1, 3))
        p2 = small_random_problem(11, platform_class=cell, stage_range=(1, 3))
        s1 = exact_minimize(p1, Criterion.PERIOD)
        s2 = exact_minimize(p2, Criterion.PERIOD)
        assert s1.objective == s2.objective
        assert s1.mapping == s2.mapping

    def test_heuristic_deterministic(self):
        from repro.algorithms.heuristics import (
            greedy_interval_period,
            hill_climb,
        )

        p = small_random_problem(
            12,
            platform_class=PlatformClass.FULLY_HETEROGENEOUS,
            stage_range=(2, 3),
        )
        runs = [
            hill_climb(
                p, greedy_interval_period(p).mapping, Criterion.PERIOD
            ).objective
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
