"""The strategy registry and the built-in strategies."""

import math

import pytest

from repro import MappingRule, PlatformClass, Thresholds
from repro.generators import small_random_problem
from repro.service import solve_one
from repro.strategies import (
    Capabilities,
    FunctionStrategy,
    SolveBudget,
    StrategyError,
    get_strategy,
    list_strategies,
    register,
    strategy_names,
)


class TestRegistry:
    def test_at_least_ten_strategies_registered(self):
        assert len(list_strategies()) >= 10

    def test_names_sorted_and_unique(self):
        names = strategy_names()
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_method_aliases_are_registered(self):
        for alias in ("registry", "auto", "exact", "heuristic"):
            assert get_strategy(alias).name == alias

    def test_unknown_name_lists_known(self):
        with pytest.raises(StrategyError, match="known:"):
            get_strategy("does_not_exist")

    def test_describe_has_capability_fields(self):
        for s in list_strategies():
            d = s.describe()
            assert set(d) >= {
                "name",
                "kind",
                "objectives",
                "rules",
                "cells",
                "needs_thresholds",
                "summary",
            }
            assert d["objectives"]

    def test_duplicate_registration_rejected(self):
        existing = strategy_names()[0]
        with pytest.raises(StrategyError, match="already registered"):
            register(
                FunctionStrategy(
                    name=existing,
                    fn=lambda *a: None,
                    capabilities=Capabilities(),
                )
            )

    def test_reserved_names_rejected(self):
        with pytest.raises(StrategyError, match="reserved"):
            register(
                FunctionStrategy(
                    name="portfolio",
                    fn=lambda *a: None,
                    capabilities=Capabilities(),
                )
            )


class TestBuiltinStrategies:
    def test_theorem_solver_on_its_cell(self):
        problem = small_random_problem(
            0,
            platform_class=PlatformClass.FULLY_HOMOGENEOUS,
            rule=MappingRule.INTERVAL,
        )
        result = get_strategy("period_interval_dp").run(problem, "period")
        assert result.ok and result.solution.optimal
        reference = solve_one(problem, "period", strategy="auto")
        assert result.solution.objective == pytest.approx(reference.objective)

    def test_theorem_solver_off_cell_is_contained(self):
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        result = get_strategy("period_interval_dp").run(problem, "period")
        assert result.status == "error"
        assert "cell" in result.telemetry.error

    def test_objective_capability_enforced(self):
        problem = small_random_problem(0)
        result = get_strategy("greedy").run(problem, "energy")
        assert result.status == "error"
        assert "objective" in result.telemetry.error

    def test_mode_scaling_requires_period_threshold(self):
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HETEROGENEOUS, n_modes=2
        )
        result = get_strategy("mode_scaling").run(problem, "energy")
        assert result.status == "error"
        assert "threshold" in result.telemetry.error

    def test_greedy_latency_objective_rekeyed(self):
        problem = small_random_problem(
            1, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        result = get_strategy("greedy").run(problem, "latency")
        assert result.ok
        assert result.solution.objective == pytest.approx(
            result.solution.values.latency
        )

    def test_local_search_improves_or_matches_greedy(self):
        problem = small_random_problem(
            2, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        greedy = get_strategy("greedy").run(problem, "period")
        refined = get_strategy("local_search").run(problem, "period")
        assert refined.solution.objective <= greedy.solution.objective + 1e-12

    def test_run_reports_evaluations_and_telemetry(self):
        problem = small_random_problem(
            2, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        result = get_strategy("annealing").run(
            problem, "period", budget=SolveBudget(max_evaluations=100, seed=5)
        )
        assert result.ok
        t = result.telemetry
        assert t.strategy == "annealing"
        assert t.evaluations == 100
        assert t.budget_exhausted
        assert t.objective == pytest.approx(result.solution.objective)

    def test_infeasible_is_contained_as_status(self):
        # The energy objective threads thresholds into the exact solver;
        # an impossible period bound is provably infeasible.
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HETEROGENEOUS, n_modes=2
        )
        result = get_strategy("exact").run(
            problem, "energy", thresholds=Thresholds(period=1e-12)
        )
        assert result.status == "infeasible"
        assert result.solution is None

    def test_raise_for_status_maps_exceptions(self):
        from repro.core.exceptions import InfeasibleProblemError

        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HETEROGENEOUS, n_modes=2
        )
        result = get_strategy("exact").run(
            problem, "energy", thresholds=Thresholds(period=1e-12)
        )
        with pytest.raises(InfeasibleProblemError):
            result.raise_for_status()

    def test_solutions_are_finite_and_valid(self):
        problem = small_random_problem(
            4, platform_class=PlatformClass.COMM_HOMOGENEOUS
        )
        for name in ("greedy", "local_search", "annealing", "heuristic"):
            result = get_strategy(name).run(problem, "period")
            assert result.ok, (name, result.telemetry.error)
            assert math.isfinite(result.solution.objective)
            problem.check_mapping(result.solution.mapping)
