"""Composite strategies: portfolio racing, fallback chaining, spec parsing."""

import pytest

from repro import PlatformClass, Thresholds
from repro.generators import small_random_problem
from repro.strategies import (
    FallbackStrategy,
    PortfolioStrategy,
    SolveBudget,
    StrategyError,
    fallback,
    get_strategy,
    parse_strategy,
    portfolio,
)


def hard_problem(seed=0, **kwargs):
    return small_random_problem(
        seed, platform_class=PlatformClass.FULLY_HETEROGENEOUS, **kwargs
    )


class TestParseStrategy:
    def test_plain_name(self):
        assert parse_strategy("greedy").name == "greedy"

    def test_instance_passthrough(self):
        s = get_strategy("greedy")
        assert parse_strategy(s) is s

    def test_portfolio_spec(self):
        s = parse_strategy("portfolio(greedy, local_search,annealing)")
        assert isinstance(s, PortfolioStrategy)
        assert [m.name for m in s.members] == [
            "greedy",
            "local_search",
            "annealing",
        ]

    def test_nested_composites(self):
        s = parse_strategy("fallback(auto,portfolio(greedy,annealing))")
        assert isinstance(s, FallbackStrategy)
        assert s.members[0].name == "auto"
        assert isinstance(s.members[1], PortfolioStrategy)

    def test_spec_round_trips(self):
        text = "fallback(auto,portfolio(greedy,annealing))"
        assert parse_strategy(text).spec == text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "portfolio(",
            "portfolio()",
            "portfolio(greedy",
            "portfolio(greedy,)",
            "greedy(local_search)",
            "portfolio(greedy) trailing",
            "portfolio(nope_not_registered)",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(StrategyError):
            parse_strategy(bad)

    def test_non_string_rejected(self):
        with pytest.raises(StrategyError):
            parse_strategy(42)


class TestPortfolio:
    def test_keeps_best_member(self):
        problem = hard_problem(1)
        racer = portfolio("greedy", "local_search", "annealing")
        result = racer.run(
            problem, "period", budget=SolveBudget(max_evaluations=5000, seed=0)
        )
        assert result.ok
        member_objectives = [
            m.objective for m in result.telemetry.members if m.ok
        ]
        assert member_objectives
        assert result.solution.objective == pytest.approx(
            min(member_objectives)
        )

    def test_member_telemetry_recorded(self):
        problem = hard_problem(2)
        result = portfolio("greedy", "annealing").run(
            problem, "period", budget=SolveBudget(max_evaluations=500, seed=1)
        )
        assert [m.strategy for m in result.telemetry.members] == [
            "greedy",
            "annealing",
        ]
        assert result.telemetry.evaluations == sum(
            m.evaluations for m in result.telemetry.members
        )

    def test_failing_member_is_contained(self):
        # period_interval_dp errors on a heterogeneous platform; the
        # portfolio still wins with the greedy member.
        problem = hard_problem(3)
        result = portfolio("period_interval_dp", "greedy").run(problem, "period")
        assert result.ok
        statuses = {m.strategy: m.status for m in result.telemetry.members}
        assert statuses["period_interval_dp"] == "error"
        assert statuses["greedy"] == "ok"

    def test_all_members_failing_propagates_error(self):
        problem = hard_problem(4)
        result = portfolio("period_interval_dp", "latency_one_to_one").run(
            problem, "period"
        )
        assert result.status == "error"
        assert result.solution is None

    def test_infeasible_threshold_reported_infeasible(self):
        problem = hard_problem(5, n_modes=2)
        result = portfolio("exact", "mode_scaling").run(
            problem, "energy", thresholds=Thresholds(period=1e-12)
        )
        assert result.status == "infeasible"

    def test_threshold_violating_solutions_do_not_win(self):
        # hill_climb may return its penalized best even when it violates
        # the thresholds; the portfolio must not crown it.
        problem = hard_problem(6)
        result = portfolio("local_search").run(
            problem, "period", thresholds=Thresholds(latency=1e-12)
        )
        assert result.status in ("infeasible", "error")

    def test_exhausted_meter_stops_launching_members(self):
        # member 0 consumes the whole 1-evaluation cap; the remaining
        # members must not be launched at all.
        problem = hard_problem(11)
        result = portfolio("local_search", "annealing", "annealing").run(
            problem, "period", budget=SolveBudget(max_evaluations=1, seed=0)
        )
        assert len(result.telemetry.members) == 1
        assert result.telemetry.budget_exhausted

    def test_budget_split_across_members(self):
        problem = hard_problem(7)
        result = portfolio("annealing", "annealing", "annealing").run(
            problem, "period", budget=SolveBudget(max_evaluations=900, seed=2)
        )
        for member in result.telemetry.members:
            assert member.evaluations <= 300 + 1

    def test_empty_portfolio_rejected(self):
        with pytest.raises(StrategyError, match="at least one member"):
            PortfolioStrategy([])


class TestFallback:
    def test_first_success_wins_without_running_rest(self):
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HOMOGENEOUS
        )
        result = fallback("auto", "annealing").run(problem, "period")
        assert result.ok
        assert [m.strategy for m in result.telemetry.members] == ["auto"]
        assert result.solution.optimal

    def test_chains_past_a_failure(self):
        problem = hard_problem(1)
        # auto raises SolverError on an NP-hard cell -> greedy takes over.
        result = fallback("auto", "greedy").run(problem, "period")
        assert result.ok
        assert [m.status for m in result.telemetry.members] == ["error", "ok"]
        assert result.solution.solver == "greedy-split-bottleneck"

    def test_all_failures_reported(self):
        problem = hard_problem(2)
        result = fallback("auto", "period_interval_dp").run(problem, "period")
        assert result.status == "error"
        assert len(result.telemetry.members) == 2


class TestSolveOneAndBatchIntegration:
    def test_solve_one_accepts_composite_spec(self):
        from repro.service import solve_one

        problem = hard_problem(3)
        solution = solve_one(
            problem,
            "period",
            strategy="portfolio(greedy,local_search)",
            budget=SolveBudget(max_evaluations=2000, seed=0),
        )
        direct = solve_one(problem, "period", strategy="greedy")
        assert solution.objective <= direct.objective + 1e-12

    def test_solve_batch_pools_strategies(self):
        from repro.service import solve_batch

        problems = [hard_problem(s) for s in range(4)]
        budget = SolveBudget(max_evaluations=1000, seed=0)
        sequential = solve_batch(
            problems, strategy="portfolio(greedy,annealing)", budget=budget
        )
        pooled = solve_batch(
            problems,
            strategy="portfolio(greedy,annealing)",
            budget=budget,
            workers=2,
        )
        assert pooled.n_ok == sequential.n_ok == 4
        for a, b in zip(sequential.items, pooled.items):
            assert b.solution.objective == pytest.approx(a.solution.objective)
            assert b.telemetry is not None
            assert b.telemetry.strategy == "portfolio(greedy,annealing)"

    def test_solve_batch_rejects_bad_spec_before_solving(self):
        from repro.service import solve_batch

        with pytest.raises(StrategyError):
            solve_batch([hard_problem(0)], strategy="portfolio(")

    def test_solve_batch_accepts_strategy_instances(self):
        from repro.service import solve_batch

        racer = portfolio("greedy", "local_search")
        result = solve_batch([hard_problem(0)], strategy=racer)
        assert result.n_ok == 1
        assert result.items[0].telemetry.strategy == racer.spec


class TestDeterminism:
    """Identical seeds reproduce identical results (the stochastic
    heuristics draw from a numpy Generator seeded by the budget)."""

    def test_annealing_deterministic_given_seed(self):
        problem = hard_problem(9)
        budget = SolveBudget(max_evaluations=800, seed=123)
        a = get_strategy("annealing").run(problem, "period", budget=budget)
        b = get_strategy("annealing").run(problem, "period", budget=budget)
        assert a.solution.objective == b.solution.objective
        assert a.solution.mapping == b.solution.mapping
        assert a.telemetry.evaluations == b.telemetry.evaluations

    def test_different_seeds_may_differ_but_stay_valid(self):
        problem = hard_problem(9)
        for seed in (1, 2):
            result = get_strategy("annealing").run(
                problem,
                "period",
                budget=SolveBudget(max_evaluations=400, seed=seed),
            )
            assert result.ok
            problem.check_mapping(result.solution.mapping)

    def test_portfolio_deterministic_given_seed(self):
        problem = hard_problem(10)
        budget = SolveBudget(max_evaluations=1500, seed=42)
        racer = portfolio("greedy", "annealing", "annealing")
        a = racer.run(problem, "period", budget=budget)
        b = racer.run(problem, "period", budget=budget)
        assert a.solution.objective == b.solution.objective
        assert [m.objective for m in a.telemetry.members] == [
            m.objective for m in b.telemetry.members
        ]
