"""Tests for the batch solve service (``repro.service``)."""

import math

import pytest

from repro import MappingRule, PlatformClass, Thresholds
from repro.generators import small_random_problem
from repro.service import (
    BatchItem,
    dispatch_strategy,
    solve_batch,
    solve_one,
)
from repro.service.batch import _auto_chunksize
from repro.strategies import SolveBudget, StrategyError

ALL_CLASSES = list(PlatformClass)


def _problems(count, *, rule=MappingRule.INTERVAL, n_modes=1):
    return [
        small_random_problem(
            seed,
            platform_class=ALL_CLASSES[seed % len(ALL_CLASSES)],
            rule=rule,
            n_modes=n_modes,
        )
        for seed in range(count)
    ]


class TestDispatch:
    def test_polynomial_cell_uses_auto(self):
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HOMOGENEOUS
        )
        assert dispatch_strategy(problem, "period") == "auto"
        assert dispatch_strategy(problem, "latency") == "auto"
        assert dispatch_strategy(problem, "energy") == "auto"

    def test_np_hard_cell_uses_heuristic(self):
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        assert dispatch_strategy(problem, "period") == "heuristic"
        assert dispatch_strategy(problem, "energy") == "heuristic"


class TestSolveOne:
    def test_matches_registry_dispatch(self):
        problem = small_random_problem(
            3, platform_class=PlatformClass.FULLY_HOMOGENEOUS
        )
        solution = solve_one(problem, "period")
        assert solution.optimal
        assert math.isfinite(solution.objective)

    def test_heuristic_on_hard_cell(self):
        problem = small_random_problem(
            4, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        solution = solve_one(problem, "period")
        assert not solution.optimal
        assert math.isfinite(solution.objective)

    def test_energy_requires_period_threshold(self):
        problem = small_random_problem(
            5, platform_class=PlatformClass.FULLY_HOMOGENEOUS
        )
        with pytest.raises(ValueError, match="period threshold"):
            solve_one(problem, "energy")

    def test_energy_without_period_bound_for_general_strategies(self):
        # Only the dispatch strategies refuse an unbounded energy solve.
        problem = small_random_problem(
            5, platform_class=PlatformClass.FULLY_HOMOGENEOUS
        )
        solution = solve_one(problem, "energy", strategy="local_search")
        assert solution.values.energy == solution.objective

    def test_energy_with_threshold(self):
        problem = small_random_problem(
            6, platform_class=PlatformClass.FULLY_HOMOGENEOUS, n_modes=2
        )
        period = solve_one(problem, "period").objective
        solution = solve_one(
            problem, "energy", thresholds=Thresholds(period=2 * period)
        )
        assert math.isfinite(solution.objective)
        assert solution.values.period <= 2 * period * (1 + 1e-9)

    def test_unknown_objective(self):
        problem = small_random_problem(0)
        with pytest.raises(ValueError, match="unknown objective"):
            solve_one(problem, "throughput")


class TestSolveBatch:
    def test_sequential_covers_cells_in_order(self):
        problems = _problems(9)
        result = solve_batch(problems, objective="period")
        assert len(result.items) == 9
        assert [x.index for x in result.items] == list(range(9))
        assert result.n_ok == 9
        assert result.n_failed == 0
        assert all(x.wall_time >= 0 for x in result.items)
        # sequential run matches solve_one instance by instance
        for item in result.items:
            direct = solve_one(problems[item.index], "period")
            assert item.solution.objective == pytest.approx(direct.objective)

    def test_pooled_matches_sequential(self):
        problems = _problems(6)
        sequential = solve_batch(problems, objective="period", workers=None)
        pooled = solve_batch(problems, objective="period", workers=2)
        assert pooled.workers == 2
        assert pooled.n_ok == sequential.n_ok == 6
        for seq_item, pool_item in zip(sequential.items, pooled.items):
            assert seq_item.index == pool_item.index
            assert pool_item.solution.objective == pytest.approx(
                seq_item.solution.objective
            )

    def test_failures_are_contained(self):
        problems = _problems(4)
        # strategy="auto" fails on NP-hard cells: those items must come
        # back status="error" without poisoning the batch.
        result = solve_batch(problems, objective="period", strategy="auto")
        assert len(result.items) == 4
        statuses = {x.status for x in result.items}
        assert "ok" in statuses and "error" in statuses
        for item in result.items:
            if item.status == "error":
                assert item.solution is None
                assert item.error
                assert math.isinf(item.objective)

    def test_summary_mentions_counts(self):
        result = solve_batch(_problems(3), objective="latency")
        text = result.summary()
        assert "3/3 ok" in text
        assert "objective=latency" in text

    def test_stats_recorded(self):
        result = solve_batch(_problems(3))
        assert result.stats["n_instances"] == 3.0
        assert result.total_time > 0
        assert result.solve_time == pytest.approx(
            sum(x.wall_time for x in result.items)
        )

    def test_unknown_objective_rejected_before_solving(self):
        with pytest.raises(ValueError, match="unknown objective"):
            solve_batch(_problems(1), objective="stretch")


class TestSharedInstanceFastPath:
    """``solve_batch([problem] * n)`` ships the instance once per worker
    per batch inside the shared config instead of once per job."""

    def test_repeat_solve_matches_distinct_jobs(self):
        problem = small_random_problem(
            7, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        repeated = solve_batch([problem] * 6, objective="period", workers=2)
        assert repeated.n_ok == 6
        reference = solve_one(problem, "period").objective
        for item in repeated.items:
            assert item.solution.objective == pytest.approx(reference)

    def test_shared_jobs_resolve_the_config_problem_and_share_its_context(self):
        from repro.service.batch import _solve_indexed

        problem = small_random_problem(9)
        config = {
            "objective": "period",
            "thresholds": None,
            "strategy": "registry",
            "budget": None,
            "problem": problem,
            "trace": None,
        }
        item = _solve_indexed(config, 3, None)
        assert item.index == 3
        assert item.status == "ok"
        context = problem.__dict__["_eval_context"]
        assert _solve_indexed(config, 4, None).status == "ok"
        assert problem.__dict__["_eval_context"] is context

    def test_repeat_solve_ships_the_instance_once_per_worker(self):
        problem = small_random_problem(
            7, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        distinct = [
            small_random_problem(
                7, platform_class=PlatformClass.FULLY_HETEROGENEOUS
            )
            for _ in range(8)
        ]
        shared = solve_batch([problem] * 8, workers=2, chunksize=1)
        copied = solve_batch(distinct, workers=2, chunksize=1)
        assert shared.stats["bytes_pickled_per_job"] < 0.25 * (
            copied.stats["bytes_pickled_per_job"]
        )
        # ... because the instance rides in the per-worker config.
        assert (
            shared.stats["bytes_worker_config"]
            > copied.stats["bytes_worker_config"]
        )


class TestBatchItem:
    def test_objective_of_unsolved_is_inf(self):
        item = BatchItem(index=0, status="error", wall_time=0.0, error="boom")
        assert math.isinf(item.objective)


class TestFailurePaths:
    """Unknown parameters and per-item failures stay contained."""

    def test_unknown_strategy_rejected_before_solving(self):
        with pytest.raises(StrategyError, match="unknown strategy"):
            solve_batch(_problems(2), strategy="simplex")

    def test_auto_outside_polynomial_cells_raises_strategy_error(self):
        problem = small_random_problem(
            0, platform_class=PlatformClass.FULLY_HETEROGENEOUS
        )
        with pytest.raises(StrategyError, match="'auto' failed"):
            solve_one(problem, "period", strategy="auto")

    def test_unknown_objective_in_solve_one(self):
        with pytest.raises(ValueError, match="unknown objective"):
            solve_one(_problems(1)[0], "throughput")

    def test_energy_without_period_threshold_is_error_item(self):
        result = solve_batch(_problems(2), objective="energy")
        assert result.n_failed == 2
        assert all("period threshold" in x.error for x in result.items)

    def test_error_items_do_not_poison_pooled_batch(self):
        # strategy="auto" fails on NP-hard cells; the pooled run must
        # interleave errors and successes item by item.
        problems = _problems(6)
        pooled = solve_batch(
            problems, objective="period", strategy="auto", workers=2
        )
        sequential = solve_batch(problems, objective="period", strategy="auto")
        assert len(pooled.items) == 6
        statuses = [x.status for x in pooled.items]
        assert "ok" in statuses and "error" in statuses
        assert statuses == [x.status for x in sequential.items]
        for item in pooled.items:
            if item.status == "ok":
                assert math.isfinite(item.objective)
            else:
                assert item.solution is None and item.error

    def test_parallel_efficiency_on_sequential_path(self):
        result = solve_batch(_problems(4), workers=None)
        assert result.workers == 1
        stats = result.stats
        assert 0.0 < stats["parallel_efficiency"] <= 1.0 + 1e-9
        assert stats["parallel_efficiency"] == pytest.approx(
            result.solve_time / result.total_time
        )

    def test_infeasible_status_distinct_from_error(self):
        problem = _problems(1)[0]
        result = solve_batch(
            [problem],
            objective="energy",
            thresholds=Thresholds(period=1e-12),
        )
        assert result.items[0].status == "infeasible"
        assert result.n_failed == 0  # infeasible is not an error


class TestChunking:
    def test_auto_chunksize_formula(self):
        assert _auto_chunksize(1000, 4) == 62  # 1000 // 16
        assert _auto_chunksize(3, 4) == 1  # never below 1
        assert _auto_chunksize(0, 8) == 1

    def test_auto_and_explicit_chunksize_agree_on_results(self):
        problems = _problems(8)
        auto = solve_batch(problems, workers=2)  # chunksize=None -> auto
        explicit = solve_batch(problems, workers=2, chunksize=1)
        assert auto.n_ok == explicit.n_ok == 8
        for a, b in zip(auto.items, explicit.items):
            assert a.objective == pytest.approx(b.objective)


class TestTelemetry:
    def test_dispatch_strategy_recorded_in_telemetry(self):
        result = solve_batch(_problems(2), strategy="heuristic")
        for item in result.items:
            assert item.telemetry is not None
            assert item.telemetry.strategy == "heuristic"
            assert item.telemetry.status == item.status

    def test_unbudgeted_default_counts_evaluations(self):
        """The default registry dispatch runs under a live meter, so a
        heuristic cell reports the evaluations it spent."""
        problems = [
            small_random_problem(
                s, platform_class=PlatformClass.FULLY_HETEROGENEOUS
            )
            for s in range(2)
        ]
        for item in solve_batch(problems).items:
            assert item.telemetry.strategy == "registry"
            assert item.telemetry.evaluations > 0
            assert not item.telemetry.budget_exhausted

    def test_budgeted_dispatch_strategy_counts_evaluations(self):
        problems = [
            small_random_problem(
                s, platform_class=PlatformClass.FULLY_HETEROGENEOUS
            )
            for s in range(2)
        ]
        result = solve_batch(
            problems,
            strategy="heuristic",
            budget=SolveBudget(max_evaluations=50),
        )
        for item in result.items:
            assert item.telemetry.evaluations == 50
            assert item.telemetry.budget_exhausted

    def test_strategy_path_records_spec_and_members(self):
        problems = [
            small_random_problem(
                s, platform_class=PlatformClass.FULLY_HETEROGENEOUS
            )
            for s in range(2)
        ]
        result = solve_batch(
            problems,
            strategy="portfolio(greedy,local_search)",
            budget=SolveBudget(max_evaluations=2000, seed=0),
        )
        assert result.n_ok == 2
        for item in result.items:
            assert item.telemetry.strategy == "portfolio(greedy,local_search)"
            assert len(item.telemetry.members) == 2
