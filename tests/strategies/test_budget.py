"""Budget declaration and cooperative enforcement (``repro.strategies``)."""

import math

import pytest

from repro import Criterion, PlatformClass, Thresholds
from repro.algorithms import exact, heuristics
from repro.generators import small_random_problem
from repro.strategies import BudgetMeter, SolveBudget


def hard_problem(seed=0, **kwargs):
    return small_random_problem(
        seed, platform_class=PlatformClass.FULLY_HETEROGENEOUS, **kwargs
    )


class TestSolveBudget:
    def test_defaults_are_unlimited(self):
        budget = SolveBudget()
        assert budget.is_unlimited
        assert budget.to_dict() == {}

    def test_round_trip(self):
        budget = SolveBudget(time_limit=0.5, max_evaluations=100, seed=7)
        assert SolveBudget.from_dict(budget.to_dict()) == budget

    @pytest.mark.parametrize(
        "payload",
        [
            {"time_limit": 0},
            {"time_limit": -1.0},
            {"time_limit": "fast"},
            {"time_limit": True},
            {"max_evaluations": 0},
            {"max_evaluations": 1.5},
            {"max_evaluations": True},
            {"seed": "abc"},
            {"unknown_key": 1},
            "not-a-mapping",
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            SolveBudget.from_dict(payload)


class TestBudgetMeter:
    def test_unlimited_meter_never_exhausts(self):
        meter = BudgetMeter()
        assert all(meter.tick() for _ in range(1000))
        assert meter.n_evaluations == 1000
        assert not meter.exhausted
        assert meter.remaining_time() is None
        assert meter.remaining_evaluations() is None

    def test_evaluation_cap_is_sticky(self):
        meter = SolveBudget(max_evaluations=3).meter()
        assert [meter.tick() for _ in range(5)] == [
            True,
            True,
            True,
            False,
            False,
        ]
        assert meter.n_evaluations == 3
        assert meter.exhausted

    def test_deadline(self):
        meter = SolveBudget(time_limit=1e-9).meter()
        assert not meter.tick()  # already past the (tiny) deadline
        assert meter.exhausted

    def test_charge_credits_and_rederives_exhaustion(self):
        meter = SolveBudget(max_evaluations=10).meter()
        meter.charge(4)
        assert meter.n_evaluations == 4 and not meter.exhausted
        meter.charge(6)
        assert meter.n_evaluations == 10 and meter.exhausted

    def test_remaining_counts(self):
        meter = SolveBudget(max_evaluations=10, time_limit=60.0).meter()
        meter.tick(4)
        assert meter.remaining_evaluations() == 6
        assert 0 < meter.remaining_time() <= 60.0


class TestCooperativeEnforcement:
    """The heuristic/exact loops stop at the budget and keep their best."""

    def test_hill_climb_stops_and_returns_valid_solution(self):
        problem = hard_problem(1)
        start = heuristics.greedy_interval_period(problem)
        meter = SolveBudget(max_evaluations=5).meter()
        solution = heuristics.hill_climb(
            problem, start.mapping, Criterion.PERIOD, budget=meter
        )
        assert math.isfinite(solution.objective)
        assert meter.n_evaluations == 5
        assert solution.stats["budget_exhausted"] == 1.0
        problem.check_mapping(solution.mapping)

    def test_anneal_stops_at_cap(self):
        problem = hard_problem(2)
        start = heuristics.greedy_interval_period(problem)
        meter = SolveBudget(max_evaluations=50).meter()
        solution = heuristics.anneal(
            problem,
            start.mapping,
            Criterion.PERIOD,
            n_iterations=10_000,
            budget=meter,
        )
        assert meter.n_evaluations == 50
        assert solution.stats["budget_exhausted"] == 1.0
        problem.check_mapping(solution.mapping)

    def test_greedy_interval_stops_at_cap(self):
        problem = hard_problem(3)
        meter = SolveBudget(max_evaluations=2).meter()
        solution = heuristics.greedy_interval_period(problem, budget=meter)
        assert solution.stats["budget_exhausted"] == 1.0
        problem.check_mapping(solution.mapping)

    def test_mode_downgrade_stops_at_cap(self):
        problem = hard_problem(4, n_modes=3)
        start = heuristics.greedy_interval_period(problem)
        thresholds = Thresholds(period=start.objective * 4)
        meter = SolveBudget(max_evaluations=3).meter()
        solution = heuristics.greedy_mode_downgrade(
            problem, start.mapping, thresholds, budget=meter
        )
        assert solution.stats["budget_exhausted"] == 1.0
        problem.check_mapping(solution.mapping)

    def test_exact_returns_incumbent_marked_non_optimal(self):
        problem = hard_problem(5)
        full = exact.exact_minimize(problem, Criterion.PERIOD)
        nodes = int(full.stats["nodes"])
        assert nodes > 10
        meter = SolveBudget(max_evaluations=nodes // 2).meter()
        truncated = exact.exact_minimize(
            problem, Criterion.PERIOD, budget=meter
        )
        assert not truncated.optimal
        assert truncated.stats["budget_exhausted"] == 1.0
        assert truncated.objective >= full.objective - 1e-12

    def test_exact_without_incumbent_raises(self):
        from repro.core.exceptions import SolverError

        problem = hard_problem(6)
        meter = SolveBudget(max_evaluations=1).meter()
        with pytest.raises(SolverError, match="budget exhausted"):
            exact.exact_minimize(problem, Criterion.PERIOD, budget=meter)

    def test_brute_force_stops_at_cap(self):
        problem = small_random_problem(
            0,
            platform_class=PlatformClass.FULLY_HOMOGENEOUS,
            stage_range=(2, 2),  # keep the full enumeration small
        )
        full = exact.brute_force_minimize(problem, Criterion.PERIOD)
        n = int(full.stats["n_mappings"])
        meter = SolveBudget(max_evaluations=max(1, n // 2)).meter()
        truncated = exact.brute_force_minimize(
            problem, Criterion.PERIOD, budget=meter
        )
        assert not truncated.optimal
        assert truncated.objective >= full.objective - 1e-12

    def test_brute_force_without_incumbent_raises_solver_error(self):
        """A budget-truncated enumeration that found nothing must not
        claim infeasibility — the problem may well be feasible."""
        from repro.core.exceptions import SolverError

        problem = small_random_problem(
            0,
            platform_class=PlatformClass.FULLY_HOMOGENEOUS,
            stage_range=(2, 2),
        )
        meter = SolveBudget(max_evaluations=1).meter()
        with pytest.raises(SolverError, match="budget exhausted"):
            exact.brute_force_minimize(
                problem,
                Criterion.PERIOD,
                Thresholds(period=1e-12),
                budget=meter,
            )

    def test_unbudgeted_paths_are_unchanged(self):
        """An unlimited meter leaves the heuristic's answer bit-identical
        to running it without one."""
        problem = hard_problem(7)
        start = heuristics.greedy_interval_period(problem)
        metered = heuristics.hill_climb(
            problem,
            start.mapping,
            Criterion.PERIOD,
            budget=SolveBudget().meter(),
        )
        plain = heuristics.hill_climb(problem, start.mapping, Criterion.PERIOD)
        assert metered.objective == plain.objective
        assert metered.mapping == plain.mapping
