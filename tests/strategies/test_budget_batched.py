"""Budget accounting for batched scoring: a batch of N candidates counts
as N evaluations, and the batched search stops at the same budget as its
one-candidate-at-a-time oracle."""

import time

import pytest

from repro import Criterion, PlatformClass
from repro.algorithms import heuristics
from repro.algorithms.heuristics import greedy_interval_period, hill_climb
from repro.generators import small_random_problem
from repro.strategies import BudgetMeter, SolveBudget

from ..algorithms.reference_local_search import (
    reference_anneal,
    reference_hill_climb,
)

HET = PlatformClass.FULLY_HETEROGENEOUS


class TestReserve:
    def test_unlimited_grants_everything(self):
        meter = BudgetMeter(SolveBudget())
        assert meter.reserve(1000) == 1000
        assert meter.n_evaluations == 1000
        assert not meter.exhausted

    def test_cap_truncates_and_exhausts(self):
        meter = BudgetMeter(SolveBudget(max_evaluations=10))
        assert meter.reserve(7) == 7
        assert not meter.exhausted
        assert meter.reserve(7) == 3
        assert meter.exhausted
        assert meter.n_evaluations == 10
        assert meter.reserve(1) == 0

    def test_exact_fit_does_not_exhaust(self):
        """Consuming exactly the cap mirrors N successful ticks: the
        meter only exhausts on the *next* request, like the scalar
        loop's failing tick."""
        meter = BudgetMeter(SolveBudget(max_evaluations=5))
        assert meter.reserve(5) == 5
        assert not meter.exhausted
        assert meter.reserve(1) == 0
        assert meter.exhausted

    def test_zero_and_negative_are_noops(self):
        meter = BudgetMeter(SolveBudget(max_evaluations=5))
        assert meter.reserve(0) == 0
        assert meter.reserve(-3) == 0
        assert meter.n_evaluations == 0
        assert not meter.exhausted

    def test_matches_tick_by_tick_accounting(self):
        for batch_sizes in ([4, 4, 4], [1] * 12, [5, 8], [12]):
            batched = BudgetMeter(SolveBudget(max_evaluations=10))
            scalar = BudgetMeter(SolveBudget(max_evaluations=10))
            for n in batch_sizes:
                granted = batched.reserve(n)
                ticked = 0
                for _ in range(n):
                    if not scalar.tick():
                        break
                    ticked += 1
                assert granted == ticked
            assert batched.n_evaluations == scalar.n_evaluations

    def test_expired_deadline_grants_nothing(self):
        meter = BudgetMeter(SolveBudget(time_limit=1e-9))
        time.sleep(0.002)
        assert meter.reserve(4) == 0  # pre-grant deadline check
        assert meter.exhausted
        assert meter.reserve(4) == 0


class TestBatchedScalarBudgetParity:
    @pytest.mark.parametrize("cap", [13, 50, 200])
    def test_hill_climb_stops_at_the_same_budget(self, cap):
        problem = small_random_problem(
            11, platform_class=HET, n_modes=2, stage_range=(2, 4)
        )
        start = greedy_interval_period(problem).mapping
        outcomes = []
        for solve in (hill_climb, reference_hill_climb):
            meter = BudgetMeter(SolveBudget(max_evaluations=cap))
            solution = solve(problem, start, Criterion.PERIOD, budget=meter)
            outcomes.append(
                (
                    meter.n_evaluations,
                    meter.exhausted,
                    solution.mapping,
                    solution.objective,
                    solution.stats,
                )
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("cap", [60, 400])
    def test_portfolio_stops_at_the_same_budget(self, cap, monkeypatch):
        """A portfolio under ``max_evals`` consumes the same budget and
        returns the same objective as the same portfolio whose members
        climb and anneal with the oracles, from the same greedy start."""
        problem = small_random_problem(
            12, platform_class=HET, n_modes=2, stage_range=(2, 4)
        )
        from repro.service import solve_batch

        budget = SolveBudget(max_evaluations=cap, seed=0)

        def run():
            item = solve_batch(
                [problem],
                "period",
                strategy="portfolio(greedy,local_search,annealing)",
                budget=budget,
            ).items[0]
            return (
                item.objective,
                item.telemetry.evaluations,
                item.telemetry.budget_exhausted,
                tuple(
                    (m.strategy, m.evaluations, m.budget_exhausted)
                    for m in item.telemetry.members
                ),
            )

        batched = run()
        monkeypatch.setattr(heuristics, "hill_climb", reference_hill_climb)
        monkeypatch.setattr(heuristics, "anneal", reference_anneal)
        assert run() == batched
        assert batched[1] <= cap

    def test_solve_one_heuristic_counts_true_candidates(self):
        """The legacy heuristic path exhausts exactly at the cap with
        batched scoring -- a batch is never under-counted as 1."""
        problem = small_random_problem(
            13, platform_class=HET, n_modes=2
        )
        meter_out = []
        for solve in (hill_climb, reference_hill_climb):
            meter = BudgetMeter(SolveBudget(max_evaluations=40))
            start = greedy_interval_period(problem, budget=meter)
            solve(problem, start.mapping, Criterion.PERIOD, budget=meter)
            meter_out.append((meter.n_evaluations, meter.exhausted))
        assert meter_out[0] == meter_out[1]
        assert meter_out[0] == (40, True)
