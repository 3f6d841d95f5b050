"""Job records and outcome reconstruction (:mod:`repro.server.jobs`)."""

import pytest

from repro.experiments.spec import SolverSpec
from repro.generators import small_random_problem
from repro.io import mapping_to_dict, solution_to_dict
from repro.server import JobOutcome, JobRecord, JobState, new_job_id, solve_cell


SPEC = SolverSpec(name="t")


def solved_item():
    return solve_cell(small_random_problem(0), SPEC)


class TestJobIds:
    def test_ids_are_unique_and_submission_ordered(self):
        ids = [new_job_id() for _ in range(10)]
        assert len(set(ids)) == 10
        assert ids == sorted(ids)


class TestJobState:
    def test_terminal_states(self):
        assert JobState.DONE.finished and JobState.CANCELLED.finished
        assert not JobState.QUEUED.finished
        assert not JobState.RUNNING.finished


class TestJobOutcome:
    def test_from_batch_item(self):
        item = solved_item()
        outcome = JobOutcome.from_batch_item(item)
        assert outcome.ok
        assert outcome.solution is item.solution
        assert outcome.telemetry is item.telemetry
        assert outcome.wall_time == item.wall_time

    def test_from_daemon_cache_record_keeps_per_app_criteria(self):
        item = solved_item()
        payload = {
            "status": "ok",
            "wall_time": item.wall_time,
            "solution": solution_to_dict(item.solution, item.telemetry),
            "telemetry": item.telemetry.to_dict(),
        }
        outcome = JobOutcome.from_cache_payload(payload)
        assert outcome.ok
        assert outcome.solution.objective == item.solution.objective
        assert outcome.solution.values.periods == item.solution.values.periods
        assert outcome.telemetry.strategy == item.telemetry.strategy

    def test_from_campaign_cache_record(self):
        # The runner's record flavour: mapping + the 3 global criteria.
        item = solved_item()
        payload = {
            "schema": 2,
            "status": "ok",
            "wall_time": 0.01,
            "objective": item.solution.objective,
            "values": {
                "period": item.solution.values.period,
                "latency": item.solution.values.latency,
                "energy": item.solution.values.energy,
            },
            "algorithm": item.solution.solver,
            "optimal": item.solution.optimal,
            "mapping": mapping_to_dict(item.solution.mapping),
            "telemetry": item.telemetry.to_dict(),
        }
        outcome = JobOutcome.from_cache_payload(payload)
        assert outcome.ok
        assert outcome.solution.objective == item.solution.objective
        assert outcome.solution.mapping == item.solution.mapping
        # Per-application breakdown is not stored in campaign records.
        assert outcome.solution.values.periods == {}

    def test_infeasible_and_error_records(self):
        infeasible = JobOutcome.from_cache_payload(
            {"status": "infeasible", "error": "no mapping"}
        )
        assert infeasible.status == "infeasible"
        assert infeasible.solution is None
        # An "ok" record with no solution payload is corrupt: degraded
        # to an error rather than served as a phantom success.
        corrupt = JobOutcome.from_cache_payload({"status": "ok"})
        assert corrupt.status == "error"


class TestJobRecord:
    def test_lifecycle_and_summary(self):
        problem = small_random_problem(1)
        job = JobRecord(
            id=new_job_id(),
            key="k",
            priority=3,
            problem=problem,
            solver=SolverSpec(name="s", strategy="greedy"),
        )
        summary = job.request_summary()
        assert summary["apps"] == problem.n_apps
        assert summary["solver"] == {
            "objective": "period",
            "strategy": "greedy",
        }
        assert job.state is JobState.QUEUED
        job.mark_running()
        assert job.state is JobState.RUNNING
        outcome = JobOutcome.from_batch_item(solved_item())
        job.resolve(outcome, source="solved")
        assert job.state is JobState.DONE
        assert job.outcome is outcome
        assert job.source == "solved"

    def test_strategy_and_budget_in_summary(self):
        from repro.strategies import SolveBudget

        job = JobRecord(
            id=new_job_id(),
            key="k",
            priority=0,
            problem=small_random_problem(1),
            solver=SolverSpec(
                name="s", budget=SolveBudget(max_evaluations=10)
            ),
        )
        solver = job.request_summary()["solver"]
        assert solver["strategy"] == "registry"
        assert solver["budget"] == {"max_evaluations": 10}
