"""Every solve surface runs the one batched neighborhood search.

:func:`repro.service.solve_one`, :func:`repro.service.solve_batch`
(sequential, pooled, pooled over one shared instance) and the daemon
must all return the climb of the one-``Mapping``-at-a-time oracle in
:mod:`tests.algorithms.reference_local_search` from the same greedy
start, and the daemon's health and metrics payloads carry no
neighborhood-engine fields.
"""

import pytest

from repro import Criterion, PlatformClass
from repro.generators import small_random_problem
from repro.service import solve_batch, solve_one

from ..algorithms.reference_local_search import reference_hill_climb

STRATEGY = "local_search"


@pytest.fixture
def problems():
    return [
        small_random_problem(
            seed, platform_class=PlatformClass.FULLY_HETEROGENEOUS, n_modes=2
        )
        for seed in range(4)
    ]


def oracle_climb(problem):
    """The greedy period start, climbed by the oracle."""
    start = solve_one(problem, "period", strategy="greedy")
    return reference_hill_climb(problem, start.mapping, Criterion.PERIOD)


def assert_same(got, want):
    assert got.mapping == want.mapping
    assert got.objective == want.objective
    assert got.values == want.values


class TestSolveOne:
    def test_local_search_matches_oracle(self, problems):
        for problem in problems:
            assert_same(
                solve_one(problem, "period", strategy=STRATEGY),
                oracle_climb(problem),
            )


class TestSolveBatch:
    def test_sequential_matches_oracle(self, problems):
        result = solve_batch(problems, objective="period", strategy=STRATEGY)
        assert result.n_ok == len(problems)
        for problem, item in zip(problems, result.items):
            assert_same(item.solution, oracle_climb(problem))

    def test_pooled_matches_sequential(self, problems):
        sequential = solve_batch(
            problems, objective="period", strategy=STRATEGY
        )
        pooled = solve_batch(
            problems, objective="period", strategy=STRATEGY, workers=2
        )
        assert pooled.n_ok == len(problems)
        for ref, item in zip(sequential.items, pooled.items):
            assert_same(item.solution, ref.solution)

    def test_pooled_shared_instance_matches_oracle(self, problems):
        shared = [problems[0]] * 4
        pooled = solve_batch(
            shared, objective="period", strategy=STRATEGY, workers=2
        )
        want = oracle_climb(problems[0])
        assert pooled.n_ok == len(shared)
        for item in pooled.items:
            assert_same(item.solution, want)


class TestDaemon:
    def test_daemon_solve_matches_oracle(self, problems):
        from repro.client import SolveClient
        from repro.server import ServerThread

        problem = problems[0]
        with ServerThread(port=0, concurrency=1, executor="thread") as server:
            client = SolveClient(server.url, timeout=60.0)
            result = client.solve(problem, strategy=STRATEGY, timeout=120)
        assert result.status == "ok"
        assert_same(result.solution, oracle_climb(problem))

    def test_health_and_metrics_carry_no_engine_fields(self):
        from repro.client import SolveClient
        from repro.server import ServerThread

        with ServerThread(port=0, concurrency=1, executor="thread") as server:
            client = SolveClient(server.url)
            health = client.healthz()
            metrics = client.metrics()
        assert health["status"] == "ok"
        for key in ("engine", "engines", "compiled_available", "numba"):
            assert key not in health
        assert "engine" not in metrics
