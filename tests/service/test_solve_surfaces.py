"""Every solve surface runs the one batched neighborhood search.

:func:`repro.service.solve_one`, :func:`repro.service.solve_batch`
(sequential, pooled, pooled over one shared instance), the daemon and
the shard router in front of it must all return the climb of the
one-``Mapping``-at-a-time oracle in
:mod:`tests.algorithms.reference_local_search` from the same greedy
start — whether the answer comes inline with a born-done submission,
from a long-polled cold solve or from a plain ``GET /result`` — and the
daemon's health and metrics payloads carry no neighborhood-engine
fields.
"""

import json
import urllib.request

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


def raw(url, method="GET", payload=None):
    """``(status, body bytes)`` of one request, bypassing the client."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read()


@pytest.fixture(scope="module")
def fleet():
    """``{"daemon": url, "router": url}``: one daemon, and a router
    fronting it."""
    from repro.server import RouterThread, ServerThread

    with ServerThread(port=0, concurrency=1, executor="thread") as server:
        with RouterThread([("s0", server.url)], health_interval=30.0) as rt:
            yield {"daemon": server.url, "router": rt.url}


@pytest.mark.parametrize("hop", ["daemon", "router"])
class TestServedAnswers:
    def test_every_answer_path_matches_oracle(self, problems, fleet, hop):
        from repro.client import RemoteResult, SolveClient

        problem = problems[1 if hop == "daemon" else 2]
        want = oracle_climb(problem)
        with SolveClient(fleet[hop], timeout=60.0) as client:
            cold = client.solve(problem, strategy=STRATEGY, timeout=120)
            warm_view = client.submit(problem, strategy=STRATEGY)
        assert cold.source == "solved"  # long-polled
        assert_same(cold.solution, want)
        inline = RemoteResult.from_payload(warm_view["result"])
        assert inline.source == "cache"
        assert_same(inline.solution, want)
        _status, body = raw(f"{fleet[hop]}/v1/jobs/{cold.job_id}/result")
        assert_same(RemoteResult.from_payload(json.loads(body)).solution, want)

    def test_inline_result_is_byte_identical_to_get_result(
        self, problems, fleet, hop
    ):
        from repro.client import SolveClient
        from repro.io import problem_to_dict

        url = fleet[hop]
        problem = problems[3]
        with SolveClient(url, timeout=60.0) as client:
            client.solve(problem, strategy=STRATEGY)
        payload = {
            "problem": problem_to_dict(problem),
            "solver": {"objective": "period", "strategy": STRATEGY},
        }
        status, body = raw(f"{url}/v1/jobs", "POST", payload)
        assert status == 200
        view = json.loads(body)
        assert view["state"] == "done"
        if hop == "router":  # ids rewritten inside the inline result too
            assert view["id"].endswith("@s0")
            assert view["result"]["id"] == view["id"]
        status, result_body = raw(f"{url}/v1/jobs/{view['id']}/result")
        assert status == 200
        assert json.dumps(view["result"]).encode() == result_body
