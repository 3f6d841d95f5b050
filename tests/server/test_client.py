"""The Python client (:mod:`repro.client`) against a live daemon."""

import pytest

from repro.client import (
    ClientError,
    JobFailedError,
    RemoteResult,
    ServerUnavailableError,
    SolveClient,
)
from repro.core.problem import Solution
from repro.generators import small_random_problem
from repro.server import ServerThread
from repro.strategies import SolveBudget, SolveTelemetry


@pytest.fixture(scope="module")
def server():
    with ServerThread(executor="thread", concurrency=2) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with SolveClient(server.url, timeout=10.0) as handle:
        yield handle


class TestEndpoints:
    def test_healthz_and_metrics(self, client):
        assert client.healthz()["status"] == "ok"
        assert "jobs" in client.metrics()

    def test_solve_round_trip_decodes_solution(self, client):
        result = client.solve(small_random_problem(200), timeout=60)
        assert result.ok
        assert isinstance(result.solution, Solution)
        assert result.solution.objective > 0
        # Per-application criteria survive the wire format.
        assert result.solution.values.periods
        assert isinstance(result.telemetry, SolveTelemetry)
        assert result.source in ("solved", "cache", "coalesced")

    def test_resolve_is_served_from_cache(self, client):
        problem = small_random_problem(201)
        first = client.solve(problem, timeout=60)
        second = client.solve(problem, timeout=60)
        assert second.source == "cache"
        assert second.solution.objective == first.solution.objective

    def test_submit_with_strategy_and_budget(self, client):
        result = client.solve(
            small_random_problem(202),
            strategy="greedy",
            budget=SolveBudget(max_evaluations=50000, seed=1),
            timeout=60,
        )
        assert result.ok
        assert result.telemetry.strategy == "greedy"
        assert result.telemetry.evaluations > 0

    def test_submit_many_iter_results(self, client):
        problems = [small_random_problem(210 + i) for i in range(4)]
        ids = client.submit_many(problems, objective="latency")
        assert len(ids) == len(set(ids)) == 4
        seen = {r.job_id: r for r in client.iter_results(ids, timeout=120)}
        assert set(seen) == set(ids)
        assert all(r.ok for r in seen.values())

    def test_jobs_listing(self, client):
        client.solve(small_random_problem(220), timeout=60)
        jobs = client.jobs(state="done", limit=3)
        assert jobs and all(j["state"] == "done" for j in jobs)

    def test_server_side_validation_raises_client_error(self, client):
        with pytest.raises(ClientError, match="objective"):
            client.submit(small_random_problem(221), objective="bogus")

    def test_wait_timeout(self, client, server):
        view = client.submit(small_random_problem(222))
        try:
            # A zero deadline can only be met if the job raced to
            # completion before the first poll.
            result = client.wait(view["id"], timeout=0.0)
        except TimeoutError as exc:
            assert "not finished" in str(exc)
            result = client.wait(view["id"], timeout=60)
        assert result.ok

    def test_cancel_unknown_job(self, client):
        with pytest.raises(ClientError):
            client.cancel("jxxx")


class TestRetries:
    def test_unreachable_server_raises_after_retries(self):
        client = SolveClient(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout=0.2,
            retries=1,
            backoff=0.01,
        )
        with pytest.raises(ServerUnavailableError, match="2 attempts"):
            client.healthz()

    def test_http_errors_are_not_retried(self, client):
        # 4xx surfaces immediately with the server's message.
        with pytest.raises(ClientError, match="unknown job"):
            client.job("jxxx")

    @staticmethod
    def _answering(monkeypatch, answers):
        """A client (no retries) whose server gives ``answers`` in turn."""
        import json

        client = SolveClient("http://127.0.0.1:9", retries=0, timeout=1.0)
        sent = []

        def exchange(url, method, body, headers, timeout):
            sent.append(url)
            status, payload = answers[len(sent) - 1]
            return status, {}, json.dumps(payload).encode()

        monkeypatch.setattr(client, "_exchange", exchange)
        return client, sent

    def test_503_at_the_connection_cap_is_waited_out_without_a_retry(
        self, monkeypatch
    ):
        busy = (503, {"error": "too many open connections", "retry_after": 0.01})
        client, sent = self._answering(
            monkeypatch, [busy, busy, (200, {"status": "ok"})]
        )
        assert client.healthz()["status"] == "ok"
        assert len(sent) == 3

    def test_503_hints_past_the_request_budget_are_not_waited_out(
        self, monkeypatch
    ):
        late = (503, {"error": "too many open connections", "retry_after": 5.0})
        client, sent = self._answering(monkeypatch, [late])
        with pytest.raises(ClientError, match="HTTP 503"):
            client.healthz()
        assert len(sent) == 1

    def test_503_without_a_hint_spends_a_retry(self, monkeypatch):
        client, sent = self._answering(monkeypatch, [(503, {"error": "closing"})])
        with pytest.raises(ClientError, match="closing"):
            client.healthz()
        assert len(sent) == 1


class TestLongPollSchedule:
    """``wait`` long-polls instead of sleeping between status polls.

    The old poller slept on a jittered exponential schedule between
    ``GET /v1/jobs/{id}`` requests, then fetched ``/result`` separately.
    Now every request is ``GET /v1/jobs/{id}/result?wait=S`` held by the
    server until the job finishes or S seconds pass, so a job of T
    seconds costs ``ceil(T / S)`` requests and nothing sleeps.  The
    stub server below advances a fake clock by the time each long-poll
    would be held.
    """

    def _stubbed(self, monkeypatch, pending_seconds):
        import repro.client as client_module

        client = SolveClient("http://127.0.0.1:9", retries=0)
        clock = {"t": 0.0}
        calls = []

        def fake_request(method, path, payload=None, headers=None, *, wait=0.0):
            calls.append((method, path, wait))
            if method == "POST":
                done = pending_seconds <= 0
                view = {"id": "j1", "state": "done" if done else "running"}
                if done:
                    view["result"] = {"id": "j1", "state": "done", "status": "ok"}
                return view
            assert "?wait=" in path
            clock["t"] = min(clock["t"] + wait, max(clock["t"], pending_seconds))
            if clock["t"] >= pending_seconds:
                return {"id": "j1", "state": "done", "status": "ok"}
            return {"id": "j1", "state": "running"}

        def no_sleep(seconds):
            raise AssertionError(f"client slept {seconds}s")

        monkeypatch.setattr(client, "_request", fake_request)
        monkeypatch.setattr(client_module.time, "monotonic", lambda: clock["t"])
        monkeypatch.setattr(client_module.time, "sleep", no_sleep)
        return client, calls

    @pytest.mark.parametrize("seconds", [0.5, 9.9, 10.0, 25.0, 61.0])
    def test_job_costs_ceil_seconds_over_wait_requests(self, monkeypatch, seconds):
        import math

        client, calls = self._stubbed(monkeypatch, seconds)
        result = client.wait("j1", timeout=None)
        assert result.ok
        # Each long-poll asks for the client's timeout (10 s by default).
        assert len(calls) == math.ceil(seconds / client.timeout)
        assert all(wait == client.timeout for _m, _p, wait in calls)

    def test_warm_solve_is_one_request(self, monkeypatch):
        client, calls = self._stubbed(monkeypatch, 0.0)
        result = client.solve(small_random_problem(1), timeout=60)
        assert result.ok
        assert [method for method, _p, _w in calls] == ["POST"]

    def test_cold_solve_is_submit_plus_long_polls(self, monkeypatch):
        client, calls = self._stubbed(monkeypatch, 15.0)
        assert client.solve(small_random_problem(1), timeout=None).ok
        assert [method for method, _p, _w in calls] == ["POST", "GET", "GET"]

    def test_timeout_caps_the_wait_asked_for(self, monkeypatch):
        client, calls = self._stubbed(monkeypatch, 25.0)
        with pytest.raises(TimeoutError, match="not finished within 3"):
            client.wait("j1", timeout=3.0)
        assert [wait for _m, _p, wait in calls] == [3.0]

    def test_iter_results_long_polls_the_first_pending_job(self, monkeypatch):
        client, calls = self._stubbed(monkeypatch, 12.0)
        results = list(client.iter_results(["j1", "j1"], timeout=None))
        assert [r.job_id for r in results] == ["j1", "j1"]
        # Two long-polls for the first job, one for the already-done one.
        assert len(calls) == 3

    def test_jitter_stays_within_half_to_full_delay(self):
        for _ in range(200):
            assert 1.0 <= SolveClient._jittered(2.0) < 2.0


class TestLiveRoundTrips:
    def test_warm_solve_costs_one_request(self, client, server):
        problem = small_random_problem(240)
        first = client.solve(problem, timeout=60)
        before = server.server.requests_served
        again = client.solve(problem, timeout=60)
        assert server.server.requests_served - before == 1
        assert again.source == "cache"
        assert again.solution.objective == first.solution.objective

    def test_wait_long_polls_a_running_job(self, client, server):
        view = client.submit(small_random_problem(241))
        result = client.wait(view["id"], timeout=60)
        assert result.ok and result.job_id == view["id"]

    def test_idle_connection_closed_by_server_is_retried_once(
        self, client, server, monkeypatch
    ):
        import time

        import repro.server.http as http_module

        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.2)
        with SolveClient(server.url, retries=0) as strict:
            strict.healthz()  # opens this thread's keep-alive connection
            time.sleep(0.5)  # the server closes it after 0.2 s idle
            assert strict.healthz()["status"] == "ok"

    def test_close_releases_the_connection(self, server):
        with SolveClient(server.url, retries=0) as fresh:
            fresh.healthz()
            (conn,) = fresh._local.connections.values()
            sock = conn.sock
            fresh.close()
            assert sock.fileno() == -1
            assert fresh.healthz()["status"] == "ok"  # reopens on demand


class TestRemoteResultDecoding:
    def test_minimal_payload(self):
        result = RemoteResult.from_payload(
            {"id": "j1", "status": "infeasible", "wall_time": 0.5}
        )
        assert result.job_id == "j1"
        assert not result.ok
        assert result.solution is None
        assert result.telemetry is None

    def test_cancelled_wait_raises_job_failed(self, client, server):
        # Saturate the queue so a submission is still cancellable.
        ids = client.submit_many(
            [small_random_problem(230 + i) for i in range(6)]
        )
        victim = ids[-1]
        if client.cancel(victim):
            with pytest.raises(JobFailedError, match="cancelled"):
                client.wait(victim, timeout=60)
        for result in client.iter_results(ids, timeout=120):
            assert result.status in ("ok", "infeasible", "cancelled")
