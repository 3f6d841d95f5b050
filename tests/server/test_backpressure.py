"""Backpressure semantics: the bounded queue, 429 shedding and the
client's ``Retry-After`` handling.

The guarantees under test, straight from the ISSUE's acceptance
criteria:

* a saturated queue sheds new work with the 429 response (service-level
  :class:`ServiceOverloadedError`, HTTP ``429`` + ``Retry-After``
  header) *before* a job record exists;
* coalescing and cache-hit submissions are admitted even at full depth;
* :class:`repro.client.SolveClient` honors ``Retry-After`` inside its
  existing backoff loop;
* no accepted job is ever dropped — everything that got a job record
  reaches a terminal state.
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.client import ClientError, SolveClient
from repro.experiments.spec import SolverSpec
from repro.generators import small_random_problem
from repro.io import problem_to_dict
from repro.server import (
    JobState,
    ServerThread,
    ServiceOverloadedError,
    SolveService,
    solve_cell,
)

SPEC = SolverSpec(name="t")


def problem(seed=0):
    return small_random_problem(seed)


def _cell_factory():
    """Yields fresh (cell, outcome) pairs for driving ``_finish_cell``
    directly; ``wall_time`` controls the recorded solve duration."""
    from repro.server.jobs import JobOutcome
    from repro.server.service import _Cell

    counter = iter(range(10_000))

    def make(wall_time):
        n = next(counter)
        cell = _Cell(
            key=f"k{n}", problem=problem(n), solver=SPEC, priority=0, seq=n
        )
        outcome = JobOutcome(status="infeasible", wall_time=wall_time)
        return cell, outcome

    return make


_REAL_ITEM = solve_cell(problem(0), SPEC)


class GatedRunner:
    """Stub runner that blocks until released (saturates the queue)."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0

    def __call__(self, prob, solver):
        self.calls += 1
        assert self.gate.wait(30), "runner gate never opened"
        return _REAL_ITEM


def run(coro):
    return asyncio.run(coro)


class TestServiceShedding:
    def test_submission_beyond_depth_is_shed(self):
        async def scenario():
            runner = GatedRunner()
            service = SolveService(
                executor="thread",
                concurrency=1,
                max_queue_depth=2,
                runner=runner,
            )
            await service.start()
            # One runs, two queue; the fourth distinct submission must
            # be shed with a retry hint and without a job record.
            accepted = [service.submit(problem(0), SPEC)]
            await asyncio.sleep(0.05)  # let the worker pick up cell 0
            accepted += [service.submit(problem(seed), SPEC) for seed in (1, 2)]
            retained_before = len(service.jobs())
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit(problem(99), SPEC)
            assert excinfo.value.retry_after > 0
            assert len(service.jobs()) == retained_before, (
                "a shed submission must not leave a job record behind"
            )
            assert service.metrics()["queue"]["shed"] == 1
            runner.gate.set()
            await service.shutdown(drain_queue=True)
            return accepted

        accepted = run(scenario())
        assert all(j.state is JobState.DONE for j in accepted), (
            "every accepted job must reach a terminal state"
        )

    def test_coalesce_and_cache_hit_admitted_at_full_depth(self):
        async def scenario():
            runner = GatedRunner()
            service = SolveService(
                executor="thread",
                concurrency=1,
                max_queue_depth=1,
                runner=runner,
            )
            await service.start()
            first = service.submit(problem(0), SPEC)
            await asyncio.sleep(0.05)  # running now
            queued = service.submit(problem(1), SPEC)  # fills the queue
            with pytest.raises(ServiceOverloadedError):
                service.submit(problem(2), SPEC)
            # Coalescing onto the queued cell adds no queue work.
            coalesced = service.submit(problem(1), SPEC)
            assert coalesced.key == queued.key
            runner.gate.set()
            await service.shutdown(drain_queue=True)
            # Cache hit on a solved cell is admitted even when shut off
            # from the queue: re-check with a fresh, saturated service
            # sharing the same cache.
            jobs = [first, queued, coalesced]
            return jobs, service.cache

        jobs, cache = run(scenario())
        assert all(j.state is JobState.DONE for j in jobs)

        async def warm_scenario():
            runner = GatedRunner()
            service = SolveService(
                executor="thread",
                concurrency=1,
                max_queue_depth=1,
                cache=cache,
                runner=runner,
            )
            await service.start()
            service.submit(problem(10), SPEC)
            await asyncio.sleep(0.05)
            service.submit(problem(11), SPEC)  # queue full now
            hit = service.submit(problem(0), SPEC)  # solved in run #1
            assert hit.state is JobState.DONE
            assert hit.source == "cache"
            runner.gate.set()
            await service.shutdown(drain_queue=True)

        run(warm_scenario())

    def test_retry_after_scales_with_observed_solve_time(self):
        async def scenario():
            service = SolveService(
                executor="thread", concurrency=2, max_queue_depth=4
            )
            # No solves observed yet: the hint falls back to the 1s
            # assumption, scaled by depth/concurrency.
            assert service._retry_after_hint() > 0
            service._solve_time_recent = 5.0  # recent solves take ~5s
            hint = service._retry_after_hint()
            assert hint >= 2.0  # >= recent/concurrency with depth >= 1
            await service.shutdown()

        run(scenario())

    def test_retry_after_tracks_recent_solves_not_lifetime_mean(self):
        """Regression: the hint must follow the *current* workload.

        With a lifetime mean, one early batch of slow solves poisons the
        Retry-After estimate forever.  The EWMA forgets: after a run of
        fast solves the hint must be near the fast regime even though
        the lifetime mean is still dominated by the slow prefix.
        """

        async def scenario():
            service = SolveService(
                executor="thread", concurrency=1, max_queue_depth=4
            )
            make = _cell_factory()
            # Slow prefix: 10 solves at 60s each.
            for _ in range(10):
                cell, outcome = make(wall_time=60.0)
                service._running_cells += 1
                service._finish_cell(cell, outcome)
            # Fast regime: 30 solves at 0.1s each.
            for _ in range(30):
                cell, outcome = make(wall_time=0.1)
                service._running_cells += 1
                service._finish_cell(cell, outcome)
            lifetime_mean = (
                service._solve_time_total / service._counters["solved"]
            )
            assert lifetime_mean > 10.0  # slow prefix still dominates
            hint = service._retry_after_hint()
            assert hint < 1.0  # ...but the hint follows the fast regime
            await service.shutdown()

        run(scenario())


@pytest.fixture()
def saturated_server():
    """A live HTTP daemon with one gated in-flight cell and a full
    queue (depth 1), plus the runner handle to release it."""
    runner = GatedRunner()
    with ServerThread(
        executor="thread",
        concurrency=1,
        max_queue_depth=1,
        runner=runner,
    ) as server:
        client = SolveClient(server.url, timeout=10.0, retries=0)
        running_id = client.submit(problem(0))["id"]
        import time as _time

        for _ in range(200):  # wait until cell 0 is actually running
            if runner.calls:
                break
            _time.sleep(0.01)
        queued_id = client.submit(problem(1))["id"]
        yield server, runner, [running_id, queued_id]
        runner.gate.set()


def raw_post(server, payload):
    req = urllib.request.Request(
        f"{server.url}/v1/jobs",
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(req, timeout=10)


class TestHttpShedding:
    def test_429_with_retry_after_header(self, saturated_server):
        server, _runner, _ids = saturated_server
        payload = {
            "problem": problem_to_dict(problem(2)),
            "solver": {"objective": "period"},
        }
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_post(server, payload)
        exc = excinfo.value
        assert exc.code == 429
        assert float(exc.headers["Retry-After"]) >= 1
        body = json.loads(exc.read().decode())
        assert "queue is full" in body["error"]
        assert body["retry_after"] > 0

    def test_metrics_report_shed_and_depth(self, saturated_server):
        server, _runner, _ids = saturated_server
        client = SolveClient(server.url, retries=0)
        with pytest.raises(ClientError):
            client.submit(problem(3))
        metrics = client.metrics()
        assert metrics["queue"]["max_depth"] == 1
        assert metrics["queue"]["depth"] == 1
        assert metrics["queue"]["shed"] >= 1

    def test_client_honors_retry_after_and_recovers(self, saturated_server):
        server, runner, accepted_ids = saturated_server
        slept = []

        client = SolveClient(server.url, timeout=10.0, retries=3, backoff=0.01)
        original_sleep = __import__("time").sleep

        def tracking_sleep(seconds):
            slept.append(seconds)
            # Free capacity while the client is honoring the hint, so
            # the retry lands on a drained queue.
            runner.gate.set()
            original_sleep(min(seconds, 0.2))

        import repro.client as client_module

        client_module.time.sleep, saved = tracking_sleep, client_module.time.sleep
        try:
            job_id = client.submit(problem(4))["id"]
        finally:
            client_module.time.sleep = saved
        assert slept, "the client must back off on 429"
        # The daemon's hint (>= 0.1s) overrides the 0.01s backoff.
        assert slept[0] >= 0.1
        # Every accepted job still completes: nothing was dropped.
        for accepted in accepted_ids + [job_id]:
            result = client.wait(accepted, timeout=30)
            assert result.status == "ok"

    def test_no_accepted_job_dropped_under_load(self, saturated_server):
        server, runner, accepted_ids = saturated_server
        client = SolveClient(server.url, timeout=10.0, retries=0)
        shed = 0
        for seed in range(5, 10):
            try:
                accepted_ids.append(client.submit(problem(seed))["id"])
            except ClientError:
                shed += 1
        assert shed > 0, "the saturation fixture must shed something"
        runner.gate.set()
        for job_id in accepted_ids:
            result = client.wait(job_id, timeout=30)
            assert result.status == "ok"
        metrics = client.metrics()
        assert metrics["jobs"]["completed"] >= len(accepted_ids)
        assert metrics["jobs"]["shed"] == shed
