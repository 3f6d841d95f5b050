"""Tests of the one long-lived worker pool (:mod:`repro.service.pool`).

Result ordering is deterministic under work-stealing, a crashed worker
is contained to error items (or failed futures) for the jobs it had not
finished and is replaced before the next call, a worker that exits
between tasks loses nothing, the pool is shared by every pooled call of
the process, and no worker outlives its parent (see also the autouse
process-leak fixture in ``tests/conftest.py``).  Pickle is the one
transport: instances survive the trip to a worker intact for every
platform class, rule and communication model, and pooled solutions are
byte-identical to sequential ones.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import wait
from pathlib import Path

import pytest

from repro import CommunicationModel, MappingRule, PlatformClass
from repro.analysis.front_engine import compute_front_anytime
from repro.generators import small_random_problem
from repro.io import problem_to_dict
from repro.service import solve_batch, solve_one
from repro.service.batch import _solve_pooled
from repro.service.pool import (
    WorkerDiedError,
    WorkerPool,
    close_pool,
    get_pool,
    in_worker,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _solve_config(**overrides):
    config = {
        "objective": "period",
        "method": "registry",
        "thresholds": None,
        "strategy": None,
        "budget": None,
        "problem": None,
        "trace": None,
    }
    config.update(overrides)
    return config


def _die():
    os._exit(7)


def _raise_value_error(message):
    raise ValueError(message)


def _unpicklable_result():
    return lambda: None


class _NeedsTwoArgs(Exception):
    """Pickles, but does not unpickle: ``__init__`` wants two args."""

    def __init__(self, first, second):
        super().__init__(f"{first}/{second}")


def _raise_needs_two_args():
    raise _NeedsTwoArgs("left", "right")


def _sleep_then_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _start_nested_pool():
    get_pool(1)


def _problem_dict_in_worker(problem):
    return problem_to_dict(problem)


def _values_in_worker(problem, mapping):
    values = problem.evaluation_context().evaluate(mapping)
    return values.period, values.latency, values.energy


def _shared_plus(shared, value):
    return len(shared) + value


def _pid_of_nested_batch():
    """Runs in a worker: a pooled batch there must solve inline."""
    result = solve_batch([small_random_problem(0)], workers=2)
    return os.getpid(), result.workers, result.items[0].status


def _same_solutions(got, want):
    assert [item.index for item in got.items] == [x.index for x in want.items]
    for ref, item in zip(want.items, got.items):
        assert item.status == ref.status
        assert item.solution.mapping == ref.solution.mapping
        assert item.solution.objective == ref.solution.objective
        assert item.solution.values == ref.solution.values


class TestWorkStealingPool:
    def test_deterministic_ordering_per_job_chunks(self):
        problems = [small_random_problem(seed) for seed in range(10)]
        # chunksize=1 maximizes stealing; ordering must still hold.
        result = solve_batch(problems, workers=3, chunksize=1)
        assert [item.index for item in result.items] == list(range(10))
        assert result.n_ok == 10

    def test_error_containment_per_item(self):
        problems = [small_random_problem(seed) for seed in range(4)]
        bad = problems[1]
        object.__setattr__(bad.apps[0], "_work_prefix", None)  # poison
        items, _stats = _solve_pooled(
            list(enumerate(problems)), _solve_config(), 2, 1
        )
        # A poisoned instance fails its own item; nothing else.
        assert [item.index for item in items] == [0, 1, 2, 3]
        assert sum(1 for item in items if item.status != "ok") <= 1

    def test_crash_containment(self):
        problems = [small_random_problem(seed) for seed in range(6)]
        items, stats = _solve_pooled(
            list(enumerate(problems)), _solve_config(_crash_on_index=0), 2, 1
        )
        assert stats.n_crashed == 1
        assert items[0].status == "error"
        assert "died" in items[0].error
        assert sum(1 for item in items if item.status == "ok") >= 4

    def test_worker_churn_between_chunks_loses_nothing(self):
        """`maxtasksperchild`-style churn: a worker that dies *between*
        chunks (its finished results already sent) must cost zero items
        -- the unclaimed chunks drain to the other workers.

        Complements ``test_crash_containment``, which kills a worker
        *mid*-chunk and rightly loses that job.
        """
        problems = [small_random_problem(seed) for seed in range(8)]
        # The worker that completes the chunk holding index 1 exits
        # hard (code 9) right after sending that chunk's results.
        items, stats = _solve_pooled(
            list(enumerate(problems)), _solve_config(_exit_after_index=1), 2, 2
        )
        # The batch may return before the retired worker has finished
        # exiting, so the pool's own count is polled for it.
        pool = get_pool(2)
        deadline = time.monotonic() + 10.0
        while pool.n_crashed < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.n_crashed == 1
        assert len(pool.worker_pids()) == 2
        assert [item.index for item in items] == list(range(8))
        errors = [item for item in items if item.status == "error"]
        assert errors == []
        assert all(item.status == "ok" for item in items)

    def test_stats_count_job_bytes(self):
        problems = [small_random_problem(seed) for seed in range(5)]
        result = solve_batch(problems, workers=2)
        assert result.stats["bytes_job_payload"] > 0
        assert result.stats["n_chunks"] >= 1
        assert result.stats["n_crashed_workers"] == 0


class TestCrashRecovery:
    def test_killed_worker_is_replaced_before_the_next_batch(self):
        problems = [small_random_problem(seed) for seed in range(6)]
        sequential = solve_batch(problems)
        items, stats = _solve_pooled(
            list(enumerate(problems)), _solve_config(_crash_on_index=2), 2, 1
        )
        assert stats.n_crashed == 1
        assert items[2].status == "error"
        pool = get_pool(2)
        pids = pool.worker_pids()
        assert len(pids) == 2
        again = solve_batch(problems, workers=2, chunksize=1)
        assert again.n_ok == len(problems)
        assert again.stats["n_crashed_workers"] == 0
        _same_solutions(again, sequential)
        assert get_pool(2) is pool
        assert pool.worker_pids() == pids

    def test_submit_future_fails_when_its_worker_dies(self):
        pool = get_pool(2)
        with pytest.raises(WorkerDiedError, match="died"):
            pool.submit(_die).result(timeout=30)
        assert len(pool.worker_pids()) == 2
        assert pool.submit(os.getpid).result(timeout=30) in pool.worker_pids()

    def test_submit_future_carries_the_job_exception(self):
        future = get_pool(2).submit(_raise_value_error, "boom")
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=30)


class TestOnePool:
    def test_batches_and_fronts_share_the_workers(self):
        problems = [small_random_problem(seed, n_apps=2) for seed in range(6)]
        first = solve_batch(problems, workers=2)
        pids = get_pool(2).worker_pids()
        second = solve_batch(problems, workers=2)
        front = compute_front_anytime(problems[0], max_points=8, workers=2)
        assert get_pool(2).worker_pids() == pids
        _same_solutions(first, solve_batch(problems))
        _same_solutions(second, first)
        assert front.front == compute_front_anytime(problems[0], max_points=8).front

    def test_another_size_restarts_the_pool(self):
        small = get_pool(1)
        assert len(small.worker_pids()) == 1
        big = get_pool(2)
        assert small.closed and big is not small
        assert len(big.worker_pids()) == 2

    def test_pooled_call_inside_a_worker_runs_inline(self):
        pool = get_pool(2)
        pid, workers, status = pool.submit(_pid_of_nested_batch).result(timeout=60)
        assert pid in pool.worker_pids()
        assert (workers, status) == (1, "ok")
        assert pool.worker_pids() == get_pool(2).worker_pids()

    def test_close_stops_every_worker(self):
        pool = get_pool(2)
        futures = [pool.submit(os.getpid) for _ in range(4)]
        wait(futures, timeout=30)
        close_pool()
        assert pool.closed
        assert not [
            p
            for p in multiprocessing.active_children()
            if p.name == "repro-pool-worker"
        ]
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(os.getpid)


ALL_CLASSES = list(PlatformClass)
ALL_RULES = [MappingRule.ONE_TO_ONE, MappingRule.INTERVAL]


class TestPickleTransport:
    @pytest.mark.parametrize("platform_class", ALL_CLASSES)
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_round_trip_all_classes_and_rules(self, platform_class, rule):
        problem = small_random_problem(
            7, platform_class=platform_class, rule=rule, n_apps=2
        )
        shipped = get_pool(2).submit(_problem_dict_in_worker, problem)
        # Dict form is the canonical content fingerprint (it feeds the
        # cache key): identical dicts mean identical instances.
        assert shipped.result(timeout=60) == problem_to_dict(problem)

    @pytest.mark.parametrize(
        "model", [CommunicationModel.OVERLAP, CommunicationModel.NO_OVERLAP]
    )
    def test_round_trip_preserves_evaluation(self, model, fig1_problem):
        problem = type(fig1_problem)(
            apps=fig1_problem.apps, platform=fig1_problem.platform, model=model
        )
        solution = solve_one(problem, "period")
        # The solved mapping must evaluate bit-identically on the
        # worker's copy of the instance.
        future = get_pool(2).submit(_values_in_worker, problem, solution.mapping)
        assert future.result(timeout=60) == (
            solution.values.period,
            solution.values.latency,
            solution.values.energy,
        )

    @pytest.mark.parametrize("platform_class", ALL_CLASSES)
    def test_byte_identical_solutions(self, platform_class):
        problems = [
            small_random_problem(
                seed,
                platform_class=platform_class,
                rule=MappingRule.INTERVAL,
                n_apps=2,
            )
            for seed in range(6)
        ]
        sequential = solve_batch(problems, objective="period")
        pooled = solve_batch(problems, objective="period", workers=2)
        for ref, item in zip(sequential.items, pooled.items):
            assert item.index == ref.index
            assert item.status == ref.status
            if ref.solution is None:
                assert item.solution is None
                continue
            assert pickle.dumps(item.solution.mapping) == pickle.dumps(
                ref.solution.mapping
            )
            assert item.solution.objective == ref.solution.objective
            assert item.solution.values == ref.solution.values

    def test_unpicklable_result_fails_only_its_future(self):
        pool = get_pool(2)
        pids = pool.worker_pids()
        with pytest.raises(Exception, match="pickle"):
            pool.submit(_unpicklable_result).result(timeout=30)
        assert pool.submit(os.getpid).result(timeout=30) in pids
        assert pool.worker_pids() == pids
        assert pool.n_crashed == 0

    def test_exception_that_does_not_unpickle_arrives_as_runtime_error(self):
        future = get_pool(2).submit(_raise_needs_two_args)
        with pytest.raises(RuntimeError, match="_NeedsTwoArgs: left/right"):
            future.result(timeout=30)


class TestPoolLifecycle:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            WorkerPool(0)

    def test_close_is_idempotent(self):
        pool = get_pool(2)
        pool.close()
        pool.close()
        close_pool()
        close_pool()
        assert pool.closed

    def test_close_fails_queued_jobs_and_finishes_running_ones(self):
        pool = get_pool(1)
        running = pool.submit(_sleep_then_pid, 0.3)
        queued = [pool.submit(os.getpid) for _ in range(3)]
        close_pool()
        assert running.result(timeout=30) > 0
        for future in queued:
            with pytest.raises(RuntimeError, match="closed before running"):
                future.result(timeout=30)

    def test_dead_worker_is_reaped_and_replaced(self):
        pool = get_pool(2)
        before = set(pool.worker_pids())
        with pytest.raises(WorkerDiedError):
            pool.submit(_die).result(timeout=30)
        after = set(pool.worker_pids())
        dead = before - after
        assert len(dead) == 1 and len(after) == 2
        assert _process_state(dead.pop()) is None  # no zombie left behind
        children = {
            p.pid
            for p in multiprocessing.active_children()
            if p.name == "repro-pool-worker"
        }
        assert children == after

    def test_map_of_no_jobs_returns_nothing(self):
        futures, stats = get_pool(2).map(_shared_plus, [], 1, "abc")
        assert futures == []
        assert (stats.n_chunks, stats.bytes_jobs, stats.bytes_config) == (0, 0, 0)

    def test_shared_payload_travels_once_per_worker(self):
        shared = "x" * 10_000
        jobs = [(value,) for value in range(8)]
        futures, stats = get_pool(2).map(_shared_plus, jobs, 1, shared)
        assert [f.result() for f in futures] == [
            _shared_plus(shared, *job) for job in jobs
        ]
        assert stats.n_chunks == len(jobs)
        blob = len(pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL))
        assert blob <= stats.bytes_config <= 2 * blob

    def test_in_worker_tells_workers_from_the_parent(self):
        assert in_worker() is False
        assert get_pool(2).submit(in_worker).result(timeout=30) is True

    def test_a_worker_cannot_start_a_pool(self):
        future = get_pool(2).submit(_start_nested_pool)
        with pytest.raises(RuntimeError, match="cannot start a pool"):
            future.result(timeout=30)


def _process_state(pid):
    """``None`` when ``pid`` is gone, else its /proc state letter."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to watch the orphan"
)
def test_worker_exits_when_its_parent_is_killed():
    script = (
        "import os, sys, time\n"
        "from repro.service import get_pool\n"
        "pool = get_pool(1)\n"
        "print(pool.submit(os.getpid).result(timeout=60), flush=True)\n"
        "time.sleep(120)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    parent = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, text=True
    )
    worker = None
    try:
        worker = int(parent.stdout.readline())
        assert _process_state(worker) not in (None, "Z")
        os.kill(parent.pid, signal.SIGKILL)
        parent.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if _process_state(worker) in (None, "Z"):
                break
            time.sleep(0.05)
        assert _process_state(worker) in (None, "Z"), "orphaned worker kept running"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        parent.stdout.close()
        if worker is not None and _process_state(worker) not in (None, "Z"):
            os.kill(worker, signal.SIGKILL)
