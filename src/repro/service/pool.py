"""Work-stealing process pool for :func:`repro.service.solve_batch`.

``ProcessPoolExecutor.map`` hands each worker a *static* slice of the
batch up front; one straggler chunk (a budgeted NP-hard cell racing a
portfolio) serializes the whole tail while the other workers idle.  This
module replaces it with the classic shared-queue shape:

* the parent pre-pickles the batch into *chunks* (the existing
  ``chunksize`` granularity) and puts them on one shared task queue;
* ``n`` plain :class:`multiprocessing.Process` workers pull chunks
  whenever they run dry — stragglers steal nothing from anyone, idle
  workers steal the remaining chunks;
* results stream back over one shared result pipe and are re-ordered by
  index in the parent, so the caller-visible ordering is deterministic
  regardless of which worker solved what.  Workers write each result
  synchronously under a shared lock (no feeder thread), so a result is
  in the pipe before the worker takes its next job.

Raw processes (not an ``Executor``) because a shared task queue cannot
cross the ``initargs`` pickle boundary — queues are inherited, not
pickled.  Chunks are pickled *once, by the parent* (``pickle.dumps``
before enqueue), which is also what makes the transport benchmarks
honest: :class:`PoolStats` reports exactly the bytes that crossed the
job pipe, with no double serialization.

Failure containment extends PR 3's per-item guarantee to worker death:
a chunk lost to a crashed worker (segfault, ``os._exit``, OOM kill)
surfaces as ``status="error"`` items for the missing indices — the
surviving workers keep draining the queue and the batch still returns
every index exactly once.  Because results are written synchronously, a
worker that dies between jobs loses none of the results it finished and
never dies holding the write lock (a ``multiprocessing.Queue`` feeder
thread killed mid-write would leave the lock held and block every
surviving worker for good).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from .transport import ShmReader

__all__ = ["PoolStats", "run_work_stealing"]

#: Empty bytes on the task queue = "no more chunks, exit now".  One is
#: enqueued per worker, after all chunks.
_SENTINEL = b""

#: Parent-side poll interval while waiting on the result pipe; each
#: timeout is used to re-check worker liveness.
_POLL_SECONDS = 0.2


@dataclass(frozen=True)
class PoolStats:
    """Transport accounting for one pool run.

    ``bytes_jobs`` is the total pickled size of every job chunk that
    crossed the task queue (the per-job figure reported by the
    benchmarks is ``bytes_jobs / n_jobs``); ``bytes_config`` is the
    per-worker configuration shipped once per process (config dict,
    plus shm descriptors under the shm transport).  ``n_crashed``
    counts workers that exited with a nonzero code.
    """

    bytes_jobs: int
    bytes_config: int
    n_chunks: int
    n_crashed: int


def _pool_worker(
    task_q, result_w, result_lock, config: Dict[str, Any], shm_name
) -> None:
    """Worker loop: attach (shm transport), drain chunks until the
    sentinel, send one :class:`~repro.service.batch.BatchItem` per
    index back to the parent over the shared result pipe."""
    # Lazy import: batch.py imports this module at the top level; the
    # worker only runs post-fork, when both modules are fully loaded.
    from ..obs.spans import recorder as _span_recorder
    from .batch import _init_worker, _solve_indexed, _solve_job

    # Label this process's spans so a merged trace shows which pool
    # worker ran each solve (the trace context itself is installed by
    # ``_init_worker`` from ``config["trace"]``).
    _span_recorder().configure(proc="pool-%d" % os.getpid())
    _init_worker(config)
    crash_on = config.get("_crash_on_index")
    exit_after = config.get("_exit_after_index")
    descriptors = config.get("shm_descriptors")
    reader = ShmReader(shm_name) if shm_name is not None else None
    try:
        while True:
            blob = task_q.get()
            if blob == _SENTINEL:
                break
            chunk = pickle.loads(blob)
            for index, payload in chunk:
                if crash_on is not None and index == crash_on:
                    # Test seam: die *hard* (no cleanup, like a segfault
                    # or OOM kill) so crash containment is exercised for
                    # real.  See tests/service/test_transport.py.
                    os._exit(13)
                if reader is not None:
                    item = _solve_job(
                        index,
                        reader.decode(descriptors[index]),
                        config["objective"],
                        config["method"],
                        config["thresholds"],
                        config["strategy"],
                        config["budget"],
                    )
                else:
                    item = _solve_indexed((index, payload))
                with result_lock:
                    result_w.send(item)
            if exit_after is not None and any(
                index == exit_after for index, _ in chunk
            ):
                # Test seam: die *between* chunks, results sent — the
                # `maxtasksperchild`-style churn shape (a worker
                # recycled after finishing its unit of work).  Unlike
                # `_crash_on_index`, nothing is lost: the queue keeps
                # the remaining chunks for the surviving workers.
                os._exit(9)
    except KeyboardInterrupt:  # pragma: no cover - parent handles teardown
        pass
    finally:
        if reader is not None:
            reader.close()


def run_work_stealing(
    jobs: Sequence[Tuple[int, Any]],
    config: Dict[str, Any],
    n_workers: int,
    chunksize: int,
    shm_name: Optional[str] = None,
) -> Tuple[List[Any], PoolStats]:
    """Run a batch through the work-stealing pool.

    Parameters
    ----------
    jobs:
        ``(index, payload)`` pairs; ``payload`` is a problem instance
        under the pickle transport and ``None`` under shm (the worker
        decodes ``config["shm_descriptors"][index]``) or the
        shared-instance path.
    config:
        The per-worker solve configuration (see ``_init_worker``),
        shipped once per process.
    n_workers:
        Number of worker processes to fork.
    chunksize:
        Work-unit granularity: jobs per queue entry.
    shm_name:
        Shared-memory segment name for workers to attach, or ``None``
        for the pickle / shared-instance transports.

    Returns
    -------
    (items, stats)
        ``items`` index-ordered, exactly one per job — indices lost to
        a crashed worker come back as ``status="error"`` items — plus
        the :class:`PoolStats` transport accounting.
    """
    from .batch import BatchItem

    n_jobs = len(jobs)
    chunks = [
        pickle.dumps(jobs[i : i + chunksize], protocol=pickle.HIGHEST_PROTOCOL)
        for i in range(0, n_jobs, chunksize)
    ]
    bytes_config = len(
        pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
    ) * n_workers

    ctx = mp.get_context()
    task_q = ctx.Queue()
    result_r, result_w = ctx.Pipe(duplex=False)
    result_lock = ctx.Lock()
    for blob in chunks:
        task_q.put(blob)
    for _ in range(n_workers):
        task_q.put(_SENTINEL)

    procs = [
        ctx.Process(
            target=_pool_worker,
            args=(task_q, result_w, result_lock, config, shm_name),
            daemon=True,
        )
        for _ in range(n_workers)
    ]
    results: Dict[int, Any] = {}
    try:
        for proc in procs:
            proc.start()
        while len(results) < n_jobs:
            if result_r.poll(_POLL_SECONDS):
                item = result_r.recv()
                results[item.index] = item
            elif all(proc.exitcode is not None for proc in procs):
                # Every worker is gone; whatever is still in the pipe
                # drains below, then missing indices are filled in as
                # crash errors.
                break
        deadline = time.monotonic() + 1.0
        while len(results) < n_jobs and time.monotonic() < deadline:
            if not result_r.poll(_POLL_SECONDS):
                break
            item = result_r.recv()
            results[item.index] = item
        # Workers exit on their own via the sentinels; join them before
        # the teardown below so a normal completion is not miscounted
        # as a crash by terminate().
        for proc in procs:
            proc.join(timeout=5.0)
        n_crashed = sum(
            1 for proc in procs if proc.exitcode not in (0, None)
        )
    finally:
        for proc in procs:
            if proc.exitcode is None:
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
        # Unblock interpreter shutdown even with unread queue buffers
        # (KeyboardInterrupt mid-batch leaves chunks on the task queue).
        task_q.close()
        task_q.cancel_join_thread()
        result_r.close()
        result_w.close()

    items: List[Any] = []
    for index, _payload in jobs:
        if index in results:
            items.append(results[index])
        else:
            items.append(
                BatchItem(
                    index=index,
                    status="error",
                    wall_time=0.0,
                    error=(
                        "worker process died before returning this result "
                        f"({n_crashed} worker(s) crashed)"
                    ),
                )
            )
    stats = PoolStats(
        bytes_jobs=sum(len(blob) for blob in chunks),
        bytes_config=bytes_config,
        n_chunks=len(chunks),
        n_crashed=n_crashed,
    )
    return items, stats
