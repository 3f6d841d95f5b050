"""The one process pool of :mod:`repro`: a long-lived work-stealing
:class:`WorkerPool` shared by every pooled surface of the process.

Three callers run on it:

* :func:`repro.service.solve_batch` with ``workers=n`` (and so
  :func:`repro.experiments.run_campaign`) through :meth:`WorkerPool.map`:
  the batch is cut into chunks, the per-batch solve configuration travels
  once per worker per batch, and results come back in job order;
* :func:`repro.analysis.front_engine.compute_front_anytime` with
  ``workers=n`` through :meth:`WorkerPool.submit`, whose futures feed its
  sliding window;
* :class:`repro.server.service.SolveService` with ``executor="process"``,
  through :meth:`WorkerPool.submit` and ``asyncio.wrap_future``.

Shape
-----
* :func:`get_pool` starts the pool lazily on first use with the requested
  size; a call asking for another size closes it and starts a new one.
* Every worker has its own pipe.  The parent keeps one FIFO of pending
  tasks (a task is a chunk of jobs, or one submitted call) and hands the
  next one to whichever worker comes back idle, so idle workers take the
  remaining chunks while a straggler holds only its own.  One collector
  thread waits on every pipe and every worker's process sentinel.
* Workers write each result synchronously on their own pipe: no feeder
  thread and no shared lock, so a result is in the pipe before the worker
  starts its next job, and a dying worker can neither lose a result it
  sent nor leave a lock held for the others.
* A worker acknowledges each task before running it.  When a worker dies
  (segfault, ``os._exit``, OOM kill), a task it had not acknowledged goes
  back to the head of the queue (none of it ran), the unfinished jobs of
  an acknowledged task fail with :class:`WorkerDiedError`, and a
  replacement worker is started, so the next call has the full size again.
* Workers are daemonic (they cannot fork), ignore SIGINT (the parent owns
  Ctrl-C), and exit on :meth:`WorkerPool.close`, at the parent's
  interpreter exit, or on their own once their parent has died.  A pooled
  call made inside a worker must run inline: :func:`in_worker` tells.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import multiprocessing as mp
import os
import pickle
import signal
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Deque, List, Optional, Sequence, Set, Tuple

__all__ = [
    "PoolStats",
    "WorkerDiedError",
    "WorkerPool",
    "close_pool",
    "get_pool",
    "in_worker",
]

#: How often an idle worker checks that its parent is still alive.
_PARENT_POLL_S = 0.5

#: How long :meth:`WorkerPool.close` lets a busy worker finish its task
#: before terminating it.
_JOIN_S = 5.0

_PICKLE = pickle.HIGHEST_PROTOCOL

#: True inside a pool worker process.
_IN_WORKER = False

#: Worker-side test seam: set by :func:`_retire_after_task` to make the
#: worker exit (code 9) once its current task's results are sent.
_EXIT_AFTER_TASK = False


class WorkerDiedError(RuntimeError):
    """A job's worker process died before returning its result."""


@dataclass(frozen=True)
class PoolStats:
    """Transport accounting for one :meth:`WorkerPool.map` call.

    ``bytes_jobs`` is the total pickled size of every job chunk sent to
    the workers (the per-job figure reported by the benchmarks is
    ``bytes_jobs / n_jobs``); ``bytes_config`` is the shared payload
    (the batch's solve configuration) times the number of workers it was
    actually sent to.  ``n_crashed`` counts workers seen to die while
    the call ran; a worker that exits right after its last task may be
    seen only after the call returns (:attr:`WorkerPool.n_crashed`
    counts it then).
    """

    bytes_jobs: int
    bytes_config: int
    n_chunks: int
    n_crashed: int


def in_worker() -> bool:
    """Whether this process is a pool worker (pooled calls run inline)."""
    return _IN_WORKER


def _retire_after_task() -> None:
    """Test seam, called from a job: exit this worker once the current
    task's results are sent -- worker churn between tasks."""
    global _EXIT_AFTER_TASK
    _EXIT_AFTER_TASK = True


@dataclass(eq=False)
class _Batch:
    """The shared payload of one :meth:`WorkerPool.map` call."""

    key: int
    blob: bytes
    bytes_sent: int = 0


@dataclass(eq=False)
class _Task:
    """One unit of dispatch: a pickled function and a pickled chunk of
    jobs, one future per job; ``open`` holds the positions still owed."""

    key: int
    fn: bytes
    jobs: bytes
    futures: List[Future]
    batch: Optional[_Batch] = None
    acked: bool = False
    open: Set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.open = set(range(len(self.futures)))


@dataclass(eq=False)
class _Worker:
    """A worker process, the parent's end of its pipe, the task it runs
    and the batch whose shared payload it holds."""

    proc: Any
    conn: Any
    task: Optional[_Task] = None
    batch_key: Optional[int] = None


def _worker_main(conn, parent_pid: int) -> None:
    """Worker loop: run tasks until the stop message, an EOF, or the
    parent's death; acknowledge each task, then send one reply per job."""
    global _IN_WORKER
    _IN_WORKER = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from ..obs.spans import recorder

    # Label this process's spans so a merged trace shows which pool
    # worker ran each solve.
    recorder().configure(proc="pool-%d" % os.getpid())
    shared: Any = None
    while True:
        try:
            while not conn.poll(_PARENT_POLL_S):
                if os.getppid() != parent_pid:
                    return
            message = conn.recv()
            if message is None:
                return
            key, fn_blob, batch_key, shared_blob, jobs_blob = message
            conn.send((key, -1, True, None))
        except (EOFError, OSError):
            return  # the parent is gone
        fn = pickle.loads(fn_blob)
        if shared_blob is not None:
            shared = pickle.loads(shared_blob)
        for pos, args in enumerate(pickle.loads(jobs_blob)):
            if batch_key is not None:
                args = (shared, *args)
            try:
                reply = (key, pos, True, fn(*args))
            except Exception as exc:
                reply = (key, pos, False, _portable(exc))
            try:
                conn.send(reply)
            except OSError:
                return  # the parent is gone
            except Exception as exc:  # the result would not pickle
                conn.send((key, pos, False, _portable(exc)))
        if _EXIT_AFTER_TASK:
            os._exit(9)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError
    carrying its message (the parent must be able to unpickle it)."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=_PICKLE))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _settle(outcomes: List[Tuple[Future, bool, Any]]) -> None:
    """Resolve futures outside the pool lock (done-callbacks may call
    back into the pool)."""
    for future, ok, value in outcomes:
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)


class WorkerPool:
    """A fixed-size pool of long-lived worker processes.

    Use the process-wide instance from :func:`get_pool` rather than
    building one: every pooled surface shares it.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.n_crashed = 0
        self._ctx = mp.get_context()
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._queue: Deque[_Task] = collections.deque()
        self._keys = itertools.count()
        self._closed = False
        with self._lock:
            for _ in range(size):
                self._spawn_locked()
        # Started after the first forks, so no worker inherits a copy of
        # the collector's state mid-update.
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> List[int]:
        """Pids of the live workers."""
        with self._lock:
            return [w.proc.pid for w in self._workers]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` in a worker; ``fn`` and ``args`` must pickle.

        The future fails with :class:`WorkerDiedError` when its worker
        dies mid-call, and with the worker-side exception when ``fn``
        raises.
        """
        future: Future = Future()
        fn_blob = pickle.dumps(fn, protocol=_PICKLE)
        args_blob = pickle.dumps([args], protocol=_PICKLE)
        self._put([_Task(next(self._keys), fn_blob, args_blob, [future])])
        return future

    def map(
        self,
        fn: Callable[..., Any],
        jobs: Sequence[Tuple[Any, ...]],
        chunksize: int,
        shared: Any,
    ) -> Tuple[List[Future], PoolStats]:
        """Run ``fn(shared, *job)`` for every job, ``chunksize`` jobs per
        task, and block until every job has an outcome.

        ``shared`` is pickled once and sent once per worker that runs a
        chunk of this call.  Returns one done future per job, in job
        order, plus the call's :class:`PoolStats`.
        """
        fn_blob = pickle.dumps(fn, protocol=_PICKLE)
        batch = _Batch(next(self._keys), pickle.dumps(shared, protocol=_PICKLE))
        futures: List[Future] = [Future() for _ in jobs]
        tasks = [
            _Task(
                next(self._keys),
                fn_blob,
                pickle.dumps(list(jobs[lo : lo + chunksize]), protocol=_PICKLE),
                futures[lo : lo + chunksize],
                batch,
            )
            for lo in range(0, len(jobs), chunksize)
        ]
        crashed_before = self.n_crashed
        self._put(tasks)
        wait(futures)
        return futures, PoolStats(
            bytes_jobs=sum(len(task.jobs) for task in tasks),
            bytes_config=batch.bytes_sent,
            n_chunks=len(tasks),
            n_crashed=self.n_crashed - crashed_before,
        )

    def close(self) -> None:
        """Stop the pool: pending tasks fail, running ones get
        :data:`_JOIN_S` seconds to finish, then every worker is gone."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = list(self._queue)
            self._queue.clear()
            workers = list(self._workers)
            for worker in workers:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        error = RuntimeError("worker pool closed before running this job")
        _settle([(f, False, error) for task in dropped for f in task.futures])
        # The collector reaps every worker as it exits and returns once
        # none is left; it is the only thread that joins them.
        self._collector.join(_JOIN_S)
        if self._collector.is_alive():
            # Popen only signals a process nobody has waited for, so a
            # worker the collector already reaped is skipped.
            for worker in workers:
                worker.proc.terminate()
            self._collector.join()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _spawn_locked(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, os.getpid()),
            name="repro-pool-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._workers.append(_Worker(proc, parent_conn))

    def _put(self, tasks: List[_Task]) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            for task in tasks:
                # Running from the start: a queued job cannot be cancelled.
                for future in task.futures:
                    future.set_running_or_notify_cancel()
            self._queue.extend(tasks)
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        idle = [w for w in self._workers if w.task is None]
        while idle and self._queue:
            task = self._queue.popleft()
            worker = idle.pop(0)
            worker.task = task
            batch = task.batch
            shared_blob = None
            if batch is not None and worker.batch_key != batch.key:
                shared_blob = batch.blob
                worker.batch_key = batch.key
                batch.bytes_sent += len(shared_blob)
            message = (
                task.key,
                task.fn,
                None if batch is None else batch.key,
                shared_blob,
                task.jobs,
            )
            try:
                worker.conn.send(message)
            except OSError:
                pass  # the worker just died; its sentinel requeues the task

    def _collect(self) -> None:
        """Collector thread: route replies to futures, bury dead workers,
        start their replacements, and keep idle workers fed."""
        while True:
            with self._lock:
                if self._closed and not self._workers:
                    return
                waitables = [w.conn for w in self._workers]
                waitables += [w.proc.sentinel for w in self._workers]
            ready = set(connection.wait(waitables))
            outcomes: List[Tuple[Future, bool, Any]] = []
            with self._lock:
                for worker in list(self._workers):
                    if worker.conn in ready:
                        self._drain_locked(worker, outcomes)
                    if worker.proc.sentinel in ready:
                        self._drain_locked(worker, outcomes)
                        self._bury_locked(worker, outcomes)
                if not self._closed:
                    self._dispatch_locked()
            _settle(outcomes)

    def _drain_locked(self, worker: _Worker, outcomes) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                key, pos, ok, value = worker.conn.recv()
            except (EOFError, OSError):
                return  # dead or dying; its sentinel follows
            task = worker.task
            if task is None or task.key != key:
                continue
            if pos < 0:
                task.acked = True
                continue
            task.open.discard(pos)
            outcomes.append((task.futures[pos], ok, value))
            if not task.open:
                worker.task = None

    def _bury_locked(self, worker: _Worker, outcomes) -> None:
        self._workers.remove(worker)
        worker.proc.join()
        worker.conn.close()
        if worker.proc.exitcode != 0:
            self.n_crashed += 1
        task = worker.task
        if task is not None and (task.acked or self._closed):
            error = WorkerDiedError(
                f"worker process {worker.proc.pid} died (exit code "
                f"{worker.proc.exitcode}) before returning this result"
            )
            outcomes.extend((task.futures[p], False, error) for p in sorted(task.open))
        elif task is not None:
            self._queue.appendleft(task)  # none of it ran
        if not self._closed:
            self._spawn_locked()


_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()


def get_pool(size: int) -> WorkerPool:
    """The process-wide pool with ``size`` workers, started on first use;
    a different ``size`` closes the running pool and starts a new one.

    Raises
    ------
    RuntimeError
        Inside a pool worker (workers cannot fork; run the call inline).
    """
    global _POOL
    if _IN_WORKER:
        raise RuntimeError("a pool worker cannot start a pool; run the call inline")
    with _POOL_LOCK:
        if _POOL is None or _POOL.size != size or _POOL.closed:
            if _POOL is not None:
                _POOL.close()
            _POOL = WorkerPool(size)
        return _POOL


def close_pool() -> None:
    """Close the process-wide pool, if one is running (also run at
    interpreter exit)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()


atexit.register(close_pool)
