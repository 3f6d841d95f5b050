"""Lightweight structured tracing.

Design goals, in priority order:

1. **Near-zero cost when idle.**  Every instrumentation point first does
   a single :class:`contextvars.ContextVar` read; when no trace is
   active (library use, benchmarks with obs disabled) nothing else runs.
2. **Cross-process portability.**  Spans are plain dicts.  A worker
   process records spans into its own per-process ring buffer and the
   batch layer moves them back to the parent attached to result items
   (:func:`take`), so a daemon can ingest solver-phase spans produced
   inside executor/pool workers into its own buffer.
3. **No dependencies.**  Stdlib only; the ring buffer is a deque behind
   one lock, and the optional JSONL sink is a plain append-mode file.

Span schema (one JSON object per span)::

    {
      "trace_id": "t-4f2a9c11d03b",   # shared by every span of a request
      "span_id":  "s-1a2b-3",         # unique within the fleet
      "parent_id": "s-..." | None,    # tree edge
      "name": "solve.evaluate",       # dotted phase name
      "start": 1754640000.123,        # wall clock (time.time), for display
      "duration": 0.00042,            # seconds, from a monotonic clock
      "proc": "daemon-0",             # recording process label
      "attrs": {...},                 # optional small payload
    }

Phase accumulation: per-span recording inside a hill-climb step would
flood the buffer (thousands of spans per solve), so engines use
:func:`track` to accumulate (total seconds, call count) per phase name
into a context-local dict opened by :func:`collect`; when the enclosing
collect span closes, one *aggregated* child span is emitted per phase
with a ``calls`` attribute.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "TRACE_HEADER",
    "PARENT_HEADER",
    "CLIENT_SEND_HEADER",
    "SpanRecorder",
    "collect",
    "configure",
    "current_parent_id",
    "current_trace_id",
    "enabled",
    "new_span_id",
    "new_trace_id",
    "record_span",
    "recorder",
    "span",
    "trace_context",
    "track",
]

TRACE_HEADER = "X-Repro-Trace-Id"
PARENT_HEADER = "X-Repro-Parent-Id"
CLIENT_SEND_HEADER = "X-Repro-Client-Send"

DEFAULT_RING_SIZE = 8192

# (trace_id, parent_span_id) of the active trace, or None when no trace
# is being recorded.  One ContextVar for both halves keeps the disabled
# fast path to a single .get().
_TRACE: ContextVar[Optional[Tuple[str, Optional[str]]]] = ContextVar(
    "repro_obs_trace", default=None
)

# Phase accumulator opened by collect(); maps phase name -> [total_s, calls].
_PHASES: ContextVar[Optional[Dict[str, List[float]]]] = ContextVar(
    "repro_obs_phases", default=None
)

_ENABLED = os.environ.get("REPRO_OBS", "1") not in ("0", "false", "no", "off")

_id_counter = itertools.count(1)
_id_lock = threading.Lock()


def _next_seq() -> int:
    with _id_lock:
        return next(_id_counter)


def new_trace_id() -> str:
    """Return a fresh trace id (fleet-unique with high probability)."""
    return "t-%08x%04x" % (
        int(time.time() * 1000) & 0xFFFFFFFF,
        (os.getpid() * 31 + _next_seq()) & 0xFFFF,
    )


def new_span_id() -> str:
    """Return a span id unique within the fleet (pid + process counter)."""
    return "s-%x-%x" % (os.getpid(), _next_seq())


class SpanRecorder:
    """Thread-safe in-process ring buffer of finished spans."""

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE, proc: Optional[str] = None):
        self._lock = threading.Lock()
        self._ring_size = int(ring_size)
        self._spans: List[Dict[str, Any]] = []
        self._ids: set = set()
        self._jsonl_path: Optional[str] = None
        self._proc = proc

    @property
    def proc(self) -> str:
        # Computed per call rather than cached at construction: a forked
        # pool worker inherits the parent's recorder, and a cached label
        # would stamp the worker's spans with the parent's pid.
        return self._proc or ("pid-%d" % os.getpid())

    def configure(
        self,
        *,
        ring_size: Optional[int] = None,
        jsonl_path: Optional[str] = None,
        proc: Optional[str] = None,
    ) -> None:
        with self._lock:
            if ring_size is not None:
                self._ring_size = int(ring_size)
                self._evict_locked()
            if jsonl_path is not None:
                self._jsonl_path = jsonl_path or None
            if proc is not None:
                self._proc = proc

    def _evict_locked(self) -> None:
        excess = len(self._spans) - self._ring_size
        if excess > 0:
            for evicted in self._spans[:excess]:
                self._ids.discard(evicted.get("span_id"))
            del self._spans[:excess]

    def record(self, span_dict: Dict[str, Any]) -> None:
        span_dict.setdefault("proc", self.proc)
        with self._lock:
            self._spans.append(span_dict)
            sid = span_dict.get("span_id")
            if sid is not None:
                self._ids.add(sid)
            self._evict_locked()
            path = self._jsonl_path
        if path:
            try:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(span_dict, sort_keys=True) + "\n")
            except OSError:
                pass

    def ingest(self, spans: Iterable[Dict[str, Any]]) -> int:
        """Record spans produced by another process, keeping their proc.

        Idempotent per span id: a span already in the ring is skipped.
        A fork-started pool worker inherits this ring's contents, so the
        pre-dispatch spans of a trace ride back on the first result item
        the worker returns; without the guard they would appear twice.
        """
        n = 0
        for span_dict in spans:
            if not isinstance(span_dict, dict):
                continue
            sid = span_dict.get("span_id")
            with self._lock:
                if sid is not None and sid in self._ids:
                    continue
            self.record(dict(span_dict))
            n += 1
        return n

    def spans_for(self, trace_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            found = [dict(s) for s in self._spans if s.get("trace_id") == trace_id]
        found.sort(key=lambda s: (s.get("start", 0.0), s.get("span_id", "")))
        return found

    def take(self, trace_id: str) -> List[Dict[str, Any]]:
        """Remove and return all spans of ``trace_id`` (for hand-off)."""
        with self._lock:
            taken = [s for s in self._spans if s.get("trace_id") == trace_id]
            if taken:
                self._spans = [s for s in self._spans if s.get("trace_id") != trace_id]
                for s in taken:
                    self._ids.discard(s.get("span_id"))
        taken.sort(key=lambda s: (s.get("start", 0.0), s.get("span_id", "")))
        return taken

    def trace_ids(self) -> List[str]:
        with self._lock:
            seen: Dict[str, None] = {}
            for s in self._spans:
                seen.setdefault(s.get("trace_id", ""), None)
        return [t for t in seen if t]

    def clear(self) -> None:
        with self._lock:
            self._spans = []
            self._ids = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_RECORDER = SpanRecorder()


def _fresh_locks_in_child() -> None:
    """Give a forked child (a pool worker) unheld locks: the worker pool
    forks replacement workers from its collector thread, while another
    thread of the parent may be holding one of these."""
    global _id_lock
    _id_lock = threading.Lock()
    _RECORDER._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_fresh_locks_in_child)


def recorder() -> SpanRecorder:
    """Return the per-process global span recorder."""
    return _RECORDER


def configure(
    *,
    enabled: Optional[bool] = None,
    ring_size: Optional[int] = None,
    jsonl_path: Optional[str] = None,
    proc: Optional[str] = None,
) -> None:
    """Configure process-wide tracing (enable flag, ring, sink, label)."""
    global _ENABLED
    if enabled is not None:
        _ENABLED = bool(enabled)
    _RECORDER.configure(ring_size=ring_size, jsonl_path=jsonl_path, proc=proc)


def enabled() -> bool:
    return _ENABLED


def current_trace_id() -> Optional[str]:
    ctx = _TRACE.get()
    return ctx[0] if ctx is not None else None


def current_parent_id() -> Optional[str]:
    ctx = _TRACE.get()
    return ctx[1] if ctx is not None else None


@contextmanager
def trace_context(
    trace_id: Optional[str], parent_id: Optional[str] = None
) -> Iterator[None]:
    """Run a block with ``trace_id`` as the ambient trace (scoped)."""
    token = _TRACE.set((trace_id, parent_id) if trace_id else None)
    try:
        yield
    finally:
        _TRACE.reset(token)


def record_span(
    name: str,
    *,
    start: float,
    duration: float,
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    span_id: Optional[str] = None,
    **attrs: Any,
) -> Optional[str]:
    """Record a span from explicit timestamps (e.g. queue-wait).

    ``trace_id``/``parent_id`` default to the ambient context.  Returns
    the span id, or ``None`` when tracing is off / no trace is active.
    """
    if not _ENABLED:
        return None
    if trace_id is None:
        ctx = _TRACE.get()
        if ctx is None:
            return None
        trace_id = ctx[0]
        if parent_id is None:
            parent_id = ctx[1]
    sid = span_id or new_span_id()
    _RECORDER.record(
        {
            "trace_id": trace_id,
            "span_id": sid,
            "parent_id": parent_id,
            "name": name,
            "start": float(start),
            "duration": float(duration),
            "attrs": attrs,
        }
    )
    return sid


class span:
    """Context manager recording one span around a block.

    No-op (and allocation-light) when tracing is disabled or no trace is
    active.  Exposes ``span_id`` (``None`` when inactive) and a mutable
    ``attrs`` dict that can be filled before exit.
    """

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_start_wall",
        "_start_perf",
    )

    def __init__(self, name: str, **attrs: Any):
        self.name = name
        self.attrs = attrs
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    def __enter__(self) -> "span":
        ctx = _TRACE.get()
        if ctx is None or not _ENABLED:
            return self
        self.trace_id, self.parent_id = ctx
        self.span_id = new_span_id()
        self._token = _TRACE.set((self.trace_id, self.span_id))
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.span_id is None:
            return False
        duration = time.perf_counter() - self._start_perf
        _TRACE.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _RECORDER.record(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start": self._start_wall,
                "duration": duration,
                "attrs": self.attrs,
            }
        )
        return False


class _NullTrack:
    """Shared no-op phase tracker (returned when no collector is open)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTrack":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_TRACK = _NullTrack()


class _Track:
    __slots__ = ("_acc", "_name", "_t0")

    def __init__(self, acc: Dict[str, List[float]], name: str):
        self._acc = acc
        self._name = name

    def __enter__(self) -> "_Track":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._t0
        entry = self._acc.get(self._name)
        if entry is None:
            self._acc[self._name] = [elapsed, 1.0]
        else:
            entry[0] += elapsed
            entry[1] += 1.0
        return False


def track(name: str):
    """Accumulate a phase timing into the innermost :func:`collect` block.

    Returns a shared no-op when no collector is open, so instrumenting a
    hot loop costs one ContextVar read per call in the common case.
    """
    acc = _PHASES.get()
    if acc is None:
        return _NULL_TRACK
    return _Track(acc, name)


@contextmanager
def collect(name: str, **attrs: Any) -> Iterator[Optional[Dict[str, List[float]]]]:
    """Open a parent span plus a phase accumulator for :func:`track`.

    On exit, emits the parent span and one aggregated child span per
    tracked phase (duration = summed seconds, ``calls`` attribute =
    number of invocations).  Yields the accumulator dict, or ``None``
    when tracing is inactive.
    """
    ctx = _TRACE.get()
    if ctx is None or not _ENABLED:
        yield None
        return
    acc: Dict[str, List[float]] = {}
    token = _PHASES.set(acc)
    parent = span(name, **attrs)
    try:
        with parent:
            yield acc
    finally:
        _PHASES.reset(token)
        if parent.span_id is not None and acc:
            start = parent._start_wall
            for phase_name, (total, calls) in acc.items():
                record_span(
                    phase_name,
                    start=start,
                    duration=total,
                    trace_id=parent.trace_id,
                    parent_id=parent.span_id,
                    calls=int(calls),
                    aggregated=True,
                )
