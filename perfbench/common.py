"""Statistics, span folding, process accounting and the run fingerprint.

Everything here is pure Python with no dependency on the program under
test, so the benchmark's own tests exercise it without starting servers.
"""

from __future__ import annotations

import math
import os
import platform
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Highest percentile the benchmark reports.  One noisy second moved a
#: measured p99 from 4 ms to 13 ms on a 2-CPU host; p90 with at least
#: ten samples beyond it holds still.
MAX_PERCENTILE = 90.0


class CheckFailed(Exception):
    """A workload's output failed its correctness check."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule).

    Refuses percentiles above :data:`MAX_PERCENTILE` and empty samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= MAX_PERCENTILE:
        raise ValueError(f"percentile {q} outside [0, {MAX_PERCENTILE}]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile's rank: the count that makes a tail figure trustworthy."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive finite values."""
    values = list(values)
    if not values or any(not (v > 0 and math.isfinite(v)) for v in values):
        raise ValueError("geomean needs positive finite values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def time_to_fraction(
    completions: Sequence[float], fraction: float = 0.9
) -> float:
    """Elapsed time at which ``fraction`` of the operations had completed,
    given each operation's completion time since the phase start."""
    if not completions:
        raise ValueError("no completions")
    ordered = sorted(completions)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# span folding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One recorded interval of a trace (wall-clock seconds)."""

    name: str
    start: float
    end: float
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Span":
        """Decode a ``GET /v1/traces/{id}`` span entry."""
        start = float(payload["start"])
        return cls(
            name=str(payload["name"]),
            start=start,
            end=start + float(payload["duration"]),
            span_id=payload.get("span_id"),
            parent_id=payload.get("parent_id"),
        )


def fold_self_times(
    spans: Sequence[Span], window: Tuple[float, float]
) -> Tuple[Dict[str, float], float]:
    """Split a client's wall-clock window into per-span-name self time.

    Each span is clipped to the window.  Every instant covered by at
    least one span is charged to exactly one span: the deepest active
    one (depth follows ``parent_id`` links among the given spans), the
    later-started one among equally deep overlapping siblings.  A span's
    self time is therefore its duration minus what its children cover,
    even when children overlap each other or outlive their parent, and
    the self times sum to the union of the spans.  Returns ``(self time
    by name, unattributed)`` where ``unattributed`` is the part of the
    window no span covers; the two always add up to the window length.
    """
    lo, hi = window
    if hi < lo:
        raise ValueError("window ends before it starts")
    by_id = {s.span_id: s for s in spans if s.span_id is not None}

    def depth(span: Span) -> int:
        seen = set()
        d = 0
        while span.parent_id in by_id and span.parent_id not in seen:
            seen.add(span.parent_id)
            span = by_id[span.parent_id]
            d += 1
        return d

    clipped = [
        (max(lo, s.start), min(hi, s.end), depth(s), s.name)
        for s in spans
        if min(hi, s.end) > max(lo, s.start)
    ]
    edges = sorted({lo, hi, *(a for a, *_ in clipped), *(b for _, b, *_ in clipped)})
    self_time: Dict[str, float] = {}
    covered = 0.0
    for x, y in zip(edges, edges[1:]):
        active = [c for c in clipped if c[0] <= x and c[1] >= y]
        if not active:
            continue
        winner = max(active, key=lambda c: (c[2], c[0]))
        self_time[winner[3]] = self_time.get(winner[3], 0.0) + (y - x)
        covered += y - x
    return self_time, (hi - lo) - covered


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB; 0 when
    the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (0 when gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def descendants(pid: int) -> List[int]:
    """Every live descendant pid of ``pid`` (children first)."""
    out: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    kids = [int(k) for k in handle.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            frontier.extend(kids)
    return out


def become_subreaper() -> bool:
    """Make this process the reaper of its orphaned descendants
    (``PR_SET_CHILD_SUBREAPER``), so that a helper outliving its parent,
    such as a multiprocessing resource tracker or a server's pool
    worker, stays a child that :func:`stop_descendants` can wait for.
    Returns whether the kernel accepted it."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def stop_descendants(grace: float = 3.0, timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Stops this interpreter's multiprocessing resource tracker, then sends
    SIGTERM to every live descendant, SIGKILL to those still alive after
    ``grace`` seconds, and reaps children until none is left (or until
    ``timeout``).  With :func:`become_subreaper` in force, no children
    left means no descendants left."""
    import signal

    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - best effort; the sweep below follows
        pass
    start = time.monotonic()
    signalled: Dict[int, int] = {}
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        elapsed = time.monotonic() - start
        if elapsed > timeout:
            return
        sig = signal.SIGKILL if elapsed > grace else signal.SIGTERM
        for pid in descendants(os.getpid()):
            if signalled.get(pid) != sig:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                signalled[pid] = sig
        time.sleep(0.02)


# ----------------------------------------------------------------------
# run fingerprint
# ----------------------------------------------------------------------
def probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: a host-speed yardstick
    taken before and after each run, never gated."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1000.0


def fingerprint() -> Dict[str, object]:
    """What a reader of the results needs to tell a slow host from a
    regression."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "numba": numba_version,
        "loadavg": list(os.getloadavg()),
    }
