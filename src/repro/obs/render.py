"""Operator-facing rendering: quantiles, the ``top`` table, span trees.

Everything here consumes the same JSON payloads the HTTP endpoints
serve (``/v1/metrics``, ``/v1/traces/{id}``), so the CLI ``top`` and
``trace`` verbs and the daemon's slow-solve log share one code path
with no extra wire format.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "format_span_tree",
    "histogram_quantile",
    "render_top",
]


def histogram_quantile(snapshot: Mapping[str, Any], q: float) -> Optional[float]:
    """Estimate the ``q``-quantile from a cumulative histogram snapshot.

    Linear interpolation within the winning bucket (Prometheus
    ``histogram_quantile`` semantics, lower bound 0 for the first
    bucket).  Returns ``None`` for an empty histogram; observations
    above the last bound clamp to the last finite bound.
    """
    buckets = snapshot.get("buckets") or []
    total = snapshot.get("count", 0)
    if not total or not buckets:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1], got %r" % q)
    rank = q * total
    prev_bound = 0.0
    prev_cum = 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            in_bucket = cumulative - prev_cum
            if in_bucket <= 0:
                return float(bound)
            frac = (rank - prev_cum) / in_bucket
            return prev_bound + (float(bound) - prev_bound) * frac
        prev_bound = float(bound)
        prev_cum = cumulative
    return float(buckets[-1][0])


def _fmt_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 0.001:
        return "%.0fus" % (seconds * 1e6)
    if seconds < 1.0:
        return "%.1fms" % (seconds * 1e3)
    return "%.2fs" % seconds


def _fmt_ratio(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "-"
    return "%.0f%%" % (100.0 * numerator / denominator)


def _shard_row(name: str, payload: Mapping[str, Any], up: bool) -> List[str]:
    if not up or "error" in payload:
        return [name, "DOWN", "-", "-", "-", "-", "-", "-", "-"]
    queue = payload.get("queue", {})
    jobs = payload.get("jobs", {})
    hist = (payload.get("histograms") or {}).get("solve_wall_seconds", {})
    submitted = jobs.get("submitted", 0)
    return [
        name,
        "up",
        "%d/%s" % (
            queue.get("depth", 0),
            queue.get("max_depth") if queue.get("max_depth") is not None else "inf",
        ),
        str(queue.get("running", 0)),
        _fmt_ratio(queue.get("shed", 0), submitted + queue.get("shed", 0)),
        _fmt_ratio(jobs.get("cache_hits", 0), submitted),
        _fmt_latency(histogram_quantile(hist, 0.50)),
        _fmt_latency(histogram_quantile(hist, 0.95)),
        _fmt_latency(histogram_quantile(hist, 0.99)),
    ]


_TOP_HEADER = [
    "SHARD", "STATE", "QUEUE", "RUN",
    "SHED", "HIT", "P50", "P95", "P99",
]


def _format_table(rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(row[i]) for row in rows) for i in range(len(rows[0]))
    ]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_top(payload: Mapping[str, Any]) -> str:
    """Render a ``/v1/metrics`` payload as the ``top`` fleet table."""
    rows: List[List[str]] = [list(_TOP_HEADER)]
    if payload.get("role") == "router":
        health = {str(h.get("name")): h for h in payload.get("shard_health", [])}
        shards = payload.get("shards", {})
        for name in sorted(shards):
            sub = shards[name] if isinstance(shards[name], Mapping) else {}
            up = bool(health.get(name, {}).get("up", True))
            rows.append(_shard_row(name, sub, up))
        fleet_jobs = payload.get("fleet", {}).get("jobs", {})
        summary = (
            "router up %ds · %d shard(s) · fleet jobs: %d submitted, "
            "%d completed, %d shed"
            % (
                int(payload.get("uptime_s", 0)),
                len(shards),
                fleet_jobs.get("submitted", 0),
                fleet_jobs.get("completed", 0),
                fleet_jobs.get("shed", 0),
            )
        )
    else:
        name = payload.get("shard") or "local"
        rows.append(_shard_row(str(name), payload, up=True))
        jobs = payload.get("jobs", {})
        summary = "daemon up %ds · jobs: %d submitted, %d completed, %d shed" % (
            int(payload.get("uptime_s", 0)),
            jobs.get("submitted", 0),
            jobs.get("completed", 0),
            jobs.get("shed", 0),
        )
    return summary + "\n" + _format_table(rows)


def format_span_tree(spans: Sequence[Mapping[str, Any]]) -> str:
    """Render spans as an indented tree, children sorted by start time.

    Spans whose parent is absent from the set (e.g. the remote half of
    a cross-process trace) are treated as roots, so partial traces
    still render.
    """
    if not spans:
        return "(no spans)"
    by_id: Dict[str, Mapping[str, Any]] = {
        s["span_id"]: s for s in spans if s.get("span_id")
    }
    children: Dict[Optional[str], List[Mapping[str, Any]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(s)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s.get("start", 0.0), s.get("span_id", "")))

    lines: List[str] = []

    def _walk(span: Mapping[str, Any], depth: int) -> None:
        attrs = span.get("attrs") or {}
        extras = []
        if span.get("proc"):
            extras.append("proc=%s" % span["proc"])
        extras.extend("%s=%s" % (k, attrs[k]) for k in sorted(attrs))
        line = "%s%-28s %9s  %s" % (
            "  " * depth,
            span.get("name", "?"),
            _fmt_latency(span.get("duration")),
            " ".join(extras),
        )
        lines.append(line.rstrip())
        for child in children.get(span.get("span_id"), []):
            _walk(child, depth + 1)

    for root in children.get(None, []):
        _walk(root, 0)
    return "\n".join(lines)
