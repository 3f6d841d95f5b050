"""Prometheus text exposition for ``GET /metrics``.

The exposition is rendered *from* the JSON ``/v1/metrics`` payload (the
daemon's :meth:`SolveService.metrics` or the router's fleet aggregate),
never from live metric objects: both surfaces therefore describe the
same atomic snapshot and every histogram bucket count in the text
format matches the ``histograms`` section of the JSON payload by
construction.

Only the subset of the exposition format we emit is implemented:
``# HELP`` / ``# TYPE`` comments, ``metric{label="v"} value`` samples,
and the cumulative ``_bucket``/``_sum``/``_count`` histogram triplet
with the mandatory ``+Inf`` bucket.  All families carry the ``repro_``
prefix.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["parse_prometheus", "to_prometheus"]

_PREFIX = "repro"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, _escape_label(v)) for k, v in labels.items()
    )
    return "{%s}" % inner


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._seen_header: Dict[str, None] = {}

    def header(self, name: str, kind: str, help: str) -> None:
        if name in self._seen_header:
            return
        self._seen_header[name] = None
        self.lines.append("# HELP %s %s" % (name, help))
        self.lines.append("# TYPE %s %s" % (name, kind))

    def sample(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.lines.append(
            "%s%s %s" % (name, _fmt_labels(labels), _fmt_value(value))
        )

    def counter(
        self,
        name: str,
        value: float,
        help: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.header(name, "counter", help)
        self.sample(name, value, labels)

    def gauge(
        self,
        name: str,
        value: float,
        help: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.header(name, "gauge", help)
        self.sample(name, value, labels)

    def histogram(
        self,
        name: str,
        snapshot: Mapping[str, Any],
        help: str,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.header(name, "histogram", help)
        base = dict(labels) if labels else {}
        for bound, cumulative in snapshot.get("buckets", []):
            bucket_labels = dict(base)
            bucket_labels["le"] = _fmt_value(float(bound))
            self.sample(name + "_bucket", cumulative, bucket_labels)
        inf_labels = dict(base)
        inf_labels["le"] = "+Inf"
        self.sample(name + "_bucket", snapshot.get("count", 0), inf_labels)
        self.sample(name + "_sum", snapshot.get("sum", 0.0), base or None)
        self.sample(name + "_count", snapshot.get("count", 0), base or None)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_histograms(
    writer: _Writer,
    histograms: Mapping[str, Any],
    extra_labels: Optional[Mapping[str, str]] = None,
) -> None:
    for raw_name, snap in sorted(histograms.items()):
        name = "%s_%s" % (_PREFIX, raw_name)
        help_text = "distribution of %s" % raw_name.replace("_", " ")
        if "series" in snap:
            labelnames = snap.get("labelnames") or ["label"]
            for key, series in sorted(snap["series"].items()):
                labels = dict(extra_labels or {})
                labels.update(zip(labelnames, key.split("|")))
                writer.histogram(name, series, help_text, labels)
        else:
            writer.histogram(name, snap, help_text, extra_labels)


def _emit_daemon(
    writer: _Writer,
    payload: Mapping[str, Any],
    labels: Optional[Mapping[str, str]] = None,
) -> None:
    """Emit one daemon's families (optionally labelled with its shard)."""
    queue = payload.get("queue", {})
    jobs = payload.get("jobs", {})
    solver = payload.get("solver", {})
    cache = payload.get("cache", {})

    writer.gauge(
        "%s_uptime_seconds" % _PREFIX,
        float(payload.get("uptime_s", 0.0)),
        "seconds since the service started",
        labels,
    )
    writer.gauge(
        "%s_queue_depth" % _PREFIX,
        float(queue.get("depth", 0)),
        "cells waiting in the queue",
        labels,
    )
    writer.gauge(
        "%s_queue_running" % _PREFIX,
        float(queue.get("running", 0)),
        "cells currently solving",
        labels,
    )
    writer.gauge(
        "%s_queue_concurrency" % _PREFIX,
        float(queue.get("concurrency", 0)),
        "configured solve concurrency",
        labels,
    )
    if queue.get("max_depth") is not None:
        writer.gauge(
            "%s_queue_max_depth" % _PREFIX,
            float(queue["max_depth"]),
            "bound on queued cells",
            labels,
        )
    if "jobs_in_flight" in payload:
        writer.gauge(
            "%s_jobs_in_flight" % _PREFIX,
            float(payload["jobs_in_flight"]),
            "accepted jobs not yet finished",
            labels,
        )
    for key in sorted(jobs):
        writer.counter(
            "%s_jobs_%s_total" % (_PREFIX, key),
            float(jobs[key]),
            "jobs %s since start" % key,
            labels,
        )
    writer.counter(
        "%s_solver_evaluations_total" % _PREFIX,
        float(solver.get("evaluations", 0)),
        "solver mapping evaluations",
        labels,
    )
    writer.counter(
        "%s_solver_solve_time_seconds_total" % _PREFIX,
        float(solver.get("solve_time_s", 0.0)),
        "cumulative cell solve wall-clock",
        labels,
    )
    if "entries" in cache:
        writer.gauge(
            "%s_cache_entries" % _PREFIX,
            float(cache["entries"]),
            "results-cache entries",
            labels,
        )
    _emit_histograms(writer, payload.get("histograms", {}), labels)


def _daemon_to_prometheus(payload: Mapping[str, Any]) -> str:
    writer = _Writer()
    info_labels = {"version": str(payload.get("version", ""))}
    if payload.get("shard"):
        info_labels["shard"] = str(payload["shard"])
    writer.gauge(
        "%s_build_info" % _PREFIX, 1.0, "daemon build/identity info", info_labels
    )
    shard_labels = (
        {"shard": str(payload["shard"])} if payload.get("shard") else None
    )
    _emit_daemon(writer, payload, shard_labels)
    return writer.render()


def _router_to_prometheus(payload: Mapping[str, Any]) -> str:
    writer = _Writer()
    writer.gauge(
        "%s_build_info" % _PREFIX,
        1.0,
        "router build/identity info",
        {"version": str(payload.get("version", "")), "role": "router"},
    )
    writer.gauge(
        "%s_router_uptime_seconds" % _PREFIX,
        float(payload.get("uptime_s", 0.0)),
        "seconds since the router started",
    )
    router = payload.get("router", {})
    for key in sorted(router):
        value = router[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            writer.counter(
                "%s_router_%s_total" % (_PREFIX, key),
                float(value),
                "router %s since start" % key,
            )
    ring = payload.get("ring", {})
    if "nodes" in ring:
        # HashRing.describe() reports the node *names*; older shapes a
        # bare count — accept both.
        nodes = ring["nodes"]
        count = len(nodes) if isinstance(nodes, (list, tuple)) else nodes
        writer.gauge(
            "%s_ring_nodes" % _PREFIX,
            float(count),
            "shards on the hash ring",
        )
    health_entries = payload.get("shard_health", [])
    if isinstance(health_entries, Mapping):  # tolerate dict-keyed shapes
        health_entries = [
            {"name": name, **entry}
            for name, entry in sorted(health_entries.items())
        ]
    for health in sorted(
        health_entries, key=lambda h: str(h.get("name", ""))
    ):
        labels = {"shard": str(health.get("name", ""))}
        writer.gauge(
            "%s_shard_up" % _PREFIX,
            1.0 if health.get("up") else 0.0,
            "shard health as seen by the router",
            labels,
        )
        if "consecutive_failures" in health:
            writer.gauge(
                "%s_shard_consecutive_failures" % _PREFIX,
                float(health["consecutive_failures"]),
                "consecutive probe/forward failures",
                labels,
            )
    fleet = payload.get("fleet", {})
    for key in sorted(fleet.get("jobs", {})):
        writer.counter(
            "%s_fleet_jobs_%s_total" % (_PREFIX, key),
            float(fleet["jobs"][key]),
            "fleet-wide jobs %s" % key,
        )
    solver = fleet.get("solver", {})
    if solver:
        writer.counter(
            "%s_fleet_solver_evaluations_total" % _PREFIX,
            float(solver.get("evaluations", 0)),
            "fleet-wide solver evaluations",
        )
        writer.counter(
            "%s_fleet_solver_solve_time_seconds_total" % _PREFIX,
            float(solver.get("solve_time_s", 0.0)),
            "fleet-wide solve wall-clock",
        )
    _emit_histograms(writer, payload.get("histograms", {}))
    # Per-shard daemon families, labelled by shard name.
    for shard, sub in sorted(payload.get("shards", {}).items()):
        if not isinstance(sub, Mapping) or "error" in sub:
            continue
        _emit_daemon(writer, sub, {"shard": str(shard)})
    return writer.render()


def to_prometheus(payload: Mapping[str, Any]) -> str:
    """Render a ``/v1/metrics`` JSON payload as Prometheus text."""
    if payload.get("role") == "router":
        return _router_to_prometheus(payload)
    return _daemon_to_prometheus(payload)


def parse_prometheus(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse exposition text back into ``{family: [(labels, value)]}``.

    A deliberately small parser used by tests and CI smoke checks to
    assert the text format is well-formed and consistent with the JSON
    payload; not a general-purpose Prometheus client.
    """
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            metric_part, value_part = line.rsplit(None, 1)
        except ValueError:
            raise ValueError("malformed sample line: %r" % line)
        labels: Dict[str, str] = {}
        name = metric_part
        if "{" in metric_part:
            if not metric_part.endswith("}"):
                raise ValueError("malformed labels in line: %r" % line)
            name, _, label_blob = metric_part.partition("{")
            label_blob = label_blob[:-1]
            if label_blob:
                for chunk in _split_labels(label_blob):
                    key, _, raw = chunk.partition("=")
                    if not (raw.startswith('"') and raw.endswith('"')):
                        raise ValueError("malformed label value: %r" % chunk)
                    labels[key] = _unescape_label(raw[1:-1])
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        else:
            value = float(value_part)
        out.setdefault(name, []).append((labels, value))
    return out


def _unescape_label(raw: str) -> str:
    # Sequential str.replace cannot undo the escaping: "\\n" (escaped
    # backslash, then "n") would wrongly turn into a newline.  Walk the
    # escapes left to right instead.
    out: List[str] = []
    escaped = False
    for char in raw:
        if escaped:
            out.append("\n" if char == "n" else char)
            escaped = False
        elif char == "\\":
            escaped = True
        else:
            out.append(char)
    return "".join(out)


def _split_labels(blob: str) -> List[str]:
    chunks: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            chunks.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        chunks.append("".join(current))
    return chunks
