"""Prometheus text exposition for ``GET /metrics``.

One generic renderer: :func:`to_prometheus` turns
:class:`~repro.obs.metrics.MetricsRegistry` snapshots into text,
family by family, with no knowledge of which daemon or router metrics
exist.  A daemon renders its own registry; a router renders its own,
the fleet sums of its shards' counters and each shard's snapshot
labelled ``shard=``.  The JSON ``/v1/metrics`` payload is derived from
the same snapshots, so the two views agree by construction.

Only the subset of the exposition format we emit is implemented:
``# HELP`` / ``# TYPE`` comments, ``metric{label="v"} value`` samples,
and the cumulative ``_bucket``/``_sum``/``_count`` histogram triplet
with the mandatory ``+Inf`` bucket.  All families carry the ``repro_``
prefix.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

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


def _histogram_lines(
    name: str, snapshot: Mapping[str, Any], labels: Dict[str, str]
) -> Iterator[str]:
    for bound, cumulative in snapshot["buckets"]:
        yield _sample(name + "_bucket", cumulative, dict(labels, le=_fmt_value(bound)))
    yield _sample(name + "_bucket", snapshot["count"], dict(labels, le="+Inf"))
    yield _sample(name + "_sum", snapshot["sum"], labels)
    yield _sample(name + "_count", snapshot["count"], labels)


def _sample(name: str, value: float, labels: Mapping[str, str]) -> str:
    return "%s%s %s" % (name, _fmt_labels(labels), _fmt_value(value))


Source = Tuple[Mapping[str, Any], Mapping[str, str]]


def to_prometheus(sources: Iterable[Source]) -> str:
    """Render registry snapshots as Prometheus text.

    Each source is a :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
    snapshot and the labels every one of its samples carries (a
    router's ``shard=``).  A metric ``name`` becomes family
    ``repro_<name>``; the samples of one family from every source form
    one group under a single ``HELP``/``TYPE`` header, in the order the
    families first appear.
    """
    families: Dict[str, Tuple[str, str, List[str]]] = {}
    for snapshot, labels in sources:
        for raw_name, metric in snapshot.items():
            name = "%s_%s" % (_PREFIX, raw_name)
            kind = metric["type"]
            lines = families.setdefault(
                name, (kind, metric.get("help") or raw_name.replace("_", " "), [])
            )[2]
            if "series" in metric:
                rows = [
                    ({**labels, **dict(zip(metric["labelnames"], key.split("|")))}, value)
                    for key, value in sorted(metric["series"].items())
                ]
            else:  # a histogram's snapshot is its own value
                rows = [(dict(labels), metric.get("value", metric))]
            for row_labels, value in rows:
                if kind == "histogram":
                    lines.extend(_histogram_lines(name, value, row_labels))
                else:
                    lines.append(_sample(name, value, row_labels))
    out: List[str] = []
    for name, (kind, help_text, lines) in families.items():
        out.append("# HELP %s %s" % (name, help_text))
        out.append("# TYPE %s %s" % (name, kind))
        out.extend(lines)
    return "\n".join(out) + "\n"


def parse_prometheus(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse exposition text back into ``{sample name: [(labels, value)]}``.

    A deliberately small parser used by tests and CI smoke checks to
    assert the text format is well-formed and consistent with the JSON
    payload; not a general-purpose Prometheus client.  Like the format
    itself it requires every family to be one group: a family whose
    ``TYPE`` line or samples reappear after another family's is a
    ``ValueError``.  A histogram's ``_bucket``/``_sum``/``_count``
    samples belong to the family its ``TYPE`` line declares.
    """
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    histograms: Set[str] = set()
    done: Set[str] = set()
    current: Optional[str] = None

    def enter(family: str) -> None:
        nonlocal current
        if family == current:
            return
        if family in done:
            raise ValueError("family %r is split into several groups" % family)
        if current is not None:
            done.add(current)
        current = family

    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# TYPE "):
            fields = line.split()
            if len(fields) != 4:
                raise ValueError("malformed TYPE line: %r" % line)
            enter(fields[2])
            if fields[3] == "histogram":
                histograms.add(fields[2])
            continue
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
        base, _, suffix = name.rpartition("_")
        histogram_sample = base in histograms and suffix in ("bucket", "sum", "count")
        enter(base if histogram_sample else name)
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
