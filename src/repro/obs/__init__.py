"""Observability: structured tracing, histogram metrics, exporters.

The :mod:`repro.obs` package is the instrumentation seam threaded
through every serving layer (client → router → daemon → pool worker →
solver engine):

* :mod:`repro.obs.spans` — a lightweight span API.  A *trace id* rides a
  job submission as the ``X-Repro-Trace-Id`` HTTP header and crosses
  executor/pool boundaries inside job configuration; spans record into a
  per-process ring buffer served by ``GET /v1/traces/{trace_id}`` (the
  shard router merges spans across the fleet) and optionally into a
  JSONL sink.  Solver engines report per-phase timings (neighborhood
  generation, batch evaluation, accept replay) through near-zero-cost
  phase accumulators.
* :mod:`repro.obs.metrics` — the metrics registry: counters, gauges
  and fixed-bucket histograms with per-metric locks, safe to update from
  any thread.  The daemon and the router each keep every metric they
  serve in one registry, the single source of their JSON
  ``/v1/metrics`` payload and of ``GET /metrics``.
* :mod:`repro.obs.export` — Prometheus text exposition rendered
  generically, family by family, from registry snapshots.
* :mod:`repro.obs.render` — operator surfaces: the ``repro-pipelines
  top`` fleet table, histogram quantile estimation and span-tree
  formatting (also used by the daemon's slow-solve log).

Disable all of it with ``REPRO_OBS=0`` in the environment or
:func:`repro.obs.spans.configure` ``(enabled=False)``; the disabled hot
path is a single context-variable read per instrumentation point.
"""

from . import export, metrics, render, spans

__all__ = ["export", "metrics", "render", "spans"]
