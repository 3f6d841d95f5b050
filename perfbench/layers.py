"""Per-layer measurements for the traced run.

Each function measures one layer from outside: by timing calls into its
public functions on the workload's own instances, by driving requests
whose server-side span trees are read back over ``GET /v1/traces/{id}``,
or from the results the workload already returned.  In a traced pass the
benchmark times its own calls (submit, each poll, result fetch), keeps
them in memory with each request's wall-clock window, and folds the
server's span trees into that window only after the pass.
"""

from __future__ import annotations

import math
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import common

SERVING = ("warm-hits", "cold-serve")
ALL = ("warm-hits", "cold-serve", "campaign", "front")

#: Per-layer metrics: name -> (unit, end-to-end metric it should move,
#: workloads that exercise the layer).  On any other workload the layer
#: does no work and the metric reads 0.
LAYER_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "client.requests_per_job": ("count", "latency_p50_ms", SERVING),
    "client.submit_ms": ("ms", "latency_p50_ms", SERVING),
    "client.poll_ms": ("ms", "latency_p50_ms", SERVING),
    "client.result_ms": ("ms", "latency_p50_ms", SERVING),
    "client.wait_overhead_ms": ("ms", "latency_p50_ms", SERVING),
    "client.cpu_ms_per_job": ("ms", "jobs_per_s", SERVING),
    "router.added_ms": ("ms", "latency_p50_ms", SERVING),
    "router.submit_self_ms": ("ms", "latency_p50_ms", SERVING),
    "router.cpu_ms_per_job": ("ms", "jobs_per_s", SERVING),
    "daemon.submit_self_ms": ("ms", "latency_p50_ms", SERVING),
    "daemon.dedup_lookup_ms": ("ms", "latency_p50_ms", SERVING),
    "daemon.cpu_ms_per_job": ("ms", "jobs_per_s", SERVING),
    "daemon.queue_wait_ms": ("ms", "latency_p50_ms", ("cold-serve",)),
    "daemon.pool_dispatch_ms": ("ms", "latency_p50_ms", ("cold-serve",)),
    "daemon.cache_write_ms": ("ms", "jobs_per_s", ("cold-serve",)),
    "trace.client_submit_self_ms": ("ms", "latency_p50_ms", SERVING),
    "trace.solver_self_ms": ("ms", "latency_p50_ms", ("cold-serve",)),
    "trace.unattributed_ms": ("ms", "latency_p50_ms", SERVING),
    "trace.wall_ms": ("ms", "latency_p50_ms", SERVING),
    "cache.cell_key_us": ("us", "latency_p50_ms", ("warm-hits", "cold-serve", "campaign")),
    "cache.get_disk_us": ("us", "latency_p50_ms", ("warm-hits", "cold-serve", "campaign")),
    "cache.get_memo_us": ("us", "latency_p50_ms", ("warm-hits", "cold-serve", "campaign")),
    "cache.put_us": ("us", "jobs_per_s", ("warm-hits", "cold-serve", "campaign")),
    "campaign.overhead_ms_per_cell": ("ms", "jobs_per_s", ("campaign",)),
    "pool.parallel_efficiency": ("ratio", "jobs_per_s", ("campaign",)),
    "pool.bytes_pickled_per_job": ("bytes", "jobs_per_s", ("campaign",)),
    "pool.speedup": ("ratio", "jobs_per_s", ("campaign",)),
    "strategies.evaluations_per_job": (
        "count", "objective_geomean", ("warm-hits", "cold-serve", "campaign")
    ),
    "strategies.budget_exhausted_share": (
        "ratio", "objective_geomean", ("warm-hits", "cold-serve", "campaign")
    ),
    "heuristics.greedy_ms_per_job": ("ms", "jobs_per_s", ALL),
    "heuristics.hill_climb_ms_per_job": ("ms", "jobs_per_s", ALL),
    "kernel.delta_evaluate_us": ("us", "jobs_per_s", ALL),
    "kernel.evaluate_many_us_per_candidate": ("us", "jobs_per_s", ALL),
    "exact.cell_ms_cold": ("ms", "t90_s", ("front",)),
    "exact.cell_ms_warm": ("ms", "t90_s", ("front",)),
    "front.warm_started_share": ("ratio", "t90_s", ("front",)),
    "front.window_efficiency": ("ratio", "jobs_per_s", ("front",)),
    "obs.tracing_overhead_pct": ("%", "jobs_per_s", ("warm-hits",)),
    "proc.peak_rss_mb.client": ("MiB", "peak_rss_mb", ALL),
    "proc.peak_rss_mb.router": ("MiB", "peak_rss_mb", SERVING),
    "proc.peak_rss_mb.shard": ("MiB", "peak_rss_mb", SERVING),
    "proc.peak_rss_mb.worker": ("MiB", "peak_rss_mb", ALL),
}

#: Server span name -> the per-layer self-time metric it feeds.  Any
#: other span (the solver phases recorded in pool workers) folds into
#: ``trace.solver_self_ms``.
SPAN_METRICS = {
    "client.submit": "trace.client_submit_self_ms",
    "router.submit": "router.submit_self_ms",
    "daemon.submit": "daemon.submit_self_ms",
    "daemon.dedup_lookup": "daemon.dedup_lookup_ms",
    "daemon.queue_wait": "daemon.queue_wait_ms",
    "daemon.pool_dispatch": "daemon.pool_dispatch_ms",
    "daemon.cache_write": "daemon.cache_write_ms",
}


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _timed_us(fn, *args, **kwargs) -> Tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return (time.perf_counter() - t0) * 1e6, out


# ----------------------------------------------------------------------
# serving: instrumented requests and the router's share
# ----------------------------------------------------------------------
def instrumented_solve(client, problem, solver: Dict, rng: random.Random) -> Dict:
    """One ``SolveClient.solve`` spelled out call by call, with the same
    poll policy as ``SolveClient.wait`` (20 ms doubling to 2 s, jittered
    down by up to half), each call timed.  Returns the client-side record
    of the request, including its wall-clock window."""
    wall0 = time.time()
    t0 = time.perf_counter()
    view = client.submit(problem, **solver)
    submit_s = time.perf_counter() - t0
    requests, poll_s, delay = 1, 0.0, 0.02
    while True:
        tp = time.perf_counter()
        state = client.job(view["id"])["state"]
        poll_s += time.perf_counter() - tp
        requests += 1
        if state in ("done", "cancelled"):
            break
        time.sleep(delay * (0.5 + 0.5 * rng.random()))
        delay = min(delay * 2, 2.0)
    tr = time.perf_counter()
    result = client.result(view["id"])
    result_s = time.perf_counter() - tr
    requests += 1
    wall1 = time.time()
    return {
        "trace_id": view.get("trace_id"),
        "window": (wall0, wall1),
        "latency_s": time.perf_counter() - t0,
        "submit_s": submit_s,
        "poll_s": poll_s,
        "result_s": result_s,
        "requests": requests,
        "result": result,
    }


def traced_pass(
    url: str, problems: Sequence, solver: Dict, seed: int, threads: int
) -> Dict[str, float]:
    """Drive ``problems`` with tracing on (``threads`` closed-loop clients,
    job ``i`` on thread ``i % threads``), then fold each request's server
    span tree into per-layer self times.  Self times are means per job,
    so they add up, with ``trace.unattributed_ms``, to ``trace.wall_ms``."""
    from repro.client import SolveClient

    records: List[Optional[Dict]] = [None] * len(problems)

    def drive(offset: int) -> None:
        client = SolveClient(url, tracing=True)
        rng = random.Random(seed * 7919 + offset)
        for i in range(offset, len(problems), threads):
            records[i] = instrumented_solve(client, problems[i], solver, rng)

    workers = [threading.Thread(target=drive, args=(k,)) for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if any(r is None for r in records):
        raise common.CheckFailed("a traced request did not complete")

    client = SolveClient(url, tracing=False)
    totals: Dict[str, List[float]] = {m: [] for m in SPAN_METRICS.values()}
    totals["trace.solver_self_ms"] = []
    totals["trace.unattributed_ms"] = []
    totals["trace.wall_ms"] = []
    overheads = []
    for record in records:
        spans = [
            common.Span.from_dict(s)
            for s in client.trace(record["trace_id"]).get("spans", [])
        ]
        self_times, unattributed = common.fold_self_times(spans, record["window"])
        row = {m: 0.0 for m in totals}
        for name, seconds in self_times.items():
            row[SPAN_METRICS.get(name, "trace.solver_self_ms")] += seconds * 1e3
        row["trace.unattributed_ms"] = unattributed * 1e3
        row["trace.wall_ms"] = (record["window"][1] - record["window"][0]) * 1e3
        for m, v in row.items():
            totals[m].append(v)
        result = record["result"]
        solved_s = result.wall_time if result.source == "solved" else 0.0
        overheads.append((record["latency_s"] - solved_s) * 1e3)
    out = {m: _mean(v) for m, v in totals.items()}
    parts = math.fsum(out[m] for m in totals if m != "trace.wall_ms")
    if not math.isclose(parts, out["trace.wall_ms"], rel_tol=1e-9, abs_tol=1e-6):
        raise common.CheckFailed(
            f"layer self times {parts} ms do not add up to the wall {out['trace.wall_ms']} ms"
        )
    out.update(
        {
            "client.requests_per_job": _mean([r["requests"] for r in records]),
            "client.submit_ms": _mean([r["submit_s"] * 1e3 for r in records]),
            "client.poll_ms": _mean([r["poll_s"] * 1e3 for r in records]),
            "client.result_ms": _mean([r["result_s"] * 1e3 for r in records]),
            "client.wait_overhead_ms": _mean(overheads),
        }
    )
    return out


def router_added_ms(fleet, problems: Sequence, solver: Dict) -> float:
    """Median over already-cached cells of (answer via the router) minus
    (the same answer straight from its owning shard), in ms.  Which path
    goes first alternates from cell to cell."""
    from repro.client import SolveClient
    from repro.server import split_job_id

    via = SolveClient(fleet.url, tracing=False)
    direct = {s.name: SolveClient(s.url, tracing=False) for s in fleet.shards}
    diffs = []
    for i, problem in enumerate(problems):
        owner = split_job_id(via.submit(problem, **solver)["id"])[1]
        paths = [("router", via), ("shard", direct[owner])]
        if i % 2:
            paths.reverse()
        took = {}
        for name, client in paths:
            t0 = time.perf_counter()
            result = client.solve(problem, **solver)
            took[name] = time.perf_counter() - t0
            if result.source != "cache":
                raise common.CheckFailed("router probe cell was not cached")
        diffs.append((took["router"] - took["shard"]) * 1e3)
    return common.median(diffs)


# ----------------------------------------------------------------------
# library layers, timed by direct calls
# ----------------------------------------------------------------------
def probe_cache(
    cache_dir: Path, probe_dir: Path, problems, solver_payload: Dict
) -> Dict[str, float]:
    """``cell_key`` on the workload's problems; ``ResultsCache.get`` from
    disk (memo off) and from the memo on the workload's own cache
    directory; ``ResultsCache.put`` of those records into a scratch copy."""
    from repro.experiments import ResultsCache, cell_key

    key_us = [_timed_us(cell_key, p, solver_payload)[0] for p in problems]
    keys = list(ResultsCache(cache_dir).keys())
    if not keys:
        raise common.CheckFailed(f"no cache entries under {cache_dir}")
    cold = ResultsCache(cache_dir, memo_entries=0)
    disk_us, records = [], []
    for key in keys:
        us, record = _timed_us(cold.get, key)
        disk_us.append(us)
        records.append((key, record))
    memo = ResultsCache(cache_dir, memo_entries=len(keys))
    for key in keys:
        memo.get(key)
    memo_us = [_timed_us(memo.get, key)[0] for key in keys]
    sink = ResultsCache(probe_dir, memo_entries=0)
    put_us = [_timed_us(sink.put, key, record)[0] for key, record in records]
    shutil.rmtree(probe_dir, ignore_errors=True)
    return {
        "cache.cell_key_us": common.median(key_us),
        "cache.get_disk_us": common.median(disk_us),
        "cache.get_memo_us": common.median(memo_us),
        "cache.put_us": common.median(put_us),
    }


def probe_solver_layers(problems, max_evaluations: int) -> Dict[str, float]:
    """``greedy_interval_period`` then ``hill_climb`` from its mapping
    (under the workload's evaluation budget), and the evaluation kernel's
    ``delta_evaluate`` / ``evaluate_many`` on the greedy mapping's
    neighborhood, on each problem."""
    from repro.algorithms.heuristics import greedy_interval_period, hill_climb
    from repro.algorithms.heuristics.local_search import neighbors
    from repro.core.types import Criterion
    from repro.kernel.neighborhood import generate_neighborhood
    from repro.strategies import SolveBudget

    greedy_ms, climb_ms, delta_us, many_us = [], [], [], []
    for problem in problems:
        us, start = _timed_us(greedy_interval_period, problem)
        greedy_ms.append(us / 1e3)
        budget = SolveBudget(max_evaluations=max_evaluations, seed=0).meter()
        us, _ = _timed_us(
            hill_climb, problem, start.mapping, Criterion.PERIOD, budget=budget
        )
        climb_ms.append(us / 1e3)
        context = problem.evaluation_context()
        base_values = context.evaluate(start.mapping)
        for _, candidate in zip(range(16), neighbors(problem, start.mapping)):
            us, _ = _timed_us(
                context.delta_evaluate, candidate, start.mapping, base_values
            )
            delta_us.append(us)
        batch = generate_neighborhood(problem, start.mapping)
        if len(batch):
            us, _ = _timed_us(context.evaluate_many, batch)
            many_us.append(us / len(batch))
    return {
        "heuristics.greedy_ms_per_job": common.median(greedy_ms),
        "heuristics.hill_climb_ms_per_job": common.median(climb_ms),
        "kernel.delta_evaluate_us": common.median(delta_us),
        "kernel.evaluate_many_us_per_candidate": common.median(many_us),
    }


def strategy_counts(telemetries: Sequence) -> Dict[str, float]:
    """Mean evaluations per solve and the share of solves that stopped on
    their budget, from the ``SolveTelemetry`` the workload got back."""
    telemetries = [t for t in telemetries if t is not None]
    if not telemetries:
        raise common.CheckFailed("no solve telemetry returned")
    return {
        "strategies.evaluations_per_job": _mean([t.evaluations for t in telemetries]),
        "strategies.budget_exhausted_share": _mean(
            [1.0 if t.budget_exhausted else 0.0 for t in telemetries]
        ),
    }


def probe_exact(problems, pairs_per_front: int) -> Dict[str, float]:
    """``exact_minimize`` for energy on planned front cells, cold and
    warm-started from the neighboring (next smaller) threshold's optimum
    -- the bound the front engine would hand it."""
    from repro.algorithms.exact import exact_minimize
    from repro.analysis.front_engine import plan_front
    from repro.core.exceptions import InfeasibleProblemError
    from repro.core.objectives import Thresholds
    from repro.core.types import Criterion

    cold_ms, warm_ms = [], []
    for problem in problems:
        thresholds, _ = plan_front(problem, max_points=40)
        step = max(1, len(thresholds) // (pairs_per_front + 1))
        for i in range(step, len(thresholds), step)[:pairs_per_front]:
            try:
                neighbor = exact_minimize(
                    problem, Criterion.ENERGY, Thresholds(period=thresholds[i - 1])
                )
            except InfeasibleProblemError:
                continue
            cell = Thresholds(period=thresholds[i])
            us, cold = _timed_us(exact_minimize, problem, Criterion.ENERGY, cell)
            cold_ms.append(us / 1e3)
            us, warm = _timed_us(
                exact_minimize,
                problem,
                Criterion.ENERGY,
                cell,
                upper_bound=neighbor.values.energy,
            )
            warm_ms.append(us / 1e3)
            if warm.values != cold.values:
                raise common.CheckFailed("warm-started exact cell differs from cold")
    if not cold_ms:
        raise common.CheckFailed("no feasible front cell to time")
    return {
        "exact.cell_ms_cold": common.median(cold_ms),
        "exact.cell_ms_warm": common.median(warm_ms),
    }
