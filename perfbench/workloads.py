"""The benchmark's four workloads.

Every workload runs a fixed, seeded list of operations (its length is
set by ``--seconds`` through a calibrated rate, so one seed and one
length always give the same list), checks what came back, and returns
its end-to-end metrics, plus per-layer metrics in a traced run.  Load is
closed-loop: the system's callers (``SolveClient.solve``, campaign
scripts) wait for each reply before sending the next request.  The
reasons each workload exists are in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from . import common, layers
from .common import CheckFailed
from .fleet import Fleet, child_env

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "objective_geomean": "period",
    "t90_s": "s",
}

#: Spread of instance seeds between workloads' derived lists.
_SEED_STRIDE = 100_003

WARM_SOLVER = {
    "objective": "period",
    "strategy": "greedy",
    "budget": {"max_evaluations": 2000, "seed": 0},
}
COLD_SOLVER = {
    "objective": "period",
    "strategy": "local_search",
    "budget": {"max_evaluations": 1000, "seed": 0},
}
CAMPAIGN_SOLVERS = [
    {
        "name": "ls-period",
        "objective": "period",
        "strategy": "local_search",
        "budget": {"max_evaluations": 3000, "seed": 0},
    },
    {
        "name": "pf-latency",
        "objective": "latency",
        "strategy": "portfolio(greedy,local_search)",
        "budget": {"max_evaluations": 2000, "seed": 0},
    },
]
FRONT_POINTS = 20
#: Front instance seeds: 72 of seeds 1-200 whose 40-point front took
#: 0.2-0.36 s with two workers on a 2-CPU host (the others took 0.1-1.1 s;
#: at the 20 points used here each takes about 0.1-0.2 s).  No single
#: front dominates a run, and since instance difficulty (one
#: branch-and-bound tree can be ten times another's) is narrowed down,
#: the front list ``--seed`` draws from them costs nearly the same on
#: every seed.
FRONT_SEEDS: Tuple[int, ...] = (
    1, 4, 5, 6, 7, 8, 10, 13, 14, 15, 18, 19, 22, 25, 26, 28, 31, 34,
    36, 38, 40, 42, 43, 46, 47, 48, 49, 50, 51, 52, 55, 56, 57, 59, 60, 61,
    62, 63, 70, 74, 77, 78, 79, 80, 83, 84, 85, 86, 87, 92, 94, 95, 96, 99,
    100, 101, 102, 104, 105, 107, 108, 109, 110, 112, 114, 115, 116, 117, 119, 121,
    124, 125,
)


@dataclass
class Ctx:
    """Settings of one benchmark run."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool = False
    tiny: bool = False

    def count(self, rate: float, tiny: int) -> int:
        """Length of a fixed operation list: ``rate`` per second of
        ``--seconds``, or ``tiny`` in tiny mode."""
        return tiny if self.tiny else max(1, round(rate * self.seconds))

    def rounds(self, k: int) -> int:
        """Rounds (set-up plus timed block) per run: ``k``, or one in
        tiny mode."""
        return 1 if self.tiny else k


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _problem(seed: int, platform: str, **kwargs):
    from repro.core.types import PlatformClass
    from repro.generators import small_random_problem

    return small_random_problem(seed, platform_class=PlatformClass(platform), **kwargs)


def warm_problem(seed: int, i: int):
    """A small comm-homogeneous interval instance: cheap to solve, so the
    fill is quick and every timed request is pure serving work."""
    return _problem(seed * _SEED_STRIDE + i, "comm-homogeneous", stage_range=(2, 4))


def cold_problem(seed: int, i: int):
    """An NP-hard 2 x 8-stage interval instance on 10 two-mode processors,
    heterogeneous and comm-homogeneous platforms alternating."""
    platform = "fully-heterogeneous" if i % 2 == 0 else "comm-homogeneous"
    return _problem(
        seed * _SEED_STRIDE + i, platform, stage_range=(8, 8), n_procs=10, n_modes=2
    )


def front_problem(instance_seed: int):
    """A 2 x 3-stage comm-homogeneous interval instance on 6 two-mode
    processors: min-energy under a period bound is NP-hard there, so
    every front cell runs branch-and-bound."""
    return _problem(
        instance_seed,
        "comm-homogeneous",
        stage_range=(3, 3),
        n_procs=6,
        n_modes=2,
    )


def campaign_spec(seed: int, indices: Sequence[int]):
    """Heterogeneous and comm-homogeneous 2 x 6-stage interval cells, one
    of each per index, each solved by a budgeted local search on period
    and a budgeted portfolio on latency."""
    from repro.experiments import CampaignSpec

    return CampaignSpec.from_dict(
        {
            "name": f"perfbench-{seed}-{indices[0]}",
            "scenarios": {
                "platforms": ["fully-heterogeneous", "comm-homogeneous"],
                "models": ["overlap"],
                "rules": ["interval"],
                "apps": [2],
                "modes": [2],
                "stage_range": [6, 6],
                "seeds": [seed * _SEED_STRIDE + i for i in indices],
            },
            "solvers": CAMPAIGN_SOLVERS,
        }
    )


def canonical(result) -> str:
    """Comparable rendering of a remote answer (timings dropped)."""
    payload = dict(result.raw["solution"])
    payload.pop("stats", None)
    if isinstance(payload.get("telemetry"), dict):
        telemetry = dict(payload["telemetry"])
        for key in ("wall_time", "trace_id", "span_id"):
            telemetry.pop(key, None)
        payload["telemetry"] = telemetry
    return json.dumps(payload, sort_keys=True)


def same_solution(a, b) -> bool:
    """Two solutions agree on mapping, objective and criteria."""
    from repro.io import mapping_to_dict

    return (
        a.objective == b.objective
        and a.values == b.values
        and mapping_to_dict(a.mapping) == mapping_to_dict(b.mapping)
    )


# ----------------------------------------------------------------------
# correctness checks (pure, so the benchmark's tests can feed them
# broken outputs)
# ----------------------------------------------------------------------
def check_warm_hits(answers, order, fill, work_before, work_after) -> None:
    """Every timed answer came from the cache, equals the fill's answer
    for its cell, and no shard did solver work during the timed phase."""
    errors = []
    for n, (result, idx) in enumerate(zip(answers, order)):
        if result is None:
            errors.append(f"request {n} failed")
        elif result.source != "cache":
            errors.append(f"request {n} (cell {idx}) answered from {result.source!r}")
        elif canonical(result) != fill[idx]:
            errors.append(f"request {n} (cell {idx}) differs from the fill's answer")
    if work_after != work_before:
        errors.append(f"solver work grew during the timed phase: {work_before} -> {work_after}")
    if len(answers) != len(order):
        errors.append(f"{len(answers)} answers for {len(order)} requests")
    if errors:
        raise CheckFailed("warm-hits: " + "; ".join(errors[:5]))


def check_cold_serve(samples) -> None:
    """Each sampled ``(job index, remote solution, in-process solve_one
    solution)`` agrees."""
    pairs = list(samples)
    bad = [i for i, remote, local in pairs if remote is None or not same_solution(remote, local)]
    if bad or not pairs:
        raise CheckFailed(f"cold-serve: job(s) {bad} differ from in-process solve_one")


def check_campaign(result, rerun, batch_objectives: Sequence[float]) -> None:
    """Every cell ok, an immediate rerun served wholly from the cache,
    and the per-cell objectives equal an in-process ``solve_batch``."""
    errors = []
    if result.n_ok != result.n_cells:
        errors.append(f"{result.n_cells - result.n_ok} cell(s) not ok")
    if rerun.n_cached != rerun.n_cells:
        errors.append(f"rerun solved {rerun.n_solved} cell(s) instead of reading the cache")
    objectives = [r.objective for r in result.records]
    if objectives != list(batch_objectives):
        errors.append("objectives differ from in-process solve_batch")
    if errors:
        raise CheckFailed("campaign: " + "; ".join(errors))


def check_fronts(fronts, exact_fronts) -> None:
    """Every anytime front equals ``period_energy_front_exact``."""
    bad = [i for i, (a, b) in enumerate(zip(fronts, exact_fronts)) if a != b]
    if bad or len(fronts) != len(exact_fronts):
        raise CheckFailed(f"front: front(s) {bad} differ from period_energy_front_exact")


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
#: Operations per chunk.  A timed block is cut, in completion order, into
#: as many consecutive chunks of at least this many operations as it holds
#: (at least one), so each chunk's own p90 has ten samples beyond it.
CHUNK = 100


@dataclass
class Timed:
    """Samples of a run's timed blocks.

    A run is a few rounds, each a set-up followed by a block of the
    operation list, and each block is cut into chunks.  Rates and
    latency percentiles are medians over chunks: the host's speed drifts
    by tens of percent within seconds, and a median over many short
    stretches of the run rejects the slow ones that a single figure
    over the whole run would absorb."""

    setups: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    latencies: List[List[float]] = field(default_factory=list)
    completions: List[float] = field(default_factory=list)
    objectives: List[float] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)
    elapsed: float = 0.0

    def block(self, n_ops, wall, latencies, completions, objectives, rss_mb) -> None:
        """Record one timed block of ``n_ops`` operations, each with its
        latency and its completion time in seconds since the block began."""
        order = sorted(range(n_ops), key=completions.__getitem__)
        chunks = blocks(n_ops, max(1, n_ops // CHUNK))
        start = 0.0
        for lo, hi in chunks:
            end = wall if hi == n_ops else completions[order[hi - 1]]
            self.rates.append((hi - lo) / (end - start))
            self.latencies.append([latencies[i] for i in order[lo:hi]])
            start = end
        self.completions += [self.elapsed + c for c in completions]
        self.elapsed += wall
        self.objectives += objectives
        self.rss_mb.append(rss_mb)

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th latency percentile: the median of the chunks' own
        percentiles when every chunk has at least :data:`CHUNK` samples,
        otherwise the percentile over all samples pooled."""
        if min(len(c) for c in self.latencies) >= CHUNK:
            return common.median([common.percentile(c, q) for c in self.latencies]) * 1e3
        return common.percentile([x for c in self.latencies for x in c], q) * 1e3

    def metrics(self, notes: List[str]) -> Dict[str, float]:
        """End-to-end metrics: medians over set-ups and over chunk rates,
        latency percentiles as :meth:`percentile_ms` takes them."""
        n = sum(len(c) for c in self.latencies)
        notes.append(
            f"latency samples={n} in chunks of {[len(c) for c in self.latencies]} "
            f"(pooled beyond p90: {common.samples_beyond(n, 90.0)}); "
            f"set-ups={[round(s, 4) for s in self.setups]}; "
            f"chunk rates={[round(r, 3) for r in self.rates]}"
        )
        return {
            "setup_s": common.median(self.setups),
            "jobs_per_s": common.median(self.rates),
            "latency_p50_ms": self.percentile_ms(50.0),
            "latency_p90_ms": self.percentile_ms(90.0),
            "peak_rss_mb": common.median(self.rss_mb),
            "objective_geomean": common.geomean(self.objectives),
            "t90_s": common.time_to_fraction(self.completions, 0.9),
        }


def blocks(n: int, rounds: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``rounds`` contiguous, near-equal blocks."""
    edges = [round(i * n / rounds) for i in range(rounds + 1)]
    return list(zip(edges, edges[1:]))


def _fleet_by_role(fleet: Fleet, measure: Callable[[int], float]) -> Dict[str, float]:
    return {
        role: math.fsum(measure(pid) for pid in pids)
        for role, pids in fleet.pids().items()
    }


def _shard_work(fleet: Fleet) -> Dict[str, Tuple[int, int]]:
    """Per shard: (cells solved, solver evaluations), read directly."""
    from repro.client import SolveClient

    out = {}
    for shard in fleet.shards:
        m = SolveClient(shard.url, tracing=False).metrics()
        out[shard.name] = (m["jobs"]["solved"], m["solver"]["evaluations"])
    return out


def _closed_loop(url: str, problems, solver: Dict, threads: int, tracing: bool = False):
    """Run ``problems`` through ``SolveClient.solve`` on ``threads``
    closed-loop clients, job ``i`` on thread ``i % threads``.
    Returns (results, latencies, completion times, wall, client CPU);
    a request that raised leaves ``None`` as its result."""
    from repro.client import ClientError, SolveClient

    n = len(problems)
    results: List = [None] * n
    latencies = [0.0] * n
    completions = [0.0] * n

    def drive(offset: int) -> None:
        client = SolveClient(url, tracing=tracing, timeout=60.0)
        for i in range(offset, n, threads):
            t0 = time.perf_counter()
            try:
                results[i] = client.solve(problems[i], **solver)
            except ClientError:
                results[i] = None
            t1 = time.perf_counter()
            latencies[i] = t1 - t0
            completions[i] = t1 - start

    workers = [threading.Thread(target=drive, args=(k,)) for k in range(threads)]
    cpu0 = time.process_time()
    start = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall = time.perf_counter() - start
    return results, latencies, completions, wall, time.process_time() - cpu0


def _fill(url: str, problems, solver: Dict) -> List:
    """Solve every problem through the fleet: two threads, each submitting
    its half (``submit_many``) and then collecting it (``iter_results``).
    Returns the results in problem order."""
    from repro.client import SolveClient

    results: List = [None] * len(problems)

    def drive(offset: int) -> None:
        client = SolveClient(url, tracing=False, timeout=60.0)
        indices = list(range(offset, len(problems), 2))
        ids = client.submit_many([problems[i] for i in indices], **solver)
        position = dict(zip(ids, indices))
        for result in client.iter_results(ids):
            results[position[result.job_id]] = result

    workers = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return results


class ServingRound:
    """One round of a serving workload: a fresh fleet, and the CPU the
    program's processes spent during its timed block."""

    def __init__(self, ctx: Ctx, k: int) -> None:
        self.fleet = Fleet(ctx.root, ctx.work / f"fleet{k}")
        self.cpu: Dict[str, float] = {}

    def __enter__(self) -> "ServingRound":
        try:
            self.fleet.start()
        except BaseException:
            self.close()
            raise
        return self

    def timed(self, problems, solver: Dict, threads: int):
        """A timed block through the router; see :func:`_closed_loop`."""
        before = _fleet_by_role(self.fleet, common.cpu_seconds)
        out = _closed_loop(self.fleet.url, problems, solver, threads)
        after = _fleet_by_role(self.fleet, common.cpu_seconds)
        self.cpu = {role: after[role] - before[role] for role in after}
        return out

    def rss_mb(self) -> Dict[str, float]:
        return _fleet_by_role(self.fleet, common.peak_rss_mb)

    def close(self) -> None:
        self.fleet.close()
        shutil.rmtree(self.fleet.workdir, ignore_errors=True)

    def __exit__(self, *exc) -> None:
        self.close()


class CpuTally:
    """Program and load-generator CPU summed over a run's timed blocks."""

    def __init__(self) -> None:
        self.jobs = 0
        self.seconds = {"client": 0.0, "router": 0.0, "shard": 0.0}

    def add(self, jobs: int, client_cpu: float, fleet_cpu: Dict[str, float]) -> None:
        self.jobs += jobs
        self.seconds["client"] += client_cpu
        self.seconds["router"] += fleet_cpu["router"]
        self.seconds["shard"] += fleet_cpu["shard"]

    def per_job_ms(self) -> Dict[str, float]:
        return {
            "client.cpu_ms_per_job": self.seconds["client"] * 1e3 / self.jobs,
            "router.cpu_ms_per_job": self.seconds["router"] * 1e3 / self.jobs,
            "daemon.cpu_ms_per_job": self.seconds["shard"] * 1e3 / self.jobs,
        }


def _serving_layers(
    ctx: Ctx, rnd: ServingRound, probe_problems, solver: Dict, telemetries
) -> Dict[str, float]:
    """Layer metrics both serving workloads take on their last fleet."""
    rss = rnd.rss_mb()
    out = {
        "router.added_ms": layers.router_added_ms(rnd.fleet, probe_problems, solver),
        "proc.peak_rss_mb.client": common.peak_rss_mb(os.getpid()),
        "proc.peak_rss_mb.router": rss["router"],
        "proc.peak_rss_mb.shard": rss["shard"],
        "proc.peak_rss_mb.worker": rss["worker"],
    }
    out.update(
        layers.probe_cache(
            rnd.fleet.workdir / "cache-shard0", ctx.work / "cache-probe", probe_problems, solver
        )
    )
    out.update(layers.probe_solver_layers(probe_problems, solver["budget"]["max_evaluations"]))
    out.update(layers.strategy_counts(telemetries))
    return out


# ----------------------------------------------------------------------
# warm-hits
# ----------------------------------------------------------------------
def warm_hits(ctx: Ctx) -> Outcome:
    """One client thread re-reading cells already in the fleet's caches."""
    n_cells = 48 if ctx.tiny else 352
    n_jobs = ctx.count(140, 60)
    rng = random.Random(ctx.seed)
    order = [rng.randrange(n_cells) for _ in range(n_jobs)]
    random.seed(ctx.seed)  # SolveClient.wait draws its poll jitter here
    timed, cpu, notes = Timed(), CpuTally(), []
    metrics: Dict[str, float] = {}
    parts = blocks(n_jobs, ctx.rounds(3))
    for k, (lo, hi) in enumerate(parts):
        t0 = time.perf_counter()
        with ServingRound(ctx, k) as rnd:
            problems = [warm_problem(ctx.seed, i) for i in range(n_cells)]
            filled = _fill(rnd.fleet.url, problems, WARM_SOLVER)
            timed.setups.append(time.perf_counter() - t0)
            if any(r is None or not r.ok or r.source != "solved" for r in filled):
                raise CheckFailed("warm-hits: the fill did not solve every cell")
            shares = {name: solved for name, (solved, _) in _shard_work(rnd.fleet).items()}
            if not ctx.tiny and min(shares.values()) <= 128:
                raise CheckFailed(f"warm-hits: a shard's share fits its memo: {shares}")
            notes.append(f"round {k}: cells per shard={shares}")

            jobs = [problems[i] for i in order[lo:hi]]
            work_before = _shard_work(rnd.fleet)
            answers, lat, done, wall, client_cpu = rnd.timed(jobs, WARM_SOLVER, 1)
            check_warm_hits(
                answers, order[lo:hi], [canonical(r) for r in filled],
                work_before, _shard_work(rnd.fleet),
            )
            rss = rnd.rss_mb()
            timed.block(
                len(jobs), wall, lat, done,
                [r.solution.objective for r in answers],
                rss["router"] + rss["shard"] + rss["worker"],
            )
            cpu.add(len(jobs), client_cpu, rnd.cpu)
            if ctx.trace and k == len(parts) - 1:
                metrics.update(
                    _serving_layers(
                        ctx, rnd, problems[:64], WARM_SOLVER, [r.telemetry for r in filled]
                    )
                )
                traced, _, _, traced_wall, _ = _closed_loop(
                    rnd.fleet.url, jobs, WARM_SOLVER, 1, tracing=True
                )
                if any(r is None or r.source != "cache" for r in traced):
                    raise CheckFailed("warm-hits: a traced request was not a cache hit")
                metrics["obs.tracing_overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
                metrics.update(
                    layers.traced_pass(rnd.fleet.url, jobs[:300], WARM_SOLVER, ctx.seed, 1)
                )
    metrics.update(timed.metrics(notes))
    metrics.update(cpu.per_job_ms())
    return Outcome(n_jobs, 0, metrics, notes)


# ----------------------------------------------------------------------
# cold-serve
# ----------------------------------------------------------------------
def cold_serve(ctx: Ctx) -> Outcome:
    """Two client threads solving distinct NP-hard instances."""
    n_jobs = ctx.count(22, 8)
    rng = random.Random(ctx.seed)
    random.seed(ctx.seed)
    timed, cpu, notes = Timed(), CpuTally(), []
    metrics: Dict[str, float] = {}
    telemetries = []
    parts = blocks(n_jobs, ctx.rounds(5))
    for k, (lo, hi) in enumerate(parts):
        t0 = time.perf_counter()
        with ServingRound(ctx, k) as rnd:
            _warm_up(rnd.fleet, ctx.seed)
            jobs = [cold_problem(ctx.seed, i) for i in range(lo, hi)]
            timed.setups.append(time.perf_counter() - t0)
            results, lat, done, wall, client_cpu = rnd.timed(jobs, COLD_SOLVER, 2)
            rss = rnd.rss_mb()
            if any(r is None or not r.ok or r.source != "solved" for r in results):
                raise CheckFailed("cold-serve: a job failed or was not solved afresh")
            sample = sorted(rng.sample(range(len(jobs)), min(len(jobs), 2)))
            check_cold_serve(
                (lo + i, results[i].solution, _solve_local(jobs[i])) for i in sample
            )
            timed.block(
                len(jobs), wall, lat, done,
                [r.solution.objective for r in results],
                rss["router"] + rss["shard"] + rss["worker"],
            )
            cpu.add(len(jobs), client_cpu, rnd.cpu)
            telemetries += [r.telemetry for r in results]
            if ctx.trace and k == len(parts) - 1:
                metrics.update(_serving_layers(ctx, rnd, jobs, COLD_SOLVER, telemetries))
                fresh = [cold_problem(ctx.seed, n_jobs + i) for i in range(4 if ctx.tiny else 24)]
                metrics.update(layers.traced_pass(rnd.fleet.url, fresh, COLD_SOLVER, ctx.seed, 2))
    metrics.update(timed.metrics(notes))
    metrics.update(cpu.per_job_ms())
    return Outcome(n_jobs, 0, metrics, notes)


def _solve_local(problem):
    from repro.service import solve_one
    from repro.strategies import SolveBudget

    return solve_one(
        problem,
        COLD_SOLVER["objective"],
        strategy=COLD_SOLVER["strategy"],
        budget=SolveBudget(**COLD_SOLVER["budget"]),
    )


def _warm_up(fleet: Fleet, seed: int) -> None:
    """Start each shard's solver pool with two solves sent straight to it,
    on instances outside the job list, so the timed block pays no lazy
    start-up."""
    from repro.client import SolveClient

    for j, shard in enumerate(fleet.shards):
        client = SolveClient(shard.url, tracing=False)
        for r in range(2):
            client.solve(cold_problem(seed + 1 + j, 10_000 + r), **COLD_SOLVER)


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------
#: What a campaign or front script imports before it can do anything.
_IMPORTS = "import repro.experiments, repro.service, repro.analysis.front_engine"


def _library_setup(ctx: Ctx, build: Callable[[], object]) -> Tuple[List[float], object]:
    """A round's set-up of a library workload, three times over: a fresh
    interpreter importing the library, then building the round's inputs.
    Returns every set-up's seconds and the inputs."""
    t0 = time.perf_counter()
    inputs = build()
    build_s = time.perf_counter() - t0
    times = []
    for _ in range(1 if ctx.tiny else 3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _IMPORTS],
            env=child_env(ctx.root, ctx.work),
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0 + build_s)
    return times, inputs


def _children_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def campaign(ctx: Ctx) -> Outcome:
    """``run_campaign`` on fresh caches with two workers."""
    from repro.experiments import ResultsCache, run_campaign
    from repro.service import solve_batch

    # Two platforms x two solvers: four cells per scenario seed.  Four
    # rounds keep each block between one and two chunks long, so every
    # chunk mixes both solvers (run_campaign solves them one after the
    # other) and the chunks' percentiles are alike.
    n_seeds = max(ctx.rounds(4), round(ctx.count(40, 8) / 4))
    timed, notes = Timed(), []
    runs = []
    for k, (lo, hi) in enumerate(blocks(n_seeds, ctx.rounds(4))):
        setup_s, spec = _library_setup(ctx, lambda: campaign_spec(ctx.seed, range(lo, hi)))
        timed.setups += setup_s
        cache_dir = ctx.work / f"campaign{k}"
        wall_start = time.time()
        t0 = time.perf_counter()
        result = run_campaign(spec, cache_dir, workers=2)
        wall = time.perf_counter() - t0
        cache = ResultsCache(cache_dir)
        timed.block(
            result.n_cells, wall,
            [r.wall_time for r in result.records],
            [cache.path(r.key).stat().st_mtime - wall_start for r in result.records],
            [r.objective for r in result.records],
            common.peak_rss_mb(os.getpid()),
        )
        runs.append((spec, cache_dir, result, wall))

    metrics = timed.metrics(notes)
    batches, batch_wall, inline_wall, records = [], 0.0, 0.0, []
    for spec, cache_dir, result, _ in runs:
        problems = [s.problem() for s in spec.scenarios()]
        objectives = []
        for solver in spec.solvers:
            batch = solve_batch(
                problems, objective=solver.objective, strategy=solver.strategy,
                budget=solver.budget, workers=2,
            )
            batches.append(batch)
            batch_wall += batch.total_time
            objectives += [item.objective for item in batch.items]
            if ctx.trace:
                inline_wall += solve_batch(
                    problems, objective=solver.objective, strategy=solver.strategy,
                    budget=solver.budget,
                ).total_time
        check_campaign(result, run_campaign(spec, cache_dir, workers=2), objectives)
        records += result.records
    if ctx.trace:
        spec, cache_dir, _, _ = runs[-1]
        problems = [s.problem() for s in spec.scenarios()]
        metrics.update(
            {
                "campaign.overhead_ms_per_cell": (
                    math.fsum(wall for *_, wall in runs) - batch_wall
                ) * 1e3 / len(records),
                "pool.parallel_efficiency": common.median(
                    [b.stats["parallel_efficiency"] for b in batches]
                ),
                "pool.bytes_pickled_per_job": common.median(
                    [b.stats.get("bytes_pickled_per_job", 0.0) for b in batches]
                ),
                "pool.speedup": inline_wall / batch_wall,
                "proc.peak_rss_mb.client": common.peak_rss_mb(os.getpid()),
                "proc.peak_rss_mb.worker": _children_peak_rss_mb(),
            }
        )
        metrics.update(
            layers.probe_cache(
                cache_dir, ctx.work / "cache-probe", problems, spec.solvers[0].to_dict()
            )
        )
        metrics.update(
            layers.probe_solver_layers(
                problems[:16], CAMPAIGN_SOLVERS[0]["budget"]["max_evaluations"]
            )
        )
        metrics.update(layers.strategy_counts([r.telemetry for r in records]))
    return Outcome(len(records), 0, metrics, notes)


def front_seeds(seed: int, n: int) -> List[int]:
    """``n`` instance seeds drawn from :data:`FRONT_SEEDS` in the order
    ``seed`` shuffles them into (cycling when ``n`` exceeds the list)."""
    pool = list(FRONT_SEEDS)
    random.Random(seed).shuffle(pool)
    return [pool[i % len(pool)] for i in range(n)]


def _exact_front(instance_seed: int):
    from repro.analysis.pareto import period_energy_front_exact

    return period_energy_front_exact(front_problem(instance_seed), max_points=FRONT_POINTS)


def front(ctx: Ctx) -> Outcome:
    """``compute_front_anytime`` with two workers over a seeded front list."""
    from repro.analysis.front_engine import compute_front_anytime

    seeds = front_seeds(ctx.seed, ctx.count(7, 3))
    timed, notes = Timed(), []
    problems, results, t90s = [], [], []
    for lo, hi in blocks(len(seeds), ctx.rounds(5)):
        setup_s, block = _library_setup(ctx, lambda: [front_problem(s) for s in seeds[lo:hi]])
        timed.setups += setup_s
        lat, done, points = [], [], []
        t0 = time.perf_counter()
        for problem in block:
            s = time.perf_counter()
            result = compute_front_anytime(problem, max_points=FRONT_POINTS, workers=2)
            e = time.perf_counter()
            lat.append(e - s)
            done.append(e - t0)
            results.append(result)
        wall = time.perf_counter() - t0
        for result in results[lo:hi]:
            hi_p = max(p for p, _ in result.front)
            hi_e = max(en for _, en in result.front)
            curve = result.hypervolume_trajectory((hi_p * 1.01 + 1e-9, hi_e * 1.01 + 1e-9))
            t90s.append(next(t for t, hv in curve if hv >= 0.9 * curve[-1][1]))
            points += [p for p, _ in result.front]
        timed.block(len(block), wall, lat, done, points, common.peak_rss_mb(os.getpid()))
        problems += block

    distinct = sorted(set(seeds))
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        exact = dict(zip(distinct, pool.map(_exact_front, distinct)))
    check_fronts([r.front for r in results], [exact[s] for s in seeds])

    metrics = timed.metrics(notes)
    metrics["t90_s"] = math.fsum(t90s)
    if ctx.trace:
        firsts = {}
        for s, problem, result in zip(seeds, problems, results):
            firsts.setdefault(s, (problem, result))
        inline = math.fsum(
            compute_front_anytime(p, max_points=FRONT_POINTS).wall_time for p, _ in firsts.values()
        )
        pooled = math.fsum(r.wall_time for _, r in firsts.values())
        metrics.update(
            {
                "front.warm_started_share": math.fsum(r.n_warm for r in results)
                / math.fsum(r.n_cells for r in results),
                "front.window_efficiency": inline / (2 * pooled),
                "proc.peak_rss_mb.client": common.peak_rss_mb(os.getpid()),
                "proc.peak_rss_mb.worker": _children_peak_rss_mb(),
            }
        )
        sample = [p for p, _ in list(firsts.values())[: 2 if ctx.tiny else 6]]
        metrics.update(layers.probe_exact(sample, 2 if ctx.tiny else 4))
        metrics.update(
            layers.probe_solver_layers(sample, COLD_SOLVER["budget"]["max_evaluations"])
        )
    return Outcome(len(seeds), 0, metrics, notes)


WORKLOADS: Dict[str, Callable[[Ctx], Outcome]] = {
    "warm-hits": warm_hits,
    "cold-serve": cold_serve,
    "campaign": campaign,
    "front": front,
}
