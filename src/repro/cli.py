"""Command-line interface: ``repro-pipelines``.

Subcommands:

* ``demo-example`` -- replay the paper's Section 2 motivating example,
  printing the four worked mappings and their criteria;
* ``tables`` -- print the complexity registry (Tables 1 and 2);
* ``solve`` -- solve a random instance in a chosen cell and report the
  mapping (a quick way to exercise the solvers);
* ``simulate`` -- run the discrete-event simulator on the Section 2
  example and compare measured vs analytic period/latency;
* ``solve-batch`` -- generate a fleet of random instances across registry
  cells and solve them through :mod:`repro.service`, optionally over a
  process pool, reporting per-instance timing;
* ``strategies`` -- the solver-strategy registry
  (:mod:`repro.strategies`): ``list`` enumerates every registered
  strategy with its declared capabilities;
* ``campaign`` -- declarative experiment campaigns
  (:mod:`repro.experiments`): ``run`` executes a YAML/JSON spec's missing
  cells through the resumable results cache, ``status`` reports cache
  coverage, ``report`` renders aggregate, solver-comparison and
  telemetry tables;
* ``serve`` -- run the solve-service daemon (:mod:`repro.server`): an
  HTTP API over a priority job queue with content-addressed dedup
  against the results cache;
* ``route`` -- run the shard router (:mod:`repro.server.router`): one
  ``/v1/*`` front door consistent-hash routing submissions over a
  fleet of daemons (``--shard URL`` to front running ones, ``--spawn
  N`` to launch a local fleet), with health mark-down/up and bounded
  retry-to-next-replica;
* ``submit`` / ``jobs`` / ``job-result`` -- client verbs
  (:class:`repro.client.SolveClient`) targeting a running daemon or
  router (they speak the same API).

``solve``, ``solve-batch``, ``campaign run`` and ``submit`` accept
``--strategy`` (a registered name or a composite spec like
``portfolio(greedy,annealing)``; ``--method`` is an older spelling, except
on ``campaign run``) plus, except on ``solve``, the budget flags
``--time-limit`` / ``--max-evals`` / ``--solver-seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .analysis.tables import render_table
from .core.types import (
    CommunicationModel,
    Criterion,
    MappingRule,
    PlatformClass,
)


def _cmd_demo_example(args: argparse.Namespace) -> int:
    from .core.evaluation import evaluate
    from .paper import (
        FIGURE1_EXPECTED,
        figure1_applications,
        figure1_platform,
        mapping_compromise_energy_46,
        mapping_min_energy,
        mapping_optimal_latency,
        mapping_optimal_period,
    )

    apps = figure1_applications()
    platform = figure1_platform()
    rows = []
    for name, mapping in (
        ("optimal period (Eq. 1)", mapping_optimal_period()),
        ("optimal latency (Eq. 2)", mapping_optimal_latency()),
        ("minimal energy", mapping_min_energy()),
        ("compromise (T <= 2)", mapping_compromise_energy_46()),
    ):
        v = evaluate(apps, platform, mapping)
        rows.append((name, v.period, v.latency, v.energy))
    print("Section 2 motivating example (Figure 1):")
    print(render_table(["mapping", "period", "latency", "energy"], rows))
    print(
        "\npaper-reported numbers: period 1 (energy 136), latency 2.75, "
        f"min energy {FIGURE1_EXPECTED['min_energy']:.0f} "
        f"(period {FIGURE1_EXPECTED['min_energy_period']:.0f}), "
        f"compromise period {FIGURE1_EXPECTED['compromise_period']:.0f} "
        f"at energy {FIGURE1_EXPECTED['compromise_energy']:.0f}"
    )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .algorithms.registry import TABLE1, TABLE2

    for label, table in (("Table 1", TABLE1), ("Table 2", TABLE2)):
        rows = [
            (
                "/".join(c.value for c in e.criteria),
                e.rule.value,
                e.cell.value,
                e.complexity.value,
                e.theorem,
            )
            for e in table
        ]
        print(f"{label} (complexity of every cell):")
        print(
            render_table(
                ["criteria", "rule", "platform", "complexity", "theorem"],
                rows,
            )
        )
        print()
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .core.exceptions import ReproError
    from .generators import small_random_problem
    from .service import solve_one

    problem = small_random_problem(
        args.seed,
        platform_class=PlatformClass(args.platform),
        rule=MappingRule(args.rule),
        model=CommunicationModel(args.model),
        n_apps=args.apps,
    )
    try:
        solution = solve_one(problem, args.criterion, strategy=args.strategy)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"solver  : {solution.solver}")
    print(f"optimal : {solution.optimal}")
    print(f"objective ({args.criterion}): {solution.objective:.6g}")
    rows = [
        (x.app, f"[{x.interval[0]}, {x.interval[1]}]", x.proc, x.speed)
        for x in solution.mapping.assignments
    ]
    print(render_table(["app", "stages", "processor", "speed"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.evaluation import application_latency, evaluate
    from .paper import figure1_applications, figure1_platform, mapping_optimal_period
    from .simulation import simulate

    apps = figure1_applications()
    platform = figure1_platform()
    mapping = mapping_optimal_period()
    model = CommunicationModel(args.model)
    values = evaluate(apps, platform, mapping, model=model)
    result = simulate(
        apps, platform, mapping, args.datasets, model=model
    )
    rows = []
    for a in sorted(result.completions):
        rows.append(
            (
                apps[a].name,
                values.periods[a],
                result.measured_period(a),
                application_latency(apps, platform, mapping, a),
                result.measured_latency(a),
            )
        )
    print(
        f"simulated {args.datasets} data sets per application "
        f"({model.value} model):"
    )
    print(
        render_table(
            [
                "application",
                "analytic period",
                "measured period",
                "analytic latency",
                "measured latency",
            ],
            rows,
        )
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generators import small_random_problem
    from .io import save_problem

    problem = small_random_problem(
        args.seed,
        platform_class=PlatformClass(args.platform),
        rule=MappingRule(args.rule),
        model=CommunicationModel(args.model),
        n_apps=args.apps,
        n_modes=args.modes,
    )
    save_problem(problem, args.output)
    print(
        f"wrote {args.output}: {problem.n_apps} applications, "
        f"{problem.n_stages_total} stages, "
        f"{problem.platform.n_processors} processors "
        f"({problem.platform_class.value}, {problem.rule.value}, "
        f"{problem.model.value})"
    )
    return 0


def _cmd_solve_file(args: argparse.Namespace) -> int:
    from .algorithms.exact import exact_minimize
    from .core.objectives import Thresholds
    from .io import load_problem, mapping_to_dict

    problem = load_problem(args.instance)
    thresholds = Thresholds(
        period=args.max_period, latency=args.max_latency, energy=args.max_energy
    )
    solution = exact_minimize(
        problem, Criterion(args.criterion), thresholds
    )
    print(f"objective ({args.criterion}): {solution.objective:.6g}")
    print(
        f"period={solution.values.period:.6g} "
        f"latency={solution.values.latency:.6g} "
        f"energy={solution.values.energy:.6g}"
    )
    if args.output:
        import json
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(mapping_to_dict(solution.mapping), indent=2)
        )
        print(f"mapping written to {args.output}")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from .analysis import period_energy_front_exact
    from .io import load_problem
    from .paper import figure1_problem

    problem = (
        load_problem(args.instance) if args.instance else figure1_problem()
    )
    front = period_energy_front_exact(problem, max_points=args.points)
    print(
        render_table(["period", "energy"], [(t, e) for t, e in front])
    )
    print(f"({len(front)} non-dominated points)")
    return 0


def _cmd_front(args: argparse.Namespace) -> int:
    from .io import load_problem
    from .paper import figure1_problem

    problem = (
        load_problem(args.instance) if args.instance else figure1_problem()
    )
    if args.url:
        return _front_remote(args, problem)

    from .analysis import compute_front_anytime

    def _progress(event) -> None:
        point = (
            "infeasible"
            if event.point is None
            else f"period={event.point[0]:.6g} energy={event.point[1]:.6g}"
        )
        print(
            f"[{event.elapsed:7.3f}s] threshold {event.threshold:.6g}: "
            f"{point}"
        )

    result = compute_front_anytime(
        problem,
        max_points=args.points,
        workers=args.workers,
        warm_start=not args.no_warm,
        on_event=_progress if args.progress else None,
    )
    print(render_table(["period", "energy"], result.front))
    print(
        f"({len(result.front)} non-dominated points; "
        f"{result.n_cells} cells, {result.n_infeasible} infeasible, "
        f"{result.n_warm} warm-started, {result.wall_time:.3f}s)"
    )
    if args.output:
        import json
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(
                {
                    "front": [list(p) for p in result.front],
                    "thresholds": result.thresholds,
                    "wall_time": result.wall_time,
                    "cells": result.n_cells,
                    "infeasible": result.n_infeasible,
                    "warm_started": result.n_warm,
                },
                indent=2,
            )
        )
        print(f"front written to {args.output}")
    return 0


def _front_remote(args: argparse.Namespace, problem) -> int:
    from .client import ClientError, SolveClient

    client = SolveClient(args.url)
    try:
        view = client.submit_front(
            problem,
            strategy=args.strategy,
            points=args.points,
            priority=args.priority,
        )
        print(f"{view['id']}  {view['state']}  {view['total']} cells")
        for view in client.iter_front(view["id"], timeout=args.wait_timeout):
            if args.progress:
                print(
                    f"  {view['done']}/{view['total']} cells  "
                    f"front={len(view['front'])}  "
                    f"hypervolume={view['hypervolume']:.6g}"
                )
    except (ClientError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    front = [tuple(p) for p in view["front"]]
    print(render_table(["period", "energy"], front))
    print(
        f"({len(front)} non-dominated points; {view['total']} cells, "
        f"{view['infeasible']} infeasible, "
        f"hypervolume {view['hypervolume']:.6g})"
    )
    if args.output:
        import json
        from pathlib import Path

        Path(args.output).write_text(json.dumps(view, indent=2))
        print(f"front written to {args.output}")
    return 0


def _budget_from_args(args: argparse.Namespace):
    """A :class:`repro.strategies.SolveBudget` from the budget flags
    (``None`` when no flag was given)."""
    from .strategies import SolveBudget

    if (
        args.time_limit is None
        and args.max_evals is None
        and args.solver_seed is None
    ):
        return None
    return SolveBudget(
        time_limit=args.time_limit,
        max_evaluations=args.max_evals,
        seed=args.solver_seed,
    )


def _add_strategy_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--strategy",
        "--method",
        dest="strategy",
        default=default,
        help="solver strategy name or composite spec, e.g. 'exact' or "
        "'portfolio(greedy,local_search,annealing)'; registry = polynomial "
        "solver when the cell allows, heuristic otherwise (see `strategies "
        f"list`; --method is an older spelling; default: {default})",
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="per-solve wall-clock budget in seconds",
    )
    parser.add_argument(
        "--max-evals",
        type=int,
        default=None,
        help="per-solve cap on candidate evaluations / search nodes",
    )
    parser.add_argument(
        "--solver-seed",
        type=int,
        default=None,
        help="RNG seed for the stochastic heuristics (reproducible runs)",
    )


def _cmd_strategies_list(args: argparse.Namespace) -> int:
    from .strategies import list_strategies

    rows = []
    for s in list_strategies():
        d = s.describe()
        rows.append(
            (
                d["name"],
                d["kind"],
                ",".join(d["objectives"]),
                "any" if d["rules"] is None else ",".join(d["rules"]),
                "any" if d["cells"] is None else ",".join(d["cells"]),
                "yes" if d["needs_thresholds"] else "no",
                d["summary"],
            )
        )
    print(
        render_table(
            [
                "strategy",
                "kind",
                "objectives",
                "rules",
                "cells",
                "thresholds",
                "summary",
            ],
            rows,
        )
    )
    print(
        f"\n{len(rows)} registered strategies; compose them with "
        "portfolio(a,b,...) and fallback(a,b,...), e.g. "
        "--strategy 'portfolio(greedy,local_search,annealing)'"
    )
    return 0


def _cmd_solve_batch(args: argparse.Namespace) -> int:
    from .algorithms.registry import classify_platform_cell
    from .generators import small_random_problem
    from .service import solve_batch

    platform_classes = (
        list(PlatformClass)
        if args.platform == "all"
        else [PlatformClass(args.platform)]
    )
    rules = (
        list(MappingRule) if args.rule == "all" else [MappingRule(args.rule)]
    )
    combos = [(c, r) for c in platform_classes for r in rules]
    problems = []
    for i in range(args.count):
        cls, rule = combos[i % len(combos)]
        problems.append(
            small_random_problem(
                args.seed + i,
                platform_class=cls,
                rule=rule,
                model=CommunicationModel(args.model),
                n_apps=args.apps,
                n_modes=args.modes,
            )
        )
    result = solve_batch(
        problems,
        objective=args.criterion,
        workers=args.workers,
        strategy=args.strategy,
        budget=_budget_from_args(args),
    )
    rows = []
    cells = set()
    for item in result.items:
        problem = problems[item.index]
        cell = classify_platform_cell(problem)
        cells.add(cell)
        rows.append(
            (
                item.index,
                cell.value,
                problem.rule.value,
                item.solution.solver if item.solution else "-",
                item.status,
                f"{item.objective:.6g}" if item.status == "ok" else "-",
                f"{item.wall_time * 1000:.2f}",
            )
        )
    if not args.quiet:
        print(
            render_table(
                [
                    "#",
                    "cell",
                    "rule",
                    "solver",
                    "status",
                    args.criterion,
                    "time (ms)",
                ],
                rows,
            )
        )
    print(result.summary())
    print(f"registry cells covered: {len(cells)}")
    with_telemetry = [x for x in result.items if x.telemetry is not None]
    evaluations = sum(x.telemetry.evaluations for x in with_telemetry)
    n_exhausted = sum(1 for x in with_telemetry if x.telemetry.budget_exhausted)
    print(
        f"strategy={args.strategy} evaluations={evaluations} "
        f"budget-exhausted={n_exhausted}/{len(result.items)}"
    )
    return 0 if result.n_failed == 0 else 1


def _campaign_dir(args: argparse.Namespace, spec) -> str:
    """The campaign's cache directory (``--dir`` or ``campaigns/<name>``)."""
    from pathlib import Path

    return args.dir if args.dir else str(Path("campaigns") / spec.name)


def _load_campaign_spec(args: argparse.Namespace):
    """Load and validate the spec file, exiting with code 2 on errors."""
    from .experiments import CampaignSpecError, load_spec

    try:
        return load_spec(args.spec)
    except CampaignSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _apply_solver_overrides(args: argparse.Namespace, spec):
    """Apply ``--strategy`` / budget flags to every solver entry of the
    spec.  Overrides change the solver configurations, hence the cache
    keys: overridden runs populate their own cells."""
    import dataclasses

    from .strategies import SolveBudget, StrategyError, parse_strategy

    budget = _budget_from_args(args)
    if args.strategy is None and budget is None:
        return spec
    if args.strategy is not None:
        try:
            parse_strategy(args.strategy)
        except StrategyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc
    solvers = []
    for solver in spec.solvers:
        changes = {}
        if args.strategy is not None:
            changes["strategy"] = args.strategy
        if budget is not None:
            base = solver.budget.to_dict() if solver.budget else {}
            base.update(budget.to_dict())
            changes["budget"] = SolveBudget.from_dict(base)
        # overrides never touch objective/max_period, so the spec's
        # energy-requires-max_period validation still holds
        solvers.append(dataclasses.replace(solver, **changes))
    print(
        "note: --strategy/budget overrides change the solver "
        "configurations and therefore the cache keys",
        file=sys.stderr,
    )
    return dataclasses.replace(spec, solvers=tuple(solvers))


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .experiments import run_campaign

    spec = _apply_solver_overrides(args, _load_campaign_spec(args))
    directory = _campaign_dir(args, spec)
    result = run_campaign(
        spec, directory, workers=args.workers, force=args.force
    )
    if not args.quiet:
        rows = [
            (
                r.scenario.label,
                r.solver.name,
                "cache" if r.cached else (r.algorithm or "-"),
                r.status,
                f"{r.objective:.6g}" if r.ok else "-",
                f"{r.wall_time * 1000:.2f}",
            )
            for r in result.records
        ]
        print(
            render_table(
                ["scenario", "solver", "via", "status", "objective", "time (ms)"],
                rows,
            )
        )
    print(result.summary())
    print(f"results cache: {directory}")
    return 0 if result.n_failed == 0 else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .experiments import campaign_status

    spec = _load_campaign_spec(args)
    status = campaign_status(spec, _campaign_dir(args, spec))
    rows = [
        (name, done, total, total - done)
        for name, (done, total) in status.per_solver.items()
    ]
    print(render_table(["solver", "done", "total", "missing"], rows))
    print(status.summary())
    return 0 if status.complete else 1


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .analysis.campaigns import campaign_table, solver_ratio_table
    from .experiments import load_records

    spec = _load_campaign_spec(args)
    directory = _campaign_dir(args, spec)
    records = load_records(spec, directory)
    if not records:
        print(
            "no cached results yet; run `repro-pipelines campaign run` first",
            file=sys.stderr,
        )
        return 1
    by = tuple(k.strip() for k in args.by.split(",") if k.strip())
    try:
        headers, rows = campaign_table(records, by=by)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"campaign {spec.name!r} aggregates (grouped by {', '.join(by)}):")
    print(render_table(headers, rows))
    if len(spec.solvers) > 1:
        try:
            headers, rows = solver_ratio_table(records, baseline=args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\npaired solver comparison (objective ratios, <1 = better):")
        print(render_table(headers, rows))
    from .analysis.campaigns import strategy_telemetry_table

    headers, rows = strategy_telemetry_table(records)
    if rows:
        print("\nper-solver telemetry (budget consumption):")
        print(render_table(headers, rows))
    if args.front > 0:
        from .analysis.campaigns import heuristic_front_quality

        print("\nheuristic period/energy front quality vs exact front:")
        quality_rows = []
        for scenario in spec.scenarios()[: args.front]:
            metrics = heuristic_front_quality(scenario.problem())
            quality_rows.append(
                (
                    scenario.label,
                    int(metrics["n_exact"]),
                    int(metrics["n_approx"]),
                    f"{metrics['coverage']:.2f}",
                    f"{metrics['mean_excess']:.3f}",
                )
            )
        print(
            render_table(
                ["scenario", "exact pts", "approx pts", "coverage", "mean excess"],
                quality_rows,
            )
        )
    n_missing = spec.n_cells - len(records)
    if n_missing:
        print(f"\nwarning: {n_missing} cells not yet computed")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import spans as obs_spans
    from .server import run_server

    if args.obs_jsonl is not None:
        obs_spans.configure(jsonl_path=args.obs_jsonl)
    run_server(
        host=args.host,
        port=args.port,
        cache=args.cache_dir,
        concurrency=args.concurrency,
        executor=args.executor,
        max_jobs_retained=args.max_jobs,
        max_queue_depth=args.max_queue_depth,
        shard=args.shard_name,
        slow_solve_threshold=args.slow_solve_threshold,
    )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from .server import parse_shard_spec, run_router

    if not args.shard and not args.spawn:
        print(
            "error: give at least one --shard URL or --spawn N",
            file=sys.stderr,
        )
        return 2
    try:
        shard_specs = [parse_shard_spec(spec) for spec in args.shard]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spawn_args = []
    if args.max_queue_depth is not None:
        spawn_args += ["--max-queue-depth", str(args.max_queue_depth)]
    router_kwargs = {}
    if args.vnodes is not None:
        router_kwargs["vnodes"] = args.vnodes
    run_router(
        shard_specs,
        host=args.host,
        port=args.port,
        spawn=args.spawn,
        cache_dir=args.cache_dir,
        executor=args.executor,
        concurrency=args.concurrency,
        spawn_args=spawn_args,
        max_hops=args.max_hops,
        health_interval=args.health_interval,
        fail_threshold=args.fail_threshold,
        upstream_timeout=args.upstream_timeout,
        redirect_results=args.redirect_results,
        **router_kwargs,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .client import ClientError, JobFailedError, SolveClient
    from .io import load_problem

    client = SolveClient(args.url)
    budget = _budget_from_args(args)
    solver_kwargs = dict(
        objective=args.objective,
        strategy=args.strategy,
        budget=budget,
        max_period=args.max_period,
        max_latency=args.max_latency,
        max_energy=args.max_energy,
    )
    try:
        views = [
            client.submit(
                load_problem(instance),
                priority=args.priority,
                **solver_kwargs,
            )
            for instance in args.instances
        ]
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for instance, view in zip(args.instances, views):
        print(f"{view['id']}  {view['state']:9s}  {instance}")
    if not args.wait:
        return 0
    exit_code = 0
    try:
        for result in client.iter_results(
            [v["id"] for v in views], timeout=args.wait_timeout
        ):
            if result.ok:
                assert result.solution is not None
                print(
                    f"{result.job_id}  ok         "
                    f"{args.objective}={result.solution.objective:.6g} "
                    f"via={result.source}"
                )
            else:
                print(
                    f"{result.job_id}  {result.status:9s}  "
                    f"{result.error or ''}"
                )
                # Infeasible is a correct verdict, not a failure (same
                # contract as solve-batch and job-result).
                if result.status != "infeasible":
                    exit_code = 1
    except (TimeoutError, JobFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return exit_code


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .client import ClientError, SolveClient

    client = SolveClient(args.url)
    try:
        if args.metrics:
            metrics = client.metrics()
            if metrics.get("role") == "router":
                # Shard-router payload: fleet-wide counters plus
                # per-shard health instead of a single queue.
                router = metrics["router"]
                up = [s for s in metrics["shard_health"] if s["up"]]
                print(
                    f"router: shards_up={len(up)}/"
                    f"{len(metrics['shard_health'])} "
                    f"ring_vnodes={metrics['ring']['vnodes']} "
                    + " ".join(
                        f"{k}={v}" for k, v in sorted(router.items())
                    )
                )
                for shard in metrics["shard_health"]:
                    state = "up" if shard["up"] else "DOWN"
                    print(
                        f"  {shard['name']:8s} {state:4s} "
                        f"{shard['url']} forwarded={shard['forwarded']}"
                    )
                jobs, solver = (
                    metrics["fleet"]["jobs"],
                    metrics["fleet"]["solver"],
                )
            else:
                queue, jobs, solver = (
                    metrics["queue"],
                    metrics["jobs"],
                    metrics["solver"],
                )
                print(
                    f"queue: depth={queue['depth']} "
                    f"running={queue['running']} "
                    f"concurrency={queue['concurrency']}"
                )
            print(
                " ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
            )
            print(
                f"solver: evaluations={solver['evaluations']} "
                f"solve_time={solver['solve_time_s']:.3f}s"
            )
            return 0
        jobs = client.jobs(state=args.state, limit=args.limit)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        (
            j["id"],
            j["state"],
            j["status"] or "-",
            j["source"] or "-",
            (
                f"{j['objective']:.6g}"
                if j["objective"] is not None
                else "-"
            ),
            j["request"]["solver"].get("strategy", "-"),
        )
        for j in jobs
    ]
    print(
        render_table(
            ["id", "state", "status", "via", "objective", "solver"], rows
        )
    )
    print(f"{len(rows)} job(s)")
    return 0


def _cmd_job_result(args: argparse.Namespace) -> int:
    from .client import ClientError, SolveClient

    client = SolveClient(args.url)
    try:
        result = client.result(args.job_id)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"job     : {result.job_id}")
    print(f"status  : {result.status} (via {result.source})")
    if result.solution is not None:
        solution = result.solution
        print(f"solver  : {solution.solver}")
        print(f"optimal : {solution.optimal}")
        print(f"objective: {solution.objective:.6g}")
        print(
            f"period={solution.values.period:.6g} "
            f"latency={solution.values.latency:.6g} "
            f"energy={solution.values.energy:.6g}"
        )
        if args.output:
            import json

            from pathlib import Path

            from .io import mapping_to_dict

            Path(args.output).write_text(
                json.dumps(mapping_to_dict(solution.mapping), indent=2)
            )
            print(f"mapping written to {args.output}")
    elif result.error:
        print(f"error   : {result.error}")
    if result.telemetry is not None:
        t = result.telemetry
        print(
            f"telemetry: strategy={t.strategy} evaluations={t.evaluations} "
            f"budget_exhausted={t.budget_exhausted}"
        )
    return 0 if result.status in ("ok", "infeasible") else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .client import ClientError, SolveClient
    from .obs.render import render_top

    client = SolveClient(args.url)
    while True:
        try:
            payload = client.metrics()
        except ClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_top(payload))
        if args.watch is None:
            return 0
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0
        print()


def _cmd_trace(args: argparse.Namespace) -> int:
    from .client import ClientError, SolveClient
    from .obs.render import format_span_tree

    client = SolveClient(args.url)
    try:
        payload = client.trace(args.trace_id)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"trace {payload['trace_id']}: {payload['count']} span(s)")
    print(format_span_tree(payload["spans"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-pipelines`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-pipelines",
        description=(
            "Reproduction of 'Performance and energy optimization of "
            "concurrent pipelined applications' (IPDPS 2010)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "demo-example", help="replay the Section 2 motivating example"
    ).set_defaults(func=_cmd_demo_example)

    sub.add_parser(
        "tables", help="print the complexity registry (Tables 1-2)"
    ).set_defaults(func=_cmd_tables)

    solve = sub.add_parser("solve", help="solve a random instance")
    solve.add_argument("--criterion", choices=["period", "latency"], default="period")
    solve.add_argument(
        "--platform",
        choices=[c.value for c in PlatformClass],
        default=PlatformClass.FULLY_HOMOGENEOUS.value,
    )
    solve.add_argument(
        "--rule",
        choices=[r.value for r in MappingRule],
        default=MappingRule.INTERVAL.value,
    )
    solve.add_argument(
        "--model",
        choices=[m.value for m in CommunicationModel],
        default=CommunicationModel.OVERLAP.value,
    )
    _add_strategy_flag(solve, "auto")
    solve.add_argument("--apps", type=int, default=2)
    solve.add_argument("--seed", type=int, default=0)
    solve.set_defaults(func=_cmd_solve)

    sim = sub.add_parser(
        "simulate", help="simulator vs analytic model on the example"
    )
    sim.add_argument("--datasets", type=int, default=200)
    sim.add_argument(
        "--model",
        choices=[m.value for m in CommunicationModel],
        default=CommunicationModel.OVERLAP.value,
    )
    sim.set_defaults(func=_cmd_simulate)

    gen = sub.add_parser(
        "generate", help="generate a random instance to a JSON file"
    )
    gen.add_argument("output", help="destination JSON file")
    gen.add_argument(
        "--platform",
        choices=[c.value for c in PlatformClass],
        default=PlatformClass.FULLY_HOMOGENEOUS.value,
    )
    gen.add_argument(
        "--rule",
        choices=[r.value for r in MappingRule],
        default=MappingRule.INTERVAL.value,
    )
    gen.add_argument(
        "--model",
        choices=[m.value for m in CommunicationModel],
        default=CommunicationModel.OVERLAP.value,
    )
    gen.add_argument("--apps", type=int, default=2)
    gen.add_argument("--modes", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    solve_file = sub.add_parser(
        "solve-file", help="exactly solve an instance from a JSON file"
    )
    solve_file.add_argument("instance", help="instance JSON file")
    solve_file.add_argument(
        "--criterion",
        choices=[c.value for c in Criterion],
        default=Criterion.PERIOD.value,
    )
    solve_file.add_argument("--max-period", type=float, default=None)
    solve_file.add_argument("--max-latency", type=float, default=None)
    solve_file.add_argument("--max-energy", type=float, default=None)
    solve_file.add_argument(
        "--output", default=None, help="write the mapping JSON here"
    )
    solve_file.set_defaults(func=_cmd_solve_file)

    batch = sub.add_parser(
        "solve-batch",
        help="generate and solve a fleet of random instances "
        "(optionally over a process pool)",
    )
    batch.add_argument(
        "--count", type=int, default=100, help="number of instances"
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: sequential)",
    )
    batch.add_argument(
        "--criterion", choices=["period", "latency"], default="period"
    )
    batch.add_argument(
        "--platform",
        choices=["all", *(c.value for c in PlatformClass)],
        default="all",
        help="platform class of the generated instances "
        "(all = cycle through every class)",
    )
    batch.add_argument(
        "--rule",
        choices=["all", *(r.value for r in MappingRule)],
        default=MappingRule.INTERVAL.value,
    )
    batch.add_argument(
        "--model",
        choices=[m.value for m in CommunicationModel],
        default=CommunicationModel.OVERLAP.value,
    )
    batch.add_argument("--apps", type=int, default=2)
    batch.add_argument("--modes", type=int, default=2)
    batch.add_argument("--seed", type=int, default=0)
    _add_strategy_flag(batch, "registry")
    _add_budget_flags(batch)
    batch.add_argument(
        "--quiet",
        action="store_true",
        help="only print the summary, not the per-instance table",
    )
    batch.set_defaults(func=_cmd_solve_batch)

    strategies = sub.add_parser(
        "strategies", help="the solver-strategy registry"
    )
    strategies_sub = strategies.add_subparsers(
        dest="strategies_command", required=True
    )
    strategies_sub.add_parser(
        "list", help="enumerate registered strategies and their capabilities"
    ).set_defaults(func=_cmd_strategies_list)

    pareto = sub.add_parser(
        "pareto", help="exact period/energy Pareto front of an instance"
    )
    pareto.add_argument(
        "--instance",
        default=None,
        help="instance JSON file (default: the paper's Figure 1)",
    )
    pareto.add_argument("--points", type=int, default=100)
    pareto.set_defaults(func=_cmd_pareto)

    front = sub.add_parser(
        "front",
        help="anytime period/energy front (local engine, or live "
        "through a daemon/router with --url)",
    )
    front.add_argument(
        "instance",
        nargs="?",
        default=None,
        help="instance JSON file (defaults to the paper's Figure 1 example)",
    )
    front.add_argument(
        "--points",
        type=int,
        default=100,
        help="max epsilon-constraint cells in the sweep",
    )
    front.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local worker processes (ignored with --url)",
    )
    front.add_argument(
        "--no-warm",
        action="store_true",
        help="disable warm-starting cells from neighboring incumbents "
        "(local engine only)",
    )
    front.add_argument(
        "--url",
        default=None,
        help="submit through a running daemon/router instead of solving "
        "locally",
    )
    front.add_argument(
        "--strategy",
        default=None,
        help="per-cell solver strategy for remote sweeps (default: the "
        "exact dispatch, byte-identical to the offline front)",
    )
    front.add_argument(
        "--priority", type=int, default=0, help="larger runs earlier"
    )
    front.add_argument(
        "--progress",
        action="store_true",
        help="print each cell / refinement as it lands",
    )
    front.add_argument(
        "--wait-timeout",
        type=float,
        default=300.0,
        help="remote sweep deadline in seconds",
    )
    front.add_argument(
        "--output", default=None, help="write the front JSON here"
    )
    front.set_defaults(func=_cmd_front)

    campaign = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns with a resumable results cache",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _add_campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="campaign spec file (YAML or JSON)")
        p.add_argument(
            "--dir",
            default=None,
            help="results-cache directory (default: campaigns/<spec name>)",
        )

    run = campaign_sub.add_parser(
        "run", help="execute the campaign's missing cells (cached cells are reused)"
    )
    _add_campaign_common(run)
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: sequential)",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="re-solve every cell, overwriting cached entries",
    )
    run.add_argument(
        "--strategy",
        default=None,
        help="override every solver entry with this strategy spec "
        "(changes the cache keys)",
    )
    _add_budget_flags(run)
    run.add_argument(
        "--quiet",
        action="store_true",
        help="only print the summary, not the per-cell table",
    )
    run.set_defaults(func=_cmd_campaign_run)

    status = campaign_sub.add_parser(
        "status", help="cache coverage of the campaign (no solving)"
    )
    _add_campaign_common(status)
    status.set_defaults(func=_cmd_campaign_status)

    report = campaign_sub.add_parser(
        "report", help="aggregate tables and solver comparisons from the cache"
    )
    _add_campaign_common(report)
    report.add_argument(
        "--by",
        default="platform,model,solver",
        help="comma-separated grouping axes "
        "(platform, model, rule, apps, modes, solver, objective)",
    )
    report.add_argument(
        "--baseline",
        default=None,
        help="solver name to use as the ratio baseline "
        "(default: first solver in the spec)",
    )
    report.add_argument(
        "--front",
        type=int,
        default=0,
        help="also grade the heuristic period/energy front on the first "
        "N scenarios (0 = off)",
    )
    report.set_defaults(func=_cmd_campaign_report)

    serve = sub.add_parser(
        "serve",
        help="run the solve-service daemon (HTTP API + priority job queue)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="results-cache directory for content-addressed dedup "
        "(default: in-memory only; share a campaign's cache dir to reuse "
        "its solved cells)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="jobs solved at once (worker-pool size)",
    )
    serve.add_argument(
        "--executor",
        choices=["process", "thread"],
        default="process",
        help="process = real parallelism (default); thread = lightweight, "
        "for tiny instances and tests",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=4096,
        help="finished jobs retained for status/result queries",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="bound on queued cells before new submissions are shed "
        "with HTTP 429 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--shard-name",
        default=None,
        help="shard identity of this daemon in a routed fleet "
        "(surfaced in /v1/metrics and /v1/healthz)",
    )
    serve.add_argument(
        "--slow-solve-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="dump the span tree of any solve slower than this to stderr "
        "(default: disabled)",
    )
    serve.add_argument(
        "--obs-jsonl",
        default=None,
        metavar="PATH",
        help="append every recorded trace span to this JSONL file "
        "(default: in-memory ring buffer only)",
    )
    serve.set_defaults(func=_cmd_serve)

    route = sub.add_parser(
        "route",
        help="run the shard router: one /v1/* front door consistent-hash "
        "routing jobs over several solve daemons",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port", type=int, default=8786, help="0 picks an ephemeral port"
    )
    route.add_argument(
        "--shard",
        action="append",
        default=[],
        metavar="[NAME=]URL",
        help="front an already-running daemon (repeatable); "
        "e.g. --shard shard0=http://127.0.0.1:8787",
    )
    route.add_argument(
        "--spawn",
        type=int,
        default=0,
        metavar="N",
        help="spawn N local daemons on ephemeral ports and front them "
        "(terminated when the router exits)",
    )
    route.add_argument(
        "--cache-dir",
        default=None,
        help="with --spawn: per-shard cache directories are created "
        "under DIR/shard{i}",
    )
    route.add_argument(
        "--executor",
        choices=["process", "thread"],
        default="process",
        help="executor of spawned daemons",
    )
    route.add_argument(
        "--concurrency",
        type=int,
        default=2,
        help="per-shard solve concurrency of spawned daemons",
    )
    route.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="per-shard queue bound of spawned daemons (429 shedding)",
    )
    route.add_argument(
        "--vnodes",
        type=int,
        default=None,
        help="virtual nodes per shard on the hash ring (default 192)",
    )
    route.add_argument(
        "--max-hops",
        type=int,
        default=3,
        help="shards tried per submission on connect failure or 429",
    )
    route.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        help="seconds between background shard health sweeps",
    )
    route.add_argument(
        "--fail-threshold",
        type=int,
        default=2,
        help="consecutive failures that mark a shard down",
    )
    route.add_argument(
        "--upstream-timeout",
        type=float,
        default=10.0,
        help="socket timeout for forwarded requests",
    )
    route.add_argument(
        "--redirect-results",
        action="store_true",
        help="answer result fetches with a 307 to the owning shard "
        "instead of proxying the payload",
    )
    route.set_defaults(func=_cmd_route)

    def _add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url",
            default="http://127.0.0.1:8787",
            help="base URL of the running daemon",
        )

    submit = sub.add_parser(
        "submit", help="submit instance JSON file(s) to a running daemon"
    )
    submit.add_argument(
        "instances", nargs="+", help="instance JSON file(s) (see `generate`)"
    )
    _add_url(submit)
    submit.add_argument(
        "--objective", choices=["period", "latency", "energy"], default="period"
    )
    _add_strategy_flag(submit, "registry")
    _add_budget_flags(submit)
    submit.add_argument("--max-period", type=float, default=None)
    submit.add_argument("--max-latency", type=float, default=None)
    submit.add_argument("--max-energy", type=float, default=None)
    submit.add_argument(
        "--priority", type=int, default=0, help="larger runs earlier"
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until results are in"
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=300.0,
        help="overall --wait deadline in seconds",
    )
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list jobs (or --metrics) of a running daemon"
    )
    _add_url(jobs)
    jobs.add_argument(
        "--state",
        choices=["queued", "running", "done", "cancelled"],
        default=None,
    )
    jobs.add_argument("--limit", type=int, default=None)
    jobs.add_argument(
        "--metrics",
        action="store_true",
        help="print queue/job/solver counters instead of the job table",
    )
    jobs.set_defaults(func=_cmd_jobs)

    job_result = sub.add_parser(
        "job-result", help="fetch a finished job's result from a daemon"
    )
    job_result.add_argument("job_id")
    _add_url(job_result)
    job_result.add_argument(
        "--output", default=None, help="write the mapping JSON here"
    )
    job_result.set_defaults(func=_cmd_job_result)

    top = sub.add_parser(
        "top",
        help="live fleet/daemon dashboard: queue depth, shed rate, "
        "cache hit ratio, latency quantiles per shard",
    )
    _add_url(top)
    top.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh every SECONDS instead of printing once",
    )
    top.set_defaults(func=_cmd_top)

    trace = sub.add_parser(
        "trace", help="fetch a trace by id and print its span tree"
    )
    trace.add_argument("trace_id")
    _add_url(trace)
    trace.add_argument(
        "--json",
        action="store_true",
        help="dump the raw span records instead of the rendered tree",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
