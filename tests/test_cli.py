"""Tests for the ``repro-pipelines`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestCommands:
    def test_demo_example(self, capsys):
        assert main(["demo-example"]) == 0
        out = capsys.readouterr().out
        assert "optimal period" in out
        assert "136" in out and "2.75" in out and "46" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out
        assert "NP-complete" in out and "polynomial" in out

    def test_solve_default(self, capsys):
        assert main(["solve", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "objective (period)" in out
        assert "theorem3" in out

    def test_solve_latency_heuristic(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--criterion",
                    "latency",
                    "--platform",
                    "fully-heterogeneous",
                    "--method",
                    "heuristic",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "optimal : False" in out

    def test_solve_failure_is_an_error_line(self, capsys):
        # auto is the paper's polynomial algorithm: NP-hard cells fail.
        argv = ["solve", "--platform", "fully-heterogeneous", "--seed", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: strategy 'auto' failed")

    def test_simulate(self, capsys):
        assert main(["simulate", "--datasets", "50"]) == 0
        out = capsys.readouterr().out
        assert "measured period" in out

    def test_simulate_no_overlap(self, capsys):
        assert main(["simulate", "--model", "no-overlap"]) == 0

    def test_generate_and_solve_file(self, capsys, tmp_path):
        instance = tmp_path / "inst.json"
        mapping = tmp_path / "map.json"
        assert main(["generate", str(instance), "--seed", "4"]) == 0
        assert instance.exists()
        assert (
            main(
                [
                    "solve-file",
                    str(instance),
                    "--criterion",
                    "energy",
                    "--max-period",
                    "50",
                    "--output",
                    str(mapping),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "objective (energy)" in out
        assert mapping.exists()
        # The saved mapping round-trips and validates.
        import json

        from repro.io import load_problem, mapping_from_dict

        problem = load_problem(instance)
        m = mapping_from_dict(json.loads(mapping.read_text()))
        problem.check_mapping(m)

    def test_solve_batch_sequential(self, capsys):
        assert main(["solve-batch", "--count", "9", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "9/9 ok" in out
        assert "registry cells covered: 3" in out
        assert "time (ms)" in out  # per-instance timing column

    def test_solve_batch_pooled_quiet(self, capsys):
        assert (
            main(
                [
                    "solve-batch",
                    "--count",
                    "6",
                    "--workers",
                    "2",
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "6/6 ok" in out
        assert "workers=2" in out
        assert "time (ms)" not in out

    def test_pareto_default_figure1(self, capsys):
        assert main(["pareto"]) == 0
        out = capsys.readouterr().out
        assert "non-dominated" in out
        assert "136" in out and "46" in out

    def test_pareto_from_file(self, capsys, tmp_path):
        instance = tmp_path / "inst.json"
        assert main(["generate", str(instance), "--seed", "1", "--modes", "2"]) == 0
        assert main(["pareto", "--instance", str(instance), "--points", "20"]) == 0
        out = capsys.readouterr().out
        assert "non-dominated" in out

    def test_front_default_figure1_matches_pareto(self, capsys):
        assert main(["front", "--points", "100", "--progress"]) == 0
        front_out = capsys.readouterr().out
        assert "non-dominated" in front_out and "warm-started" in front_out
        assert main(["pareto"]) == 0
        pareto_out = capsys.readouterr().out
        # Identical front tables (the anytime engine is byte-identical
        # to the sequential exact sweep).
        assert front_out.split("(")[0].strip().splitlines()[-5:] == (
            pareto_out.split("(")[0].strip().splitlines()[-5:]
        )

    def test_front_json_output(self, capsys, tmp_path):
        import json

        instance = tmp_path / "inst.json"
        out_file = tmp_path / "front.json"
        assert main(["generate", str(instance), "--seed", "2", "--modes", "2"]) == 0
        assert (
            main(
                [
                    "front",
                    str(instance),
                    "--points",
                    "15",
                    "--output",
                    str(out_file),
                ]
            )
            == 0
        )
        payload = json.loads(out_file.read_text())
        assert payload["cells"] >= 1
        assert all(len(p) == 2 for p in payload["front"])


class TestStrategiesCli:
    def test_list_enumerates_at_least_ten_with_capabilities(self, capsys):
        assert main(["strategies", "list"]) == 0
        out = capsys.readouterr().out
        # header + separator + >= 10 strategy rows
        rows = [
            line
            for line in out.splitlines()
            if " | " in line and not line.startswith("strategy")
            and not set(line) <= {"-", "+", " ", "|"}
        ]
        assert len(rows) >= 10
        assert "objectives" in out and "thresholds" in out
        for name in ("registry", "heuristic", "annealing", "mode_scaling"):
            assert name in out

    def test_solve_batch_with_strategy_and_budget(self, capsys):
        assert (
            main(
                [
                    "solve-batch",
                    "--count",
                    "4",
                    "--platform",
                    "fully-heterogeneous",
                    "--strategy",
                    "portfolio(greedy,local_search)",
                    "--max-evals",
                    "500",
                    "--solver-seed",
                    "3",
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4/4 ok" in out
        assert "strategy=portfolio(greedy,local_search)" in out
        assert "budget-exhausted=" in out

    def test_solve_batch_rejects_bad_strategy(self, capsys):
        from repro.strategies import StrategyError

        with pytest.raises(StrategyError):
            main(
                [
                    "solve-batch",
                    "--count",
                    "1",
                    "--strategy",
                    "portfolio(",
                    "--quiet",
                ]
            )

    def test_campaign_run_strategy_override(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "override-sweep",
                    "scenarios": {
                        "platforms": ["fully-heterogeneous"],
                        "seeds": 2,
                    },
                    "solvers": [{"name": "base", "objective": "period"}],
                }
            )
        )
        cache = str(tmp_path / "cache")
        assert (
            main(
                [
                    "campaign",
                    "run",
                    str(spec),
                    "--dir",
                    cache,
                    "--strategy",
                    "portfolio(greedy,local_search)",
                    "--max-evals",
                    "500",
                    "--solver-seed",
                    "0",
                    "--quiet",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "cache keys" in err  # the override notice
        # the overridden run populated its own cells; a plain run solves anew
        assert main(["campaign", "run", str(spec), "--dir", cache, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 cached + 2 solved" in out

    def test_campaign_report_includes_telemetry_table(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "telemetry-report",
                    "scenarios": {
                        "platforms": ["fully-heterogeneous"],
                        "seeds": 2,
                    },
                    "solvers": [
                        {
                            "name": "racer",
                            "objective": "period",
                            "strategy": "portfolio(greedy,annealing)",
                            "budget": {"max_evaluations": 400, "seed": 0},
                        }
                    ],
                }
            )
        )
        cache = str(tmp_path / "cache")
        main(["campaign", "run", str(spec), "--dir", cache, "--quiet"])
        capsys.readouterr()
        assert main(["campaign", "report", str(spec), "--dir", cache]) == 0
        out = capsys.readouterr().out
        assert "per-solver telemetry" in out
        assert "portfolio(greedy,annealing)" in out


class TestServerCli:
    """The daemon-facing verbs (submit / jobs / job-result) against a
    live in-process server."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.server import ServerThread

        with ServerThread(executor="thread", concurrency=2) as handle:
            yield handle

    @pytest.fixture()
    def instance_file(self, tmp_path):
        path = tmp_path / "instance.json"
        assert main(["generate", str(path), "--seed", "42"]) == 0
        return str(path)

    def test_submit_wait_and_fetch_result(
        self, server, instance_file, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "submit",
                    instance_file,
                    "--url",
                    server.url,
                    "--wait",
                    "--strategy",
                    "greedy",
                    "--max-evals",
                    "100000",
                    "--solver-seed",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ok" in out and "period=" in out
        job_id = out.split()[0]

        mapping_path = tmp_path / "mapping.json"
        assert (
            main(
                [
                    "job-result",
                    job_id,
                    "--url",
                    server.url,
                    "--output",
                    str(mapping_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "status  : ok" in out
        assert "telemetry: strategy=greedy" in out
        assert mapping_path.exists()

        assert main(["jobs", "--url", server.url, "--state", "done"]) == 0
        out = capsys.readouterr().out
        assert job_id in out

    def test_duplicate_submit_reports_cache(self, server, instance_file, capsys):
        args = ["submit", instance_file, "--url", server.url, "--wait"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "via=cache" in capsys.readouterr().out

    def test_jobs_metrics(self, server, capsys):
        assert main(["jobs", "--url", server.url, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "queue:" in out and "solver:" in out

    def test_unreachable_server_exits_2(self, instance_file, capsys):
        assert (
            main(
                ["submit", instance_file, "--url", "http://127.0.0.1:9"]
            )
            == 2
        )
        assert "error" in capsys.readouterr().err
        assert main(["jobs", "--url", "http://127.0.0.1:9"]) == 2
        capsys.readouterr()
        assert (
            main(["job-result", "jxxx", "--url", "http://127.0.0.1:9"]) == 2
        )

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8787
        assert args.concurrency == 2
        assert args.executor == "process"
        assert args.cache_dir is None
