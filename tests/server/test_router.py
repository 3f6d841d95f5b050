"""The shard router (:mod:`repro.server.router`) against live daemons.

Routing by cell key, cross-daemon dedup, health mark-down/mark-up,
bounded retry-to-next-replica on connect failure and 429, stateless job
affinity through ``@shard`` id suffixes, fleet metrics aggregation, and
the ``redirect_results`` mode (including its fall-back to proxying when
the owning shard is down).
"""

import http.server
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.client import ClientError, SolveClient
from repro.experiments import cell_key_for_payload
from repro.experiments.spec import SolverSpec
from repro.generators import small_random_problem
from repro.io import problem_to_dict
from repro.obs.export import parse_prometheus
from repro.server import (
    DEFAULT_VNODES,
    HashRing,
    RouterThread,
    ServerThread,
    ShardRouter,
    parse_shard_spec,
    routed_job_id,
    solve_cell,
    split_job_id,
)

SPEC = SolverSpec(name="t")
SOLVER = {"objective": "period"}


def problem(seed=0):
    return small_random_problem(seed)


def key_of(prob):
    return cell_key_for_payload(problem_to_dict(prob), SOLVER)


def seed_owned_by(nodes, target, *, vnodes=DEFAULT_VNODES, start=0):
    """First seed >= start whose cell key the ring assigns to `target`."""
    ring = HashRing(nodes, vnodes=vnodes)
    for seed in range(start, start + 300):
        if ring.node_for(key_of(problem(seed))) == target:
            return seed
    raise AssertionError(f"no seed in [{start}, {start + 300}) owned by {target}")


_REAL_ITEM = solve_cell(problem(0), SPEC)


class GatedRunner:
    """Stub runner that blocks until released (saturates a queue)."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0

    def __call__(self, prob, solver):
        self.calls += 1
        assert self.gate.wait(30), "runner gate never opened"
        return _REAL_ITEM


def raw_request(url, method="GET", payload=None):
    """One request with urllib's redirect following disabled."""

    class _NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args, **kwargs):
            return None

    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.build_opener(_NoRedirect).open(request, timeout=10)


class TestIdHelpers:
    def test_routed_and_split_round_trip(self):
        routed = routed_job_id("j000001-ab12cd34", "shard1")
        assert routed == "j000001-ab12cd34@shard1"
        assert split_job_id(routed) == ("j000001-ab12cd34", "shard1")

    def test_split_without_suffix(self):
        assert split_job_id("j000001-ab12cd34") == ("j000001-ab12cd34", None)

    def test_parse_shard_spec(self):
        assert parse_shard_spec("http://127.0.0.1:8787/") == (
            "127.0.0.1:8787", "http://127.0.0.1:8787",
        )
        assert parse_shard_spec("west=https://10.0.0.2:9000") == (
            "west", "https://10.0.0.2:9000",
        )
        for bad in ("ftp://x:1", "not-a-url", "name=", "name=ws://x"):
            with pytest.raises(ValueError, match="shard spec"):
                parse_shard_spec(bad)


class TestRouterValidation:
    def test_no_shards_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardRouter([
                ("a", "http://127.0.0.1:1"), ("a", "http://127.0.0.1:2"),
            ])

    def test_names_with_the_label_separator_rejected(self):
        with pytest.raises(ValueError, match="may not contain"):
            ShardRouter([
                ("a|b", "http://127.0.0.1:1"), ("a|c", "http://127.0.0.1:2"),
            ])

    def test_router_thread_surfaces_startup_error(self):
        with pytest.raises(RuntimeError, match="failed to start"):
            RouterThread([]).start()


@pytest.fixture(scope="module")
def fleet():
    """Two live daemons fronted by a router."""
    with ServerThread(executor="thread", concurrency=2) as s0:
        with ServerThread(executor="thread", concurrency=2) as s1:
            shards = [("shard0", s0.url), ("shard1", s1.url)]
            with RouterThread(shards, health_interval=0.2) as rt:
                yield rt, {"shard0": s0, "shard1": s1}


@pytest.fixture()
def client(fleet):
    rt, _servers = fleet
    return SolveClient(rt.url, timeout=10.0)


class TestRoutedFleet:
    def test_healthz_reports_fleet(self, fleet, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["shards_up"] == health["shards_total"] == 2
        assert {s["name"] for s in health["shards"]} == {"shard0", "shard1"}

    def test_submission_lands_on_ring_owner(self, fleet, client):
        rt, _servers = fleet
        for seed in (300, 301, 302, 303):
            prob = problem(seed)
            view = client.submit(prob)
            _raw, shard = split_job_id(view["id"])
            owner = rt.run_sync(
                lambda r, k=key_of(prob): _return(r.owner_for(k).name)
            )
            assert shard == owner
            assert view["shard"] == owner

    def test_both_shards_get_work(self, fleet, client):
        seeds = [
            seed_owned_by(["shard0", "shard1"], "shard0", start=320),
            seed_owned_by(["shard0", "shard1"], "shard1", start=320),
        ]
        shards = set()
        for seed in seeds:
            view = client.submit(problem(seed))
            shards.add(split_job_id(view["id"])[1])
        assert shards == {"shard0", "shard1"}

    def test_wait_and_result_through_routed_id(self, client):
        result = client.solve(problem(310), timeout=60)
        assert result.ok
        assert "@shard" in result.job_id
        assert result.solution.objective > 0

    def test_duplicate_submission_dedups_fleet_wide(self, client):
        prob = problem(311)
        first = client.solve(prob, timeout=60)
        second = client.solve(prob, timeout=60)
        # Same key -> same shard -> the daemon's cache answers.
        assert split_job_id(first.job_id)[1] == split_job_id(second.job_id)[1]
        assert second.source == "cache"
        assert second.solution.objective == first.solution.objective

    def test_jobs_listing_merges_shards(self, fleet, client):
        client.solve(problem(312), timeout=60)
        jobs = client.jobs()
        assert jobs
        suffixes = {split_job_id(j["id"])[1] for j in jobs}
        assert suffixes <= {"shard0", "shard1"}
        assert all("shard" in j for j in jobs)

    def test_metrics_aggregate_fleet(self, fleet, client):
        client.solve(problem(313), timeout=60)
        metrics = client.metrics()
        assert metrics["role"] == "router"
        assert metrics["router"]["submitted"] >= 1
        assert metrics["ring"]["nodes"] == ["shard0", "shard1"]
        assert metrics["ring"]["vnodes"] == DEFAULT_VNODES
        per_shard = metrics["shards"]
        assert set(per_shard) == {"shard0", "shard1"}
        summed = sum(
            shard["jobs"]["submitted"] for shard in per_shard.values()
        )
        assert metrics["fleet"]["jobs"]["submitted"] == summed
        assert metrics["fleet"]["jobs"]["completed"] >= 1
        assert {s["name"] for s in metrics["shard_health"]} == {
            "shard0", "shard1",
        }

    def test_cli_jobs_metrics_renders_router_payload(self, fleet, capsys):
        # `repro-pipelines jobs --metrics` against the ROUTER: the
        # payload has fleet/shard_health sections instead of a single
        # queue, and the CLI must render it rather than KeyError.
        from repro.cli import main

        rt, _servers = fleet
        assert main(["jobs", "--url", rt.url, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "router: shards_up=2/2" in out
        assert "shard0" in out and "shard1" in out
        assert "solver: evaluations=" in out

    def test_forward_counts_agree_and_exclude_health_probes(self, fleet, client):
        # JSON router.forwarded, shard_health[].forwarded and the
        # forward_seconds{shard} series counts are one store.
        rt, _servers = fleet

        async def _counts(r):
            payload = await r._metrics()
            families = parse_prometheus(await r._prometheus())
            series = {
                labels["shard"]: int(value)
                for labels, value in families.get("repro_forward_seconds_count", [])
            }
            ((_, total),) = families["repro_router_forwarded_total"]
            return payload, series, int(total)

        def counts():
            payload, series, total = rt.run_sync(_counts)
            health = {h["name"]: h["forwarded"] for h in payload["shard_health"]}
            assert health == {name: series.get(name, 0) for name in health}
            assert payload["router"]["forwarded"] == sum(health.values()) == total
            return total

        before = counts()
        for _ in range(3):
            rt.run_sync(lambda r: r.check_health())
        assert counts() == before
        client.submit(problem(316))
        client.submit(problem(317))
        client.jobs()  # fans out to both up shards
        assert counts() == before + 4

    def test_unsuffixed_job_id_is_404(self, client):
        with pytest.raises(ClientError, match="no shard suffix"):
            client.job("j000001-deadbeef")

    def test_unknown_shard_suffix_is_404(self, client):
        with pytest.raises(ClientError, match="unknown shard"):
            client.job("j000001-deadbeef@nope")

    def test_unknown_job_on_real_shard_passes_through(self, client):
        with pytest.raises(ClientError, match="unknown job"):
            client.job("j999999-deadbeef@shard0")

    def test_invalid_json_body_is_400(self, fleet):
        rt, _servers = fleet
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            request = urllib.request.Request(
                f"{rt.url}/v1/jobs", data=b"{nope", method="POST",
                headers={"Content-Type": "application/json"},
            )
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_protocol_error_is_400(self, fleet):
        rt, _servers = fleet
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_request(f"{rt.url}/v1/jobs", "POST", {"problem": {}})
        assert excinfo.value.code == 400

    def test_validation_error_passes_through_from_shard(self, client):
        with pytest.raises(ClientError, match="objective"):
            client.submit(problem(314), objective="bogus")

    def test_unknown_path_is_404_and_bad_method_is_405(self, fleet):
        rt, _servers = fleet
        for path in ("/v1/nope", "/nope", "/v1/jobs/a/b/c"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                raw_request(f"{rt.url}{path}")
            assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_request(f"{rt.url}/v1/healthz", "DELETE")
        assert excinfo.value.code == 405

    def test_half_closed_connection_is_tolerated(self, fleet, client):
        import socket
        from urllib.parse import urlsplit

        rt, _servers = fleet
        parts = urlsplit(rt.url)
        with socket.create_connection(
            (parts.hostname, parts.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /v1/healthz HTT")  # partial request line
        # The router must survive the aborted request and keep serving.
        assert client.healthz()["shards_total"] == 2

    def test_cancel_routes_to_owning_shard(self, client):
        view = client.submit(problem(315))
        # The job may already be done (tiny instance); either way the
        # DELETE must reach the owning shard and answer coherently.
        assert client.cancel(view["id"]) in (True, False)


def _return(value):
    async def _coro():
        return value
    return _coro()


class TestConnectFailover:
    @pytest.fixture()
    def half_dead_fleet(self):
        """One live daemon plus one shard URL nothing listens on."""
        with ServerThread(executor="thread", concurrency=2) as live:
            shards = [("dead", "http://127.0.0.1:9"), ("live", live.url)]
            with RouterThread(
                shards, health_interval=30.0, fail_threshold=2,
                upstream_timeout=5.0,
            ) as rt:
                yield rt, live

    def test_submit_retries_to_next_replica(self, half_dead_fleet):
        rt, _live = half_dead_fleet
        client = SolveClient(rt.url, timeout=10.0, retries=0)
        seed = seed_owned_by(["dead", "live"], "dead", start=400)
        result = client.solve(problem(seed), timeout=60)
        assert result.ok
        assert split_job_id(result.job_id)[1] == "live"
        metrics = client.metrics()
        assert metrics["router"]["retries"] >= 1
        assert metrics["router"]["markdowns"] >= 1
        dead = next(
            s for s in metrics["shard_health"] if s["name"] == "dead"
        )
        assert dead["up"] is False
        assert dead["last_error"]
        # Fleet is degraded but serving.
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["shards_up"] == 1

    def test_marked_down_shard_is_skipped_entirely(self, half_dead_fleet):
        rt, _live = half_dead_fleet
        client = SolveClient(rt.url, timeout=10.0, retries=0)
        rt.run_sync(lambda r: r.check_health())  # two sweeps cross the
        rt.run_sync(lambda r: r.check_health())  # fail threshold: down
        seed = seed_owned_by(["dead", "live"], "dead", start=420)
        candidates = rt.run_sync(
            lambda r: _return([s.name for s in
                               r.candidates_for(key_of(problem(seed)))])
        )
        assert candidates == ["live"]
        result = client.solve(problem(seed), timeout=60)
        assert split_job_id(result.job_id)[1] == "live"

    def test_job_on_unreachable_shard_is_503(self, half_dead_fleet):
        rt, _live = half_dead_fleet
        client = SolveClient(rt.url, timeout=10.0, retries=0)
        with pytest.raises(ClientError, match="unreachable"):
            client.job("j000001-deadbeef@dead")

    def test_jobs_listing_reports_unavailable_shard(self, half_dead_fleet):
        rt, _live = half_dead_fleet
        client = SolveClient(rt.url, timeout=10.0, retries=0)
        # A key owned by "live" keeps the submission away from "dead",
        # so "dead" is still nominally up when the fan-out runs: the
        # merged listing must flag it rather than silently omit it.
        seed = seed_owned_by(["dead", "live"], "live", start=450)
        client.solve(problem(seed), timeout=60)
        with raw_request(f"{rt.url}/v1/jobs") as resp:
            payload = json.loads(resp.read().decode())
        assert payload["count"] >= 1
        assert payload["unavailable_shards"] == ["dead"]

    def test_metrics_report_unreachable_shard(self, half_dead_fleet):
        rt, _live = half_dead_fleet
        metrics = SolveClient(rt.url, retries=0).metrics()
        assert "error" in metrics["shards"]["dead"]
        assert "jobs" in metrics["shards"]["live"]

    def test_all_shards_unreachable_is_503(self):
        shards = [
            ("a", "http://127.0.0.1:9"), ("b", "http://127.0.0.1:10"),
        ]
        with RouterThread(
            shards, health_interval=30.0, upstream_timeout=2.0
        ) as rt:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                raw_request(f"{rt.url}/v1/jobs", "POST", {
                    "problem": problem_to_dict(problem(460)),
                    "solver": SOLVER,
                })
            exc = excinfo.value
            assert exc.code == 503
            body = json.loads(exc.read().decode())
            assert "no shard reachable" in body["error"]
            assert set(body["tried"]) == {"a", "b"}
            metrics_payload = SolveClient(rt.url, retries=0).metrics()
            assert metrics_payload["router"]["unroutable"] == 1

    def test_health_sweep_marks_up_and_down(self, half_dead_fleet):
        rt, _live = half_dead_fleet
        rt.run_sync(lambda r: r.check_health())
        rt.run_sync(lambda r: r.check_health())
        states = rt.run_sync(
            lambda r: _return({n: s.up for n, s in r.shards.items()})
        )
        assert states == {"dead": False, "live": True}
        # A marked-down shard that answers again comes back up on the
        # first successful probe.
        rt.run_sync(lambda r: _return(
            r.shards["dead"].__setattr__("url", r.shards["live"].url)
        ))
        rt.run_sync(lambda r: r.check_health())
        states = rt.run_sync(
            lambda r: _return({n: s.up for n, s in r.shards.items()})
        )
        assert states == {"dead": True, "live": True}
        metrics = SolveClient(rt.url, retries=0).metrics()
        assert metrics["router"]["markups"] >= 1


class TestMisbehavingShard:
    """A shard that *answers* but answers wrong (e.g. a non-daemon
    service on the configured URL): HTTP errors are not transport
    errors — health marks it down, submissions pass the status through.
    """

    @pytest.fixture()
    def weird_fleet(self):
        with ServerThread(executor="thread", concurrency=2) as live:
            # Base URL nested one level deep: every /v1/* path 404s.
            shards = [("weird", f"{live.url}/extra")]
            with RouterThread(shards, health_interval=30.0) as rt:
                yield rt

    def test_bad_healthz_status_marks_down(self, weird_fleet):
        rt = weird_fleet
        rt.run_sync(lambda r: r.check_health())
        rt.run_sync(lambda r: r.check_health())
        shard = rt.run_sync(
            lambda r: _return(r.shards["weird"].describe())
        )
        assert shard["up"] is False
        assert "HTTP 404" in shard["last_error"]

    def test_non_429_error_status_passes_through(self, weird_fleet):
        rt = weird_fleet
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_request(f"{rt.url}/v1/jobs", "POST", {
                "problem": problem_to_dict(problem(470)),
                "solver": SOLVER,
            })
        assert excinfo.value.code == 404  # the shard's own verdict

    def test_internal_error_is_a_clean_500(self, weird_fleet):
        rt = weird_fleet

        def _sabotage(router):
            async def _boom():
                raise RuntimeError("boom")
            router._metrics = _boom
            return _return(None)

        rt.run_sync(_sabotage)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_request(f"{rt.url}/v1/metrics")
        exc = excinfo.value
        assert exc.code == 500
        assert "RuntimeError: boom" in json.loads(exc.read().decode())["error"]


class _StubHealthz(http.server.BaseHTTPRequestHandler):
    """Answers every GET with the server's ``answer`` ``(status, body)``."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        status, body = self.server.answer
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestBusyShard:
    """A shard at its connection cap answers healthz ``503 too many open
    connections``: it is alive, so probes keep it up; a ``503 server is
    closing`` (or any other status) is still a failed probe."""

    @pytest.fixture()
    def stub(self):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHealthz)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def sweep(self, server, answer, sweeps=3):
        server.answer = answer
        url = f"http://127.0.0.1:{server.server_address[1]}"
        with RouterThread([("s", url)], health_interval=30.0) as rt:
            for _ in range(sweeps):
                rt.run_sync(lambda r: r.check_health())
            return rt.run_sync(
                lambda r: _return(
                    (
                        r.shards["s"].describe(),
                        r.metrics_registry.to_dict()["router_markdowns_total"]["value"],
                    )
                )
            )

    @pytest.mark.parametrize("retry_after", [0.5, None])
    def test_connection_cap_503_keeps_the_shard_up(self, stub, retry_after):
        body = {"error": "too many open connections"}
        if retry_after is not None:
            body["retry_after"] = retry_after
        shard, markdowns = self.sweep(stub, (503, body))
        assert shard["up"] is True
        assert shard["consecutive_failures"] == 0
        assert shard["last_error"] is None
        assert markdowns == 0

    @pytest.mark.parametrize(
        "status, body",
        [
            (503, {"error": "server is closing"}),
            (503, ["too many open connections"]),
            (500, {"error": "too many open connections"}),
        ],
    )
    def test_other_failures_mark_the_shard_down(self, stub, status, body):
        shard, markdowns = self.sweep(stub, (status, body))
        assert shard["up"] is False
        assert f"HTTP {status}" in shard["last_error"]
        assert markdowns == 1


class TestSpawnLocalFleet:
    def test_spawn_front_solve_terminate(self, tmp_path):
        from repro.server import spawn_local_fleet
        from repro.server.router import terminate_fleet

        shards = spawn_local_fleet(
            1, cache_dir=tmp_path, executor="thread", concurrency=1
        )
        try:
            assert shards[0].name == "shard0"
            assert (tmp_path / "shard0").is_dir()
            with RouterThread(
                [(s.name, s.url) for s in shards], health_interval=30.0
            ) as rt:
                result = SolveClient(rt.url, timeout=30.0).solve(
                    problem(480), timeout=120
                )
                assert result.ok
                assert split_job_id(result.job_id)[1] == "shard0"
        finally:
            terminate_fleet(shards)
        assert shards[0].process.poll() is not None

    def test_spawn_failure_cleans_up_and_raises(self, tmp_path):
        from repro.server import spawn_local_fleet

        with pytest.raises(RuntimeError, match="did not announce"):
            spawn_local_fleet(
                1,
                cache_dir=tmp_path,
                executor="thread",
                extra_args=["--definitely-not-a-flag"],
                startup_timeout=30.0,
            )


class TestSheddingFailover:
    @pytest.fixture()
    def gated_shard(self):
        """A daemon with one gated in-flight cell and a full queue."""
        runner = GatedRunner()
        with ServerThread(
            executor="thread", concurrency=1, max_queue_depth=1,
            runner=runner,
        ) as server:
            direct = SolveClient(server.url, timeout=10.0, retries=0)
            accepted = [direct.submit(problem(500))["id"]]
            import time as _time
            for _ in range(200):
                if runner.calls:
                    break
                _time.sleep(0.01)
            accepted.append(direct.submit(problem(501))["id"])
            yield server, runner, accepted
            runner.gate.set()

    def test_429_retries_to_next_replica(self, gated_shard):
        server, _runner, _accepted = gated_shard
        with ServerThread(executor="thread", concurrency=2) as spare:
            shards = [("a", server.url), ("b", spare.url)]
            with RouterThread(shards, health_interval=30.0) as rt:
                client = SolveClient(rt.url, timeout=10.0, retries=0)
                seed = seed_owned_by(["a", "b"], "a", start=510)
                result = client.solve(problem(seed), timeout=60)
                assert result.ok
                assert split_job_id(result.job_id)[1] == "b"
                metrics = client.metrics()
                assert metrics["router"]["retries"] >= 1
                # Shedding is not a health failure: "a" stays up.
                assert all(s["up"] for s in metrics["shard_health"])

    def test_last_429_is_relayed_when_all_shed(self, gated_shard):
        server, _runner, _accepted = gated_shard
        with RouterThread(
            [("a", server.url)], health_interval=30.0
        ) as rt:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                raw_request(f"{rt.url}/v1/jobs", "POST", {
                    "problem": problem_to_dict(problem(520)),
                    "solver": SOLVER,
                })
            exc = excinfo.value
            assert exc.code == 429
            assert float(exc.headers["Retry-After"]) > 0
            body = json.loads(exc.read().decode())
            assert body["tried"] == ["a"]
            assert body["retry_after"] > 0
            metrics = SolveClient(rt.url, retries=0).metrics()
            assert metrics["router"]["relayed_429"] == 1

    def test_accepted_jobs_survive_the_shedding(self, gated_shard):
        server, runner, accepted = gated_shard
        runner.gate.set()
        direct = SolveClient(server.url, timeout=10.0)
        for job_id in accepted:
            assert direct.wait(job_id, timeout=30).status == "ok"


class TestRedirectResults:
    @pytest.fixture()
    def redirect_fleet(self):
        with ServerThread(executor="thread", concurrency=2) as s0:
            with ServerThread(executor="thread", concurrency=2) as s1:
                shards = [("shard0", s0.url), ("shard1", s1.url)]
                with RouterThread(
                    shards, health_interval=30.0, redirect_results=True
                ) as rt:
                    yield rt

    def test_client_follows_307_to_owning_shard(self, redirect_fleet):
        rt = redirect_fleet
        client = SolveClient(rt.url, timeout=10.0)
        result = client.solve(problem(600), timeout=60)
        assert result.ok
        assert result.solution.objective > 0

    def test_raw_fetch_sees_the_redirect(self, redirect_fleet):
        rt = redirect_fleet
        client = SolveClient(rt.url, timeout=10.0)
        routed_id = client.submit(problem(601))["id"]
        client.wait(routed_id, timeout=60)
        raw, _shard = split_job_id(routed_id)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            raw_request(f"{rt.url}/v1/jobs/{routed_id}/result")
        exc = excinfo.value
        assert exc.code == 307
        assert exc.headers["Location"].endswith(f"/v1/jobs/{raw}/result")

    def test_down_shard_falls_back_to_proxying(self, redirect_fleet):
        rt = redirect_fleet
        client = SolveClient(rt.url, timeout=10.0)
        routed_id = client.submit(problem(602))["id"]
        result = client.wait(routed_id, timeout=60)
        assert result.ok
        _raw, shard = split_job_id(routed_id)

        def _set_up(value):
            def _apply(router):
                router.shards[shard].up = value
                return _return(None)
            return _apply

        rt.run_sync(_set_up(False))
        try:
            # The shard is *marked* down (health state) but still
            # answering: the router must proxy the payload itself
            # rather than bounce the client into a dead redirect.
            with raw_request(
                f"{rt.url}/v1/jobs/{routed_id}/result"
            ) as resp:
                assert resp.status == 200
                payload = json.loads(resp.read().decode())
            assert payload["id"] == routed_id
            assert payload["status"] == "ok"
        finally:
            rt.run_sync(_set_up(True))
