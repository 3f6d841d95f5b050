"""End-to-end tracing: span trees through a live daemon and router.

The acceptance bar from the ISSUE, verbatim: a job submitted via
``SolveClient`` through the router returns a trace id, and
``GET /v1/traces/{id}`` on the router yields the merged span tree —
client submit → route decision → queue wait → pool dispatch → solver
phases → cache write.
"""

import urllib.request

import pytest

from repro.client import ClientError, SolveClient
from repro.generators import small_random_problem
from repro.obs.export import parse_prometheus
from repro.obs.render import format_span_tree
from repro.server import ServerThread
from repro.server.router import RouterThread


@pytest.fixture(scope="module")
def daemon():
    with ServerThread(executor="thread", concurrency=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def fleet():
    """A 2-shard router fleet hosted in-process."""
    with ServerThread(executor="thread", concurrency=2, shard="s0") as a, \
         ServerThread(executor="thread", concurrency=2, shard="s1") as b:
        with RouterThread([("s0", a.url), ("s1", b.url)]) as router:
            yield router


def _span_names(payload):
    return {s["name"] for s in payload["spans"]}


def _assert_well_formed_tree(payload):
    spans = payload["spans"]
    ids = {s["span_id"] for s in spans}
    assert len(ids) == len(spans), "span ids must be unique after merging"
    assert all(s["trace_id"] == payload["trace_id"] for s in spans)
    roots = [s for s in spans if s["parent_id"] is None]
    assert [r["name"] for r in roots] == ["client.submit"]
    # every non-root span hangs off a span present in the tree
    for s in spans:
        if s["parent_id"] is not None:
            assert s["parent_id"] in ids, s["name"]


class TestDaemonTraces:
    def test_solve_returns_trace_id_and_span_tree(self, daemon):
        client = SolveClient(daemon.url, timeout=30.0)
        result = client.solve(small_random_problem(101), timeout=60)
        assert result.ok
        trace_id = client.job(result.job_id)["trace_id"]
        assert trace_id
        payload = client.trace(trace_id)
        assert payload["trace_id"] == trace_id
        assert payload["count"] == len(payload["spans"])
        _assert_well_formed_tree(payload)
        assert {
            "client.submit",
            "daemon.submit",
            "daemon.dedup_lookup",
            "daemon.queue_wait",
            "daemon.pool_dispatch",
            "solve.run",
            "daemon.cache_write",
        } <= _span_names(payload)

    def test_solver_phase_spans_hang_off_pool_dispatch(self, daemon):
        client = SolveClient(daemon.url, timeout=30.0)
        result = client.solve(small_random_problem(102), timeout=60)
        payload = client.trace(client.job(result.job_id)["trace_id"])
        by_name = {s["name"]: s for s in payload["spans"]}
        dispatch = by_name["daemon.pool_dispatch"]
        assert by_name["solve.run"]["parent_id"] == dispatch["span_id"]
        assert dispatch["attrs"]["status"] == "ok"

    def test_cache_hit_trace_has_no_solver_spans(self, daemon):
        client = SolveClient(daemon.url, timeout=30.0)
        problem = small_random_problem(103)
        assert client.solve(problem, timeout=60).ok
        second = client.solve(problem, timeout=60)
        assert second.source == "cache"
        payload = client.trace(client.job(second.job_id)["trace_id"])
        names = _span_names(payload)
        assert "daemon.dedup_lookup" in names
        assert "solve.run" not in names
        lookup = next(
            s for s in payload["spans"] if s["name"] == "daemon.dedup_lookup"
        )
        assert lookup["attrs"]["cache_hit"] is True

    def test_unknown_trace_is_404(self, daemon):
        client = SolveClient(daemon.url, timeout=30.0)
        with pytest.raises(ClientError, match="404"):
            client.trace("t-no-such-trace")

    def test_tracing_opt_out_leaves_no_trace(self, daemon):
        client = SolveClient(daemon.url, timeout=30.0, tracing=False)
        result = client.solve(small_random_problem(104), timeout=60)
        assert result.ok
        assert client.job(result.job_id)["trace_id"] is None

    def test_span_tree_renders(self, daemon):
        client = SolveClient(daemon.url, timeout=30.0)
        result = client.solve(small_random_problem(105), timeout=60)
        payload = client.trace(client.job(result.job_id)["trace_id"])
        rendered = format_span_tree(payload["spans"])
        lines = rendered.splitlines()
        assert lines[0].startswith("client.submit")
        # daemon.submit is indented under the client root
        assert any(line.startswith("  daemon.submit") for line in lines)


class TestRouterTraces:
    def test_merged_tree_spans_client_route_queue_solve_cache(self, fleet):
        client = SolveClient(fleet.url, timeout=30.0)
        result = client.solve(small_random_problem(201), timeout=60)
        assert result.ok
        trace_id = client.job(result.job_id)["trace_id"]
        assert trace_id
        payload = client.trace(trace_id)
        _assert_well_formed_tree(payload)
        names = _span_names(payload)
        assert {
            "client.submit",
            "router.submit",
            "daemon.submit",
            "daemon.dedup_lookup",
            "daemon.queue_wait",
            "daemon.pool_dispatch",
            "solve.run",
            "daemon.cache_write",
        } <= names
        by_name = {s["name"]: s for s in payload["spans"]}
        route = by_name["router.submit"]
        assert route["parent_id"] == by_name["client.submit"]["span_id"]
        assert by_name["daemon.submit"]["parent_id"] == route["span_id"]
        assert route["attrs"]["shard"] in ("s0", "s1")

    def test_router_prometheus_scrape_is_consistent_with_json(self, fleet):
        client = SolveClient(fleet.url, timeout=30.0)
        assert client.solve(small_random_problem(202), timeout=60).ok
        json_payload = client.metrics()
        with urllib.request.urlopen(fleet.url + "/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers.get("Content-Type", "").startswith("text/plain")
            text = resp.read().decode()
        families = parse_prometheus(text)
        ups = {
            labels["shard"]: value
            for labels, value in families["repro_shard_up"]
        }
        assert ups == {"s0": 1.0, "s1": 1.0}
        fleet_jobs = json_payload["fleet"]["jobs"]
        ((_, submitted),) = families["repro_fleet_jobs_submitted_total"]
        assert submitted == float(fleet_jobs["submitted"])


class TestProcessPoolTraces:
    """The fork path: a pool worker inherits the daemon's ring buffer, so
    the pre-dispatch spans of the first traced job ride back on the
    worker's result item — the recorder must not duplicate them on
    ingest (regression: the merged tree rendered every subtree twice
    under ``executor="process"``)."""

    def test_forked_worker_does_not_duplicate_spans(self):
        with ServerThread(executor="process", concurrency=1) as srv:
            client = SolveClient(srv.url, timeout=60.0)
            result = client.solve(small_random_problem(301), timeout=120)
            assert result.ok
            payload = client.trace(client.job(result.job_id)["trace_id"])
            _assert_well_formed_tree(payload)
            names = [s["name"] for s in payload["spans"]]
            assert names.count("client.submit") == 1
            assert names.count("daemon.submit") == 1
            assert names.count("daemon.queue_wait") == 1
            by_name = {s["name"]: s for s in payload["spans"]}
            # the cell ran on the worker pool, and the solver span is
            # labeled with the worker process, not the daemon's pid
            # inherited across the fork
            assert by_name["daemon.pool_dispatch"]["attrs"]["executor"] == "WorkerPool"
            assert by_name["solve.run"]["proc"].startswith("pool-")
            assert by_name["solve.run"]["proc"] != by_name["daemon.submit"]["proc"]
