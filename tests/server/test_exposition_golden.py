"""Golden shape of the two metrics views of a live daemon and router.

Both views are read from one metrics registry per front end.  The
constants below are the shapes served before the registry became the
single source; moving metrics around must keep every one of them:

* the set of ``(family, TYPE, sorted label names)`` of ``GET /metrics``
  (``le`` aside) is exactly the golden set;
* every golden ``/v1/metrics`` JSON key path is still served with the
  same value type (new keys may be added);
* every JSON counter equals its Prometheus sample.

Four cases: an unsharded daemon, a sharded daemon (``shard="s0"``, a
bounded queue), a router over that daemon plus one shard that is down
(each of these has solved one job), and a router whose every shard is
down.
"""

import urllib.request

import pytest

from repro.client import SolveClient
from repro.generators import small_random_problem
from repro.obs.export import parse_prometheus
from repro.server import RouterThread, ServerThread

#: Nothing listens here: the router marks this shard down.
DEAD_SHARD = "http://127.0.0.1:1"


def _parse_lines(block):
    return [line.split() for line in block.strip().splitlines()]


DAEMON_FAMILIES = {
    (name, kind, tuple(labels[0].split(",")) if labels else ())
    for name, kind, *labels in _parse_lines(
        """
        repro_build_info gauge version
        repro_cache_entries gauge
        repro_cache_lookup_seconds histogram
        repro_evaluations_per_job histogram
        repro_jobs_cache_hits_total counter
        repro_jobs_cancelled_total counter
        repro_jobs_coalesced_total counter
        repro_jobs_completed_total counter
        repro_jobs_errors_total counter
        repro_jobs_in_flight gauge
        repro_jobs_infeasible_total counter
        repro_jobs_shed_total counter
        repro_jobs_solved_total counter
        repro_jobs_submitted_total counter
        repro_queue_concurrency gauge
        repro_queue_depth gauge
        repro_queue_running gauge
        repro_queue_wait_seconds histogram
        repro_solve_wall_seconds histogram
        repro_solver_evaluations_total counter
        repro_solver_solve_time_seconds_total counter
        repro_uptime_seconds gauge
        """
    )
}

#: A sharded daemon labels every family ``shard=``; its bounded queue
#: adds ``queue_max_depth``.
SHARDED_FAMILIES = {
    (name, kind, ("shard",))
    for name, kind, _ in DAEMON_FAMILIES
    if name != "repro_build_info"
} | {
    ("repro_build_info", "gauge", ("shard", "version")),
    ("repro_queue_max_depth", "gauge", ("shard",)),
}

#: The router's own families, then every family of its up shard
#: (labelled with the router's name for it) except ``build_info``.
ROUTER_FAMILIES = {
    (name, kind, tuple(labels[0].split(",")) if labels else ())
    for name, kind, *labels in _parse_lines(
        """
        repro_build_info gauge role,version
        repro_fleet_jobs_cache_hits_total counter
        repro_fleet_jobs_cancelled_total counter
        repro_fleet_jobs_coalesced_total counter
        repro_fleet_jobs_completed_total counter
        repro_fleet_jobs_errors_total counter
        repro_fleet_jobs_infeasible_total counter
        repro_fleet_jobs_shed_total counter
        repro_fleet_jobs_solved_total counter
        repro_fleet_jobs_submitted_total counter
        repro_fleet_solver_evaluations_total counter
        repro_fleet_solver_solve_time_seconds_total counter
        repro_forward_seconds histogram shard
        repro_ring_nodes gauge
        repro_router_forwarded_total counter
        repro_router_markdowns_total counter
        repro_router_markups_total counter
        repro_router_relayed_429_total counter
        repro_router_retries_total counter
        repro_router_submitted_total counter
        repro_router_unroutable_total counter
        repro_router_uptime_seconds gauge
        repro_shard_consecutive_failures gauge shard
        repro_shard_up gauge shard
        """
    )
} | {family for family in SHARDED_FAMILIES if family[0] != "repro_build_info"}

#: With no shard answering, a router serves its own families and the
#: fleet solver sums (at 0); no fleet job counter, no shard's families.
ALL_DOWN_FAMILIES = {
    family
    for family in ROUTER_FAMILIES
    if family[0].startswith(
        ("repro_build_info", "repro_router_", "repro_ring_", "repro_shard_", "repro_fleet_solver_")
    )
}

_HISTOGRAM_KEYS = "buckets list\nsum float\ncount int\ntype str"

DAEMON_JSON = dict(
    _parse_lines(
        """
        version str
        shard NoneType
        uptime_s float
        queue.depth int
        queue.running int
        queue.concurrency int
        queue.max_depth NoneType
        queue.shed int
        jobs.submitted int
        jobs.completed int
        jobs.solved int
        jobs.cache_hits int
        jobs.coalesced int
        jobs.cancelled int
        jobs.errors int
        jobs.infeasible int
        jobs.shed int
        jobs_in_flight int
        solver.evaluations int
        solver.solve_time_s float
        solver.solve_time_recent_s float
        cache.entries int
        """
    )
    + [
        ["histograms.%s.%s" % (name, key), kind]
        for name in (
            "queue_wait_seconds",
            "solve_wall_seconds",
            "cache_lookup_seconds",
            "evaluations_per_job",
        )
        for key, kind in _parse_lines(_HISTOGRAM_KEYS)
    ]
)

SHARDED_JSON = dict(DAEMON_JSON, **{"shard": "str", "queue.max_depth": "int"})

ROUTER_JSON = dict(
    _parse_lines(
        """
        version str
        role str
        uptime_s float
        router.submitted int
        router.forwarded int
        router.retries int
        router.relayed_429 int
        router.markdowns int
        router.markups int
        router.unroutable int
        ring.nodes list
        ring.vnodes int
        ring.points int
        shard_health[0].name str
        shard_health[0].url str
        shard_health[0].up bool
        shard_health[0].consecutive_failures int
        shard_health[0].last_error NoneType
        shard_health[0].forwarded int
        shard_health[1].name str
        shard_health[1].url str
        shard_health[1].up bool
        shard_health[1].consecutive_failures int
        shard_health[1].last_error str
        shard_health[1].forwarded int
        fleet.jobs.submitted int
        fleet.jobs.completed int
        fleet.jobs.solved int
        fleet.jobs.cache_hits int
        fleet.jobs.coalesced int
        fleet.jobs.cancelled int
        fleet.jobs.errors int
        fleet.jobs.infeasible int
        fleet.jobs.shed int
        fleet.solver.evaluations int
        fleet.solver.solve_time_s float
        shards.s1.error str
        histograms.forward_seconds.type str
        histograms.forward_seconds.labelnames list
        """
    )
    + [
        ["histograms.forward_seconds.series.s0." + key, kind]
        for key, kind in _parse_lines(_HISTOGRAM_KEYS)
        if key != "type"
    ],
    **{"shards.s0." + path: kind for path, kind in SHARDED_JSON.items()},
)


ALL_DOWN_JSON = dict(
    {
        path: kind
        for path, kind in ROUTER_JSON.items()
        if not path.startswith(("shards.s0.", "fleet.jobs.", "histograms.forward_seconds.series."))
    },
    **{"shards.s0.error": "str", "shard_health[0].last_error": "str"},
)


def _family_shape(text):
    """``{(family, TYPE, sorted label names)}`` of an exposition."""
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
    shape = set()
    for sample, rows in parse_prometheus(text).items():
        family = sample
        if family not in types:
            family = sample.rpartition("_")[0]
        for labels, _ in rows:
            shape.add((family, types[family], tuple(sorted(set(labels) - {"le"}))))
    return shape


def _key_types(value, path=""):
    """``{key path: type name}`` of a JSON payload; list items of dicts
    are indexed, other lists are leaves."""
    out = {}
    if isinstance(value, dict):
        for key, sub in value.items():
            out.update(_key_types(sub, f"{path}.{key}" if path else key))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, item in enumerate(value):
            out.update(_key_types(item, f"{path}[{i}]"))
    else:
        out[path] = type(value).__name__
    return out


def _scrape(url):
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        text = resp.read().decode()
    return SolveClient(url, timeout=60.0).metrics(), text


def _views(url):
    assert SolveClient(url, timeout=60.0).solve(small_random_problem(3), timeout=60).ok
    return _scrape(url)


def _mark_down(router_thread):
    for _ in range(2):  # fail_threshold sweeps mark dead shards down
        router_thread.run_sync(lambda r: r.check_health())


@pytest.fixture(scope="module")
def views():
    out = {}
    with ServerThread(executor="thread", concurrency=1) as srv:
        out["daemon"] = _views(srv.url)
    with ServerThread(
        executor="thread", concurrency=1, shard="s0", max_queue_depth=8
    ) as srv:
        out["sharded"] = _views(srv.url)
        with RouterThread(
            [("s0", srv.url), ("s1", DEAD_SHARD)], health_interval=60.0
        ) as rt:
            _mark_down(rt)
            out["router"] = _views(rt.url)
    with RouterThread(
        [("s0", DEAD_SHARD), ("s1", DEAD_SHARD)], health_interval=60.0
    ) as rt:
        _mark_down(rt)
        out["all_down"] = _scrape(rt.url)
    return out


CASES = [
    ("daemon", DAEMON_FAMILIES, DAEMON_JSON),
    ("sharded", SHARDED_FAMILIES, SHARDED_JSON),
    ("router", ROUTER_FAMILIES, ROUTER_JSON),
    ("all_down", ALL_DOWN_FAMILIES, ALL_DOWN_JSON),
]


@pytest.mark.parametrize("case, golden, _json", CASES)
def test_families_types_and_labels_are_golden(views, case, golden, _json):
    _payload, text = views[case]
    assert _family_shape(text) == golden


@pytest.mark.parametrize("case, _families, golden", CASES)
def test_json_key_paths_and_types_are_kept(views, case, _families, golden):
    served = _key_types(views[case][0])
    assert {path: served.get(path) for path in golden} == golden


def _sample(families, name, labels=None):
    (value,) = [v for l, v in families[name] if l == (labels or {})]
    return value


@pytest.mark.parametrize("case", ["daemon", "sharded"])
def test_daemon_json_counters_equal_their_samples(views, case):
    payload, text = views[case]
    families = parse_prometheus(text)
    labels = {"shard": payload["shard"]} if payload["shard"] else None
    assert payload["jobs"]["submitted"] == 1
    for key, value in payload["jobs"].items():
        assert _sample(families, f"repro_jobs_{key}_total", labels) == value
    solver = payload["solver"]
    assert _sample(families, "repro_solver_evaluations_total", labels) == solver["evaluations"]
    assert _sample(
        families, "repro_solver_solve_time_seconds_total", labels
    ) == pytest.approx(solver["solve_time_s"])
    assert _sample(families, "repro_queue_depth", labels) == payload["queue"]["depth"]


def test_router_json_counters_equal_their_samples(views):
    payload, text = views["router"]
    families = parse_prometheus(text)
    assert payload["router"]["submitted"] == 1
    for key, value in payload["router"].items():
        assert _sample(families, f"repro_router_{key}_total") == value
    for key, value in payload["fleet"]["jobs"].items():
        assert _sample(families, f"repro_fleet_jobs_{key}_total") == value
    for health in payload["shard_health"]:
        labels = {"shard": health["name"]}
        assert _sample(families, "repro_shard_up", labels) == health["up"]
    shard = payload["shards"]["s0"]
    for key, value in shard["jobs"].items():
        assert _sample(families, f"repro_jobs_{key}_total", {"shard": "s0"}) == value


def test_router_with_every_shard_down_serves_zero_fleet_solver_sums(views):
    payload, text = views["all_down"]
    families = parse_prometheus(text)
    assert payload["fleet"] == {
        "jobs": {},
        "solver": {"evaluations": 0, "solve_time_s": 0.0},
    }
    assert _sample(families, "repro_fleet_solver_evaluations_total") == 0
    assert _sample(families, "repro_fleet_solver_solve_time_seconds_total") == 0
    assert [labels for labels, _ in families["repro_shard_up"]] == [
        {"shard": "s0"},
        {"shard": "s1"},
    ]
