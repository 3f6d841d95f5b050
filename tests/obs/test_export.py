"""Prometheus exposition: rendering registry snapshots and parsing back.

The invariant under test is the one the endpoints promise: ``GET
/metrics`` and the JSON ``/v1/metrics`` payload are both read from the
front end's metrics registry, so every bucket count, counter and gauge
in the exposition must equal the corresponding JSON value, and every
family must form one group however many sources feed it.
"""

import asyncio
import math
import threading

import pytest

from repro.experiments.spec import SolverSpec
from repro.generators import small_random_problem
from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.server import JobState, ShardRouter, SolveServer, SolveService, solve_cell

SPEC = SolverSpec(name="t")


def _service(shard=None):
    """A never-started service with state every gauge can be told
    apart by: three queued cells (one with a coalesced rider, so four
    jobs in flight), two cells counted running, five cache entries and
    hand-set counters."""
    service = SolveService(
        executor="thread", concurrency=4, max_queue_depth=64, shard=shard
    )
    for seed in (0, 1, 2, 0):
        service.submit(small_random_problem(seed), SPEC)
    for n in range(5):
        service.cache.put("entry-%d" % n, {"status": "ok"})
    service._g_running.inc(2)
    reg = service.metrics_registry
    reg.counter("jobs_submitted_total").inc(6)  # ten with the four submits
    reg.counter("jobs_completed_total").inc(7)
    reg.counter("jobs_cache_hits_total").inc(2)
    reg.counter("solver_evaluations_total").inc(12345)
    for v in (0.005, 0.05, 0.5, 5.0):
        reg.histogram("solve_wall_seconds").observe(v)
    return service


def _daemon_text(service):
    return asyncio.run(SolveServer(service, host="127.0.0.1", port=0)._prometheus())


class TestDaemonExposition:
    def test_families_match_the_json_payload(self):
        service = _service(shard="s0")
        payload = service.metrics()
        families = parse_prometheus(_daemon_text(service))
        shard = {"shard": "s0"}
        assert families["repro_queue_depth"] == [(shard, 3.0)]
        assert families["repro_queue_running"] == [(shard, 2.0)]
        assert families["repro_queue_concurrency"] == [(shard, 4.0)]
        assert families["repro_queue_max_depth"] == [(shard, 64.0)]
        assert families["repro_jobs_in_flight"] == [(shard, 4.0)]
        for key, value in payload["jobs"].items():
            assert families["repro_jobs_%s_total" % key] == [(shard, value)]
        assert families["repro_jobs_submitted_total"] == [(shard, 10.0)]
        assert families["repro_jobs_coalesced_total"] == [(shard, 1.0)]
        assert families["repro_solver_evaluations_total"] == [(shard, 12345.0)]
        assert families["repro_cache_entries"] == [(shard, 5.0)]
        assert payload["queue"]["depth"] == 3
        assert payload["queue"]["running"] == 2
        assert payload["jobs_in_flight"] == 4
        assert payload["cache"] == {"entries": 5}
        ((info_labels, info_value),) = families["repro_build_info"]
        assert info_value == 1.0
        assert info_labels == {"shard": "s0", "version": payload["version"]}

    def test_queue_gauges_follow_a_live_service(self):
        gate = threading.Event()
        item = solve_cell(small_random_problem(0), SPEC)

        def runner(_problem, _solver):
            assert gate.wait(10), "runner gate never opened"
            return item

        def gauges(payload, text):
            families = parse_prometheus(text)
            json_view = (
                payload["queue"]["running"],
                payload["queue"]["depth"],
                payload["jobs_in_flight"],
            )
            prom_view = tuple(
                families[name][0][1]
                for name in ("repro_queue_running", "repro_queue_depth", "repro_jobs_in_flight")
            )
            assert json_view == prom_view
            return json_view

        async def scenario():
            service = SolveService(executor="thread", concurrency=2, runner=runner)
            server = SolveServer(service, host="127.0.0.1", port=0)
            await service.start()
            jobs = [service.submit(small_random_problem(seed), SPEC) for seed in (1, 2, 3)]
            while sum(job.state is JobState.RUNNING for job in jobs) < 2:
                await asyncio.sleep(0.005)
            busy = gauges(service.metrics(), await server._prometheus())
            gate.set()
            for job in jobs:
                await service.wait(job.id, timeout=10)
            idle = gauges(service.metrics(), await server._prometheus())
            await service.shutdown()
            return busy, idle

        assert asyncio.run(scenario()) == ((2, 1, 3), (0, 0, 0))

    def test_histogram_buckets_match_and_inf_equals_count(self):
        service = _service()
        payload = service.metrics()
        families = parse_prometheus(_daemon_text(service))
        buckets = {
            labels["le"]: value
            for labels, value in families["repro_solve_wall_seconds_bucket"]
        }
        json_hist = payload["histograms"]["solve_wall_seconds"]
        for bound, cumulative in json_hist["buckets"]:
            assert buckets["%g" % bound] == cumulative
        assert buckets["+Inf"] == json_hist["count"]
        ((_, count),) = families["repro_solve_wall_seconds_count"]
        assert count == 4.0
        ((_, total),) = families["repro_solve_wall_seconds_sum"]
        assert total == pytest.approx(5.555)

    def test_unsharded_daemon_has_no_shard_label(self):
        families = parse_prometheus(_daemon_text(_service()))
        (labels, _value) = families["repro_queue_depth"][0]
        assert "shard" not in labels


class TestRouterExposition:
    """A router over a stubbed fan-out: ``s0`` answers with a real
    daemon payload, ``s1`` is down."""

    def _router(self, down=("s1",)):
        router = ShardRouter(
            [("s0", "http://127.0.0.1:1"), ("s1", "http://127.0.0.1:2")]
        )
        payloads = {
            "s0": _service(shard="s0").metrics(),
            "s1": _service(shard="s1").metrics(),
        }

        async def fan_out(shards, path, *, count=False):
            assert path == "/v1/metrics"
            return [
                (s, None, "HTTP 503") if s.name in down else (s, payloads[s.name], None)
                for s in shards
            ]

        router._fan_out = fan_out
        for name in down:
            router.shards[name].up = False
        reg = router.metrics_registry
        reg.counter("router_retries_total").inc(2)
        forward = reg.histogram("forward_seconds")
        for shard, seconds in (("s0", 0.005), ("s0", 0.5), ("s1", 0.005)):
            forward.labels(shard).observe(seconds)
        return router

    def _families(self, router):
        return parse_prometheus(asyncio.run(router._prometheus()))

    def test_router_families(self):
        families = self._families(self._router())
        assert families["repro_router_forwarded_total"] == [({}, 3.0)]
        assert families["repro_router_retries_total"] == [({}, 2.0)]
        assert families["repro_ring_nodes"] == [({}, 2.0)]
        assert dict(
            (labels["shard"], value)
            for labels, value in families["repro_shard_up"]
        ) == {"s0": 1.0, "s1": 0.0}
        assert families["repro_fleet_jobs_submitted_total"] == [({}, 10.0)]
        assert families["repro_fleet_solver_evaluations_total"] == [({}, 12345.0)]
        ((labels, _),) = families["repro_build_info"]
        assert set(labels) == {"role", "version"}

    def test_labeled_forward_histogram_series(self):
        families = self._families(self._router())
        counts = {
            labels["shard"]: value
            for labels, value in families["repro_forward_seconds_count"]
        }
        assert counts == {"s0": 2.0, "s1": 1.0}

    def test_per_shard_daemon_families_skip_down_shards(self):
        families = self._families(self._router())
        rows = families["repro_jobs_submitted_total"]
        assert [labels for labels, _ in rows] == [{"shard": "s0"}]

    def test_a_payload_without_registry_counts_as_unavailable(self):
        router = self._router(down=())
        fan_out = router._fan_out

        async def without_registry(shards, path, *, count=False):
            rows = await fan_out(shards, path, count=count)
            for _shard, payload, _error in rows:
                if _shard.name == "s1":
                    payload.pop("registry", None)
            return rows

        router._fan_out = without_registry
        payload = asyncio.run(router._metrics())
        assert payload["shards"]["s1"] == {"error": "metrics payload has no registry"}
        assert payload["fleet"]["jobs"]["submitted"] == 10
        families = self._families(router)
        assert families["repro_fleet_jobs_submitted_total"] == [({}, 10.0)]
        rows = families["repro_jobs_submitted_total"]
        assert [labels for labels, _ in rows] == [{"shard": "s0"}]

    def test_two_up_shards_sum_into_the_fleet_and_group_every_family(self):
        router = self._router(down=())
        families = self._families(router)
        assert families["repro_fleet_jobs_submitted_total"] == [({}, 20.0)]
        rows = families["repro_jobs_submitted_total"]
        assert [labels for labels, _ in rows] == [{"shard": "s0"}, {"shard": "s1"}]
        payload = asyncio.run(router._metrics())
        assert payload["fleet"]["jobs"]["submitted"] == 20
        assert payload["fleet"]["solver"] == {
            "evaluations": 24690,
            "solve_time_s": 0.0,
        }


class TestRenderer:
    def test_sources_of_one_family_form_one_group(self):
        regs = []
        for value in (1, 2):
            reg = MetricsRegistry()
            reg.counter("a_total", "a").inc(value)
            reg.gauge("b", "b").set(value)
            regs.append(reg)
        text = to_prometheus(
            (reg.to_dict(), {"shard": "s%d" % i}) for i, reg in enumerate(regs)
        )
        assert text.count("# TYPE repro_a_total counter") == 1
        families = parse_prometheus(text)
        assert families["repro_a_total"] == [
            ({"shard": "s0"}, 1.0),
            ({"shard": "s1"}, 2.0),
        ]

    def test_computed_and_labelled_gauges(self):
        reg = MetricsRegistry()
        reg.gauge("depth", fn=lambda: 7)
        reg.gauge("up", fn=lambda: {"a": 1, "b": 0}, labelnames=("shard",))
        families = parse_prometheus(to_prometheus([(reg.to_dict(), {})]))
        assert families["repro_depth"] == [({}, 7.0)]
        assert families["repro_up"] == [
            ({"shard": "a"}, 1.0),
            ({"shard": "b"}, 0.0),
        ]


class TestParser:
    def test_label_escaping_round_trips(self):
        service = _service(shard='we"ird\\na\nme')
        families = parse_prometheus(_daemon_text(service))
        (labels, _value) = families["repro_queue_depth"][0]
        assert labels["shard"] == 'we"ird\\na\nme'

    def test_inf_values(self):
        assert parse_prometheus("m +Inf\n")["m"] == [({}, math.inf)]
        assert parse_prometheus("m -Inf\n")["m"] == [({}, -math.inf)]

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse_prometheus("lonely_metric_without_value\n")
        with pytest.raises(ValueError):
            parse_prometheus('m{key="unclosed 1\n')
        with pytest.raises(ValueError):
            parse_prometheus("m{key=unquoted} 1\n")

    def test_split_family_is_rejected(self):
        with pytest.raises(ValueError, match="several groups"):
            parse_prometheus('a{s="0"} 1\nb 2\na{s="1"} 3\n')
        with pytest.raises(ValueError, match="several groups"):
            parse_prometheus("# TYPE a gauge\na 1\n# TYPE b gauge\nb 2\n# TYPE a gauge\n")

    def test_histogram_samples_belong_to_their_family(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\nh_sum 0.5\nh_count 1\n'
            "# TYPE g gauge\ng 1\n"
        )
        assert parse_prometheus(text)["h_count"] == [({}, 1.0)]
        with pytest.raises(ValueError, match="several groups"):
            parse_prometheus(text + "h_sum 0.5\n")
