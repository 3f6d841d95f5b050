"""Prometheus exposition: rendering from JSON payloads and parsing back.

The invariant under test is the one the endpoints promise: the text of
``GET /metrics`` is rendered *from* the JSON ``/v1/metrics`` payload, so
every bucket count, counter and gauge in the exposition must equal the
corresponding JSON value.
"""

import math

import pytest

from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.metrics import MetricsRegistry


def _daemon_payload(shard=None):
    reg = MetricsRegistry()
    wall = reg.histogram("solve_wall_seconds", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        wall.observe(v)
    return {
        "version": "9.9.9",
        "uptime_s": 12.5,
        "shard": shard,
        "queue": {
            "depth": 3,
            "running": 2,
            "concurrency": 4,
            "max_depth": 64,
            "shed": 1,
        },
        "jobs": {"submitted": 10, "completed": 7, "cache_hits": 2},
        "jobs_in_flight": 3,
        "solver": {"evaluations": 12345, "solve_time_s": 6.25},
        "cache": {"entries": 5},
        "histograms": reg.to_dict(kinds=("histogram",)),
    }


class TestDaemonExposition:
    def test_families_match_the_json_payload(self):
        payload = _daemon_payload(shard="s0")
        families = parse_prometheus(to_prometheus(payload))
        shard = {"shard": "s0"}
        assert families["repro_queue_depth"] == [(shard, 3.0)]
        assert families["repro_queue_running"] == [(shard, 2.0)]
        assert families["repro_queue_max_depth"] == [(shard, 64.0)]
        assert families["repro_jobs_in_flight"] == [(shard, 3.0)]
        assert families["repro_jobs_submitted_total"] == [(shard, 10.0)]
        assert families["repro_jobs_cache_hits_total"] == [(shard, 2.0)]
        assert families["repro_solver_evaluations_total"] == [(shard, 12345.0)]
        assert families["repro_cache_entries"] == [(shard, 5.0)]
        ((info_labels, info_value),) = families["repro_build_info"]
        assert info_value == 1.0
        assert info_labels["shard"] == "s0"

    def test_histogram_buckets_match_and_inf_equals_count(self):
        payload = _daemon_payload()
        families = parse_prometheus(to_prometheus(payload))
        buckets = {
            labels["le"]: value
            for labels, value in families["repro_solve_wall_seconds_bucket"]
        }
        json_buckets = payload["histograms"]["solve_wall_seconds"]["buckets"]
        for bound, cumulative in json_buckets:
            assert buckets["%g" % bound] == cumulative
        assert buckets["+Inf"] == payload["histograms"]["solve_wall_seconds"]["count"]
        ((_, count),) = families["repro_solve_wall_seconds_count"]
        assert count == 4.0
        ((_, total),) = families["repro_solve_wall_seconds_sum"]
        assert total == pytest.approx(5.555)

    def test_unsharded_daemon_has_no_shard_label(self):
        families = parse_prometheus(to_prometheus(_daemon_payload()))
        (labels, _value) = families["repro_queue_depth"][0]
        assert "shard" not in labels


class TestRouterExposition:
    def _payload(self):
        reg = MetricsRegistry()
        fwd = reg.histogram(
            "forward_seconds", buckets=(0.01, 1.0), labelnames=("shard",)
        )
        fwd.labels("s0").observe(0.005)
        fwd.labels("s0").observe(0.5)
        fwd.labels("s1").observe(0.005)
        return {
            "version": "9.9.9",
            "role": "router",
            "uptime_s": 3.0,
            "router": {"forwarded": 9, "retries": 2, "markdowns": 1},
            "ring": {"nodes": ["s0", "s1"], "vnodes": 192, "points": 384},
            "shard_health": [
                {"name": "s0", "url": "http://a", "up": True,
                 "consecutive_failures": 0, "forwarded": 5},
                {"name": "s1", "url": "http://b", "up": False,
                 "consecutive_failures": 3, "forwarded": 4},
            ],
            "fleet": {
                "jobs": {"submitted": 9, "completed": 8},
                "solver": {"evaluations": 100, "solve_time_s": 1.5},
            },
            "shards": {
                "s0": _daemon_payload(shard="s0"),
                "s1": {"error": "HTTP 503"},
            },
            "histograms": reg.to_dict(kinds=("histogram",)),
        }

    def test_router_families(self):
        families = parse_prometheus(to_prometheus(self._payload()))
        assert families["repro_router_forwarded_total"] == [({}, 9.0)]
        assert families["repro_router_retries_total"] == [({}, 2.0)]
        assert families["repro_ring_nodes"] == [({}, 2.0)]
        assert dict(
            (labels["shard"], value)
            for labels, value in families["repro_shard_up"]
        ) == {"s0": 1.0, "s1": 0.0}
        assert families["repro_fleet_jobs_submitted_total"] == [({}, 9.0)]
        assert families["repro_fleet_solver_evaluations_total"] == [({}, 100.0)]

    def test_labeled_forward_histogram_series(self):
        families = parse_prometheus(to_prometheus(self._payload()))
        counts = {
            labels["shard"]: value
            for labels, value in families["repro_forward_seconds_count"]
        }
        assert counts == {"s0": 2.0, "s1": 1.0}

    def test_per_shard_daemon_families_skip_down_shards(self):
        families = parse_prometheus(to_prometheus(self._payload()))
        rows = families["repro_jobs_submitted_total"]
        assert [labels for labels, _ in rows] == [{"shard": "s0"}]

    def test_dict_keyed_shard_health_also_accepted(self):
        payload = self._payload()
        payload["shard_health"] = {
            "s0": {"up": True},
            "s1": {"up": False, "consecutive_failures": 1},
        }
        families = parse_prometheus(to_prometheus(payload))
        assert dict(
            (labels["shard"], value)
            for labels, value in families["repro_shard_up"]
        ) == {"s0": 1.0, "s1": 0.0}


class TestParser:
    def test_label_escaping_round_trips(self):
        payload = _daemon_payload(shard='we"ird\\na\nme')
        families = parse_prometheus(to_prometheus(payload))
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
