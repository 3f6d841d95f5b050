"""Unit tests for counters, gauges, histograms and the registry."""

import sys
import threading

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    FAST_LATENCY_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("hits", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.snapshot() == {"type": "counter", "value": 3.5}

    def test_gauge_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(3)
        g.dec()
        assert g.value == 12.0
        assert g.snapshot() == {"type": "gauge", "value": 12.0}


    def test_computed_values_keep_their_type(self):
        c = Counter("hits")
        c.inc()
        assert c.snapshot() == {"type": "counter", "value": 1}
        assert isinstance(c.value, int)
        g = Gauge("up", fn=lambda: {"a": 1}, labelnames=("shard",))
        assert g.snapshot() == {
            "type": "gauge", "labelnames": ["shard"], "series": {"a": 1},
        }
        with pytest.raises(ValueError):
            Gauge("up", labelnames=("shard",))  # labelled scalars are computed

    def test_concurrent_increments_are_not_lost(self):
        c = Counter("hits")
        g = Gauge("running")

        def worker():
            for _ in range(2000):
                c.inc()
                g.inc()
                g.dec()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert c.value == 16000
        assert g.value == 0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        # le= bounds are inclusive: 0.1 falls in the first bucket.
        assert snap["buckets"] == [[0.1, 2], [1.0, 3], [10.0, 4]]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.65)

    def test_observation_above_last_bound_counts_only_in_total(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(99.0)
        snap = h.snapshot()
        assert snap["buckets"] == [[1.0, 0]]
        assert snap["count"] == 1  # the implicit +Inf bucket

    def test_bounds_are_sorted_and_validated(self):
        h = Histogram("lat", buckets=(10.0, 0.1, 1.0))
        assert h.buckets == (0.1, 1.0, 10.0)
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(float("nan"),))

    def test_labeled_series_are_independent(self):
        h = Histogram("fwd", buckets=(1.0,), labelnames=("shard",))
        h.labels("s0").observe(0.5)
        h.labels("s0").observe(0.5)
        h.labels("s1").observe(0.5)
        snap = h.snapshot()
        assert snap["labelnames"] == ["shard"]
        assert snap["series"]["s0"]["count"] == 2
        assert snap["series"]["s1"]["count"] == 1

    def test_label_misuse_raises(self):
        plain = Histogram("plain", buckets=(1.0,))
        labeled = Histogram("labeled", buckets=(1.0,), labelnames=("a", "b"))
        with pytest.raises(ValueError):
            plain.labels("x")
        with pytest.raises(ValueError):
            labeled.observe(1.0)
        with pytest.raises(ValueError):
            labeled.labels("only-one")

    def test_concurrent_observations_are_not_lost(self):
        h = Histogram("lat", buckets=LATENCY_BUCKETS)

        def worker():
            for _ in range(1000):
                h.observe(0.01)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = h.snapshot()
        assert snap["count"] == 8000
        assert snap["buckets"][-1][1] == 8000

    def test_default_bucket_ladders_are_sorted(self):
        for ladder in (LATENCY_BUCKETS, FAST_LATENCY_BUCKETS, COUNT_BUCKETS):
            assert list(ladder) == sorted(ladder)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.names() == ["a", "g", "h"]

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_to_dict_filters_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        everything = reg.to_dict()
        assert set(everything) == {"c", "g", "h"}
        only_hist = reg.to_dict(kinds=("histogram",))
        assert set(only_hist) == {"h"}
        assert only_hist["h"]["count"] == 1
