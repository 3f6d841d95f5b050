"""Rendering helpers: quantile estimation, the top table, span trees."""

import pytest

from repro.obs.render import format_span_tree, histogram_quantile, render_top


class TestHistogramQuantile:
    def test_empty_histogram_is_none(self):
        assert histogram_quantile({"buckets": [], "count": 0}, 0.5) is None
        assert histogram_quantile({}, 0.5) is None

    def test_linear_interpolation_within_bucket(self):
        # 10 observations all in the (0, 1] bucket: the median sits at
        # half the bucket span.
        snap = {"buckets": [[1.0, 10], [2.0, 10]], "count": 10}
        assert histogram_quantile(snap, 0.5) == pytest.approx(0.5)
        # 5 in (0,1], 5 in (1,2]: p50 lands on the first bound, p90
        # interpolates 80% into the second bucket.
        snap = {"buckets": [[1.0, 5], [2.0, 10]], "count": 10}
        assert histogram_quantile(snap, 0.5) == pytest.approx(1.0)
        assert histogram_quantile(snap, 0.9) == pytest.approx(1.8)

    def test_above_last_bound_clamps(self):
        # All observations overflowed every bucket: clamp to the last
        # finite bound rather than inventing +Inf.
        snap = {"buckets": [[1.0, 0], [2.0, 0]], "count": 4}
        assert histogram_quantile(snap, 0.99) == 2.0

    def test_quantile_domain_is_validated(self):
        snap = {"buckets": [[1.0, 1]], "count": 1}
        with pytest.raises(ValueError):
            histogram_quantile(snap, 1.5)


class TestRenderTop:
    def test_daemon_payload(self):
        out = render_top(
            {
                "shard": "s0",
                "uptime_s": 42.0,
                "queue": {"depth": 1, "max_depth": 8, "running": 2, "shed": 0},
                "jobs": {"submitted": 10, "completed": 9, "cache_hits": 5},
                "histograms": {
                    "solve_wall_seconds": {
                        "buckets": [[0.1, 4], [1.0, 4]],
                        "count": 4,
                        "sum": 0.2,
                    }
                },
            }
        )
        assert "daemon up 42s" in out
        assert "10 submitted, 9 completed, 0 shed" in out
        row = next(line for line in out.splitlines() if line.startswith("s0"))
        # name, state, queue depth / max depth
        assert row.split()[:3] == ["s0", "up", "1/8"]
        assert "50%" in row  # cache hit ratio

    def test_router_payload_with_health_list(self):
        daemon = {
            "queue": {"depth": 0, "max_depth": None, "running": 0, "shed": 0},
            "jobs": {"submitted": 2, "completed": 2, "cache_hits": 0},
            "histograms": {},
        }
        out = render_top(
            {
                "role": "router",
                "uptime_s": 7.0,
                "shard_health": [
                    {"name": "s0", "up": True},
                    {"name": "s1", "up": False},
                ],
                "shards": {"s0": daemon, "s1": {"error": "HTTP 503"}},
                "fleet": {"jobs": {"submitted": 2, "completed": 2, "shed": 0}},
            }
        )
        assert "router up 7s · 2 shard(s)" in out
        s0 = next(line for line in out.splitlines() if line.startswith("s0"))
        s1 = next(line for line in out.splitlines() if line.startswith("s1"))
        assert "up" in s0 and "0/inf" in s0
        assert "DOWN" in s1


class TestFormatSpanTree:
    def test_empty(self):
        assert format_span_tree([]) == "(no spans)"

    def test_tree_indentation_and_sibling_order(self):
        spans = [
            {"span_id": "r", "parent_id": None, "name": "root",
             "start": 0.0, "duration": 1.0, "proc": "d0"},
            {"span_id": "b", "parent_id": "r", "name": "second",
             "start": 2.0, "duration": 0.1, "attrs": {"k": "v"}},
            {"span_id": "a", "parent_id": "r", "name": "first",
             "start": 1.0, "duration": 0.1},
        ]
        lines = format_span_tree(spans).splitlines()
        assert lines[0].startswith("root")
        assert "proc=d0" in lines[0]
        # children indented under the root, ordered by start time
        assert lines[1].startswith("  first")
        assert lines[2].startswith("  second")
        assert "k=v" in lines[2]

    def test_orphan_parent_becomes_root(self):
        spans = [
            {"span_id": "x", "parent_id": "missing", "name": "adrift",
             "start": 0.0, "duration": 0.1},
        ]
        lines = format_span_tree(spans).splitlines()
        assert lines[0].startswith("adrift")
