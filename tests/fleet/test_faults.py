"""Fault injection against a real router + daemon fleet.

The acceptance bars, verbatim from the ISSUE:

* SIGKILL-ing a shard mid-queue loses no accepted job: everything the
  fleet accepted reaches a terminal state — jobs held by survivors
  complete in place, jobs held by the dead shard complete through the
  dedup-idempotent resubmission path;
* after the kill, keys are remapped *only* for the dead shard;
* a frozen (SIGSTOP) shard trips the router's upstream timeout and its
  submissions fail over to the next replica;
* a corrupted cache entry is self-healing: treated as a miss, removed,
  recomputed — never served;
* fleet results are byte-identical to a single-daemon run.

Every test boots real processes, so the module is marked ``slow``-ish
by construction (a few seconds each); it stays in tier 1 because the
guarantees above are this PR's acceptance criteria.
"""

import json

import pytest

from repro.client import ClientError, SolveClient
from repro.generators import small_random_problem
from repro.server import HashRing, ServerThread, split_job_id

from .harness import FleetHarness


@pytest.fixture(scope="module")
def fleet():
    """One router process fronting two daemon processes."""
    with FleetHarness(2) as harness:
        yield harness


def canonical_solution(result):
    """Byte-comparable rendering of a result's solution payload.

    Per-run diagnostics are dropped (``stats``, the telemetry's
    ``wall_time`` and its trace correlation ids, which are unique per
    submission by design); mapping, objective, optimality flag, every
    criterion value and the deterministic telemetry (strategy,
    evaluation count) must match to the byte.
    """
    payload = dict(result.raw["solution"])
    payload.pop("stats", None)
    if isinstance(payload.get("telemetry"), dict):
        telemetry = dict(payload["telemetry"])
        telemetry.pop("wall_time", None)
        telemetry.pop("trace_id", None)
        telemetry.pop("span_id", None)
        payload["telemetry"] = telemetry
    return json.dumps(payload, sort_keys=True)


class TestShardKill:
    @pytest.fixture(scope="class")
    def killed_fleet(self):
        """A 2-shard fleet with a batch in flight when shard0 dies.

        Class-scoped: the kill is irreversible, so every test in this
        class reads the same post-mortem state.
        """
        with FleetHarness(2) as harness:
            client = harness.client(retries=0)
            problems = [small_random_problem(seed) for seed in range(10)]
            accepted = [client.submit(p)["id"] for p in problems]
            before_owner = {
                seed: harness.owner_of(problems[seed]) for seed in range(10)
            }
            harness.kill_shard("shard0")
            yield harness, problems, accepted, before_owner

    def test_no_accepted_job_is_lost(self, killed_fleet):
        harness, problems, accepted, _owners = killed_fleet
        client = harness.client(retries=2)
        # Jobs accepted by the surviving shard complete in place, under
        # their original routed ids.
        for job_id in accepted:
            if split_job_id(job_id)[1] == "shard1":
                assert client.wait(job_id, timeout=120).ok
        # Jobs accepted by the dead shard complete through resubmission
        # (dedup makes the retry idempotent; the ring remaps the key).
        for problem in problems:
            result = client.solve(problem, timeout=120)
            assert result.ok
        assert client.healthz()["shards_up"] == 1

    def test_keys_remapped_only_for_dead_shard(self, killed_fleet):
        harness, problems, _accepted, before_owner = killed_fleet
        client = harness.client(retries=2)
        survivor_ring = HashRing(["shard1"])
        for seed, problem in enumerate(problems):
            view = client.submit(problem)
            landed = split_job_id(view["id"])[1]
            if before_owner[seed] == "shard1":
                # Keys the survivor already owned must not move.
                assert landed == "shard1"
            else:
                # Dead shard's keys remap to the surviving membership.
                assert landed == survivor_ring.node_for(
                    harness.key_of(problem)
                )

    def test_dead_shards_jobs_are_unreachable_not_silent(self, killed_fleet):
        harness, _problems, accepted, _owners = killed_fleet
        client = harness.client(retries=0)
        dead_ids = [
            job_id for job_id in accepted
            if split_job_id(job_id)[1] == "shard0"
        ]
        assert dead_ids, "the batch must have landed work on shard0"
        with pytest.raises(ClientError, match="unreachable"):
            client.job(dead_ids[0])

    def test_router_reports_the_markdown(self, killed_fleet):
        harness, _problems, _accepted, _owners = killed_fleet
        metrics = harness.client(retries=2).metrics()
        health = {s["name"]: s["up"] for s in metrics["shard_health"]}
        assert health == {"shard0": False, "shard1": True}
        assert metrics["router"]["markdowns"] >= 1


class TestShardFreeze:
    def test_frozen_shard_fails_over_to_replica(self):
        # Short upstream timeout: a frozen shard accepts the TCP
        # connect (kernel backlog) but never answers, so failover rides
        # the timeout, not a connect error.
        with FleetHarness(
            2,
            router_args=(
                "--health-interval", "0.2",
                "--fail-threshold", "2",
                "--upstream-timeout", "1.5",
            ),
        ) as harness:
            client = harness.client(retries=0, timeout=60.0)
            seed = harness.seed_owned_by("shard0")
            harness.freeze_shard("shard0")
            try:
                result = client.solve(
                    small_random_problem(seed), timeout=120
                )
                assert result.ok
                assert split_job_id(result.job_id)[1] == "shard1"
                metrics = client.metrics()
                assert metrics["router"]["retries"] >= 1
            finally:
                harness.thaw_shard("shard0")
            # The thawed shard comes back up and serves its keys again.
            harness.wait_shards_up(2)
            result = client.solve(small_random_problem(seed), timeout=120)
            assert result.ok


class TestCacheCorruption:
    def test_corrupt_entry_is_recomputed_not_served(self):
        with FleetHarness(2) as harness:
            client = harness.client(retries=2)
            seed = harness.seed_owned_by("shard0")
            problem = small_random_problem(seed)
            first = client.solve(problem, timeout=120)
            assert first.ok
            key = harness.key_of(problem)
            path = harness.corrupt_cache_entry("shard0", key)
            # A fresh daemon process (cold memo) must hit the corrupt
            # file; same port and cache dir keep its ring identity.
            harness.kill_shard("shard0")
            harness.restart_shard("shard0")
            harness.wait_shards_up(2)
            second = client.solve(problem, timeout=120)
            assert second.ok
            assert second.source in ("solved", "coalesced")  # not "cache"
            assert canonical_solution(second) == canonical_solution(first)
            # The entry healed on disk: valid JSON again.
            assert json.loads(path.read_text())["status"] == "ok"


class TestSingleDaemonEquivalence:
    def test_fleet_results_byte_identical_to_single_daemon(self, fleet):
        # Both shards' first seeds, then the smallest others: the sample
        # spans the fleet whatever the cell keys hash to.
        seeds = [fleet.seed_owned_by("shard0"), fleet.seed_owned_by("shard1")]
        seeds += [s for s in range(6) if s not in seeds][:4]
        problems = [small_random_problem(seed) for seed in seeds]
        fleet_client = fleet.client(retries=2)
        fleet_results = [
            fleet_client.solve(p, timeout=120) for p in problems
        ]
        shards_used = {
            split_job_id(r.job_id)[1] for r in fleet_results
        }
        assert len(shards_used) == 2, (
            "the sample must exercise both shards"
        )
        with ServerThread(executor="thread", concurrency=2) as single:
            solo = SolveClient(single.url, timeout=30.0)
            for problem, fleet_result in zip(problems, fleet_results):
                solo_result = solo.solve(problem, timeout=120)
                assert canonical_solution(solo_result) == canonical_solution(
                    fleet_result
                )
                assert solo_result.status == fleet_result.status

    def test_duplicate_submissions_across_fleet_solve_once(self, fleet):
        client = fleet.client(retries=2)
        problem = small_random_problem(990)
        first = client.solve(problem, timeout=120)
        owner = split_job_id(first.job_id)[1]
        for _ in range(3):
            repeat = client.solve(problem, timeout=120)
            assert split_job_id(repeat.job_id)[1] == owner
            assert repeat.source == "cache"
            assert canonical_solution(repeat) == canonical_solution(first)
        # Exactly one shard ever solved this cell: the other shard's
        # cache directory has no entry for its key.
        other = ({"shard0", "shard1"} - {owner}).pop()
        assert fleet.cache_path(owner, fleet.key_of(problem)).exists()
        assert not fleet.cache_path(other, fleet.key_of(problem)).exists()
