"""Unit tests for the lease-based work queue (claim/steal/complete races)."""

import json
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import repro.sim.queue as queue_module
from repro.sim import (
    FailedResult,
    LeaseLostError,
    ResultCache,
    RunSpec,
    WorkQueue,
    collect_results,
    execute_spec,
    shard_index,
    spec_fragment,
    status_record,
)


def _specs(count=4, rounds=200):
    return [
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=4, k=2),
            spec_fragment("spray", rho=0.1 + 0.05 * i, beta=1.5),
            rounds,
            label=f"q{i}",
        )
        for i in range(count)
    ]


class TestShardIndex:
    def test_deterministic_partition(self):
        hashes = [s.spec_hash() for s in _specs(8)]
        for k in (1, 2, 3, 5):
            first = [shard_index(h, k) for h in hashes]
            assert [shard_index(h, k) for h in hashes] == first
            assert all(0 <= i < k for i in first)
        assert pytest.raises(ValueError, shard_index, hashes[0], 0)


class TestEnqueueClaim:
    def test_enqueue_shards_preserve_order(self):
        queue = WorkQueue()
        specs = _specs(5)
        ids = queue.enqueue(specs, shard_size=2)
        assert ids == ["shard-0000", "shard-0001", "shard-0002"]
        assert queue.counts() == {"pending": 3, "leased": 0, "done": 0}
        claimed: list[str] = []
        while (lease := queue.claim("w")) is not None:
            claimed.extend(s.spec_hash() for s in lease.specs)
            lease.complete([])
        assert claimed == [s.spec_hash() for s in specs]

    def test_claim_is_exclusive(self):
        queue = WorkQueue()
        queue.enqueue(_specs(2), shard_size=2)
        first = queue.claim("alice")
        assert first is not None
        assert queue.claim("bob") is None  # the only shard is leased
        assert queue.counts()["leased"] == 1

    def test_concurrent_claims_lease_each_shard_once(self):
        # 4 threads race to claim 8 one-spec shards with a tiny switch
        # interval, round after round, so an unguarded check-then-pop
        # would hand some shard out twice, mint a duplicate token or pop
        # an emptied line.
        specs = _specs(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                queue = WorkQueue(lease_ttl=60.0)
                ids = queue.enqueue(specs, shard_size=1)
                claimed: list[list] = [[] for _ in range(4)]
                errors: list[BaseException] = []
                start = threading.Barrier(4)

                def claimant(out: list) -> None:
                    start.wait()
                    try:
                        while (lease := queue.claim("w")) is not None:
                            out.append(lease)
                    except Exception as exc:  # surfaced by the assert below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=claimant, args=(out,)) for out in claimed
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert errors == []
                leases = [lease for out in claimed for lease in out]
                assert sorted(lease.shard_id for lease in leases) == ids  # each once
                assert len({lease.token for lease in leases}) == 8
                for lease in leases:
                    lease.heartbeat()  # every token still addresses its lease
                assert queue.counts() == {"pending": 0, "leased": 8, "done": 0}
        finally:
            sys.setswitchinterval(interval)

    def test_reused_prefix_is_rejected(self):
        queue = WorkQueue()
        queue.enqueue(_specs(1), shard_size=1, prefix="job-1")
        lease = queue.claim("w")
        lease.complete([])
        with pytest.raises(ValueError, match="already in use"):
            queue.enqueue(_specs(2)[1:], shard_size=1, prefix="job-1")


class TestLeaseLifecycle:
    def test_heartbeat_extends_expiry(self, monkeypatch):
        now = [100.0]  # the queue's monotonic clock, advanced by hand
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(queue_module, "time", clock)
        queue = WorkQueue(lease_ttl=10.0)
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("w")
        now[0] += 6.0
        lease.heartbeat()
        now[0] += 6.0  # past the claim-time expiry, inside the renewed one
        assert queue.reclaim_expired() == 0
        assert queue.counts()["leased"] == 1
        now[0] += 6.0  # past the renewed expiry too
        assert queue.reclaim_expired() == 1

    def test_heartbeat_after_steal_raises_lease_lost(self):
        queue = WorkQueue(lease_ttl=0.01)
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("slow")
        time.sleep(0.05)
        assert queue.reclaim_expired() == 1
        with pytest.raises(LeaseLostError):
            lease.heartbeat()
        assert lease.lost

    def test_reclaim_bumps_takeovers(self):
        queue = WorkQueue(lease_ttl=0.01)
        queue.enqueue(_specs(1), shard_size=1)
        assert queue.claim("victim").takeovers == 0
        time.sleep(0.05)
        queue.reclaim_expired()
        thief = queue.claim("thief")
        assert thief.takeovers == 1
        assert thief.shard_id == "shard-0000"

    def test_abandon_requeues_with_bumped_takeover(self):
        queue = WorkQueue()
        queue.enqueue(_specs(1), shard_size=1)
        lease = queue.claim("w")
        assert lease.abandon()
        again = queue.claim("w")
        assert again is not None and again.takeovers == 1

    def test_live_lease_is_not_reclaimed(self):
        queue = WorkQueue(lease_ttl=30.0)
        queue.enqueue(_specs(1), shard_size=1)
        queue.claim("w")
        assert queue.reclaim_expired() == 0


class TestCompletion:
    def test_malformed_status_leaves_the_lease_live(self):
        queue = WorkQueue()
        specs = _specs(1)
        queue.enqueue(specs, shard_size=1)
        lease = queue.claim("w")
        with pytest.raises(TypeError):
            queue.complete(lease.token, [{"spec_hash": ["unhashable"]}])
        assert queue.counts() == {"pending": 0, "leased": 1, "done": 0}
        lease.heartbeat()  # nothing was spent
        assert lease.complete([status_record(specs[0], execute_spec(specs[0]))])
        assert set(queue.done_statuses()) == {specs[0].spec_hash()}

    def test_complete_publishes_statuses_and_drains(self):
        queue = WorkQueue()
        specs = _specs(2)
        queue.enqueue(specs, shard_size=2)
        lease = queue.claim("w")
        records = [status_record(s, execute_spec(s)) for s in lease.specs]
        assert lease.complete(records)
        assert queue.drained()
        statuses = queue.done_statuses()
        assert set(statuses) == {s.spec_hash() for s in specs}
        assert all(r["status"] == "done" for r in statuses.values())

    def test_stolen_shard_completed_by_original_owner(self):
        # Slow-but-alive owner completes after the steal: its statuses
        # publish, complete() reports the loss, and the thief's pending
        # copy is retired instead of re-executed.
        queue = WorkQueue(lease_ttl=0.01)
        queue.enqueue(_specs(1), shard_size=1)
        slow = queue.claim("slow")
        time.sleep(0.05)
        queue.reclaim_expired()  # shard back in pending for a thief
        assert not slow.complete([status_record(s, execute_spec(s)) for s in slow.specs])
        assert queue.claim("thief") is None  # the completion retired the copy
        assert queue.drained()

    def test_failed_status_records_survive(self):
        queue = WorkQueue()
        specs = _specs(1)
        queue.enqueue(specs, shard_size=1)
        lease = queue.claim("w")
        failure = FailedResult(
            spec=specs[0], error="boom", error_type="ValueError", attempts=3
        )
        lease.complete([status_record(specs[0], failure)])
        record = queue.done_statuses()[specs[0].spec_hash()]
        assert record["status"] == "failed"
        assert record["error_type"] == "ValueError"
        assert record["attempts"] == 3

    def test_rpc_totals_sum_integer_counters_per_job(self):
        queue = WorkQueue()
        for job, extra in (
            ("job-1", {"requests": 3, "junk": float("nan"), "note": "x"}),
            ("job-2", {"requests": 4}),
        ):
            queue.enqueue(_specs(1), shard_size=1, prefix=job)
            queue.claim("w").complete([], extra)
        assert queue.rpc_totals(prefix="job-1") == {"requests": 3}
        assert queue.rpc_totals() == {"requests": 7}


class TestCollectResults:
    def test_done_failed_and_missing(self, tmp_path):
        specs = _specs(3)
        cache = ResultCache(tmp_path / "cache")
        queue = WorkQueue()
        done = execute_spec(specs[0])
        cache.put(specs[0], done)
        queue.enqueue(specs[1:2], shard_size=1, prefix="s")
        queue.claim("w").complete(
            [
                status_record(
                    specs[1],
                    FailedResult(
                        spec=specs[1], error="bad", error_type="E", attempts=2
                    ),
                )
            ],
        )
        results = collect_results(specs, cache, queue)
        assert results[0].summary == done.summary
        assert isinstance(results[1], FailedResult) and results[1].error == "bad"
        assert results[2] is None


class TestCrossProcessCacheRace:
    def test_racing_puts_leave_one_valid_entry(self, tmp_path):
        # Two *processes* completing the same spec concurrently must
        # converge on exactly one valid checksummed payload and an
        # untorn sidecar — the idempotence that makes at-least-once
        # shard delivery safe.
        import multiprocessing

        spec = _specs(1)[0]
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_put_repeatedly, args=(str(tmp_path / "cache"), spec.to_dict())
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 1
        hit = cache.get(spec)
        assert hit is not None  # passes checksum verification
        assert hit.summary == execute_spec(spec).summary
        assert cache.quarantined == 0
        sidecar = json.loads(
            (tmp_path / "cache" / f"{spec.spec_hash()}.json").read_text()
        )
        assert sidecar["spec"]["label"] == spec.label
        assert not list((tmp_path / "cache").glob("*.tmp"))


def _put_repeatedly(cache_dir: str, spec_dict: dict) -> None:
    """Child-process body: hammer the same cache entry with puts."""
    spec = RunSpec.from_dict(spec_dict)
    cache = ResultCache(cache_dir)
    result = execute_spec(spec)
    for _ in range(25):
        cache.put(spec, result)
    loaded = cache.get(spec)
    assert loaded is not None and loaded.summary == result.summary
    os._exit(0)
