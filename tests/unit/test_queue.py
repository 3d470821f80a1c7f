"""Unit tests for the lease-based work queue (claim/steal/deliver/complete)."""

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
    spec_fragment,
    status_record,
)
from repro.sim.service import SweepJob


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


def _failed(spec, error="boom"):
    """A failed status record, as a completion carries one."""
    return status_record(
        spec, FailedResult(spec=spec, error=error, error_type="ValueError", attempts=3)
    )


def _job(specs, job_id="job-1"):
    return SweepJob(job_id, specs, [s.spec_hash() for s in specs])


def _queue(tmp_path, **kwargs):
    return WorkQueue(ResultCache(tmp_path / "cache"), **kwargs)


class TestEnqueueClaim:
    def test_enqueue_shards_preserve_order(self, tmp_path):
        queue = _queue(tmp_path)
        specs = _specs(5)
        ids = queue.enqueue(specs, _job(specs), shard_size=2)
        assert ids == ["shard-0000", "shard-0001", "shard-0002"]
        assert queue.counts() == {"pending": 3, "leased": 0, "done": 0}
        claimed: list[str] = []
        while (lease := queue.claim("w")) is not None:
            claimed.extend(s.spec_hash() for s in lease.specs)
            assert lease.complete([_failed(s) for s in lease.specs])
        assert claimed == [s.spec_hash() for s in specs]

    def test_claim_is_exclusive(self, tmp_path):
        queue = _queue(tmp_path)
        specs = _specs(2)
        queue.enqueue(specs, _job(specs), shard_size=2)
        first = queue.claim("alice")
        assert first is not None
        assert queue.claim("bob") is None  # the only shard is leased
        assert queue.counts()["leased"] == 1

    def test_concurrent_claims_lease_each_shard_once(self, tmp_path):
        # 4 threads race to claim 8 one-spec shards with a tiny switch
        # interval, round after round, so an unguarded check-then-pop
        # would hand some shard out twice, mint a duplicate token or pop
        # an emptied line.
        specs = _specs(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                queue = _queue(tmp_path, lease_ttl=60.0)
                ids = queue.enqueue(specs, _job(specs), shard_size=1)
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

    def test_reused_prefix_is_rejected(self, tmp_path):
        queue = _queue(tmp_path)
        first, second = _specs(2)
        queue.enqueue([first], _job([first]), shard_size=1, prefix="job-1")
        lease = queue.claim("w")
        lease.complete([_failed(s) for s in lease.specs])
        with pytest.raises(ValueError, match="already in use"):
            queue.enqueue([second], _job([second]), shard_size=1, prefix="job-1")


def _hold(queue, wait=5.0):
    """Run ``queue.claim("held", wait)`` in a thread; the returned dict
    gets the lease and the monotonic time the claim returned."""
    out: dict = {}

    def claim():
        out["lease"] = queue.claim("held", wait=wait)
        out["at"] = time.monotonic()

    thread = threading.Thread(target=claim, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the claim reach its hold
    return thread, out


class TestClaimHold:
    """A claim on an empty queue waits for work instead of answering None."""

    def test_an_enqueue_wakes_a_held_claim(self, tmp_path):
        queue = _queue(tmp_path)
        thread, out = _hold(queue)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        enqueued = time.monotonic()
        thread.join(timeout=10)
        assert out["lease"] is not None and out["lease"].specs == specs
        assert out["at"] - enqueued < 0.5

    def test_a_reclaimed_lease_wakes_a_held_claim(self, tmp_path, monkeypatch):
        now = [100.0]  # the queue's lease clock, advanced by hand
        monkeypatch.setattr(queue_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        queue = _queue(tmp_path, lease_ttl=10.0)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        assert queue.claim("victim") is not None
        thread, out = _hold(queue)
        now[0] += 11.0  # the victim's lease lapses while the claim is held
        assert queue.reclaim_expired() == 1
        reclaimed = time.monotonic()
        thread.join(timeout=10)
        assert out["lease"] is not None and out["lease"].takeovers == 1
        assert out["at"] - reclaimed < 0.5

    def test_with_nothing_arriving_a_claim_answers_none_after_its_wait(self, tmp_path):
        queue = _queue(tmp_path)
        start = time.monotonic()
        assert queue.claim("w", wait=0.3) is None
        assert 0.28 <= time.monotonic() - start < 2.0
        start = time.monotonic()
        assert queue.claim("w") is None and queue.claim("w", wait=0) is None
        assert time.monotonic() - start < 0.1

    def test_close_releases_a_held_claim_at_once(self, tmp_path):
        queue = _queue(tmp_path)
        thread, out = _hold(queue)
        queue.close()
        closed = time.monotonic()
        thread.join(timeout=10)
        assert out["lease"] is None and out["at"] - closed < 0.5
        start = time.monotonic()
        assert queue.claim("w", wait=5.0) is None  # a closed queue holds none
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("ttl", [0, -1.0, float("nan"), float("inf")])
    def test_a_lease_ttl_must_be_positive_and_finite(self, tmp_path, ttl):
        # A NaN TTL would make every lease immortal: expires <= now is
        # never true, so no lease could be stolen.
        with pytest.raises(ValueError, match="lease_ttl"):
            _queue(tmp_path, lease_ttl=ttl)


class TestLeaseLifecycle:
    def test_heartbeat_extends_expiry(self, tmp_path, monkeypatch):
        now = [100.0]  # the queue's monotonic clock, advanced by hand
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(queue_module, "time", clock)
        queue = _queue(tmp_path, lease_ttl=10.0)
        specs = _specs(1)
        job = _job(specs)
        queue.enqueue(specs, job, shard_size=1)
        lease = queue.claim("w")
        stall_clock = job.advanced_at
        now[0] += 6.0
        assert queue.record(lease.token, [])  # a plain heartbeat
        assert job.advanced_at == stall_clock  # renewing is not progress
        now[0] += 6.0  # past the claim-time expiry, inside the renewed one
        assert queue.reclaim_expired() == 0
        assert queue.counts()["leased"] == 1
        now[0] += 6.0  # past the renewed expiry too
        assert queue.reclaim_expired() == 1

    def test_heartbeat_after_steal_raises_lease_lost(self, tmp_path):
        queue = _queue(tmp_path, lease_ttl=0.01)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        lease = queue.claim("slow")
        time.sleep(0.05)
        assert queue.reclaim_expired() == 1
        assert not queue.record(lease.token, [])  # superseded, not renewed
        with pytest.raises(LeaseLostError):
            lease.heartbeat()
        assert lease.lost

    def test_reclaim_bumps_takeovers(self, tmp_path):
        queue = _queue(tmp_path, lease_ttl=0.01)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        assert queue.claim("victim").takeovers == 0
        time.sleep(0.05)
        queue.reclaim_expired()
        thief = queue.claim("thief")
        assert thief.takeovers == 1
        assert thief.shard_id == "shard-0000"

    def test_live_lease_is_not_reclaimed(self, tmp_path):
        queue = _queue(tmp_path, lease_ttl=30.0)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        queue.claim("w")
        assert queue.reclaim_expired() == 0

    def test_a_result_is_stored_outside_the_queue_lock(self, tmp_path, monkeypatch):
        # While one delivery's bytes are being written, other workers
        # still claim: the disk write does not hold the queue's lock.
        queue = _queue(tmp_path)
        specs = _specs(2)
        queue.enqueue(specs, _job(specs), shard_size=1)
        lease = queue.claim("w")
        writing, release = threading.Event(), threading.Event()
        store = queue.cache.store

        def slow_store(*args):
            writing.set()
            release.wait(10)
            store(*args)

        monkeypatch.setattr(queue.cache, "store", slow_store)
        result = execute_spec(specs[0])
        delivery = threading.Thread(target=lease.heartbeat, args=(specs[0], result))
        delivery.start()
        claimed: list = []
        try:
            assert writing.wait(10)
            claimant = threading.Thread(target=lambda: claimed.append(queue.claim("other")))
            claimant.start()
            claimant.join(timeout=5)
        finally:
            release.set()
            delivery.join(timeout=10)
        assert claimed and claimed[0].specs == specs[1:]
        assert queue.cache.get(specs[0]).summary == result.summary


class TestCompletion:
    def test_malformed_status_leaves_the_lease_live(self, tmp_path):
        queue = _queue(tmp_path)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        lease = queue.claim("w")
        with pytest.raises(TypeError):
            queue.record(lease.token, [{"spec_hash": ["unhashable"]}], retire=True)
        assert queue.counts() == {"pending": 0, "leased": 1, "done": 0}
        lease.heartbeat()  # nothing was spent
        lease.heartbeat(specs[0], execute_spec(specs[0]))
        assert lease.complete([])
        assert queue.drained()

    def test_delivered_results_then_completion_drain(self, tmp_path):
        queue = _queue(tmp_path)
        cache = queue.cache
        specs = _specs(2)
        job = _job(specs)
        queue.enqueue(specs, job, shard_size=2)
        lease = queue.claim("w")
        for spec in lease.specs:
            lease.heartbeat(spec, execute_spec(spec))
        # Done is recorded where the result is stored, before the completion.
        assert job.complete and all(cache.get(s) is not None for s in specs)
        assert queue.counts()["leased"] == 1
        assert lease.complete([])
        assert queue.drained()
        assert {r["status"] for r in job.state.values()} == {"done"}

    def test_completion_needs_every_spec_settled(self, tmp_path):
        queue = _queue(tmp_path)
        specs = _specs(2)
        queue.enqueue(specs, _job(specs), shard_size=2)
        lease = queue.claim("w")
        lease.heartbeat(specs[0], execute_spec(specs[0]))
        with pytest.raises(ValueError, match="no stored result"):
            queue.record(lease.token, [], retire=True)
        lease.heartbeat()  # the lease stays live
        assert lease.complete([_failed(specs[1])])
        assert queue.drained()

    def test_completion_naming_another_shards_spec_is_rejected(self, tmp_path):
        # Completing job-1's shard with a failed status for job-2's spec
        # must not touch job-2, and must not retire job-1's shard.
        queue = _queue(tmp_path)
        one, two = _specs(2)
        jobs = {"job-1": _job([one], "job-1"), "job-2": _job([two], "job-2")}
        for job_id, spec in (("job-1", one), ("job-2", two)):
            queue.enqueue([spec], jobs[job_id], shard_size=1, prefix=job_id)
        first = queue.claim("w")
        assert first.shard_id == "job-1-0000"
        with pytest.raises(ValueError, match="not in shard"):
            queue.record(first.token, [_failed(two)], retire=True)
        assert not jobs["job-2"].state and not jobs["job-2"].complete
        assert queue.counts() == {"pending": 1, "leased": 1, "done": 0}
        first.heartbeat()  # still live
        assert first.complete([_failed(one)])
        assert jobs["job-1"].complete and not jobs["job-2"].complete

    def test_stolen_shard_completed_by_original_owner(self, tmp_path):
        # Slow-but-alive owner after the steal: its result is kept though
        # its heartbeat reports the loss, and its completion retires the
        # thief's pending copy instead of letting it re-execute.
        queue = _queue(tmp_path, lease_ttl=0.01)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        slow = queue.claim("slow")
        time.sleep(0.05)
        queue.reclaim_expired()  # shard back in pending for a thief
        with pytest.raises(LeaseLostError):
            slow.heartbeat(specs[0], execute_spec(specs[0]))
        assert not slow.complete([])
        assert queue.claim("thief") is None  # the completion retired the copy
        assert queue.drained()

    def test_thief_lease_omits_delivered_specs(self, tmp_path):
        queue = _queue(tmp_path, lease_ttl=0.01)
        specs = _specs(3)
        queue.enqueue(specs, _job(specs), shard_size=3)
        victim = queue.claim("victim")
        victim.heartbeat(specs[1], execute_spec(specs[1]))
        time.sleep(0.05)
        thief = queue.claim("thief")
        assert thief.takeovers == 1
        assert [s.spec_hash() for s in thief.specs] == [
            specs[0].spec_hash(), specs[2].spec_hash()
        ]

    def test_fully_delivered_shard_retires_at_claim(self, tmp_path):
        # Every spec delivered, then the holder died before completing:
        # the reclaimed shard has nothing left to lease.
        queue = _queue(tmp_path, lease_ttl=0.01)
        specs = _specs(1)
        queue.enqueue(specs, _job(specs), shard_size=1)
        queue.claim("victim").heartbeat(specs[0], execute_spec(specs[0]))
        time.sleep(0.05)
        assert queue.claim("thief") is None
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 1}

    def test_failed_status_records_reach_the_job(self, tmp_path):
        queue = _queue(tmp_path)
        specs = _specs(1)
        job = _job(specs)
        queue.enqueue(specs, job, shard_size=1)
        queue.claim("w").complete([_failed(specs[0])])
        record = job.state[specs[0].spec_hash()]
        assert record["status"] == "failed"
        assert record["error_type"] == "ValueError"
        assert record["attempts"] == 3
        assert job.snapshot()["failed"] == 1 and job.complete

    def test_concurrent_completions_settle_every_spec_once(self, tmp_path):
        # 4 threads race to claim and complete 16 one-spec shards of one
        # job with a tiny switch interval: a settle outside the queue's
        # lock would lose a spec, double-count the job's counters or
        # retire a shard twice.
        specs = _specs(16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            queue = _queue(tmp_path, lease_ttl=60.0)
            job = _job(specs)
            queue.enqueue(specs, job, shard_size=1)
            errors: list[BaseException] = []
            start = threading.Barrier(4)

            def claimant() -> None:
                start.wait()
                try:
                    while (lease := queue.claim("w")) is not None:
                        assert lease.complete([_failed(lease.specs[0])], {"n": 1})
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=claimant) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert job.complete and set(job.state) == {s.spec_hash() for s in specs}
        assert job.rpc == {"n": 16}
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 16}

    def test_overlapping_jobs_run_a_shared_spec_once(self, tmp_path):
        # job-2 arrives while job-1's shard still holds the spec both
        # want: job-2 enqueues only its own spec, and the one delivery of
        # the shared spec advances both jobs.
        queue = _queue(tmp_path)
        a, b, c = _specs(3)
        first, second = _job([a, b], "job-1"), _job([b, c], "job-2")
        assert queue.enqueue([a, b], first, shard_size=2, prefix="job-1") == ["job-1-0000"]
        assert queue.enqueue([b, c], second, shard_size=2, prefix="job-2") == ["job-2-0000"]
        ran = []
        while (lease := queue.claim("w")) is not None:
            for spec in lease.specs:
                ran.append(spec)
                lease.heartbeat(spec, execute_spec(spec))
            assert lease.complete([])
        assert ran == [a, b, c]
        assert first.complete and second.complete
        assert second.snapshot()["done"] == 2

    def test_a_shared_failure_reaches_every_waiting_job(self, tmp_path):
        queue = _queue(tmp_path)
        specs = _specs(1)
        jobs = [_job(specs, "job-1"), _job(specs, "job-2")]
        assert queue.enqueue(specs, jobs[0], prefix="job-1") == ["job-1-0000"]
        assert queue.enqueue(specs, jobs[1], prefix="job-2") == []
        queue.claim("w").complete([_failed(specs[0])])
        assert all(job.complete and job.snapshot()["failed"] == 1 for job in jobs)
        # Settled, the spec is no longer in flight: a new job reruns it.
        assert queue.enqueue(specs, _job(specs, "job-3"), prefix="job-3") == ["job-3-0000"]

    def test_rpc_counters_sum_integers_per_job(self, tmp_path):
        queue = _queue(tmp_path)
        jobs = []
        for job_id, extra in (
            ("job-1", {"requests": 3, "junk": float("nan"), "note": "x"}),
            ("job-2", {"requests": 4}),
        ):
            specs = _specs(1)
            jobs.append(_job(specs, job_id))
            queue.enqueue(specs, jobs[-1], shard_size=1, prefix=job_id)
            queue.claim("w").complete([_failed(specs[0])], extra)
        assert [job.rpc for job in jobs] == [{"requests": 3}, {"requests": 4}]


class TestCollectResults:
    def test_done_failed_and_missing(self, tmp_path):
        specs = _specs(3)
        cache = ResultCache(tmp_path / "cache")
        done = execute_spec(specs[0])
        cache.put(specs[0], done)
        failed = status_record(
            specs[1],
            FailedResult(spec=specs[1], error="bad", error_type="E", attempts=2),
        )
        results = collect_results(specs, cache, {specs[1].spec_hash(): failed})
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
