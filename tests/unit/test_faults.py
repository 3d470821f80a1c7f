"""Unit tests for the fault-injection layer and the sweep manifest."""

import json

import pytest

from repro.sim import (
    ExecutionPolicy,
    FailedResult,
    FaultPlan,
    SweepManifest,
    TransientFault,
)
from repro.sim.faults import (
    WORKER_FAULT_KINDS,
    in_worker_process,
)
from repro.sim.manifest import MANIFEST_VERSION
from repro.sim.specs import RunSpec


def _spec(rho=0.4, label=None) -> RunSpec:
    return RunSpec(
        algorithm="count-hop",
        algorithm_params={"n": 4},
        adversary="single-target",
        adversary_params={"rho": rho, "beta": 1.0},
        rounds=200,
        label=label,
    )


class TestFaultPlanCoin:
    def test_decision_is_a_pure_function(self):
        plan = FaultPlan(seed=7, transient_rate=0.5, fault_budget=100)
        decisions = [plan.decide("transient", "abc123", a) for a in range(50)]
        replayed = [plan.decide("transient", "abc123", a) for a in range(50)]
        assert decisions == replayed
        # A fresh, equal plan replays the same schedule too (no hidden state).
        again = FaultPlan(seed=7, transient_rate=0.5, fault_budget=100)
        assert [again.decide("transient", "abc123", a) for a in range(50)] == decisions

    def test_seed_changes_the_schedule(self):
        hashes = [f"hash{i}" for i in range(200)]
        a = FaultPlan(seed=1, transient_rate=0.5, fault_budget=10)
        b = FaultPlan(seed=2, transient_rate=0.5, fault_budget=10)
        fires_a = [a.decide("transient", h, 0) for h in hashes]
        fires_b = [b.decide("transient", h, 0) for h in hashes]
        assert fires_a != fires_b
        # And the rate is roughly honoured (coin is uniform on [0, 1)).
        assert 40 < sum(fires_a) < 160

    def test_rate_zero_never_fires_rate_one_always_fires(self):
        silent = FaultPlan(seed=3, fault_budget=10)
        loud = FaultPlan(seed=3, transient_rate=1.0, fault_budget=10)
        for attempt in range(10):
            assert not silent.decide("transient", "h", attempt)
            assert loud.decide("transient", "h", attempt)

    def test_fault_budget_bounds_faulted_attempts(self):
        plan = FaultPlan(seed=5, transient_rate=1.0, fault_budget=2)
        assert plan.decide("transient", "h", 0)
        assert plan.decide("transient", "h", 1)
        assert not plan.decide("transient", "h", 2)
        assert not plan.decide("transient", "h", 99)

    def test_kinds_draw_independent_coins(self):
        plan = FaultPlan(
            seed=9, kill_rate=0.5, transient_rate=0.5, fault_budget=1
        )
        hashes = [f"h{i}" for i in range(200)]
        kills = [plan.decide("kill", h, 0) for h in hashes]
        transients = [plan.decide("transient", h, 0) for h in hashes]
        assert kills != transients

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(kill_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(fault_budget=-1)
        with pytest.raises(ValueError):
            FaultPlan(stall_seconds=-1.0)
        # An injected stall sleeps stall_seconds: NaN makes time.sleep
        # raise mid-run, and inf never wakes.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="stall_seconds"):
                FaultPlan(stall_seconds=bad)
        assert FaultPlan(stall_seconds=0.0).stall_seconds == 0.0

    def test_active(self):
        assert not FaultPlan().active
        assert FaultPlan(transient_rate=0.1).active
        assert FaultPlan(corrupt_rate=0.1).active


class TestExecutionPolicy:
    @pytest.mark.parametrize(
        "options",
        [
            {"max_retries": -1},
            {"spec_timeout": 0},
            {"spec_timeout": -1.0},
            # A NaN or infinite timeout arms a deadline that never fires
            # (monotonic() + nan), switching the timeout off silently.
            {"spec_timeout": float("nan")},
            {"spec_timeout": float("inf")},
            {"backoff_base": -0.1},
            {"backoff_base": float("nan")},
            {"backoff_base": float("inf")},
            {"backoff_cap": -1.0},
            {"backoff_cap": float("nan")},
            {"backoff_cap": float("inf")},
            {"serial_degrade_after": 0},
        ],
    )
    def test_validation(self, options):
        with pytest.raises(ValueError):
            ExecutionPolicy(**options)

    def test_finite_timings_are_accepted(self):
        policy = ExecutionPolicy(spec_timeout=0.5, backoff_base=0.0, backoff_cap=0.0)
        assert policy.spec_timeout == 0.5
        assert policy.backoff_delay(3) == 0.0
        assert ExecutionPolicy(spec_timeout=None).spec_timeout is None


class TestFaultPlanWorkerSide:
    def test_worker_fault_first_kind_wins(self):
        plan = FaultPlan(
            seed=1, kill_rate=1.0, stall_rate=1.0, transient_rate=1.0, fault_budget=1
        )
        assert plan.worker_fault("h", 0) == WORKER_FAULT_KINDS[0] == "kill"
        assert plan.worker_fault("h", 1) is None  # past the budget

    def test_kill_degrades_to_transient_in_process(self):
        # This test process is the orchestrator, not a pool worker, so an
        # injected kill must *not* os._exit it.
        assert not in_worker_process()
        plan = FaultPlan(seed=1, kill_rate=1.0, fault_budget=1)
        with pytest.raises(TransientFault, match="degraded to a transient"):
            plan.apply_in_worker("h", 0)

    def test_transient_raises_and_stall_returns(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, fault_budget=1)
        with pytest.raises(TransientFault, match="injected transient"):
            plan.apply_in_worker("h", 0)
        stall = FaultPlan(seed=1, stall_rate=1.0, stall_seconds=0.0, fault_budget=1)
        stall.apply_in_worker("h", 0)  # sleeps 0s, then the run proceeds

    def test_budgeted_attempt_is_clean(self):
        plan = FaultPlan(
            seed=1, kill_rate=1.0, stall_rate=1.0, transient_rate=1.0, fault_budget=1
        )
        plan.apply_in_worker("h", 1)  # no fault: attempt >= budget


class TestFaultPlanSerialisation:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=42,
            kill_rate=0.1,
            stall_rate=0.2,
            transient_rate=0.3,
            corrupt_rate=0.4,
            stall_seconds=0.5,
            fault_budget=3,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_stamp_carries_the_attempt(self):
        plan = FaultPlan(seed=42, transient_rate=0.3)
        stamp = plan.stamp(3)
        assert stamp["attempt"] == 3
        assert FaultPlan.from_dict(stamp) == plan

    def test_apply_stamp_replays_the_worker_fault(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, fault_budget=2)
        with pytest.raises(TransientFault):
            FaultPlan.apply_stamp(plan.stamp(0), "h")
        FaultPlan.apply_stamp(plan.stamp(5), "h")  # budgeted: clean


class TestFailedResult:
    def test_describe_and_label(self):
        spec = _spec(label="poison")
        failure = FailedResult(
            spec=spec,
            error="boom",
            error_type="ValueError",
            attempts=3,
            fault_events=["attempt 0: ValueError: boom"],
        )
        assert failure.failed is True
        assert failure.spec_hash == spec.spec_hash()
        assert failure.label == "poison"
        assert failure.describe() == "FAILED after 3 attempt(s): ValueError: boom"

    def test_label_falls_back_to_matchup(self):
        failure = FailedResult(
            spec=_spec(), error="x", error_type="E", attempts=1
        )
        assert failure.label == "count-hop vs single-target"


class TestSweepManifest:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "sweep.json"
        manifest = SweepManifest(path)
        done_spec, failed_spec, pending_spec = (
            _spec(0.1, "a"), _spec(0.3, "b"), _spec(0.5, "c")
        )
        manifest.record_pending(pending_spec)
        manifest.record_done(done_spec, attempts=1)
        manifest.record_failed(
            failed_spec,
            FailedResult(
                spec=failed_spec,
                error="gave up",
                error_type="TransientFault",
                attempts=3,
                fault_events=["attempt 0: TransientFault: gave up"],
            ),
        )
        assert manifest.counts() == {"pending": 1, "done": 1, "failed": 1}
        assert len(manifest) == 3

        # Records land in the append-only event log; compaction folds
        # them into a consistent JSON snapshot.
        manifest.compact()
        data = json.loads(path.read_text("utf-8"))
        assert data["version"] == MANIFEST_VERSION
        assert len(data["entries"]) == 3

        resumed = SweepManifest(path, resume=True)
        assert resumed.resumed
        assert resumed.counts() == manifest.counts()
        assert resumed.prior(done_spec)["status"] == "done"

    def test_prior_failure_reconstruction(self, tmp_path):
        path = tmp_path / "sweep.json"
        manifest = SweepManifest(path)
        spec = _spec(0.3, "b")
        manifest.record_failed(
            spec,
            FailedResult(
                spec=spec,
                error="gave up",
                error_type="TransientFault",
                attempts=3,
                fault_events=["e1", "e2"],
            ),
        )
        resumed = SweepManifest(path, resume=True)
        failure = resumed.prior_failure(spec)
        assert isinstance(failure, FailedResult)
        assert failure.error == "gave up"
        assert failure.error_type == "TransientFault"
        assert failure.attempts == 3
        assert failure.fault_events == ["e1", "e2"]
        assert resumed.prior_failure(_spec(0.9)) is None

    def test_done_clears_a_prior_error_and_keeps_attempts(self, tmp_path):
        manifest = SweepManifest(tmp_path / "m.json")
        spec = _spec()
        manifest.record_attempt(spec, 2, "attempt 1: E: x")
        manifest.record_done(spec)
        entry = manifest.prior(spec)
        assert entry["status"] == "done"
        assert entry["attempts"] == 2  # history preserved
        assert "error" not in entry

    def test_without_resume_an_existing_file_is_replaced(self, tmp_path):
        path = tmp_path / "m.json"
        old = SweepManifest(path)
        old.record_done(_spec(0.1))
        fresh = SweepManifest(path)  # resume=False
        assert not fresh.resumed
        assert len(fresh) == 0
        fresh.record_done(_spec(0.2))
        assert len(SweepManifest(path, resume=True)) == 1

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 999, "entries": {}}))
        with pytest.raises(ValueError, match="unsupported version"):
            SweepManifest(path, resume=True)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="unreadable"):
            SweepManifest(path, resume=True)


class TestFaultPlanOffset:
    def test_with_offset_shifts_the_effective_attempt(self):
        plan = FaultPlan(seed=11, transient_rate=0.5, fault_budget=100)
        base = [plan.decide("transient", "h", a) for a in range(20)]
        shifted = plan.with_offset(5)
        # Attempt a under offset 5 draws the coin of base attempt a + 5.
        assert [shifted.decide("transient", "h", a) for a in range(15)] == base[5:]

    def test_offset_counts_against_the_budget(self):
        plan = FaultPlan(seed=11, transient_rate=1.0, fault_budget=3)
        # Offset at/past the budget: no attempt can fault any more.
        assert not any(
            plan.with_offset(3).decide("transient", "h", a) for a in range(10)
        )
        # Offset 2 leaves exactly one budgeted effective attempt.
        fired = [plan.with_offset(2).decide("transient", "h", a) for a in range(10)]
        assert fired == [True] + [False] * 9

    def test_offset_round_trips_through_dicts(self):
        plan = FaultPlan(
            seed=4, lease_death_rate=0.25, attempt_offset=2, fault_budget=7
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        # Old stamps without the new keys still load (back-compat).
        legacy = {"seed": 4, "transient_rate": 0.5}
        loaded = FaultPlan.from_dict(legacy)
        assert loaded.lease_death_rate == 0.0
        assert loaded.attempt_offset == 0

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="attempt_offset"):
            FaultPlan(attempt_offset=-1)


class TestLeaseDeathCoin:
    def test_pure_and_keyed_on_takeovers(self):
        plan = FaultPlan(seed=9, lease_death_rate=0.5, fault_budget=100)
        decisions = [plan.lease_death("shard-0001", t) for t in range(50)]
        assert decisions == [plan.lease_death("shard-0001", t) for t in range(50)]
        shards = [f"shard-{i:04d}" for i in range(200)]
        fired = sum(plan.lease_death(s, 0) for s in shards)
        assert 40 < fired < 160

    def test_budget_bounds_deaths_per_shard(self):
        plan = FaultPlan(seed=9, lease_death_rate=1.0, fault_budget=2)
        deaths = [plan.lease_death("shard-0000", t) for t in range(10)]
        assert deaths == [True, True] + [False] * 8

    def test_not_shifted_by_attempt_offset(self):
        # The takeover count *is* the global counter; with_offset must
        # not double-shift it.
        plan = FaultPlan(seed=9, lease_death_rate=0.5, fault_budget=100)
        shifted = plan.with_offset(7)
        assert [plan.lease_death("s", t) for t in range(20)] == [
            shifted.lease_death("s", t) for t in range(20)
        ]

    def test_lease_rate_does_not_fire_worker_faults(self):
        plan = FaultPlan(seed=9, lease_death_rate=1.0, fault_budget=5)
        assert plan.active
        assert plan.worker_fault("h", 0) is None


class TestManifestEventLog:
    def test_records_append_instead_of_rewriting(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        for i in range(5):
            manifest.record_done(_spec(0.1 * (i + 1)))
        # No snapshot yet — everything lives in the event log.
        assert not path.exists()
        events = manifest.events_path.read_text().splitlines()
        assert len(events) == 5
        # Each line is one self-contained absolute-state event.
        event = json.loads(events[0])
        assert event["entry"]["status"] == "done"

    def test_resume_replays_events_without_a_snapshot(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        spec = _spec(0.2)
        manifest.record_attempt(spec, 1, "attempt 0: E: x")
        manifest.record_done(spec, attempts=1)
        resumed = SweepManifest(path, resume=True)
        assert resumed.prior(spec)["status"] == "done"
        assert resumed.prior(spec)["attempts"] == 1

    def test_compaction_folds_log_into_snapshot(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.record_done(_spec(0.1))
        manifest.record_done(_spec(0.2))
        manifest.compact()
        assert not manifest.events_path.exists()
        data = json.loads(path.read_text())
        assert len(data["entries"]) == 2
        assert len(SweepManifest(path, resume=True)) == 2

    def test_auto_compaction_every_n_events(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path, compact_every=3)
        for i in range(7):
            manifest.record_done(_spec(0.05 * (i + 1)))
        # 7 events with compact_every=3: two compactions, one event left.
        data = json.loads(path.read_text())
        assert len(data["entries"]) == 6
        assert len(manifest.events_path.read_text().splitlines()) == 1
        assert len(SweepManifest(path, resume=True)) == 7

    def test_replay_on_top_of_snapshot_is_idempotent(self, tmp_path):
        # Crash between snapshot write and log truncation: events already
        # folded into the snapshot replay harmlessly.
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.record_done(_spec(0.1))
        manifest.save()  # snapshot written, log NOT truncated
        assert manifest.events_path.exists()
        resumed = SweepManifest(path, resume=True)
        assert len(resumed) == 1
        assert resumed.counts()["done"] == 1

    def test_torn_final_event_is_dropped(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.record_done(_spec(0.1))
        manifest.record_done(_spec(0.2))
        with manifest.events_path.open("a") as fh:
            fh.write('{"key": "abc", "entry": {"status"')  # crash mid-append
        resumed = SweepManifest(path, resume=True)
        assert len(resumed) == 2

    def test_garbage_mid_log_raises(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = SweepManifest(path)
        manifest.record_done(_spec(0.1))
        with manifest.events_path.open("a") as fh:
            fh.write("not json {\n")
            fh.write('{"key": "x", "entry": {"status": "done"}}\n')
        with pytest.raises(ValueError, match="corrupt sweep manifest log"):
            SweepManifest(path, resume=True)

    def test_fresh_manifest_discards_stale_event_log(self, tmp_path):
        path = tmp_path / "m.json"
        old = SweepManifest(path)
        old.record_done(_spec(0.1))
        old.compact()
        old.record_done(_spec(0.2))  # one event past the snapshot
        fresh = SweepManifest(path)  # resume=False
        assert len(fresh) == 0
        assert not path.exists()
        assert not fresh.events_path.exists()
