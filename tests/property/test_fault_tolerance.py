"""Property tests: fault-injected sweeps are bit-identical to fault-free ones.

The fault-tolerance contract mirrors the engine-equivalence discipline
(lowered ≡ block ≡ kernel ≡ reference): whatever deterministic faults a
:class:`~repro.sim.faults.FaultPlan` injects — transient exceptions,
worker kills, cache corruption, stalls past a supervised deadline — a
supervised run must converge on exactly the results a fault-free run
computes, spec by spec, as long as ``max_retries >= fault_budget``.
Quarantine is the *only* permitted divergence, and only when the budget
is genuinely exhausted.

The CI fault-injection leg sets ``REPRO_FAULT_SEED`` to vary the
schedule across runs; locally the default seed keeps runs reproducible.
"""

import itertools
import os
import pickle

import pytest

from repro.sim import (
    ExecutionPolicy,
    FailedResult,
    FaultPlan,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SweepManifest,
    execute_spec,
    spec_fragment,
    sweep,
    worst_case_over,
)

#: Seed for the injected fault schedules; the CI leg overrides it so every
#: pipeline run exercises a different (but fully replayable) schedule.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20190622"))


def _specs(count=4, rounds=200):
    return [
        RunSpec(
            algorithm="count-hop",
            algorithm_params={"n": 4},
            adversary="random",
            adversary_params={"rho": round(0.1 + 0.15 * i, 3), "beta": 2.0, "seed": 7},
            rounds=rounds,
            label=f"p{i}",
        )
        for i in range(count)
    ]


def _baseline(specs):
    return {s.spec_hash(): execute_spec(s).summary for s in specs}


def _assert_equivalent(specs, results, baseline):
    assert len(results) == len(specs)
    for spec, result in zip(specs, results):
        assert not result.failed, f"{spec.label} quarantined: {result.describe()}"
        assert result.summary == baseline[spec.spec_hash()]


class TestSerialEquivalence:
    def test_transient_faults_converge_to_fault_free_results(self):
        specs = _specs()
        baseline = _baseline(specs)
        plan = FaultPlan(seed=FAULT_SEED, transient_rate=0.8, fault_budget=2)
        policy = ExecutionPolicy(max_retries=3, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(1, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)

    def test_kill_faults_degrade_to_transients_serially(self):
        specs = _specs()
        baseline = _baseline(specs)
        plan = FaultPlan(seed=FAULT_SEED + 1, kill_rate=0.8, fault_budget=2)
        policy = ExecutionPolicy(max_retries=3, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(1, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)

    def test_mixed_fault_cocktail(self):
        specs = _specs()
        baseline = _baseline(specs)
        plan = FaultPlan(
            seed=FAULT_SEED + 2,
            kill_rate=0.3,
            transient_rate=0.3,
            stall_rate=0.3,
            stall_seconds=0.0,
            fault_budget=3,
        )
        policy = ExecutionPolicy(max_retries=4, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(1, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)

    def test_fault_free_supervised_run_matches_unsupervised(self):
        specs = _specs(count=3)
        baseline = _baseline(specs)
        with ParallelExecutor(1, policy=ExecutionPolicy()) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)
        assert executor.stats.retries == 0


class TestCacheCorruption:
    def test_corrupted_entries_are_quarantined_and_recomputed(self, tmp_path):
        specs = _specs()
        baseline = _baseline(specs)
        writer = ResultCache(tmp_path)
        for spec in specs:
            writer.put(spec, execute_spec(spec))

        plan = FaultPlan(seed=FAULT_SEED + 3, corrupt_rate=0.7, fault_budget=1)
        cache = ResultCache(tmp_path, fault_plan=plan)
        policy = ExecutionPolicy(max_retries=2, backoff_base=0.0)
        with ParallelExecutor(1, cache=cache, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)
        expected_corrupt = sum(
            1 for s in specs if plan.corrupts_read(s.spec_hash(), 0)
        )
        assert cache.quarantined == expected_corrupt
        if expected_corrupt:
            assert cache.quarantine_dir.is_dir()
            stats = cache.clear()
            assert stats.quarantined == expected_corrupt

    def test_recomputed_results_repopulate_the_cache(self, tmp_path):
        specs = _specs(count=2)
        writer = ResultCache(tmp_path)
        for spec in specs:
            writer.put(spec, execute_spec(spec))
        plan = FaultPlan(seed=FAULT_SEED, corrupt_rate=1.0, fault_budget=1)
        cache = ResultCache(tmp_path, fault_plan=plan)
        with ParallelExecutor(1, cache=cache, policy=ExecutionPolicy()) as executor:
            executor.run(specs)
        # Budget spent: a fresh cache (no injector) now hits cleanly.
        clean = ResultCache(tmp_path)
        for spec in specs:
            assert clean.get(spec) is not None
        assert clean.hits == len(specs)


class TestQuarantine:
    def test_poison_specs_quarantine_without_aborting(self):
        specs = _specs()
        baseline = _baseline(specs)
        # Budget far beyond the retry allowance: the first spec's coin is
        # forced to fire every attempt, so it must land as a FailedResult
        # while every other spec still completes exactly.
        plan = FaultPlan(seed=FAULT_SEED, transient_rate=1.0, fault_budget=100)
        policy = ExecutionPolicy(max_retries=2, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(1, policy=policy) as executor:
            results = executor.run(specs)
        assert all(isinstance(r, FailedResult) for r in results)
        assert all(r.attempts == 3 for r in results)
        assert executor.stats.quarantined == len(specs)
        # The same batch re-run without faults is untouched by the
        # quarantine history.
        with ParallelExecutor(1, policy=ExecutionPolicy()) as executor:
            _assert_equivalent(specs, executor.run(specs), baseline)

    def test_worst_case_over_skips_quarantined_with_a_warning(self):
        # Rate 1.0 with a deep budget poisons every member of the family:
        # there is no worst case to report, which must be an explicit
        # error, never a silently empty max().
        plan = FaultPlan(seed=FAULT_SEED, transient_rate=1.0, fault_budget=100)
        policy = ExecutionPolicy(max_retries=1, backoff_base=0.0, fault_plan=plan)
        with pytest.raises(RuntimeError, match="every run in the family"):
            worst_case_over(
                lambda: spec_fragment("count-hop", n=4),
                [lambda: spec_fragment("single-target", rho=0.3, beta=1.0)],
                rounds=150,
                policy=policy,
            )

    def test_worst_case_over_warns_and_skips_partial_quarantine(self):
        # A family where exactly one member is poisoned: an out-of-range
        # destination makes the spec fail on every attempt with a real
        # (non-injected) error, while the rest of the family completes.
        good = [
            (lambda rho: lambda: spec_fragment("single-target", rho=rho, beta=1.0))(r)
            for r in (0.2, 0.5)
        ]
        poison = lambda: spec_fragment(  # noqa: E731
            "single-target", rho=0.3, beta=1.0, source=3, destination=99
        )
        with pytest.warns(RuntimeWarning, match="skipping 1 quarantined"):
            worst, results = worst_case_over(
                lambda: spec_fragment("count-hop", n=4),
                good + [poison],
                rounds=150,
                policy=ExecutionPolicy(max_retries=1, backoff_base=0.0),
            )
        assert not worst.failed
        assert sum(1 for r in results if r.failed) == 1
        assert len(results) == 3


class TestManifestResume:
    def test_sweep_checkpoints_and_resumes(self, tmp_path):
        rates = [0.1, 0.3, 0.5]
        path = tmp_path / "manifest.json"
        cache = ResultCache(tmp_path / "cache")

        def run_sweep(resume):
            return sweep(
                "resume-test",
                "rho",
                rates,
                lambda rho: spec_fragment("count-hop", n=4),
                lambda rho: spec_fragment("random", rho=rho, beta=2.0, seed=7),
                200,
                cache=cache,
                policy=ExecutionPolicy(max_retries=1, backoff_base=0.0),
                manifest=SweepManifest(path, resume=resume),
            )

        first = run_sweep(resume=False)
        assert not first.failed_points()
        recorded = SweepManifest(path, resume=True)
        assert recorded.counts() == {"pending": 0, "done": 3, "failed": 0}

        # Resuming replays entirely from the cache: same points, and the
        # manifest still shows every spec done.
        second = run_sweep(resume=True)
        assert [p.result.summary for p in second.points] == [
            p.result.summary for p in first.points
        ]
        assert SweepManifest(path, resume=True).counts()["done"] == 3

    def test_resume_skips_previously_quarantined_specs(self, tmp_path):
        specs = _specs(count=3)
        path = tmp_path / "manifest.json"
        poison_plan = FaultPlan(seed=FAULT_SEED, transient_rate=1.0, fault_budget=100)
        policy = ExecutionPolicy(
            max_retries=1, backoff_base=0.0, fault_plan=poison_plan
        )
        with ParallelExecutor(
            1, policy=policy, manifest=SweepManifest(path)
        ) as executor:
            first = executor.run(specs)
        assert all(isinstance(r, FailedResult) for r in first)

        # Resume without faults: recorded failures come back as
        # FailedResults immediately, with no new attempts burned.
        manifest = SweepManifest(path, resume=True)
        with ParallelExecutor(
            1, policy=ExecutionPolicy(), manifest=manifest
        ) as executor:
            second = executor.run(specs)
            assert executor.stats.resumed_failures == len(specs)
            assert executor.stats.retries == 0
        for before, after in zip(first, second):
            assert isinstance(after, FailedResult)
            assert after.error_type == before.error_type
            assert after.attempts == before.attempts

    def test_mid_sweep_resume_completes_the_remainder(self, tmp_path):
        specs = _specs(count=4)
        baseline = _baseline(specs)
        path = tmp_path / "manifest.json"
        cache = ResultCache(tmp_path / "cache")

        # Simulate an interrupted sweep: the first half finished (cached +
        # recorded done), the rest never ran.
        manifest = SweepManifest(path)
        for spec in specs[:2]:
            cache.put(spec, execute_spec(spec))
            manifest.record_done(spec)
        for spec in specs[2:]:
            manifest.record_pending(spec)

        resumed = SweepManifest(path, resume=True)
        with ParallelExecutor(
            1, cache=cache, policy=ExecutionPolicy(), manifest=resumed
        ) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)
        assert cache.hits == 2  # the finished half was not re-executed
        assert SweepManifest(path, resume=True).counts()["done"] == 4


class TestSpecHashInvariance:
    def test_fault_plan_never_enters_spec_identity(self):
        spec = _specs(count=1)[0]
        plan = FaultPlan(seed=FAULT_SEED, transient_rate=0.5, fault_budget=2)
        import dataclasses

        stamped = dataclasses.replace(spec, fault_plan=plan.stamp(1))
        assert stamped.spec_hash() == spec.spec_hash()
        assert stamped.canonical_json() == spec.canonical_json()
        assert "fault_plan" not in spec.identity_dict()
        # ... but it does reach the executor's own worker processes, on
        # the pickled spec, and never a dict sent over the wire.
        assert pickle.loads(pickle.dumps(stamped)).fault_plan == stamped.fault_plan
        assert stamped.to_dict() == spec.to_dict()

    def test_policy_knobs_never_change_spec_hashes(self):
        specs = _specs(count=2)
        hashes = [s.spec_hash() for s in specs]
        plan = FaultPlan(seed=FAULT_SEED, transient_rate=0.9, fault_budget=1)
        policy = ExecutionPolicy(max_retries=2, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(1, policy=policy) as executor:
            executor.run(specs)
        assert [s.spec_hash() for s in specs] == hashes


@pytest.mark.parallel
class TestParallelFaultTolerance:
    def test_worker_kills_respawn_the_pool_and_converge(self):
        specs = _specs(count=6)
        baseline = _baseline(specs)
        plan = FaultPlan(seed=FAULT_SEED, kill_rate=0.4, fault_budget=1)
        policy = ExecutionPolicy(max_retries=2, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(2, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)
        expected_kills = sum(
            1 for s in specs if plan.worker_fault(s.spec_hash(), 0) == "kill"
        )
        if expected_kills:
            assert executor.stats.pool_respawns >= 1

    def test_parallel_transients_converge(self):
        specs = _specs(count=6)
        baseline = _baseline(specs)
        plan = FaultPlan(seed=FAULT_SEED + 7, transient_rate=0.7, fault_budget=2)
        policy = ExecutionPolicy(max_retries=3, backoff_base=0.0, fault_plan=plan)
        with ParallelExecutor(2, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)

    @pytest.mark.slow
    def test_stalls_past_the_deadline_time_out_and_converge(self):
        specs = _specs(count=4, rounds=100)
        baseline = _baseline(specs)
        plan = FaultPlan(
            seed=FAULT_SEED, stall_rate=0.6, stall_seconds=30.0, fault_budget=1
        )
        policy = ExecutionPolicy(
            max_retries=2,
            spec_timeout=1.5,
            backoff_base=0.0,
            fault_plan=plan,
        )
        with ParallelExecutor(2, chunk_size=1, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)
        expected_stalls = sum(
            1 for s in specs if plan.worker_fault(s.spec_hash(), 0) == "stall"
        )
        assert executor.stats.timeouts >= expected_stalls

    @pytest.mark.slow
    def test_a_timed_out_chunk_charges_only_the_spec_that_overran(self):
        # One chunk of three specs, exactly one of which stalls past its
        # deadline: the expired chunk is split and requeued singly with
        # attempts unchanged, so only the staller burns an attempt (and,
        # at max_retries=0, is quarantined).
        specs = _specs(count=3, rounds=100)
        baseline = _baseline(specs)

        def stalls(seed):
            plan = FaultPlan(
                seed=seed, stall_rate=0.4, stall_seconds=10.0, fault_budget=1
            )
            return plan, [plan.worker_fault(s.spec_hash(), 0) == "stall" for s in specs]

        plan, stalled = next(
            (plan, flags)
            for plan, flags in map(stalls, itertools.count(FAULT_SEED))
            if sum(flags) == 1
        )
        # A deadline of at least 2 s keeps a respawned pool's start-up
        # from expiring a clean single.
        policy = ExecutionPolicy(
            max_retries=0, spec_timeout=2.0, backoff_base=0.0, fault_plan=plan
        )
        with ParallelExecutor(2, chunk_size=3, policy=policy) as executor:
            results = executor.run(specs)
        for spec, result, stall in zip(specs, results, stalled):
            if stall:
                assert result.failed and result.error_type == "SpecTimeoutError"
            else:
                assert not result.failed, result.describe()
                assert result.summary == baseline[spec.spec_hash()]
        assert executor.stats.timeouts == 1
        assert executor.stats.quarantined == 1

    def test_repeatedly_dying_pool_degrades_to_serial(self):
        specs = _specs(count=6)
        baseline = _baseline(specs)
        # Kills on every attempt up to a deep budget: the pool breaks
        # until the degrade threshold, then the serial path (where kills
        # become transients) must still converge.
        plan = FaultPlan(seed=FAULT_SEED, kill_rate=1.0, fault_budget=4)
        policy = ExecutionPolicy(
            max_retries=5,
            backoff_base=0.0,
            fault_plan=plan,
            serial_degrade_after=2,
        )
        with ParallelExecutor(2, policy=policy) as executor:
            results = executor.run(specs)
        _assert_equivalent(specs, results, baseline)
        assert executor.stats.serial_degraded
        assert executor.stats.pool_respawns >= 2
