"""Unit tests for the orchestration layer: specs, cache, executor wiring."""

import dataclasses
import hashlib
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary import (
    LeastOnStationAdversary,
    NoInjectionAdversary,
    SingleTargetAdversary,
)
from repro.algorithms import CountHop, KCycle
from repro.sim import (
    ParallelExecutor,
    ResultCache,
    RunSpec,
    execute_spec,
    run_simulation,
    spec_fragment,
    sweep,
    worst_case_over,
)
from repro.sim.runner import ENGINE_KINDS
from repro.sim.specs import (
    available_adversaries,
    make_adversary,
    rate_adversaries,
    register_adversary,
)


def _spec(**overrides) -> RunSpec:
    base = dict(
        algorithm="count-hop",
        algorithm_params={"n": 4},
        adversary="single-target",
        adversary_params={"rho": 0.4, "beta": 1.0},
        rounds=200,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_round_trips_through_dict(self):
        spec = _spec(energy_cap=3, record_trace=True, label="x")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_preserves_the_engine(self):
        # The historical bug: to_dict() omitted the engine while
        # from_dict() read it, so a spec crossing a process boundary
        # silently reverted to engine="auto".
        spec = _spec(engine="reference")
        assert RunSpec.from_dict(spec.to_dict()).engine == "reference"

    @given(
        engine=st.sampled_from(ENGINE_KINDS),
        rounds=st.integers(min_value=1, max_value=10_000),
        energy_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        label=st.one_of(st.none(), st.text(max_size=12)),
    )
    def test_round_trip_is_lossless_for_every_field(
        self, engine, rounds, energy_cap, label
    ):
        spec = _spec(engine=engine, rounds=rounds, energy_cap=energy_cap, label=label)
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        for field in dataclasses.fields(RunSpec):
            assert getattr(rebuilt, field.name) == getattr(spec, field.name), field.name
        # The engine never leaks into the identity.
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert spec.spec_hash() == _spec(rounds=rounds, energy_cap=energy_cap, label=label).spec_hash()

    def test_spec_hash_is_stable_across_versions(self):
        # Pinned hex digest: the identity encoding is an on-disk contract
        # (cache keys, manifests).  Adding serialised fields to to_dict()
        # must never shift it — identity_dict() is what gets hashed.
        spec = _spec(engine="reference")
        assert spec.canonical_json() == (
            '{"adversary":"single-target",'
            '"adversary_params":{"beta":1.0,"rho":0.4},'
            '"algorithm":"count-hop","algorithm_params":{"n":4},'
            '"energy_cap":null,"enforce_energy_cap":true,"label":null,'
            '"record_trace":false,"rounds":200}'
        )

    def test_hash_ignores_param_insertion_order(self):
        a = _spec(adversary_params={"rho": 0.4, "beta": 1.0})
        b = _spec(adversary_params={"beta": 1.0, "rho": 0.4})
        assert a.spec_hash() == b.spec_hash()
        assert a == b and hash(a) == hash(b)

    def test_hash_distinguishes_every_field(self):
        base = _spec()
        assert base.spec_hash() != _spec(rounds=201).spec_hash()
        assert base.spec_hash() != _spec(record_trace=True).spec_hash()
        assert base.spec_hash() != _spec(adversary="spray").spec_hash()

    def test_execution_strategy_knobs_do_not_change_identity(self):
        # engine chooses *how* a run executes, not what it computes
        # (results are bit-identical, property-tested), so a cached
        # result is valid for any engine.
        base = _spec()
        assert base.spec_hash() == _spec(engine="reference").spec_hash()
        assert base == _spec(engine="reference")

    def test_fault_plan_is_an_execution_knob(self):
        # A fault-plan stamp rides to the executor's own worker processes
        # on the pickled spec, but never in to_dict(), and never changes
        # a spec's identity: injected faults cannot move cache keys or
        # manifest entries.
        from repro.sim import FaultPlan

        stamp = FaultPlan(seed=3, transient_rate=0.5).stamp(2)
        base = _spec()
        stamped = _spec(fault_plan=stamp)
        assert stamped.spec_hash() == base.spec_hash()
        assert "fault_plan" not in base.identity_dict()
        assert pickle.loads(pickle.dumps(stamped)).fault_plan == stamp
        assert "fault_plan" not in stamped.to_dict()
        assert stamped.to_dict() == base.to_dict()

    def test_plan_chunk_validated(self):
        with pytest.raises(ValueError, match="plan_chunk"):
            run_simulation(
                CountHop(4), SingleTargetAdversary(0.4, 1.0), 200, plan_chunk=0
            )

    def test_rejects_unknown_adversary_and_bad_rounds(self):
        with pytest.raises(KeyError, match="unknown adversary"):
            _spec(adversary="nope")
        with pytest.raises(ValueError, match="rounds"):
            _spec(rounds=0)

    @pytest.mark.parametrize("field", ["algorithm", "adversary"])
    @pytest.mark.parametrize("bad", [[1], {"k": 1}, 3])
    def test_non_string_names_raise_type_error(self, field, bad):
        data = dict(_spec().to_dict(), **{field: bad})
        with pytest.raises(TypeError, match=f"{field} name must be a string"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("rounds", 2.7),
            ("rounds", "200"),
            ("rounds", True),
            ("energy_cap", "3"),
            ("energy_cap", 3.0),
            ("energy_cap", False),
            ("enforce_energy_cap", "false"),
            ("enforce_energy_cap", 0),
            ("record_trace", "true"),
            ("record_trace", 1),
            ("label", {"x": 1}),
            ("label", 7),
        ],
    )
    def test_mistyped_fields_raise_type_error(self, field, bad):
        # from_dict coerces nothing: a field a client sent with the wrong
        # type fails here, not later on a worker (or, for a flag, silently
        # flipped by bool("false")).
        data = dict(_spec().to_dict(), **{field: bad})
        with pytest.raises(TypeError, match=field):
            RunSpec.from_dict(data)
        with pytest.raises(TypeError, match=field):
            _spec(**{field: bad})

    @pytest.mark.parametrize(
        "extra",
        [
            # Engine options are EngineConfig fields, not spec fields.
            {"plan_chunk": 64},
            {"quiescence_skip": False},
            {"lowering": False},
            # A fault stamp never crosses a dict boundary.
            {"fault_plan": {"seed": 1, "stall_rate": 1.0, "stall_seconds": 2}},
            # Misspellings would otherwise run on the fields' defaults.
            {"energycap": 2, "enforce_energy_cap_": False},
        ],
        ids=["plan_chunk", "quiescence_skip", "lowering", "fault_plan", "misspelt"],
    )
    def test_unknown_keys_are_rejected_by_name(self, extra):
        data = dict(_spec().to_dict(), **extra)
        with pytest.raises(TypeError, match="unknown RunSpec field") as info:
            RunSpec.from_dict(data)
        for key in extra:
            assert repr(key) in str(info.value)

    def test_integral_fields_accept_numpy_ints(self):
        import numpy as np

        spec = _spec(rounds=np.int64(200), energy_cap=np.int32(3))
        assert (type(spec.rounds), type(spec.energy_cap)) == (int, int)
        assert spec == _spec(rounds=200, energy_cap=3)
        assert spec.spec_hash() == _spec(rounds=200, energy_cap=3).spec_hash()

    def test_rejects_unpicklable_params(self):
        with pytest.raises(TypeError, match="JSON-serialisable"):
            _spec(adversary_params={"rho": 0.4, "beta": 1.0, "schedule": object()})

    def test_specs_are_picklable(self):
        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_from_fragments(self):
        spec = RunSpec.from_fragments(
            spec_fragment("count-hop", n=4),
            spec_fragment("single-target", rho=0.4, beta=1.0),
            200,
        )
        assert spec == _spec()

    def test_execute_matches_direct_run(self):
        direct = run_simulation(CountHop(4), SingleTargetAdversary(0.4, 1.0), 200)
        via_spec = execute_spec(_spec())
        assert via_spec.summary == direct.summary

    def test_builds_live_objects_from_fragments(self):
        spec = RunSpec.from_fragments(
            spec_fragment("count-hop", n=4), spec_fragment("no-injection"), 100
        )
        algorithm = spec.build_algorithm()
        assert isinstance(algorithm, CountHop) and algorithm.n == 4
        assert isinstance(spec.build_adversary(algorithm), NoInjectionAdversary)
        with pytest.raises(TypeError, match="fragments"):
            RunSpec.from_fragments(42, spec_fragment("no-injection"), 100)

    def test_schedule_aware_fragment_reads_the_algorithm_schedule(self):
        adversary = spec_fragment("least-on-station", rho=0.8, beta=1.0, horizon=60)
        spec = RunSpec.from_fragments(spec_fragment("k-cycle", n=4, k=2), adversary, 60)
        algorithm = spec.build_algorithm()
        built = spec.build_adversary(algorithm)
        assert isinstance(built, LeastOnStationAdversary)
        assert built.schedule.period == algorithm.oblivious_schedule().period
        adaptive = RunSpec.from_fragments(spec_fragment("count-hop", n=4), adversary, 60)
        with pytest.raises(ValueError, match="oblivious schedule"):
            adaptive.build_adversary(adaptive.build_algorithm())


class TestAdversaryRegistry:
    def test_registries_cover_cli_surface(self):
        names = available_adversaries()
        for key in ("single-target", "spray", "random", "adaptive-starvation"):
            assert key in names
        assert "least-on-station" not in rate_adversaries()
        assert "no-injection" not in rate_adversaries()

    def test_schedule_aware_needs_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            make_adversary("least-on-station", rho=0.8, beta=1.0, horizon=10)
        with pytest.raises(ValueError, match="does not take"):
            make_adversary("single-target", rho=0.8, beta=1.0, schedule=object())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_adversary("single-target", SingleTargetAdversary)


class TestResultCache:
    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        assert cache.get(spec) is None
        result = execute_spec(spec)
        cache.put(spec, result)
        assert spec in cache and len(cache) == 1
        hit = cache.get(spec)
        assert hit is not None and hit.summary == result.summary
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        (tmp_path / f"{spec.spec_hash()}.pkl").write_bytes(b"garbage")
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.get(spec) is None

    def test_clear_counts_orphan_sidecars_and_sweeps_tmp(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))  # one complete entry
        (tmp_path / "feedbeef.json").write_text("{}")  # orphan sidecar
        (tmp_path / "tmpabc123.tmp").write_bytes(b"partial")  # stale temp file
        assert cache.clear() == 2  # entry + orphan, tmp swept but not counted
        assert list(tmp_path.iterdir()) == []

    def test_crash_between_sidecar_and_payload_reads_as_clean_miss(
        self, tmp_path, monkeypatch
    ):
        """Kill the process between the two put() writes: the sidecar lands,
        the payload does not, and the entry must read as an ordinary miss."""
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = execute_spec(spec)

        real_write = ResultCache._atomic_write

        def crashing_write(self, path, data):
            if path.suffix == ".pkl":
                raise OSError("simulated crash before payload write")
            real_write(self, path, data)

        monkeypatch.setattr(ResultCache, "_atomic_write", crashing_write)
        with pytest.raises(OSError, match="simulated crash"):
            cache.put(spec, result)
        monkeypatch.undo()

        # Sidecar-then-payload ordering: the interrupted entry has a sidecar
        # but no payload, so membership and lookup see a clean miss ...
        assert cache._sidecar_path(spec).exists()
        assert not cache._payload_path(spec).exists()
        assert spec not in cache and len(cache) == 0
        assert cache.get(spec) is None
        # ... no stray .tmp survives the failed write ...
        assert not list(tmp_path.glob("*.tmp"))
        # ... and a retried put() simply completes the entry.
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None and hit.summary == result.summary

    def test_hit_is_shared_across_execution_strategies(self, tmp_path):
        # engine is an execution knob: results are bit-identical, the
        # hash is shared, and the stored-spec check must compare
        # identities — not the full serialised dict.
        cache = ResultCache(tmp_path)
        stored = _spec(engine="kernel")
        cache.put(stored, execute_spec(stored))
        assert cache.get(_spec(engine="reference")) is not None
        assert cache.hits == 1

    @pytest.mark.parametrize(
        "stored_keys",
        [
            # Entries written before the execution knobs were serialised
            # stored the identity dict alone.
            {},
            # Entries written while RunSpec still carried the engine
            # options stored them next to the identity fields.
            {
                "engine": "kernel",
                "plan_chunk": 64,
                "quiescence_skip": False,
                "lowering": False,
                "fault_plan": None,
            },
        ],
        ids=["identity-only", "with-execution-keys"],
    )
    def test_legacy_identity_only_stored_spec_still_hits(self, tmp_path, stored_keys):
        # Both shapes must remain valid hits under the same CACHE_VERSION.
        import pickle as _pickle

        from repro.sim.cache import CACHE_VERSION

        cache = ResultCache(tmp_path)
        spec = _spec()
        result = execute_spec(spec)
        payload = {
            "version": CACHE_VERSION,
            "spec": dict(spec.identity_dict(), **stored_keys),
            "result": result,
        }
        cache._payload_path(spec).write_bytes(_pickle.dumps(payload))
        hit = cache.get(spec)
        assert hit is not None and hit.summary == result.summary

    def test_checksum_mismatch_raises_corruption_error(self, tmp_path):
        from repro.sim import CacheCorruptionError

        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        path = cache._payload_path(spec)
        raw = path.read_bytes()
        # Flip one byte of the body under an intact checksum header.
        path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        with pytest.raises(CacheCorruptionError, match="checksum mismatch"):
            ResultCache._load_payload(path)

    def test_truncated_payload_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        path = cache._payload_path(spec)
        path.write_bytes(path.read_bytes()[:80])  # keep the header, cut the body
        # get() never raises: the bad entry moves to corrupt/ and reads as
        # a miss, so the caller recomputes.
        assert cache.get(spec) is None
        assert cache.quarantined == 1 and cache.misses == 1
        assert (cache.quarantine_dir / path.name).exists()
        assert not path.exists()
        assert cache.quarantined_entries() == 1

    def test_unpicklable_payload_without_header_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        cache._payload_path(spec).write_bytes(b"garbage")
        assert cache.get(spec) is None
        assert cache.quarantined == 1 and cache.quarantined_entries() == 1

    def test_verified_payload_from_another_code_version_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        # The checksum vouches for the bytes, but the body names a class
        # that no longer exists — as a payload written before a result
        # class was renamed away does.  That is a stale entry, not a
        # corrupt one: a plain miss that the next put() overwrites.
        from repro.sim.cache import CACHE_VERSION

        class Retired:
            pass

        Retired.__qualname__ = "Retired"
        monkeypatch.setattr(sys.modules[__name__], "Retired", Retired, raising=False)
        spec = _spec()
        body = pickle.dumps(
            {"version": CACHE_VERSION, "spec": spec.to_dict(), "result": Retired()}
        )
        monkeypatch.undo()
        header = hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"

        cache = ResultCache(tmp_path)
        path = cache._payload_path(spec)
        path.write_bytes(header + body)
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 0)
        assert path.exists() and not cache.quarantine_dir.exists()

        result = execute_spec(spec)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None and hit.summary == result.summary
        assert (cache.hits, cache.quarantined) == (1, 0)

    def test_clear_reports_quarantined_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, execute_spec(spec))
        cache._payload_path(spec).write_bytes(b"\x00" * 80)
        assert cache.get(spec) is None  # quarantines payload + sidecar
        cache.put(spec, execute_spec(spec))  # fresh live entry
        stats = cache.clear()
        assert stats == 1  # int compat: live entries only
        assert stats.entries == 1
        assert stats.quarantined == 1
        assert stats.tmp_swept == 0
        assert list(tmp_path.iterdir()) == []  # corrupt/ removed too

    def test_injected_corruption_is_deterministic(self, tmp_path):
        from repro.sim import FaultPlan

        plan = FaultPlan(seed=11, corrupt_rate=1.0, fault_budget=1)
        spec = _spec()
        result = execute_spec(spec)

        cache = ResultCache(tmp_path, fault_plan=plan)
        cache.put(spec, result)
        assert cache.get(spec) is None  # read 0: coin fires, truncated
        cache.put(spec, result)
        hit = cache.get(spec)  # read 1: past the budget, clean
        assert hit is not None and hit.summary == result.summary
        assert cache.quarantined == 1

    def test_executor_consults_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        with ParallelExecutor(workers=1, cache=cache) as executor:
            first = executor.run([spec])[0]
            second = executor.run([spec])[0]
        assert cache.hits == 1
        assert first.summary == second.summary

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        from repro.sim.cache import default_cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestSweepForwarding:
    def test_sweep_forwards_record_trace(self):
        series = sweep(
            "demo",
            "rho",
            [0.2],
            lambda rho: spec_fragment("count-hop", n=4),
            lambda rho: spec_fragment("single-target", rho=rho, beta=1.0),
            150,
            record_trace=True,
        )
        assert series.points[0].result.trace is not None
        assert len(series.points[0].result.trace) == 150

    def test_sweep_forwards_energy_cap(self):
        series = sweep(
            "demo",
            "rho",
            [0.2],
            lambda rho: spec_fragment("count-hop", n=4),
            lambda rho: spec_fragment("single-target", rho=rho, beta=1.0),
            150,
            energy_cap=3,
        )
        assert series.points[0].result.energy.cap == 3

    def test_sweep_forwarding_applies_to_spec_path_too(self):
        series = sweep(
            "demo",
            "rho",
            [0.2],
            lambda rho: spec_fragment("count-hop", n=4),
            lambda rho: spec_fragment("single-target", rho=rho, beta=1.0),
            150,
            energy_cap=3,
            record_trace=True,
        )
        result = series.points[0].result
        assert result.energy.cap == 3 and result.trace is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_rejects_live_objects(self, workers):
        with pytest.raises(TypeError, match="fragments"):
            sweep(
                "demo",
                "rho",
                [0.2],
                lambda rho: CountHop(4),
                lambda rho: SingleTargetAdversary(rho, 1.0),
                100,
                workers=workers,
            )


class TestWorstCaseTieBreak:
    def test_tie_break_is_stable_under_reordering(self):
        # Neither adversary injects within the 100-round run (the burst one
        # first wakes at round 200), so both runs tie on (latency, max_queue)
        # and only the description tie-break decides.
        factories = [
            lambda: spec_fragment("bursty", rho=0.5, beta=1.0, idle_rounds=200),
            lambda: spec_fragment("no-injection"),
        ]
        algorithm = lambda: spec_fragment("count-hop", n=4)  # noqa: E731
        worst_fwd, _ = worst_case_over(algorithm, factories, 100)
        worst_rev, _ = worst_case_over(algorithm, factories[::-1], 100)
        assert worst_fwd.adversary == worst_rev.adversary

    def test_parallel_worst_case_matches_serial(self):
        algorithm = lambda: spec_fragment("count-hop", n=4)
        factories = [
            lambda: spec_fragment("single-target", rho=0.5, beta=1.0),
            lambda: spec_fragment("round-robin", rho=0.5, beta=1.0),
            lambda: spec_fragment("bursty", rho=0.5, beta=2.0),
        ]
        worst_s, runs_s = worst_case_over(algorithm, factories, 400, workers=1)
        worst_p, runs_p = worst_case_over(algorithm, factories, 400, workers=2)
        assert [r.summary for r in runs_s] == [r.summary for r in runs_p]
        assert worst_s.summary == worst_p.summary

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worst_case_over_rejects_live_objects(self, workers):
        with pytest.raises(TypeError, match="fragments"):
            worst_case_over(
                lambda: CountHop(4),
                [lambda: SingleTargetAdversary(0.5, 1.0)],
                100,
                workers=workers,
            )


class TestChunkingAndProgress:
    def test_default_chunk_size_bounds(self):
        from repro.sim import default_chunk_size

        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(16, 4) == 1
        assert default_chunk_size(64, 4) == 4
        assert default_chunk_size(10_000, 4) == 32  # capped

    def test_execute_spec_batch_preserves_order(self):
        specs = [_spec(rounds=r) for r in (21, 22, 23)]
        from repro.sim import execute_spec_batch

        results = execute_spec_batch(specs)
        assert [r.rounds for r in results] == [21, 22, 23]
        assert results[0].summary.as_dict() == execute_spec(specs[0]).summary.as_dict()

    def test_serial_progress_counts_every_spec(self):
        calls = []
        specs = [_spec(rounds=r) for r in (21, 22, 23)]
        with ParallelExecutor(1) as executor:
            executor.run(specs, progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_progress_reports_cache_hits_immediately(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(rounds=31)
        with ParallelExecutor(1, cache=cache) as executor:
            executor.run([spec])
            calls = []
            executor.run([spec], progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 1)]

    def test_executor_level_progress_used_when_run_has_none(self):
        calls = []
        with ParallelExecutor(1, progress=lambda d, t: calls.append(d)) as executor:
            executor.run([_spec(rounds=21)])
        assert calls == [1]

    def test_executor_stats_summary_names_only_nonzero_counters(self):
        from repro.sim import ExecutorStats

        assert ExecutorStats().summary() == ""
        stats = ExecutorStats(retries=2, timeouts=1, serial_degraded=True)
        assert stats.summary() == "2 retries, 1 timeouts, serial degrade"

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ParallelExecutor(2, chunk_size=0)

    def test_progress_ticker_non_tty_output(self):
        import io

        from repro.sim import ProgressTicker

        stream = io.StringIO()
        ticker = ProgressTicker("runs", stream=stream)
        for done in range(1, 21):
            ticker(done, 20)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "runs: 1/20"
        assert lines[-1] == "runs: 20/20"
        # Sparse: roughly one line per 10% plus the first, not 20 lines.
        assert len(lines) <= 12


@pytest.mark.parallel
class TestChunkedParallelDispatch:
    def test_chunked_results_match_serial_order_and_values(self):
        specs = [_spec(rounds=20 + i) for i in range(6)]
        serial = [execute_spec(s) for s in specs]
        with ParallelExecutor(2, chunk_size=2) as executor:
            calls = []
            parallel = executor.run(
                specs, progress=lambda d, t: calls.append((d, t))
            )
        assert [r.summary.as_dict() for r in parallel] == [
            r.summary.as_dict() for r in serial
        ]
        # Three chunks of two specs: progress still ticks once per spec.
        assert [t for _, t in calls] == [6] * 6
        assert sorted(d for d, _ in calls) == [1, 2, 3, 4, 5, 6]

    def test_chunked_dispatch_fills_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_spec(rounds=20 + i) for i in range(4)]
        with ParallelExecutor(2, cache=cache, chunk_size=2) as executor:
            executor.run(specs)
        assert all(spec in cache for spec in specs)
