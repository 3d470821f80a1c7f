"""Unit tests for the capability-negotiated kernel engine."""

import pytest

from repro.adversary import (
    AdaptiveStarvationAdversary,
    NoInjectionAdversary,
    RecordingAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
)
from repro.algorithms import CountHop, KCycle, KSubsets, Orchestra
from repro.channel.block import BlockEngine
from repro.channel.energy import EnergyCapViolation
from repro.channel.engine import EngineConfig, RoundEngine
from repro.channel.feedback import ChannelOutcome, Feedback, FeedbackPool
from repro.channel.kernel import KernelEngine
from repro.channel.message import Message
from repro.channel.packet import PacketFactory
from repro.metrics.collector import MetricsCollector
from repro.sim import run_simulation


def build_kernel(algorithm, adversary, **config_kwargs):
    controllers = algorithm.build_controllers()
    adversary.bind(algorithm.n, PacketFactory())
    config = EngineConfig(energy_cap=algorithm.energy_cap, **config_kwargs)
    return KernelEngine(
        controllers,
        adversary,
        MetricsCollector(),
        config,
        schedule=algorithm.oblivious_schedule(),
    )


class TestNegotiation:
    @pytest.mark.parametrize(
        "engine_cls, extra_keys",
        [
            (KernelEngine, ()),
            (
                BlockEngine,
                (
                    "block_compilation",
                    "blocks_compiled",
                    "blocks_fallback",
                    "block_decline_reasons",
                    "segment_lowering",
                    "lowered_segments",
                    "lowered_rounds",
                ),
            ),
        ],
    )
    def test_negotiation_reports_exactly_these_keys(self, engine_cls, extra_keys):
        # negotiation() is the only report of what an engine negotiated:
        # every result stores it and `repro run --negotiation` prints it
        # in this order, so a key that appears or vanishes changes both.
        algorithm = KCycle(9, 3)
        adversary = SingleTargetAdversary(0.2, 1.0).bind(9, PacketFactory())
        engine = engine_cls(
            algorithm.build_controllers(),
            adversary,
            config=EngineConfig(energy_cap=algorithm.energy_cap),
            schedule=algorithm.oblivious_schedule(),
        )
        assert list(engine.negotiation()) == [
            "engine",
            "schedule_fast_path",
            "ticked_wakes",
            "vectorised_energy",
            "maintains_view",
            "planned_injections",
            "quiescence_skipping",
            "quiescent_rounds_elided",
            *extra_keys,
        ]
        assert engine.negotiation()["engine"] == engine_cls.__name__

    def test_schedule_fast_path_for_pure_wake_controllers(self):
        engine = build_kernel(KCycle(9, 3), SingleTargetAdversary(0.2, 1.0))
        assert engine.negotiation()["schedule_fast_path"]

    def test_no_schedule_fast_path_when_wakes_has_side_effects(self):
        # k-Subsets publishes a schedule but its wake protocol advances a
        # phase state machine, so its controllers do not declare
        # static_wake_schedule; the shared phase clock puts them on the
        # ticked tier instead of the per-station fallback.
        engine = build_kernel(KSubsets(6, 3), SingleTargetAdversary(0.2, 1.0))
        assert not engine.negotiation()["schedule_fast_path"]
        assert engine.negotiation()["ticked_wakes"]

    def test_planned_injections_for_oblivious_adversaries(self):
        engine = build_kernel(KCycle(9, 3), SingleTargetAdversary(0.2, 1.0))
        assert engine.negotiation()["planned_injections"]
        engine.run(50)
        assert engine.collector.injected_count > 0

    def test_planned_injections_skipped_for_adaptive_adversaries(self):
        engine = build_kernel(KCycle(9, 3), AdaptiveStarvationAdversary(0.5, 1.0))
        assert not engine.negotiation()["planned_injections"]

    def test_adaptive_adversary_on_ticked_tier_maintains_view(self):
        # The view is fed the same per-round updates on every wake tier.
        engine = build_kernel(CountHop(5), AdaptiveStarvationAdversary(0.5, 1.0))
        negotiated = engine.negotiation()
        assert negotiated["ticked_wakes"]
        assert negotiated["maintains_view"]
        engine.run(60)
        total_on = sum(engine.view.station_on_rounds(i) for i in range(5))
        assert total_on == sum(engine.collector.energy_series)

    def test_aborted_run_replays_the_cached_plan_remainder(self):
        # A plan consumes the leaky-bucket budget for its whole chunk up
        # front.  When an EnergyCapViolation aborts the run mid-chunk,
        # resuming must replay the cached remainder — re-planning would
        # start from the post-chunk budget state and inject the wrong
        # packets for the rounds already materialised.
        from repro.adversary import SingleSourceSprayAdversary

        algorithm = CountHop(5)
        adversary = SingleSourceSprayAdversary(0.9, 2.0)
        adversary.bind(algorithm.n, PacketFactory())
        engine = KernelEngine(
            algorithm.build_controllers(),
            adversary,
            MetricsCollector(),
            EngineConfig(energy_cap=1, enforce_energy_cap=True),
            schedule=algorithm.oblivious_schedule(),
        )
        assert engine.negotiation()["planned_injections"]
        with pytest.raises(EnergyCapViolation):
            engine.run(400)
        consumed = adversary.constraint.total_injected
        injected = engine.collector.injected_count
        assert consumed > injected  # chunk materialised past the abort
        with pytest.raises(EnergyCapViolation):
            engine.run(400)
        # The retry re-injects only the failing round's planned packets —
        # no second chunk is planned, so the adversary state is untouched.
        assert adversary.constraint.total_injected == consumed
        assert engine.collector.injected_count > injected

    def test_no_schedule_fast_path_without_published_schedule(self):
        engine = build_kernel(Orchestra(6), SingleTargetAdversary(0.2, 1.0))
        assert not engine.negotiation()["schedule_fast_path"]

    def test_oblivious_adversary_skips_view_maintenance(self):
        engine = build_kernel(KCycle(9, 3), SingleTargetAdversary(0.2, 1.0))
        assert not engine.negotiation()["maintains_view"]
        engine.run(50)
        assert [engine.view.station_on_rounds(i) for i in range(9)] == [0] * 9

    def test_adaptive_adversary_on_static_tier_counts_every_round(self):
        adversary = AdaptiveStarvationAdversary(0.5, 1.0)
        engine = build_kernel(KCycle(9, 3), adversary, enforce_energy_cap=False)
        assert engine.negotiation()["schedule_fast_path"]
        assert engine.negotiation()["maintains_view"]
        engine.run(50)
        total_on = sum(engine.view.station_on_rounds(i) for i in range(9))
        assert total_on == sum(engine.collector.energy_series)

    def test_record_trace_rejected(self):
        with pytest.raises(ValueError, match="does not record traces"):
            build_kernel(KCycle(9, 3), NoInjectionAdversary(), record_trace=True)

    def test_ticked_tier_for_state_machine_algorithms(self):
        engine = build_kernel(CountHop(6), SingleTargetAdversary(0.2, 1.0))
        assert engine.negotiation()["ticked_wakes"]
        assert not engine.negotiation()["schedule_fast_path"]

    def test_ticked_tier_requires_one_shared_oracle(self):
        algorithm = CountHop(6)
        controllers = algorithm.build_controllers()
        # A foreign controller set mixed in (different oracle) must demote
        # the run to the per-station fallback.
        controllers[0].wake_oracle = CountHop(6).build_controllers()[0].wake_oracle
        adversary = SingleTargetAdversary(0.2, 1.0).bind(6, PacketFactory())
        engine = KernelEngine(
            controllers, adversary, MetricsCollector(), EngineConfig(energy_cap=2)
        )
        assert not engine.negotiation()["ticked_wakes"]

    def test_vectorised_energy_only_when_cap_safe(self):
        # k-Cycle's period never wakes more than k stations: with the cap
        # at k the awake-count series is precomputed...
        engine = build_kernel(KCycle(9, 3), SingleTargetAdversary(0.2, 1.0))
        assert engine.negotiation()["vectorised_energy"]
        # ... but a tighter cap can be violated, so the kernel keeps the
        # per-round checks (and raises exactly like the reference loop).
        algorithm = KCycle(9, 3)
        adversary = NoInjectionAdversary().bind(9, PacketFactory())
        tight = KernelEngine(
            algorithm.build_controllers(),
            adversary,
            MetricsCollector(),
            EngineConfig(energy_cap=2, enforce_energy_cap=False),
            schedule=algorithm.oblivious_schedule(),
        )
        assert not tight.negotiation()["vectorised_energy"]

    def test_vectorised_energy_series_matches_reference(self):
        algorithm = KCycle(9, 3)
        kernel = build_kernel(algorithm, SingleTargetAdversary(0.4, 2.0))
        assert kernel.negotiation()["vectorised_energy"]
        kernel.run(137)
        adversary = SingleTargetAdversary(0.4, 2.0).bind(9, PacketFactory())
        reference = RoundEngine(
            KCycle(9, 3).build_controllers(),
            adversary,
            MetricsCollector(),
            EngineConfig(energy_cap=algorithm.energy_cap),
        )
        reference.run(137)
        assert kernel.collector.energy_series == reference.collector.energy_series


class TestObservation:
    """One observation rule on every engine: the view is fed exactly when
    the adversary does not plan its injections (always, on the reference
    loop), and then counts every completed round's awake stations."""

    ALGORITHMS = {"k-cycle": lambda: KCycle(9, 3), "count-hop": lambda: CountHop(5)}
    ADVERSARIES = {
        "adaptive-starvation": lambda: AdaptiveStarvationAdversary(0.5, 1.0),
        "recording(spray)": lambda: RecordingAdversary(
            SingleSourceSprayAdversary(0.5, 1.0)
        ),
        "spray": lambda: SingleSourceSprayAdversary(0.5, 1.0),
    }
    ROUNDS = 300

    def _run(self, engine_cls, algorithm_name, adversary_name):
        algorithm = self.ALGORITHMS[algorithm_name]()
        adversary = self.ADVERSARIES[adversary_name]()
        adversary.bind(algorithm.n, PacketFactory())
        config = EngineConfig(energy_cap=algorithm.energy_cap)
        if engine_cls is RoundEngine:
            engine = RoundEngine(algorithm.build_controllers(), adversary, config=config)
        else:
            engine = engine_cls(
                algorithm.build_controllers(),
                adversary,
                config=config,
                schedule=algorithm.oblivious_schedule(),
            )
        engine.run(self.ROUNDS)
        on_rounds = [engine.view.station_on_rounds(i) for i in range(algorithm.n)]
        return adversary, engine, on_rounds

    @pytest.mark.parametrize("engine_cls", [RoundEngine, KernelEngine, BlockEngine])
    @pytest.mark.parametrize("adversary_name", list(ADVERSARIES))
    @pytest.mark.parametrize("algorithm_name", list(ALGORITHMS))
    def test_the_view_is_fed_exactly_when_the_adversary_does_not_plan(
        self, engine_cls, adversary_name, algorithm_name
    ):
        adversary, engine, on_rounds = self._run(
            engine_cls, algorithm_name, adversary_name
        )
        observed = engine_cls is RoundEngine or not adversary.plans_injections
        if engine_cls is not RoundEngine:
            assert engine.negotiation()["maintains_view"] == (
                not adversary.plans_injections
            )
        if observed:
            *_, reference = self._run(RoundEngine, algorithm_name, adversary_name)
            assert on_rounds == reference
            assert sum(on_rounds) == sum(engine.collector.energy_series)
        else:
            assert on_rounds == [0] * len(on_rounds)


class TestFeedbackPool:
    def _message(self, sender=0):
        return Message(sender=sender, packet=None, control={})

    def test_silence_and_collision_are_interned_singletons(self):
        pool = FeedbackPool()
        assert pool.silence() is pool.silence()
        assert pool.collision() is pool.collision()
        assert pool.silence().outcome is ChannelOutcome.SILENCE
        assert pool.collision().outcome is ChannelOutcome.COLLISION
        assert pool.silence().round_no == Feedback.INTERNED_ROUND

    def test_heard_recycles_when_pool_holds_sole_reference(self):
        pool = FeedbackPool()
        first = pool.heard(3, self._message(), delivered=False)
        first_id = id(first)
        del first  # the pool now holds the only reference
        second = pool.heard(4, self._message(1), delivered=True)
        assert id(second) == first_id
        assert second.round_no == 4
        assert second.message.sender == 1
        assert second.delivered

    def test_heard_never_mutates_a_retained_instance(self):
        pool = FeedbackPool()
        retained = pool.heard(3, self._message(), delivered=False)
        fresh = pool.heard(4, self._message(1), delivered=True)
        assert fresh is not retained
        assert retained.round_no == 3
        assert retained.message.sender == 0
        assert not retained.delivered


class TestSemantics:
    def test_energy_cap_enforced(self):
        algorithm = KCycle(9, 3)
        controllers = algorithm.build_controllers()
        adversary = NoInjectionAdversary().bind(9, PacketFactory())
        engine = KernelEngine(
            controllers,
            adversary,
            MetricsCollector(),
            EngineConfig(energy_cap=2, enforce_energy_cap=True),
            schedule=algorithm.oblivious_schedule(),
        )
        with pytest.raises(EnergyCapViolation) as info:
            engine.run(10)
        # Three stations wake in round 0.  The violation is counted, as
        # the reference engine's EnergyMonitor.observe counts it, but the
        # round never completes, so the collector records nothing of it.
        assert (info.value.round_no, info.value.awake, info.value.cap) == (0, 3, 2)
        assert engine.energy.violations == 1
        assert engine.collector.energy_series == []
        assert engine.collector.rounds_observed == 0
        # Sized at construction, as on the reference engine.
        assert engine.collector.per_station_max_queue == [0] * 9

    def test_resumed_runs_accumulate(self):
        engine = build_kernel(KCycle(9, 3), SingleTargetAdversary(0.4, 2.0))
        engine.run(100)
        engine.run(100)
        assert engine.round_no == 200
        assert engine.collector.rounds_observed == 200

        other = build_kernel(KCycle(9, 3), SingleTargetAdversary(0.4, 2.0))
        other.run(200)
        assert (
            engine.collector.total_queue_series == other.collector.total_queue_series
        )

    def test_run_simulation_engine_selector_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_simulation(
                KCycle(9, 3), SingleTargetAdversary(0.2, 1.0), 10, engine="warp"
            )
