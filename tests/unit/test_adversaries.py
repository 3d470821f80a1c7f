"""Unit tests for the adversary implementations (base, patterns, stochastic, traces)."""

import pytest

from repro.adversary import (
    AdaptiveStarvationAdversary,
    AlternatingPairAdversary,
    BurstThenIdleAdversary,
    GroupLocalAdversary,
    HotspotAdversary,
    InjectionTrace,
    LeastOnPairAdversary,
    LeastOnStationAdversary,
    NoInjectionAdversary,
    RandomWalkAdversary,
    RecordingAdversary,
    ReplayAdversary,
    RoundRobinAdversary,
    SaturatingAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from repro.channel.engine import AdversaryView
from repro.core.schedule import PeriodicSchedule


def drive(adversary, n, rounds):
    """Bind and run an adversary standalone, returning its injections per round."""
    adversary.bind(n)
    view = AdversaryView(n=n)
    per_round = []
    for t in range(rounds):
        injections = adversary.inject(t, view)
        per_round.append(injections)
        view.observe_round(range(n))
    return per_round


class TestAdversaryBase:
    def test_bind_required(self):
        adversary = SingleTargetAdversary(0.5, 1.0)
        with pytest.raises(RuntimeError):
            adversary.inject(0, AdversaryView(n=4))

    def test_bind_rejects_tiny_system(self):
        with pytest.raises(ValueError):
            SingleTargetAdversary(0.5, 1.0).bind(1)

    def test_injection_respects_budget(self):
        per_round = drive(SingleTargetAdversary(0.5, 1.0), 4, 20)
        counts = [len(r) for r in per_round]
        # Never more than burstiness in a round, and about rho per round on average.
        assert max(counts) <= 1
        assert sum(counts) <= 0.5 * 20 + 1.0 + 1e-9

    def test_packets_carry_injection_metadata(self):
        per_round = drive(SingleTargetAdversary(1.0, 1.0, source=2, destination=3), 5, 3)
        station, packet = per_round[0][0]
        assert station == 2
        assert packet.origin == 2
        assert packet.destination == 3
        assert packet.injected_at == 0


class TestPatterns:
    def test_no_injection(self):
        per_round = drive(NoInjectionAdversary(), 4, 10)
        assert all(len(r) == 0 for r in per_round)

    def test_single_target_validation(self):
        with pytest.raises(ValueError):
            SingleTargetAdversary(0.5, 1.0, source=1, destination=1)
        with pytest.raises(ValueError):
            SingleTargetAdversary(0.5, 1.0, source=9, destination=1).bind(4)

    def test_spray_never_targets_source(self):
        per_round = drive(SingleSourceSprayAdversary(1.0, 2.0, source=1), 5, 30)
        for injections in per_round:
            for station, packet in injections:
                assert station == 1
                assert packet.destination != 1

    def test_round_robin_covers_all_sources(self):
        per_round = drive(RoundRobinAdversary(1.0, 1.0), 4, 20)
        sources = {station for r in per_round for station, _ in r}
        assert sources == {0, 1, 2, 3}

    def test_round_robin_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            RoundRobinAdversary(0.5, 1.0, offset=0)

    def test_alternating_pair_alternates(self):
        per_round = drive(AlternatingPairAdversary(1.0, 1.0), 4, 10)
        destinations = [p.destination for r in per_round for _, p in r]
        assert set(destinations[:2]) == {0, 2}

    def test_alternating_pair_requires_distinct_stations(self):
        with pytest.raises(ValueError):
            AlternatingPairAdversary(1.0, 1.0, source=1, destination_a=1, destination_b=2)

    def test_saturating_fills_every_round(self):
        per_round = drive(SaturatingAdversary(1.0, 1.0), 4, 20)
        assert all(len(r) >= 1 for r in per_round)

    def test_burst_then_idle_is_silent_between_bursts(self):
        adversary = BurstThenIdleAdversary(0.5, 4.0, idle_rounds=4)
        per_round = drive(adversary, 4, 20)
        counts = [len(r) for r in per_round]
        assert counts[0] == 0
        assert max(counts) >= 2  # bursts released in a lump
        assert sum(1 for c in counts if c == 0) >= 12

    def test_burst_then_idle_validation(self):
        with pytest.raises(ValueError):
            BurstThenIdleAdversary(0.5, 1.0, idle_rounds=0)
        with pytest.raises(ValueError):
            BurstThenIdleAdversary(0.5, 1.0, source=1, destination=1)

    def test_group_local_keeps_traffic_inside_block(self):
        adversary = GroupLocalAdversary(1.0, 1.0, group_start=2, group_size=3)
        per_round = drive(adversary, 8, 30)
        block = {2, 3, 4}
        for injections in per_round:
            for station, packet in injections:
                assert station in block
                assert packet.destination in block

    def test_group_local_needs_two_stations(self):
        with pytest.raises(ValueError):
            GroupLocalAdversary(1.0, 1.0, group_size=1)


class TestStochastic:
    def test_uniform_random_is_reproducible(self):
        a = drive(UniformRandomAdversary(0.6, 2.0, seed=42), 6, 50)
        b = drive(UniformRandomAdversary(0.6, 2.0, seed=42), 6, 50)
        pairs_a = [(s, p.destination) for r in a for s, p in r]
        pairs_b = [(s, p.destination) for r in b for s, p in r]
        assert pairs_a == pairs_b

    def test_uniform_random_different_seeds_differ(self):
        a = drive(UniformRandomAdversary(0.9, 3.0, seed=1), 6, 80)
        b = drive(UniformRandomAdversary(0.9, 3.0, seed=2), 6, 80)
        pairs_a = [(s, p.destination) for r in a for s, p in r]
        pairs_b = [(s, p.destination) for r in b for s, p in r]
        assert pairs_a != pairs_b

    def test_hotspot_targets_hot_station(self):
        per_round = drive(HotspotAdversary(1.0, 2.0, hot_station=3, hot_fraction=1.0), 6, 40)
        destinations = [p.destination for r in per_round for _, p in r]
        assert destinations and all(d == 3 for d in destinations)

    def test_hotspot_fraction_validation(self):
        with pytest.raises(ValueError):
            HotspotAdversary(0.5, 1.0, hot_fraction=1.5)

    def test_random_walk_runs_and_respects_self_rule(self):
        per_round = drive(RandomWalkAdversary(0.8, 2.0, seed=3), 6, 60)
        for injections in per_round:
            for station, packet in injections:
                assert station != packet.destination

    def test_seed_appears_in_description(self):
        assert "seed=42" in UniformRandomAdversary(0.5, 1.0, seed=42).describe()
        assert "seed=7" in HotspotAdversary(0.5, 1.0, seed=7).describe()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: UniformRandomAdversary(0.9, 3.0, seed=42),
            lambda: HotspotAdversary(0.9, 3.0, seed=42),
            lambda: RandomWalkAdversary(0.9, 3.0, seed=42),
        ],
    )
    def test_reset_rng_replays_the_demand_stream(self, make):
        adversary = make().bind(6)
        view = AdversaryView(n=6)
        first = [list(adversary.demand(t, 3, view)) for t in range(30)]
        adversary.reset_rng()
        second = [list(adversary.demand(t, 3, view)) for t in range(30)]
        assert first == second

    def test_reset_rng_replays_a_full_run(self):
        # Through inject(), so the leaky-bucket constraint participates:
        # a replay must see the same per-round budgets, not leftover slack.
        adversary = UniformRandomAdversary(0.9, 1.0, seed=5)
        first = drive(adversary, 5, 50)
        adversary.reset_rng()
        second = drive(adversary, 5, 50)
        pairs = lambda rounds: [
            (s, p.destination, p.injected_at) for r in rounds for s, p in r
        ]
        assert pairs(first) == pairs(second)


class TestAdaptive:
    def test_least_on_station_picks_starved_station(self):
        # Station 3 never appears in the schedule's awake sets.
        schedule = PeriodicSchedule(4, [[0, 1], [1, 2], [0, 2]])
        adversary = LeastOnStationAdversary(0.9, 1.0, schedule, horizon=30)
        adversary.bind(4)
        assert adversary.victim == 3

    def test_least_on_pair_picks_never_coscheduled_pair(self):
        # Stations 0 and 3 are never awake together.
        schedule = PeriodicSchedule(4, [[0, 1], [1, 3], [0, 2], [2, 3]])
        adversary = LeastOnPairAdversary(0.9, 1.0, schedule, horizon=40)
        adversary.bind(4)
        assert set(adversary.pair) in ({0, 3}, {3, 0})

    def test_horizon_must_be_positive(self):
        schedule = PeriodicSchedule(3, [[0, 1]])
        with pytest.raises(ValueError):
            LeastOnStationAdversary(0.5, 1.0, schedule, horizon=0)
        with pytest.raises(ValueError):
            LeastOnPairAdversary(0.5, 1.0, schedule, horizon=0)

    def test_adaptive_starvation_targets_least_on_station(self):
        adversary = AdaptiveStarvationAdversary(1.0, 1.0)
        adversary.bind(4)
        view = AdversaryView(n=4)
        # Station 3 has been on the least.
        for awake in [(0, 1, 2), (0, 1, 2), (0, 1, 3)]:
            view.observe_round(awake)
        injections = adversary.inject(0, view)
        assert injections
        for station, packet in injections:
            assert packet.destination == 3
            assert station != 3


class TestTraces:
    def test_record_and_replay_round_trip(self):
        inner = SingleTargetAdversary(0.5, 2.0)
        recorder = RecordingAdversary(inner)
        original = drive(recorder, 4, 30)
        original_pairs = [
            (t, s, p.destination)
            for t, injections in enumerate(original)
            for s, p in injections
        ]
        replay = ReplayAdversary(0.5, 2.0, recorder.trace)
        replayed = drive(replay, 4, 30)
        replayed_pairs = [
            (t, s, p.destination)
            for t, injections in enumerate(replayed)
            for s, p in injections
        ]
        assert original_pairs == replayed_pairs

    def test_trace_conformance_check(self):
        trace = InjectionTrace.from_entries([(0, 0, 1), (0, 0, 1), (0, 0, 1)])
        assert trace.conforms_to(1.0, 2.0)
        assert not trace.conforms_to(0.5, 1.0)

    def test_replay_rejects_nonconforming_trace(self):
        trace = InjectionTrace.from_entries([(0, 0, 1)] * 10)
        with pytest.raises(ValueError):
            ReplayAdversary(0.1, 1.0, trace).bind(4)

    def test_replay_rejects_unknown_stations(self):
        trace = InjectionTrace.from_entries([(0, 7, 1)])
        with pytest.raises(ValueError):
            ReplayAdversary(1.0, 1.0, trace).bind(4)

    def test_per_round_counts_padding(self):
        trace = InjectionTrace.from_entries([(2, 0, 1)])
        assert trace.per_round_counts(5) == [0, 0, 1, 0, 0]
