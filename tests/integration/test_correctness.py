"""Integration tests: end-to-end correctness of every routing algorithm.

The engine already enforces the two hard correctness conditions (a packet
is only ever delivered to its destination, and at most once); these tests
additionally check *liveness* — injected traffic is actually delivered —
and that every algorithm honours its declared energy cap and message
discipline while doing so.
"""

import pytest

from repro.adversary import (
    BurstThenIdleAdversary,
    RoundRobinAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from repro.algorithms import AdjustWindow, CountHop, KClique, KCycle, KSubsets, Orchestra
from repro.protocols import MoveBigToFront, OldFirstRoundRobinWithholding, RoundRobinWithholding
from repro.sim import run_simulation

# (name, algorithm factory, a comfortably-stable injection rate, rounds)
CONFIGS = [
    ("orchestra", lambda: Orchestra(6), 0.6, 4000),
    ("count-hop", lambda: CountHop(6), 0.5, 5000),
    ("k-cycle", lambda: KCycle(9, 3), 0.12, 6000),
    ("k-clique", lambda: KClique(8, 4), 0.02, 12000),
    ("k-subsets", lambda: KSubsets(5, 2), 0.08, 10000),
    ("rrw", lambda: RoundRobinWithholding(6), 0.5, 3000),
    ("of-rrw", lambda: OldFirstRoundRobinWithholding(6), 0.5, 3000),
    ("mbtf", lambda: MoveBigToFront(6), 0.5, 3000),
]


@pytest.mark.parametrize("name,factory,rho,rounds", CONFIGS, ids=[c[0] for c in CONFIGS])
class TestLivenessAndSafety:
    def test_most_traffic_delivered_and_cap_respected(self, name, factory, rho, rounds):
        algorithm = factory()
        result = run_simulation(
            algorithm, UniformRandomAdversary(rho, 2.0, seed=13), rounds
        )
        # Engine enforced the energy cap (it would have raised otherwise);
        # double-check the recorded maximum as well.
        assert result.summary.max_energy <= algorithm.energy_cap
        assert result.summary.delivered > 0
        assert result.summary.delivery_ratio > 0.6
        assert result.stable

    def test_single_target_traffic(self, name, factory, rho, rounds):
        algorithm = factory()
        result = run_simulation(
            algorithm, SingleTargetAdversary(rho, 2.0, source=1, destination=4), rounds
        )
        assert result.summary.delivered > 0
        assert result.stable

    def test_bursty_traffic_is_absorbed(self, name, factory, rho, rounds):
        algorithm = factory()
        adversary = BurstThenIdleAdversary(rho, 6.0, idle_rounds=40, source=2, destination=3)
        result = run_simulation(algorithm, adversary, rounds)
        assert result.summary.delivery_ratio > 0.5
        assert result.stable


class TestDrainAfterInjectionStops:
    """After traffic stops, queues must drain completely (every packet delivered)."""

    @pytest.mark.parametrize(
        "name,factory,drain_rounds",
        [
            ("orchestra", lambda: Orchestra(5), 4000),
            ("count-hop", lambda: CountHop(5), 4000),
            ("k-cycle", lambda: KCycle(7, 3), 6000),
            ("k-clique", lambda: KClique(6, 2), 15000),
            ("rrw", lambda: RoundRobinWithholding(5), 2000),
            ("mbtf", lambda: MoveBigToFront(5), 2000),
        ],
        ids=["orchestra", "count-hop", "k-cycle", "k-clique", "rrw", "mbtf"],
    )
    def test_everything_eventually_delivered(self, name, factory, drain_rounds):
        from repro.adversary import InjectionTrace, ReplayAdversary

        # A short burst of traffic at the start, then silence.
        entries = []
        for t in range(20):
            entries.append((t, (t % 4) + 1, (t % 3) + 2 if ((t % 3) + 2) != ((t % 4) + 1) else 0))
        trace = InjectionTrace.from_entries(entries)
        adversary = ReplayAdversary(1.0, 1.0, trace)
        result = run_simulation(factory(), adversary, drain_rounds)
        assert result.summary.injected == len(entries)
        assert result.summary.delivered == result.summary.injected
        assert result.collector.undelivered_packets() == []


class TestPlainPacketDiscipline:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: KCycle(9, 3),
            lambda: KClique(8, 4),
            lambda: AdjustWindow(3),
            lambda: RoundRobinWithholding(6),
            lambda: OldFirstRoundRobinWithholding(6),
        ],
        ids=["k-cycle", "k-clique", "adjust-window", "rrw", "of-rrw"],
    )
    def test_plain_packet_algorithms_send_no_control_bits(self, factory):
        algorithm = factory()
        assert algorithm.properties().plain_packet
        result = run_simulation(
            algorithm,
            RoundRobinAdversary(0.05, 1.0),
            3000,
            record_trace=True,
        )
        for event in result.trace:
            if event.message is not None:
                assert event.message.packet is not None, "plain-packet algorithms never send light messages"
                assert not event.message.control

    @pytest.mark.parametrize(
        "factory",
        [lambda: RoundRobinWithholding(6), lambda: OldFirstRoundRobinWithholding(6)],
        ids=["rrw", "of-rrw"],
    )
    def test_ring_baselines_never_set_the_big_bit(self, factory):
        """RRW and OF-RRW share MBTF's ring but not its big bit: a station
        holding more than MBTF's default threshold (n) still sends plain
        packets."""
        result = run_simulation(
            factory(),
            BurstThenIdleAdversary(0.5, 8.0, idle_rounds=50),
            2000,
            record_trace=True,
        )
        assert max(result.collector.per_station_max_queue) > 6
        for event in result.trace:
            if event.message is not None:
                assert not event.message.control
