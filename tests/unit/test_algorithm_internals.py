"""Fine-grained behavioural tests of algorithm internals via execution traces.

These tests pin down protocol details that the end-to-end tests cannot
distinguish: Orchestra's season structure, baton movement and teach
tuples, Count-Hop's substage structure and Deliver offsets, k-Cycle's
connector relaying, and Adjust-Window's gossip encoding.
"""

import pytest

from repro.adversary import (
    NoInjectionAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from repro.algorithms import CountHop, KCycle, Orchestra
from repro.algorithms.adjust_window import WindowLayout, _GossipRecord
from repro.channel.feedback import ChannelOutcome
from repro.sim import run_simulation


class TestOrchestraSeasons:
    def test_conductor_rotates_in_name_order_when_nobody_is_big(self):
        n = 5
        result = run_simulation(
            Orchestra(n), NoInjectionAdversary(), 3 * n * (n - 1), record_trace=True
        )
        season_length = n - 1
        for event in result.trace:
            expected_conductor = (event.round_no // season_length) % n
            assert event.message is not None
            assert event.message.sender == expected_conductor

    def test_learner_is_awake_with_the_conductor(self):
        n = 5
        result = run_simulation(
            Orchestra(n), NoInjectionAdversary(), 2 * n * (n - 1), record_trace=True
        )
        season_length = n - 1
        for event in result.trace:
            conductor = (event.round_no // season_length) % n
            musicians = [s for s in range(n) if s != conductor]
            learner = musicians[event.round_no % season_length]
            assert conductor in event.awake
            assert learner in event.awake

    def test_heavy_single_source_keeps_the_baton(self):
        """A station flooded at rate 1 eventually conducts for consecutive seasons."""
        n = 5
        rounds = 4000
        result = run_simulation(
            Orchestra(n),
            SingleTargetAdversary(1.0, 2.0, source=3, destination=1),
            rounds,
            record_trace=True,
        )
        season_length = n - 1
        conductors = [
            result.trace[s * season_length].message.sender
            for s in range(rounds // season_length)
        ]
        # Station 3 must conduct at least two seasons in a row at some point
        # (it becomes big and keeps the baton).
        repeats = any(
            conductors[i] == conductors[i + 1] == 3 for i in range(len(conductors) - 1)
        )
        assert repeats
        assert result.stable

    def test_packets_delivered_only_by_their_origin_conductor(self):
        """Orchestra routes directly: every delivery is transmitted by the packet's origin."""
        result = run_simulation(
            Orchestra(5),
            SingleTargetAdversary(0.5, 1.0, source=2, destination=4),
            2000,
            record_trace=True,
        )
        for event in result.trace:
            if event.delivered_packet is not None:
                assert event.message.sender == event.delivered_packet.origin

    @pytest.mark.parametrize(
        "adversary",
        [
            UniformRandomAdversary(0.9, 2.0, seed=3),
            SingleTargetAdversary(1.0, 2.0, source=3, destination=1),
        ],
        ids=["uniform", "big-conductor"],
    )
    def test_taught_slots_are_the_next_seasons_sends_and_none_repeats(
        self, adversary
    ):
        """Each learner is taught exactly the slots in which its conductor's
        next season sends it a packet, and no packet is sent twice."""
        n = 5
        result = run_simulation(Orchestra(n), adversary, 4000, record_trace=True)
        season_length = n - 1
        seasons: dict[int, list] = {}
        for start in range(0, len(result.trace), season_length):
            season = result.trace[start : start + season_length]
            seasons.setdefault(season[0].message.sender, []).append(season)
        taught = 0
        for runs in seasons.values():
            for season, next_season in zip(runs, runs[1:]):
                for event in season:
                    learner = event.message.control["learner"]
                    sent = tuple(
                        slot
                        for slot, later in enumerate(next_season)
                        if later.message.packet is not None
                        and later.message.packet.destination == learner
                    )
                    assert event.message.control["teach"] == sent
                    taught += len(sent)
        assert taught > 1000
        sent_ids = [
            event.message.packet.packet_id
            for event in result.trace
            if event.message.packet is not None
        ]
        assert len(sent_ids) == len(set(sent_ids))


class TestCountHopStages:
    def test_coordinator_listens_through_report_substage(self):
        n = 5
        result = run_simulation(
            CountHop(n),
            SingleTargetAdversary(0.4, 1.0, source=2, destination=3),
            600,
            record_trace=True,
        )
        # After the warm-up (n rounds), the coordinator (station 0) is awake
        # in every Report and Assign round.  Deliver substages vary, so just
        # check a sample of early rounds in the first stage.
        for event in result.trace[n : n + 2 * n]:
            assert 0 in event.awake

    def test_never_more_than_two_awake_and_deliveries_direct(self):
        result = run_simulation(
            CountHop(6),
            SingleTargetAdversary(0.5, 2.0, source=3, destination=5),
            3000,
            record_trace=True,
        )
        for event in result.trace:
            assert event.energy <= 2
            if event.delivered_packet is not None:
                assert event.message.sender == event.delivered_packet.origin
                assert event.delivered_packet.destination in event.awake

    def test_light_messages_carry_counts_or_offsets(self):
        result = run_simulation(
            CountHop(5),
            SingleTargetAdversary(0.4, 1.0),
            400,
            record_trace=True,
        )
        light = [e.message for e in result.trace if e.message and e.message.is_light]
        assert light, "Count-Hop coordination uses light messages"
        for message in light:
            assert ("count" in message.control) or ("offset" in message.control)

    def test_assigned_offsets_are_the_deliver_slots_each_station_sends_in(self):
        """The coordinator sends first, then each worker, in name order,
        sends its reported count in consecutive Deliver slots from its
        assigned offset; the receiver is assigned the stage total."""
        n = 5
        result = run_simulation(
            CountHop(n),
            UniformRandomAdversary(0.5, 2.0, seed=4),
            3000,
            record_trace=True,
        )
        trace = result.trace
        start, receiver, stages = n, 0, 0
        while start + 2 * n <= len(trace):
            report = [e.message for e in trace[start : start + n] if e.message]
            assign = [e.message for e in trace[start + n : start + 2 * n] if e.message]
            counts = {m.sender: m.control["count"] for m in report}
            offsets = {m.intended_receiver: m.control["offset"] for m in assign}
            total = assign[0].control["total"]
            deliver_at = start + 2 * n
            if deliver_at + total > len(trace):
                break
            senders = [
                e.message.sender if e.message else None
                for e in trace[deliver_at : deliver_at + total]
            ]
            own = total - sum(counts.values())
            if receiver == 0:
                assert own == 0
            else:
                assert offsets[receiver] == total
                assert senders[:own] == [0] * own
            offset = own
            for station in range(1, n):
                if station != receiver:
                    count = counts.get(station, 0)
                    assert offsets[station] == offset
                    assert senders[offset : offset + count] == [station] * count
                    assert senders.count(station) == count
                    offset += count
            start, receiver = deliver_at + total, (receiver + 1) % n
            stages += 1
        assert stages > 20


class TestKCycleRelaying:
    def test_cross_group_packets_are_relayed_by_connectors(self):
        n, k = 9, 3
        algo = KCycle(n, k)
        result = run_simulation(
            KCycle(n, k),
            SingleTargetAdversary(0.05, 1.0, source=0, destination=5),
            4000,
            record_trace=True,
        )
        # Destination 5 is not in station 0's group, so at least one heard
        # transmission must come from a station other than the origin
        # (i.e. a relay forwarded it).
        relayed = [
            e
            for e in result.trace
            if e.message is not None
            and e.message.packet is not None
            and e.message.packet.origin == 0
            and e.message.sender != 0
        ]
        assert relayed, "cross-group traffic must pass through relays"
        assert result.summary.delivered > 0

    def test_awake_set_is_always_one_group(self):
        algo = KCycle(9, 3)
        groups = {frozenset(g) for g in algo.groups}
        result = run_simulation(
            KCycle(9, 3), SingleTargetAdversary(0.1, 1.0), 500, record_trace=True
        )
        for event in result.trace:
            assert frozenset(event.awake) in groups


class TestAdjustWindowGossipEncoding:
    def test_gossip_record_roundtrip(self):
        layout = WindowLayout.for_window(4, 32768)
        record = _GossipRecord(large=True, over_l=False)
        numbers = (1234, 56, 7)
        # Encode the three numbers exactly as the controller does.
        bits = []
        for value in numbers:
            for position in range(layout.lgL):
                shift = layout.lgL - 1 - position
                bits.append((value >> shift) & 1)
        record.bits = bits
        assert record.numbers(layout.lgL) == numbers

    def test_gossip_record_pads_missing_bits_with_zeros(self):
        record = _GossipRecord(large=True)
        record.bits = [1]  # only the first (most significant) bit observed
        size, to_me, below_me = record.numbers(4)
        assert size == 0b1000
        assert to_me == 0 and below_me == 0
