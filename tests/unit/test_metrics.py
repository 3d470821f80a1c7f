"""Unit tests for the metrics collector, stability assessment and summaries."""

import numpy as np
import pytest

from repro.channel.feedback import ChannelOutcome
from repro.channel.packet import Packet, PacketFactory
from repro.metrics import (
    DeliveryError,
    MetricsCollector,
    RunSummary,
    assess_stability,
)


class TestMetricsCollector:
    def test_injection_and_delivery_flow(self, make_packet):
        c = MetricsCollector()
        p = make_packet(2, injected_at=3)
        c.record_injection(p, 3)
        c.record_delivery(p, 2, 10)
        assert c.injected_count == 1
        assert c.delivered_count == 1
        assert c.pending_count == 0
        assert c.delays == [7]
        assert c.max_delay() == 7

    def test_duplicate_injection_rejected(self, make_packet):
        c = MetricsCollector()
        p = make_packet(1)
        c.record_injection(p, 0)
        with pytest.raises(DeliveryError):
            c.record_injection(p, 1)

    def test_delivery_to_wrong_station_rejected(self, make_packet):
        c = MetricsCollector()
        p = make_packet(2)
        c.record_injection(p, 0)
        with pytest.raises(DeliveryError):
            c.record_delivery(p, 1, 5)

    def test_double_delivery_rejected(self, make_packet):
        c = MetricsCollector()
        p = make_packet(2)
        c.record_injection(p, 0)
        c.record_delivery(p, 2, 5)
        with pytest.raises(DeliveryError):
            c.record_delivery(p, 2, 6)

    def test_delivery_of_uninjected_packet_rejected(self, make_packet):
        c = MetricsCollector()
        with pytest.raises(DeliveryError):
            c.record_delivery(make_packet(1), 1, 0)

    def test_round_statistics(self, make_packet):
        c = MetricsCollector()
        c.record_round(0, [1, 0, 2], 2, ChannelOutcome.HEARD)
        c.record_round(1, [0, 0, 5], 3, ChannelOutcome.SILENCE)
        assert c.total_queue_series == [3, 5]
        assert c.max_queue() == 5
        assert c.per_station_max_queue == [1, 0, 5]
        assert c.energy_series == [2, 3]
        assert c.total_energy() == 5
        assert c.energy_per_round() == pytest.approx(2.5)
        assert c.outcome_counts[ChannelOutcome.HEARD] == 1

    def test_pending_age_contributes_to_latency(self, make_packet):
        c = MetricsCollector()
        p = make_packet(1, injected_at=0)
        c.record_injection(p, 0)
        for t in range(10):
            c.record_round(t, [1, 0], 1, ChannelOutcome.SILENCE)
        assert c.max_delay() == 0
        assert c.max_pending_age() == 10
        assert c.observed_latency() == 10
        assert c.undelivered_packets() == [p]

    def test_ratios_and_throughput(self, make_packet):
        c = MetricsCollector()
        a, b = make_packet(1), make_packet(1)
        c.record_injection(a, 0)
        c.record_injection(b, 0)
        c.record_delivery(a, 1, 2)
        for t in range(4):
            c.record_round(t, [0, 0], 2, ChannelOutcome.SILENCE)
        assert c.delivery_ratio() == pytest.approx(0.5)
        assert c.throughput() == pytest.approx(0.25)
        assert c.energy_per_delivery() == pytest.approx(8.0)

    def test_energy_per_delivery_with_no_deliveries(self):
        c = MetricsCollector()
        c.record_round(0, [0], 1, ChannelOutcome.SILENCE)
        assert c.energy_per_delivery() == float("inf")

    def test_summary_round_trip(self, make_packet):
        c = MetricsCollector()
        p = make_packet(1, injected_at=0)
        c.record_injection(p, 0)
        c.record_delivery(p, 1, 1)
        for t in range(40):
            c.record_round(t, [0, 0], 2, ChannelOutcome.SILENCE)
        summary = c.summary("demo")
        assert isinstance(summary, RunSummary)
        assert summary.label == "demo"
        assert summary.rounds == 40
        assert summary.injected == 1 and summary.delivered == 1
        assert summary.stable
        as_dict = summary.as_dict()
        assert as_dict["max_queue"] == summary.max_queue
        assert "STABLE" in summary.format_row()
        assert "max queue" in RunSummary.header()

    @pytest.mark.parametrize("rounds", [0, 1, 57])
    def test_summary_reads_each_statistic_off_the_series(self, rounds):
        """The summary converts each series once; every value equals the
        plain-list definition and the single-statistic method, as a
        Python int or float."""
        c = MetricsCollector()
        factory = PacketFactory()
        for t in range(rounds):
            packet = factory.make(1, t, 0)
            c.record_injection(packet, t)
            if t % 3:
                c.record_delivery(packet, 1, t + t % 7)
            c.record_round(t, [t % 5, t % 4], 1 + t % 3, ChannelOutcome.SILENCE)
        summary = c.summary()
        energy, delays, queue = c.energy_series, c.delays, c.total_queue_series
        expected = {
            "max_queue": max(queue, default=0),
            "max_delay": max(delays, default=0),
            "mean_delay": float(np.mean(delays)) if delays else 0.0,
            "energy_per_round": float(np.mean(energy)) if energy else 0.0,
            "max_energy": max(energy, default=0),
            "energy_per_delivery": (
                sum(energy) / c.delivered_count if c.delivered_count else float("inf")
            ),
        }
        for name, value in expected.items():
            assert getattr(summary, name) == value, name
            assert type(getattr(summary, name)) is type(value), name
        assert summary.max_queue == c.max_queue()
        assert summary.max_delay == c.max_delay()
        assert summary.observed_latency == c.observed_latency()
        assert summary.mean_delay == c.mean_delay()
        assert summary.energy_per_round == c.energy_per_round()
        assert summary.energy_per_delivery == c.energy_per_delivery()
        assert type(c.total_energy()) is int and c.total_energy() == sum(energy)


class TestPendingLedger:
    """``records`` holds the undelivered packets, nothing else."""

    def test_delivery_empties_the_ledger(self, make_packet):
        c = MetricsCollector()
        p = make_packet(2)
        c.record_injection(p, 0)
        assert c.records == {p.packet_id: (p, 0)}
        c.record_delivery(p, 2, 4)
        assert c.records == {} and c.pending_count == 0
        with pytest.raises(DeliveryError, match="not pending"):
            c.record_delivery(p, 2, 5)
        assert c.delivered_count == 1 and c.delays == [4]

    def test_delivery_of_a_never_injected_packet_raises(self, make_packet):
        c = MetricsCollector()
        queued = make_packet(1)
        c.record_injection(queued, 0)
        with pytest.raises(DeliveryError, match="not pending"):
            c.record_delivery(make_packet(1), 1, 3)
        assert c.records == {queued.packet_id: (queued, 0)}
        assert c.delivered_count == 0

    def test_wrong_station_leaves_the_packet_pending(self, make_packet):
        c = MetricsCollector()
        p = make_packet(2)
        c.record_injection(p, 0)
        with pytest.raises(DeliveryError, match="destination"):
            c.record_delivery(p, 1, 3)
        assert c.records == {p.packet_id: (p, 0)}

    def test_injecting_a_pending_id_raises(self, make_packet):
        c = MetricsCollector()
        p = make_packet(1)
        c.record_injection(p, 0)
        with pytest.raises(DeliveryError, match="pending"):
            c.record_injection(p, 1)
        assert c.injected_count == 1 and c.records == {p.packet_id: (p, 0)}

    def test_reinjecting_a_delivered_id_is_accepted(self, make_packet):
        # The narrowed check: delivered ids leave the ledger, so nothing
        # remembers them.
        c = MetricsCollector()
        p = make_packet(1)
        c.record_injection(p, 0)
        c.record_delivery(p, 1, 2)
        c.record_injection(p, 5)
        assert c.records == {p.packet_id: (p, 5)}
        assert (c.injected_count, c.delivered_count) == (2, 1)

    def test_undelivered_packets_in_round_then_id_order(self):
        def packet(packet_id, round_no):
            return Packet(
                destination=1, injected_at=round_no, origin=0, packet_id=packet_id
            )

        late, early_high, early_low, gone = (
            packet(1, 3), packet(9, 0), packet(4, 0), packet(2, 0)
        )
        c = MetricsCollector()
        for p in (late, early_high, gone, early_low):
            c.record_injection(p, p.injected_at)
        c.record_delivery(gone, 1, 1)
        assert c.undelivered_packets() == [early_low, early_high, late]

    def test_max_pending_age_reads_only_pending_packets(self, make_packet):
        c = MetricsCollector()
        old, young = make_packet(1, injected_at=0), make_packet(1, injected_at=6)
        c.record_injection(old, 0)
        c.record_injection(young, 6)
        c.record_delivery(old, 1, 7)
        for t in range(10):
            c.record_round(t, [1, 0], 1, ChannelOutcome.SILENCE)
        assert c.max_pending_age() == 4  # the delivered packet's age is gone
        assert c.observed_latency() == 7  # its delay still counts


class TestBatchBookkeeping:
    """The batch calls a lowered span uses equal the per-packet calls,
    also in what they leave behind when one raises."""

    @staticmethod
    def _packets(count, start=0):
        return PacketFactory(start).make_many(
            [1 + k % 3 for k in range(count)], list(range(count)), [0] * count
        )

    def test_record_injections_equals_per_packet_calls(self):
        packets = self._packets(6)
        rounds = [p.injected_at for p in packets]
        batched, one_by_one = MetricsCollector(), MetricsCollector()
        batched.record_injections(packets, rounds)
        for packet, round_no in zip(packets, rounds):
            one_by_one.record_injection(packet, round_no)
        assert list(batched.records.items()) == list(one_by_one.records.items())
        assert batched.injected_count == one_by_one.injected_count == 6

    @pytest.mark.parametrize("repeat_in_batch", [False, True])
    def test_record_injections_rejects_a_pending_id(self, repeat_in_batch):
        early, *batch = self._packets(4)
        c = MetricsCollector()
        c.record_injection(early, 0)
        # The offender is the third packet: a pending id, or the batch's
        # first packet again.
        batch.insert(2, batch[0] if repeat_in_batch else early)
        with pytest.raises(DeliveryError, match="injected while pending"):
            c.record_injections(batch, [7] * len(batch))
        assert c.records == {
            early.packet_id: (early, 0),
            batch[0].packet_id: (batch[0], 7),
            batch[1].packet_id: (batch[1], 7),
        }
        assert c.injected_count == 3 == len(c.records) == c.pending_count

    def test_record_deliveries_equals_per_packet_calls(self):
        packets = self._packets(6)
        batched, one_by_one = MetricsCollector(), MetricsCollector()
        for c in (batched, one_by_one):
            c.record_injections(packets, [p.injected_at for p in packets])
        delivered = [packets[4], packets[0], packets[2]]
        stations = [p.destination for p in delivered]
        rounds = [9, 10, 12]
        batched.record_deliveries(delivered, stations, rounds)
        for args in zip(delivered, stations, rounds):
            one_by_one.record_delivery(*args)
        assert batched.delays == one_by_one.delays == [5, 10, 10]
        assert batched.delivered_count == one_by_one.delivered_count == 3
        assert list(batched.records.items()) == list(one_by_one.records.items())
        assert len(batched.records) == batched.pending_count == 3

    @pytest.mark.parametrize("offender", ["never injected", "delivered twice"])
    def test_record_deliveries_rejects_an_id_that_is_not_pending(self, offender):
        a, b, c_, d = self._packets(4)
        stray = self._packets(1, start=100)[0]
        c = MetricsCollector()
        c.record_injections([a, b, c_, d], [0, 1, 2, 3])
        # The third delivery names a packet that is not pending by then.
        bad = stray if offender == "never injected" else a
        batch = [a, b, bad, c_]
        with pytest.raises(DeliveryError, match="not pending"):
            c.record_deliveries(batch, [p.destination for p in batch], [5, 6, 7, 8])
        assert c.delivered_count == 2 and c.delays == [5, 5]
        assert c.records == {c_.packet_id: (c_, 2), d.packet_id: (d, 3)}
        assert len(c.records) == c.pending_count == 2

    def test_record_deliveries_rejects_a_wrong_station(self):
        a, b, c_ = self._packets(3)
        c = MetricsCollector()
        c.record_injections([a, b, c_], [0, 1, 2])
        stations = [a.destination, b.destination + 1, c_.destination]
        with pytest.raises(DeliveryError, match="destination"):
            c.record_deliveries([a, b, c_], stations, [4, 5, 6])
        assert c.delivered_count == 1 and c.delays == [4]
        assert c.records == {b.packet_id: (b, 1), c_.packet_id: (c_, 2)}
        assert len(c.records) == c.pending_count == 2


class TestStability:
    def test_flat_series_is_stable(self):
        verdict = assess_stability(np.full(500, 7))
        assert verdict.stable
        assert verdict.growth_rate == pytest.approx(0.0, abs=1e-9)

    def test_linear_growth_is_unstable(self):
        verdict = assess_stability(np.arange(500))
        assert not verdict.stable
        assert verdict.growth_rate > 0.5
        assert verdict.drifting

    def test_bounded_oscillation_is_stable(self):
        t = np.arange(2000)
        series = 50 + 40 * np.sin(t / 50.0)
        assert assess_stability(series).stable

    def test_short_series_defaults_to_stable(self):
        assert assess_stability(np.arange(10)).stable

    def test_empty_series(self):
        verdict = assess_stability(np.array([]))
        assert verdict.stable and verdict.peak == 0

    def test_plateau_after_burst_is_stable(self):
        series = np.concatenate([np.linspace(0, 300, 200), np.full(800, 300)])
        assert assess_stability(series).stable

    def test_growth_tolerance_parameter(self):
        series = np.arange(400) * 0.02
        assert not assess_stability(series, growth_tolerance=0.001).stable
        assert assess_stability(series, growth_tolerance=0.1).stable
