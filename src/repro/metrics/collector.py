"""Run-time metrics collection and correctness bookkeeping.

The collector is fed by the engine:

* every injection (packet + round),
* every delivery (packet + consuming station + round),
* once per round, the per-station queue sizes, the energy spent and the
  channel outcome.

It verifies the correctness conditions of Section 2 — every delivery goes
to the packet's destination, and no packet is delivered more than once —
and exposes the two performance measures the paper uses: the **queue
size** (total packets stored in a round) and **packet delay / latency**
(delivery round minus injection round), plus energy statistics.

Per-packet state lives only while a packet is queued: the ledger
(:attr:`MetricsCollector.records`) holds the undelivered packets, so a
collector — and every result, cache payload and remote-cache upload that
carries one — scales with the backlog, not with the horizon.  A delivery
pops its packet's entry, which is all the exactly-once check needs: an
id that is not pending was either delivered already or never injected.
The one check this cannot keep is against re-injecting an id *after*
its delivery, which is accepted (ids are not monotone in injection
order, so no high-water mark can stand in for the delivered set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, itemgetter, ne, sub
from typing import Sequence

import numpy as np

from ..channel.feedback import ChannelOutcome
from ..channel.packet import Packet
from .summary import RunSummary

__all__ = ["DeliveryError", "MetricsCollector"]

_packet_id = attrgetter("packet_id")
_destination = attrgetter("destination")
_injected_round = itemgetter(1)


def _array(values: list[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _peak(series: np.ndarray) -> int:
    """A series' maximum, 0 for an empty one."""
    return int(series.max()) if series.size else 0


def _mean(series: np.ndarray) -> float:
    """A series' mean, 0.0 for an empty one."""
    return float(series.mean()) if series.size else 0.0


def _total(series: np.ndarray) -> int:
    """A series' sum."""
    return int(series.sum())


class DeliveryError(RuntimeError):
    """A correctness violation: wrong destination, a delivery of a packet
    that is not pending, or an injection of a pending packet's id."""


@dataclass
class MetricsCollector:
    """Accumulates per-round statistics and the pending-packet ledger.

    These raise :class:`DeliveryError`: a delivery to a station other
    than the packet's destination, a delivery of an id that is not in
    the ledger (delivered before or never injected), and an injection of
    an id that is still pending.  An id injected again after its
    delivery is accepted.
    """

    #: Ledger of undelivered packets, ``packet_id → (packet, injection
    #: round)``: added on injection, popped on delivery, so its size is
    #: the backlog (``len(records) == pending_count``).
    records: dict[int, tuple[Packet, int]] = field(default_factory=dict)
    total_queue_series: list[int] = field(default_factory=list)
    per_station_max_queue: list[int] = field(default_factory=list)
    energy_series: list[int] = field(default_factory=list)
    outcome_counts: dict[ChannelOutcome, int] = field(default_factory=dict)
    delays: list[int] = field(default_factory=list)
    injected_count: int = 0
    delivered_count: int = 0

    # -- engine-facing API ---------------------------------------------------
    def record_injection(self, packet: Packet, round_no: int) -> None:
        """Register an adversarial injection (rejects a still-pending id)."""
        if packet.packet_id in self.records:
            raise DeliveryError(f"packet {packet.packet_id} injected while pending")
        self.records[packet.packet_id] = (packet, round_no)
        self.injected_count += 1

    def record_delivery(self, packet: Packet, station: int, round_no: int) -> None:
        """Register a delivery, enforcing exactly-once and right-destination."""
        if station != packet.destination:
            raise DeliveryError(
                f"packet {packet.packet_id} consumed by station {station}, "
                f"but its destination is {packet.destination}"
            )
        entry = self.records.pop(packet.packet_id, None)
        if entry is None:
            raise DeliveryError(
                f"packet {packet.packet_id} delivered in round {round_no} but "
                "not pending (delivered before or never injected)"
            )
        self.delivered_count += 1
        self.delays.append(round_no - entry[1])

    def record_injections(
        self, packets: Sequence[Packet], rounds: Sequence[int]
    ) -> None:
        """Register ``packets[k]`` injected in ``rounds[k]``, for every k.

        The same as :meth:`record_injection` on each pair in order, in
        C-level passes.  A batch holding a still-pending id, or one id
        twice, is replayed one packet at a time, so the error names the
        same packet and leaves the same ledger as the per-packet calls.
        """
        records = self.records
        batch = dict(zip(map(_packet_id, packets), zip(packets, rounds)))
        if len(batch) < len(packets) or not records.keys().isdisjoint(batch):
            for packet, round_no in zip(packets, rounds):
                self.record_injection(packet, round_no)
            return
        records.update(batch)
        self.injected_count += len(batch)

    def record_deliveries(
        self,
        packets: Sequence[Packet],
        stations: Sequence[int],
        rounds: Sequence[int],
    ) -> None:
        """Register ``packets[k]`` consumed by ``stations[k]`` in ``rounds[k]``.

        The same as :meth:`record_delivery` on each triple in order, in
        C-level passes.  A batch with a wrong destination or an id that
        is not pending (including one delivered twice in the batch) is
        put back and replayed one packet at a time, so the error names
        the same packet and leaves ``delivered_count``, ``delays`` and
        the ledger at the last good delivery, with ``len(records) ==
        pending_count``.
        """
        records = self.records
        if not any(map(ne, stations, map(_destination, packets))):
            entries = list(map(records.pop, map(_packet_id, packets), repeat(None)))
            if all(entries):
                self.delivered_count += len(entries)
                self.delays.extend(map(sub, rounds, map(_injected_round, entries)))
                return
            for packet, entry in zip(packets, entries):
                if entry is not None:
                    records[packet.packet_id] = entry
        for packet, station, round_no in zip(packets, stations, rounds):
            self.record_delivery(packet, station, round_no)

    def record_round(
        self,
        round_no: int,
        queue_sizes: list[int],
        awake_count: int,
        outcome: ChannelOutcome,
    ) -> None:
        """Register the end-of-round system state (reference loop).

        The reference engine hands over every station's queue size each
        round.  The kernel and block engines instead size the per-station
        maxima with :meth:`begin_stations` and write the collector's
        lists themselves: the maxima of the stations whose queue can have
        changed, and the series one round or one batch at a time.  Both
        paths accumulate identical statistics.
        """
        self.begin_stations(len(queue_sizes))
        for i, q in enumerate(queue_sizes):
            if q > self.per_station_max_queue[i]:
                self.per_station_max_queue[i] = q
        self.total_queue_series.append(int(sum(queue_sizes)))
        self.energy_series.append(awake_count)
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1

    def begin_stations(self, n: int) -> None:
        """Size the per-station maxima before incremental updates start."""
        if not self.per_station_max_queue:
            self.per_station_max_queue = [0] * n

    # -- derived statistics ----------------------------------------------------
    @property
    def rounds_observed(self) -> int:
        """Rounds recorded so far: one total-queue entry per round."""
        return len(self.total_queue_series)

    @property
    def pending_count(self) -> int:
        """Packets injected but not yet delivered."""
        return self.injected_count - self.delivered_count

    def max_queue(self) -> int:
        """Maximum total number of queued packets observed in any round."""
        return _peak(self.queue_series_array())

    def max_delay(self) -> int:
        """Maximum delay among *delivered* packets (0 when none delivered)."""
        return _peak(_array(self.delays))

    def max_pending_age(self) -> int:
        """Age (rounds since injection) of the oldest still-undelivered packet."""
        if self.rounds_observed == 0:
            return 0
        now = self.rounds_observed
        return max((now - at for _, at in self.records.values()), default=0)

    def observed_latency(self) -> int:
        """Latency measure of the execution.

        The latency of an execution is the maximum packet delay; packets
        still queued at the end contribute their current age, which lower
        bounds their eventual delay.
        """
        return self._latency(self.max_delay())

    def _latency(self, max_delay: int) -> int:
        return max(max_delay, self.max_pending_age())

    def mean_delay(self) -> float:
        """Average delay of delivered packets."""
        return _mean(_array(self.delays))

    def delivery_ratio(self) -> float:
        """Fraction of injected packets delivered by the end of the run."""
        if self.injected_count == 0:
            return 1.0
        return self.delivered_count / self.injected_count

    def throughput(self) -> float:
        """Delivered packets per round."""
        if self.rounds_observed == 0:
            return 0.0
        return self.delivered_count / self.rounds_observed

    def total_energy(self) -> int:
        """Total station-rounds of energy spent."""
        return _total(_array(self.energy_series))

    def energy_per_round(self) -> float:
        """Average number of awake stations per round."""
        return _mean(_array(self.energy_series))

    def energy_per_delivery(self) -> float:
        """Station-rounds spent per delivered packet (inf when none delivered)."""
        return self._per_delivery(self.total_energy())

    def _per_delivery(self, total_energy: int) -> float:
        if self.delivered_count == 0:
            return float("inf")
        return total_energy / self.delivered_count

    def queue_series_array(self) -> np.ndarray:
        """Total queue-size time series as a numpy array."""
        return _array(self.total_queue_series)

    def undelivered_packets(self) -> list[Packet]:
        """Packets injected but never delivered, by (injection round, id)."""
        pending = sorted(self.records.values(), key=lambda e: (e[1], e[0].packet_id))
        return [packet for packet, _ in pending]

    def summary(self, label: str = "") -> RunSummary:
        """Condense the collected statistics into a :class:`RunSummary`.

        Each series becomes an array once, and every statistic is read
        from those arrays with the same helpers the single-statistic
        methods use.
        """
        from .stability import assess_stability

        queue = self.queue_series_array()
        energy = _array(self.energy_series)
        delays = _array(self.delays)
        verdict = assess_stability(queue)
        max_delay = _peak(delays)
        return RunSummary(
            label=label,
            rounds=self.rounds_observed,
            injected=self.injected_count,
            delivered=self.delivered_count,
            max_queue=_peak(queue),
            max_delay=max_delay,
            observed_latency=self._latency(max_delay),
            mean_delay=_mean(delays),
            delivery_ratio=self.delivery_ratio(),
            throughput=self.throughput(),
            energy_per_round=_mean(energy),
            max_energy=_peak(energy),
            energy_per_delivery=self._per_delivery(_total(energy)),
            queue_growth_rate=verdict.growth_rate,
            stable=verdict.stable,
        )
