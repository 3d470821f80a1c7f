"""Compiled round-block engine for token-withholding protocols.

:class:`BlockEngine` is the third engine tier, above
:class:`~repro.channel.kernel.KernelEngine`.  The kernel already negotiates
away most per-round overhead, but it still drives every *busy* round
through the full generic protocol: ``act`` on every awake station,
feedback fan-out to every awake station, queue polls for every awake
station.  The token-withholding algorithms (k-Cycle, k-Clique, k-Subsets,
RRW/OF-RRW, MBTF) make almost all of that provably redundant:

* only the replica-agreed token holder may transmit, so collisions are
  impossible and the round's outcome is decided by **one** ``act`` call
  (skipped outright when the holder's queue is known empty — the silence
  invariant says an empty holder withholds);
* the feedback effects on every awake station are a pure function of the
  outcome, applied directly by a per-algorithm
  :class:`~repro.core.blocks.RoundBlockDriver` (one or two targeted
  mutations instead of ``n`` ``on_feedback`` dispatches);
* only driver-reported stations can have changed queue sizes, so heard
  rounds poll a handful of stations instead of the whole awake set.

Negotiation: the engine compiles blocks when the run is on the kernel's
static-schedule or ticked wake tier with planned injections, incremental
heard-only queue metrics, the silence invariant on every controller, and
one shared driver attached to all controllers.  Restricted drivers for
beaconing algorithms (Count-Hop, Orchestra) set
``relies_on_silence_invariant = False``, which waives the
silence-invariant conjunction: the engine then calls the named
transmitter's ``act`` unconditionally (beacons are sent with empty
queues) and the driver aligns block boundaries with its phase structure
via ``propose_stop``, declining the adaptive phases per block with a
reason string surfaced in the negotiation report.  Anything missing — or
a driver declining an individual block — degrades that block (never the
run, never an error) to the inherited kernel loop, which remains
bit-identical and resumable mid-chunk.

On top of the per-round driver protocol sits the *segment-lowering*
tier of the always-on token rings (RRW, OF-RRW, MBTF): a driver that can
prove its outcome sequence in closed form exports whole spans as
:class:`~repro.core.blocks.LoweredSegment` arrays and the engine flushes
outcome counts, the total-queue series, per-station maxima, energy,
injections and deliveries with the vectorised kernels in
:mod:`repro._accel` — no per-round Python at all.  The span's
injections are no obstacle: they come from the adversary's plan, so the
driver simulates the arrivals too (referencing the to-be-created packets
by plan index) and only cuts the segment when an injection actually
invalidates its closed form.  Lowering runs only on the cap-safe static
tier, whose precomputed series supplies the span's energy counts.  The
engine materialises the span's packets (in plan order, preserving
packet-id assignment) only *after* the driver returns a segment, so a
driver answering None leaves no trace and the same rounds run through
the per-round path.  Results are bit-identical to both other engines;
the equivalence property suites enforce it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .._accel import count_transmitting, per_station_flow, segment_round_totals
from .energy import EnergyCapViolation
from .engine import EngineConfig, check_message
from .kernel import KernelEngine
from .message import Message
from .station import StationController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..adversary.base import Adversary
    from ..core.blocks import RoundBlockDriver
    from ..core.schedule import ObliviousSchedule
    from ..metrics.collector import MetricsCollector

__all__ = ["BlockEngine"]

#: Rounds to wait before re-asking a driver to lower after it returned
#: None.  Lowering probes are cheap but not free (a bisect plus the
#: driver's own eligibility scan), so a driver stuck in a non-lowerable
#: regime is only re-polled every few rounds.
_LOWER_PROBE_BACKOFF = 16


class BlockEngine(KernelEngine):
    """Kernel engine that lowers eligible round blocks to compiled form.

    Construction, negotiation and the fallback loop are inherited from
    :class:`KernelEngine`; this class adds the block-eligibility
    negotiation and the compiled per-block loop.  See the module
    docstring for the eligibility conditions.
    """

    def __init__(
        self,
        controllers: Sequence[StationController],
        adversary: "Adversary",
        collector: "MetricsCollector | None" = None,
        config: EngineConfig | None = None,
        schedule: "ObliviousSchedule | None" = None,
    ) -> None:
        super().__init__(controllers, adversary, collector, config, schedule)
        driver = getattr(self.controllers[0], "block_driver", None)
        if driver is not None and not all(
            getattr(ctrl, "block_driver", None) is driver
            for ctrl in self.controllers
        ):
            driver = None
        self._driver: "RoundBlockDriver | None" = driver
        # Restricted drivers for beaconing algorithms waive the
        # silence-invariant conjunction; the engine then may not skip
        # ``act`` for empty-queue transmitters (beacons carry no packet).
        self._act_unconditional = driver is not None and not getattr(
            driver, "relies_on_silence_invariant", True
        )
        self._block_capable = (
            driver is not None
            and self._planned_injections
            and self._incremental_metrics
            and self._heard_only_polls
            and (self._period_awake is not None or self._wake_oracle is not None)
            and (
                self._act_unconditional
                or all(
                    getattr(ctrl, "silence_invariant", False)
                    for ctrl in self.controllers
                )
            )
        )
        # Static tier: awake membership as one bool matrix over the period
        # (schedule.awake_matrix batch export), so the per-delivery
        # "destination awake?" test is one cell lookup instead of a scan
        # of the awake tuple.
        self._period_member: np.ndarray | None = None
        if self._block_capable and self._period_awake is not None:
            self._period_member = self._schedule.awake_matrix(
                0, len(self._period_awake)
            )
        #: Blocks run through the compiled loop (introspection).
        self.blocks_compiled = 0
        #: Blocks degraded to the inherited kernel loop (introspection).
        self.blocks_fallback = 0
        #: Why blocks were declined: reason string -> count (introspection).
        self.block_decline_reasons: dict[str, int] = {}
        #: Segments executed through the array-lowered path (introspection).
        self.lowered_segments = 0
        #: Rounds executed through the array-lowered path (introspection).
        self.lowered_rounds = 0
        #: Public toggle for the segment-lowering tier.  The benchmark
        #: harness flips it off to time the per-round block loop against
        #: the lowered path on otherwise identical runs; it is an
        #: execution knob, not negotiated state, so results stay
        #: bit-identical either way.
        self.lowering_enabled = True

    # -- negotiated capabilities ----------------------------------------------
    @property
    def uses_block_compilation(self) -> bool:
        """True when the run is eligible for compiled round blocks."""
        return self._block_capable

    def negotiation(self) -> dict:
        data = super().negotiation()
        data["block_compilation"] = self.uses_block_compilation
        data["blocks_compiled"] = self.blocks_compiled
        data["blocks_fallback"] = self.blocks_fallback
        data["block_decline_reasons"] = dict(self.block_decline_reasons)
        data["segment_lowering"] = self._block_capable and self.lowering_enabled
        data["lowered_segments"] = self.lowered_segments
        data["lowered_rounds"] = self.lowered_rounds
        return data

    # -- main loop ------------------------------------------------------------
    def run(self, rounds: int) -> None:
        """Simulate ``rounds`` further rounds, block by block.

        Each block spans one injection-plan chunk; the shared driver may
        accept or decline each block independently, and declined blocks
        run through the (resumable) kernel loop, so compiled and fallback
        blocks interleave freely with bit-identical results.
        """
        if not self._block_capable:
            self.blocks_fallback += 1
            super().run(rounds)
            return
        driver = self._driver
        chunk = self.config.plan_chunk
        end = self.round_no + rounds
        while self.round_no < end:
            start = self.round_no
            stop = min(start + chunk, end)
            plan = self._plan_state
            if plan is not None and plan.start <= start < plan.stop:
                # Align the block with the cached (replayable) plan
                # remainder so compiled and fallback paths consume the
                # same chunk boundaries.
                stop = min(plan.stop, end)
            # Restricted drivers align blocks with their phase structure
            # so a declined adaptive phase becomes its own (short)
            # fallback block instead of dragging a compilable neighbour
            # down with it.
            proposed = driver.propose_stop(start, stop)
            if start < proposed < stop:
                stop = proposed
            driver.decline_reason = None
            if driver.begin_block(start, stop):
                self.blocks_compiled += 1
                try:
                    self._run_block(start, stop)
                finally:
                    driver.end_block(self.round_no)
            else:
                self.blocks_fallback += 1
                reason = driver.decline_reason or "declined without a reason"
                self.block_decline_reasons[reason] = (
                    self.block_decline_reasons.get(reason, 0) + 1
                )
                super().run(stop - start)

    def _run_block(self, start: int, stop: int) -> None:
        """Drive rounds ``[start, stop)`` through the compiled loop.

        Mirrors the kernel loop's 8 steps and its finally-block
        reconciliation, with the per-round fan-out replaced by the
        driver's single-transmitter protocol.  Aggregate counters stay
        consistent on exceptions, exactly as in the kernel.
        """
        driver = self._driver
        collector = self.collector
        config = self.config
        energy = self.energy
        period = self._period_awake
        period_len = len(period) if period is not None else 0
        period_member = self._period_member
        oracle = self._wake_oracle
        oracle_tick = oracle.tick if oracle is not None else None
        oracle_awake = oracle.awake_stations if oracle is not None else None
        act = self._act
        poll = self._poll
        inject_into = self._inject_into
        record_injection = collector.record_injection
        record_delivery = collector.record_delivery
        factory_make = (
            self.adversary.factory.make
            if self.adversary.factory is not None
            else None
        )
        checked_messages = (
            config.check_plain_packet or config.max_control_bits is not None
        )
        queue_sizes = self._queue_sizes
        total_queue = self._total_queue
        silence_capable = self._silence_capable
        energy_per_round = energy.per_round
        total_queue_series = collector.total_queue_series
        energy_series = collector.energy_series
        per_station_max = collector.per_station_max_queue
        cap = energy.cap
        enforce_cap = energy.enforce
        transmitter = driver.transmitter
        silent_round = driver.silent_round
        heard_round = driver.heard_round
        lower_segment = driver.lower_segment
        act_unconditional = self._act_unconditional
        n_silence = n_heard = 0
        rounds_done = 0
        run_station_rounds = 0
        run_peak_awake = 0
        counts_list = self._static_counts(start, stop)
        energized = 0
        # Lowered segments flush their energy from the cap-safe static
        # series (without it the per-round path owns the cap accounting
        # and must raise at the exact violating round).  They also bypass
        # per-message validation, so checked configurations (plain-packet
        # or control-bit budgets) keep the per-round loop, where
        # check_message runs for every message.
        lowering = (
            self.lowering_enabled and counts_list is not None and not checked_messages
        )
        next_probe = start

        plan = self._next_plan(start, stop)
        plan_offsets = plan.offsets
        plan_sources = plan.sources
        plan_destinations = plan.destinations
        plan_base = plan.start
        try:
            t = start
            while t < stop:
                # 0. Quiescent-span elision (shared with the kernel loop;
                #    the driver's advance_span hook additionally keeps any
                #    canonical state current).
                if silence_capable and total_queue == 0:
                    span_end = self._elide_quiescent_span(
                        t, stop, plan, driver.advance_span
                    )
                    if span_end > t:
                        span = span_end - t
                        if counts_list is not None:
                            energized += span
                        n_silence += span
                        rounds_done += span
                        t = span_end
                        continue
                    silence_capable = self._silence_capable

                # 0b. Segment lowering: ask the driver to prove a span —
                #     planned injections included — in closed form and
                #     execute it with the vectorised kernels.  A driver
                #     declining (None) backs off to the per-round protocol
                #     below and is re-probed later.
                if lowering and t >= next_probe:
                    seg = lower_segment(t, stop, plan)
                    if seg is None:
                        next_probe = t + _LOWER_PROBE_BACKOFF
                    elif seg.start != t or not t < seg.stop <= stop:
                        raise ValueError(
                            f"driver lowered [{seg.start}, {seg.stop}) "
                            f"for requested span [{t}, {stop})"
                        )
                    else:
                        span = seg.stop - t
                        values = seg.delta_values
                        heard = count_transmitting(seg.transmitters)
                        n_heard += heard
                        n_silence += span - heard
                        totals = segment_round_totals(
                            seg.delta_offsets, values, total_queue
                        )
                        collector.record_round_totals(totals.tolist())
                        if values.shape[0]:
                            base = np.asarray(queue_sizes, dtype=np.int64)
                            sizes, peaks = per_station_flow(
                                seg.delta_stations, values, base
                            )
                            for i in np.unique(seg.delta_stations).tolist():
                                queue_sizes[i] = int(sizes[i])
                                if peaks[i] > per_station_max[i]:
                                    per_station_max[i] = int(peaks[i])
                            total_queue = int(totals[-1])
                        energized += span
                        # Materialise the span's planned injections in
                        # plan order — identical packet-id assignment to
                        # the per-round path — then resolve the
                        # plan-index delivery references against them.
                        j0 = plan_offsets[t - plan_base]
                        j1 = plan_offsets[seg.stop - plan_base]
                        packets: list = []
                        if j1 > j0:
                            plan_nonzero = plan.injection_rounds()
                            pos = bisect_left(plan_nonzero, t)
                            while (
                                pos < len(plan_nonzero)
                                and plan_nonzero[pos] < seg.stop
                            ):
                                r = plan_nonzero[pos]
                                rel = r - plan_base
                                for j in range(
                                    plan_offsets[rel], plan_offsets[rel + 1]
                                ):
                                    packet = factory_make(
                                        destination=plan_destinations[j],
                                        injected_at=r,
                                        origin=plan_sources[j],
                                    )
                                    record_injection(packet, r)
                                    packets.append(packet)
                                pos += 1
                        for rnd, delivered in seg.deliveries:
                            if type(delivered) is int:
                                delivered = packets[delivered - j0]
                            record_delivery(delivered, delivered.destination, rnd)
                        seg.commit(packets)
                        rounds_done += span
                        self.lowered_segments += 1
                        self.lowered_rounds += span
                        t = seg.stop
                        next_probe = t
                        continue

                # 1. Adversarial injections (plan slices; block capability
                #    implies a planning adversary).
                rel = t - plan_base
                lo = plan_offsets[rel]
                hi = plan_offsets[rel + 1]
                injected: list[int] | None = None
                if lo != hi:
                    injected = []
                    for j in range(lo, hi):
                        station = plan_sources[j]
                        packet = factory_make(
                            destination=plan_destinations[j],
                            injected_at=t,
                            origin=station,
                        )
                        inject_into[station](t, packet)
                        record_injection(packet, t)
                        injected.append(station)

                # 2. On/off decisions and energy accounting.
                if period is not None:
                    if counts_list is not None:
                        energized += 1
                    else:
                        awake_count = len(period[t % period_len])
                        energy_per_round.append(awake_count)
                        run_station_rounds += awake_count
                        if awake_count > run_peak_awake:
                            run_peak_awake = awake_count
                        if cap is not None and awake_count > cap:
                            energy.violations += 1
                            if enforce_cap:
                                raise EnergyCapViolation(t, awake_count, cap)
                else:
                    oracle_tick(t)
                    awake = oracle_awake(t)
                    awake_count = len(awake)
                    energy_per_round.append(awake_count)
                    run_station_rounds += awake_count
                    if awake_count > run_peak_awake:
                        run_peak_awake = awake_count
                    if cap is not None and awake_count > cap:
                        energy.violations += 1
                        if enforce_cap:
                            raise EnergyCapViolation(t, awake_count, cap)

                # 3+4. Single-candidate act and arbitration: only the
                #      token holder may transmit, and an empty holder
                #      provably withholds — unless an injection landed
                #      this round (queue_sizes is polled post-round, so
                #      it cannot yet see this round's injections), or the
                #      driver waived the silence invariant (beaconing
                #      algorithms transmit with empty queues).
                s = transmitter(t)
                message: Message | None = None
                if s >= 0 and (
                    act_unconditional or queue_sizes[s] > 0 or injected is not None
                ):
                    message = act[s](t)

                # 5+6. Delivery bookkeeping and feedback effects, applied
                #      directly by the driver.
                if message is None:
                    n_silence += 1
                    silent_round(t)
                    changed: tuple[int, ...] = ()
                else:
                    if message.sender != s:
                        raise ValueError(
                            f"station {s} transmitted a message claiming sender "
                            f"{message.sender}"
                        )
                    if checked_messages:
                        check_message(config, s, message)
                    n_heard += 1
                    packet = message.packet
                    if packet is not None:
                        destination = packet.destination
                        if (
                            period_member[t % period_len, destination]
                            if period_member is not None
                            else destination in awake
                        ):
                            record_delivery(packet, destination, t)
                    changed = heard_round(t, s, message)

                # 7. Metrics: re-poll only stations whose queues can have
                #    changed (driver-reported plus this round's injectees).
                if injected is not None:
                    for station in injected:
                        size = poll[station]()
                        if size != queue_sizes[station]:
                            total_queue += size - queue_sizes[station]
                            queue_sizes[station] = size
                            if size > per_station_max[station]:
                                per_station_max[station] = size
                for i in changed:
                    size = poll[i]()
                    if size != queue_sizes[i]:
                        total_queue += size - queue_sizes[i]
                        queue_sizes[i] = size
                        if size > per_station_max[i]:
                            per_station_max[i] = size
                total_queue_series.append(total_queue)
                if counts_list is None:
                    energy_series.append(awake_count)
                rounds_done += 1
                # (8. View maintenance: block capability implies an
                #  oblivious adversary — there is no view to update.)
                t += 1
        finally:
            self._fold_run(
                rounds_done,
                total_queue,
                (n_silence, n_heard, 0),
                counts_list,
                energized,
                run_station_rounds,
                run_peak_awake,
            )
