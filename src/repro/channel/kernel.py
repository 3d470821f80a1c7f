"""The kernel and block engines' simulation loop.

:class:`KernelEngine` runs the exact channel semantics of
:class:`~repro.channel.engine.RoundEngine` — same arbitration, delivery
bookkeeping, energy enforcement and message discipline checks — but builds
the cheapest correct loop from what the run's components declare they
actually need:

* **Injection and observation** — the adversary's one capability,
  ``plans_injections``, decides both.  A planning adversary (every
  oblivious family) has whole chunks of injections materialised by one
  :meth:`~repro.adversary.base.Adversary.plan_injections` call; the loop
  consumes them as array slices (a round without injections costs two
  list lookups) and never feeds the
  :class:`~repro.channel.engine.AdversaryView`.  Any other adversary is
  called through ``inject(round_no, view)`` every round, and the view
  gets one :meth:`~repro.channel.engine.AdversaryView.observe_round` per
  round, as on the reference loop.
* **Wake schedules** — three tiers.  When every controller declares
  ``static_wake_schedule`` and the algorithm's published
  :class:`~repro.core.schedule.ObliviousSchedule` has a finite period, the
  per-round awake set is a precomputed tuple lookup.  When no count of
  the period exceeds the cap, the per-round awake *counts* also become a
  precomputed numpy series, appended to the collector's energy series in
  one batch per block with no per-round cap check.  Otherwise, when every
  controller declares ``ticked_wakes`` and shares a
  :class:`~repro.core.schedule.WakeOracle`, the kernel issues one
  ``tick(t)`` plus one batch ``awake_stations(t)`` per round.  Only runs
  declaring neither fall back to ``n`` stateful ``wakes(t)`` calls.
* **Queue polls** — every controller keeps the queue contract of
  :class:`~repro.channel.station.StationController` (a queue changes only
  in ``on_inject`` or in a HEARD round), so after a round only its
  injectees and, in a heard round, its awake stations are re-polled for
  their queue size; everyone else is known unchanged.
* **Quiescence skipping** — when every controller declares
  ``silence_invariant`` (holding no packets, an awake station never
  transmits, and silent rounds only advance clock-like state) and the
  adversary plans its injections, a run whose total queue hits zero
  consults the current :class:`~repro.adversary.base.InjectionPlan` chunk
  for the next injection round and elides the whole silent span in one
  step: controllers fast-forward via ``advance_silent_span``, a shared
  :class:`~repro.core.schedule.WakeOracle` via ``advance_span``, and the
  span's SILENCE outcomes, energy counts and flat queue series are
  flushed as batch appends.  In the paper's regime of interest (injection
  rate ρ < 1) most rounds of a stable execution are quiescent, so this is
  what moves low-rate runs from O(rounds) toward O(busy rounds).
* **Compiled blocks** — on a :class:`~repro.channel.block.BlockEngine`
  that negotiated a shared :class:`~repro.core.blocks.RoundBlockDriver`,
  a chunk the driver accepts runs single-transmitter steps: only the
  driver's named transmitter acts, the driver applies the round's
  feedback effects to every awake station directly, and only the
  stations it reports changed are re-polled.  Inside such chunks the
  always-on token rings (RRW, OF-RRW, MBTF) and k-Cycle may also prove
  whole busy periods in closed form, planned injections included, and
  export them as :class:`~repro.core.blocks.LoweredSegment` arrays that
  the numpy kernels of :mod:`repro._accel` flush without per-round
  Python.  Lowering runs only on the cap-safe static tier, whose series
  supplies the span's energy counts and whose membership matrix checks
  that every lowered delivery lands at an awake station.  The span's
  packets are created (in plan order, so ids match) only after the
  driver returns a segment: one factory call builds them, one
  ``tuple.__new__`` each, and one collector call each records the
  span's injections and its deliveries.

:meth:`KernelEngine.run` plans one injection-plan chunk at a time; a
driver may cut the chunk into blocks, which replay the chunk's plan, and
every block goes through one loop, :meth:`KernelEngine._run_rounds`.  A
block a driver accepts runs the single-transmitter steps; every other
block (no driver, a declined block, an ineligible run) runs the fan-out
steps, where every awake station acts and hears feedback.  Injections,
wakes and the cap check, quiescent elision, the series appends and the
exception-safe end-of-block flush are written once for both.

Per-round :class:`~repro.channel.feedback.Feedback` allocation is
eliminated through a :class:`~repro.channel.feedback.FeedbackPool`:
SILENCE and COLLISION rounds reuse interned singletons, HEARD rounds
recycle one instance in-place (guarded by a refcount check, so a
controller that retains feedback is never surprised).

The kernel allocates no per-round event objects and therefore cannot
record traces — tracing (and any need for the fully observable, checked
loop) is what :class:`RoundEngine` remains for.  Property tests assert
that every engine produces identical summaries on random run specs; the
reference loop is the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .._accel import count_transmitting, per_station_flow, segment_round_totals
from ..core.blocks import resolve_refs
from .energy import EnergyCapViolation, EnergyMonitor
from .engine import AdversaryView, EngineConfig, check_message, validate_controllers
from .feedback import ChannelOutcome, FeedbackPool
from .message import Message
from .station import StationController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..adversary.base import Adversary, InjectionPlan
    from ..core.blocks import LoweredSegment, RoundBlockDriver
    from ..core.schedule import ObliviousSchedule, WakeOracle
    from ..metrics.collector import MetricsCollector

__all__ = ["KernelEngine"]

#: Rounds to wait before re-asking a driver to lower after it returned
#: None.  Lowering probes are cheap but not free (a bisect plus the
#: driver's own eligibility scan), so a driver stuck in a non-lowerable
#: regime is only re-polled every few rounds.
_LOWER_PROBE_BACKOFF = 16


class KernelEngine:
    """Drop-in fast counterpart of :class:`RoundEngine`.

    Parameters
    ----------
    controllers, adversary, collector, config:
        As for :class:`RoundEngine`.  ``config.record_trace`` is rejected:
        the kernel's whole point is not to materialise per-round events.
    schedule:
        The algorithm's published oblivious schedule, if any.  Only used
        when every controller also declares ``static_wake_schedule``; the
        schedule must agree with the controllers' ``wakes`` (the published
        schedule *is* that declaration, and the kernel-vs-reference
        property test cross-checks it).
    """

    #: Whether :meth:`run` negotiates compiled blocks with a shared driver
    #: (set by :class:`~repro.channel.block.BlockEngine`).
    compiles_blocks = False
    #: The negotiated block driver; None runs every chunk fanned out.
    _driver: "RoundBlockDriver | None" = None

    def __init__(
        self,
        controllers: Sequence[StationController],
        adversary: "Adversary",
        collector: "MetricsCollector | None" = None,
        config: EngineConfig | None = None,
        schedule: "ObliviousSchedule | None" = None,
    ) -> None:
        self.controllers = validate_controllers(controllers)
        self.n = len(self.controllers)
        self.adversary = adversary
        self.config = config or EngineConfig()
        if self.config.record_trace:
            raise ValueError(
                "the kernel engine does not record traces; "
                "use the reference RoundEngine (engine='reference') for traced runs"
            )
        if collector is None:
            from ..metrics.collector import MetricsCollector

            collector = MetricsCollector()
        self.collector = collector
        self.energy = EnergyMonitor(
            cap=self.config.energy_cap, enforce=self.config.enforce_energy_cap
        )
        self.trace = None  # API parity with RoundEngine
        self.round_no = 0
        self._feedback_pool = FeedbackPool()
        # Unconsumed remainder of a fetched injection plan, carried across
        # run() calls.  A plan consumes the adversary's leaky-bucket
        # budget for its whole window up front, so when an exception
        # aborts a run mid-chunk the already-materialised rounds must be
        # replayed from this cache on resume — re-planning would start
        # from the post-chunk budget state and inject the wrong packets.
        self._plan_state: "InjectionPlan | None" = None
        # The algorithm's published schedule (may be None); kept for
        # subclasses that negotiate further batch exports from it (the
        # block engine's awake-membership matrix).
        self._schedule = schedule

        # -- negotiation: batched injection planning ---------------------------
        # A planning adversary never reads the view, so only the others
        # have it fed, once per round.
        self.view = AdversaryView(self.n)
        self._planned_injections = bool(getattr(adversary, "plans_injections", False))

        # -- negotiation: wake schedule ----------------------------------------
        self._period_awake: tuple[tuple[int, ...], ...] | None = None
        self._period_counts: np.ndarray | None = None
        if schedule is not None and all(
            getattr(ctrl, "static_wake_schedule", False) for ctrl in self.controllers
        ):
            self._period_awake = schedule.periodic_awake_sets()
        if self._period_awake is not None:
            # The per-period awake-count series (cached on the schedule).
            # When the cap can never be exceeded (or there is none) the
            # per-round energy bookkeeping is fully vectorised: no count,
            # no check, no append in the loop — the series is flushed in
            # one batch.
            counts = schedule.periodic_awake_counts()
            cap = self.energy.cap
            if counts is not None and (cap is None or int(counts.max()) <= cap):
                self._period_counts = counts

        # -- negotiation: ticked wake protocol ---------------------------------
        self._wake_oracle: "WakeOracle | None" = None
        if self._period_awake is None and all(
            getattr(ctrl, "ticked_wakes", False) for ctrl in self.controllers
        ):
            oracle = getattr(self.controllers[0], "wake_oracle", None)
            if oracle is not None and all(
                getattr(ctrl, "wake_oracle", None) is oracle
                for ctrl in self.controllers
            ):
                self._wake_oracle = oracle

        self._queue_sizes = [ctrl.queued_packets() for ctrl in self.controllers]
        self._total_queue = sum(self._queue_sizes)
        self.collector.begin_stations(self.n)

        # -- negotiation: quiescence skipping ----------------------------------
        # Eliding a span requires knowing, without running the adversary,
        # that no injection falls inside it (planned injections), that no
        # controller state beyond what advance_silent_span reproduces can
        # change (silence_invariant everywhere), and a tier that can supply
        # the span's awake counts in batch (cap-safe static schedule or a
        # wake oracle answering quiescent_awake_counts).  Queues stay flat
        # without polling: no round of the span is heard.
        self._silence_capable = (
            self.config.quiescence_skip
            and self._planned_injections
            and (self._period_counts is not None or self._wake_oracle is not None)
            and all(
                getattr(ctrl, "silence_invariant", False)
                for ctrl in self.controllers
            )
        )
        #: Quiescent rounds elided by the span fast path (introspection).
        self.quiescent_rounds_elided = 0

        # Pre-bound per-station methods: the hot loop touches only awake
        # stations, and a plain list indexing beats repeated attribute
        # lookups on the controller objects.
        self._act = [ctrl.act for ctrl in self.controllers]
        self._feedback = [ctrl.on_feedback for ctrl in self.controllers]
        self._poll = [ctrl.queued_packets for ctrl in self.controllers]
        self._inject_into = [ctrl.on_inject for ctrl in self.controllers]

    # -- negotiated capabilities (the one report for tests, CLI and runs) -----
    def negotiation(self) -> dict:
        """The negotiated capabilities as a plain dict.

        ``schedule_fast_path``: awake sets come from the precomputed
        schedule period; ``ticked_wakes``: from one shared tick plus a
        batch query; ``vectorised_energy``: awake counts come from the
        precomputed series; ``maintains_view``: the adversary does not
        plan, so the view is fed every round; ``planned_injections``:
        injections come from chunked plans; ``quiescence_skipping``:
        injection-free all-queues-empty spans are elided (cleared for the
        rest of the run when a span's batch awake counts are missing or
        break the cap).
        """
        return {
            "engine": type(self).__name__,
            "schedule_fast_path": self._period_awake is not None,
            "ticked_wakes": self._wake_oracle is not None,
            "vectorised_energy": self._period_counts is not None,
            "maintains_view": not self._planned_injections,
            "planned_injections": self._planned_injections,
            "quiescence_skipping": self._silence_capable,
            "quiescent_rounds_elided": self.quiescent_rounds_elided,
        }

    # -- quiescent spans and lowered segments --------------------------------
    def _elide_quiescent_span(
        self, t: int, stop: int, plan: "InjectionPlan", hook
    ) -> int:
        """Elide the silent span starting at round ``t``; return its end.

        Requires every queue empty and the silence invariant negotiated.
        All rounds up to the plan's next injection (capped at ``stop``)
        are then silent and state-predictable: controllers fast-forward
        via ``advance_silent_span``, ``hook`` (the block driver's
        ``advance_span``) keeps private canonical state current, the
        ticked tier's oracle jumps via ``advance_span``, and the span's
        flat queue series and (ticked tier) its awake counts are each
        appended to the collector in one extend.  On the cap-safe
        static tier the caller's static count list already holds the
        span's awake counts, and the caller appends them.

        Returns ``t`` when nothing was elided: an injection lands at
        ``t``, or the oracle's span counts are missing or break the cap.
        That rejection is sticky (span skipping turns off for the run):
        the counts are a pure function of the round window, so
        re-probing every quiescent round would rebuild O(span) arrays
        without ever succeeding.  The caller owns the span's SILENCE
        count and ``rounds_done``.
        """
        plan_nonzero = plan.injection_rounds()
        pos = bisect_left(plan_nonzero, t)
        next_injection = plan_nonzero[pos] if pos < len(plan_nonzero) else plan.stop
        span_end = next_injection if next_injection < stop else stop
        if span_end <= t:
            return t
        oracle = self._wake_oracle
        span_counts = None
        if self._period_counts is None:
            span_counts = oracle.quiescent_awake_counts(t, span_end)
            cap = self.energy.cap
            if span_counts is None or (
                cap is not None and int(span_counts.max()) > cap
            ):
                self._silence_capable = False
                return t
        for ctrl in self.controllers:
            ctrl.advance_silent_span(t, span_end)
        if hook is not None:
            hook(t, span_end)
        if span_counts is not None:
            oracle.advance_span(t, span_end)
            self.collector.energy_series.extend(span_counts.tolist())
        self.collector.total_queue_series.extend([0] * (span_end - t))
        self.quiescent_rounds_elided += span_end - t
        return span_end

    def _flush_segment(
        self,
        seg: "LoweredSegment",
        plan: "InjectionPlan",
        queue_sizes: list[int],
        total_queue: int,
    ) -> int:
        """Apply lowered segment ``seg`` in bulk; return the new total queue.

        First checks, with one lookup in the period's membership matrix,
        that every delivery's destination is awake in its round, and
        raises ``ValueError`` naming the first that is not.  Then
        materialises the span's planned injections in plan order (so
        packet ids match the per-round path) with one factory call,
        records them with one collector call, and resolves the plan-index
        delivery references against them for one batch delivery call.
        Only then does it flush the span's total-queue series and
        per-station sizes and maxima from the segment's queue-delta CSR,
        so a delivery that raises leaves the queue series no longer than
        the energy series.  Last, it commits the driver's state.  Outcome
        counts and energy are the caller's.
        """
        collector = self.collector
        rel_start = seg.start - plan.start
        rel_stop = seg.stop - plan.start
        j0 = plan.offsets[rel_start]
        j1 = plan.offsets[rel_stop]
        if seg.deliveries:
            delivery_rounds, refs = zip(*seg.deliveries)
            destinations = plan.destinations
            stations = [
                destinations[d] if type(d) is int else d.destination for d in refs
            ]
            member = self._period_member
            awake = member[np.asarray(delivery_rounds) % len(member), stations]
            if not awake.all():
                k = int(np.argmin(awake))
                raise ValueError(
                    f"driver lowered a delivery in round {delivery_rounds[k]} "
                    f"to station {stations[k]}, which is asleep in that round"
                )
        packets: list = []
        if j1 > j0:
            # Each planned packet's injection round, in plan order.
            offsets = plan.as_arrays()[0]
            injected_at = np.repeat(
                np.arange(seg.start, seg.stop, dtype=np.int64),
                np.diff(offsets[rel_start : rel_stop + 1]),
            ).tolist()
            packets = self.adversary.factory.make_many(
                plan.destinations[j0:j1], injected_at, plan.sources[j0:j1]
            )
            collector.record_injections(packets, injected_at)
        if seg.deliveries:
            collector.record_deliveries(
                resolve_refs(refs, packets, j0), stations, delivery_rounds
            )
        values = seg.delta_values
        totals = segment_round_totals(seg.delta_offsets, values, total_queue)
        collector.total_queue_series.extend(totals.tolist())
        if values.shape[0]:
            # An untouched station keeps its size, which its maximum
            # already covers, so whole-list updates change only the
            # touched stations' entries.
            per_station_max = collector.per_station_max_queue
            base = np.asarray(queue_sizes, dtype=np.int64)
            sizes, peaks = per_station_flow(seg.delta_stations, values, base)
            queue_sizes[:] = sizes.tolist()
            per_station_max[:] = np.maximum(peaks, per_station_max).tolist()
            total_queue = int(totals[-1])
        seg.commit(packets)
        return total_queue

    # -- main loop ------------------------------------------------------------
    def run(self, rounds: int) -> None:
        """Simulate ``rounds`` further rounds, one chunk at a time.

        Each chunk of ``plan_chunk`` rounds is planned by one
        ``plan_injections`` call before a compiling engine's driver may
        cut it into blocks at phase boundaries (``propose_stop``); its
        later blocks, and the remainder an aborted call left behind,
        replay the cached plan.  A block the driver accepts runs the
        single-transmitter steps; every other block runs the fan-out
        steps.  Both go through :meth:`_run_rounds`.
        """
        driver = self._driver
        if driver is None and self.compiles_blocks:
            self.blocks_fallback += 1
        chunk = self.config.plan_chunk
        end = self.round_no + rounds
        while self.round_no < end:
            start = self.round_no
            stop = min(start + chunk, end)
            plan = self._plan_state
            if plan is not None and plan.start <= start < plan.stop:
                # Replay the cached remainder of the chunk's plan (blocks a
                # driver cut from it, or what an aborted call left behind):
                # its leaky-bucket budget is already spent, so re-planning
                # would inject the wrong packets.
                stop = min(plan.stop, end)
            elif self._planned_injections:
                # Plan the whole chunk before a driver cuts it into blocks.
                plan = self.adversary.plan_injections(start, stop)
                plan.validate(self.n)
                self._plan_state = plan
            if driver is None:
                self._run_rounds(start, stop, None)
                continue
            # A declined adaptive phase becomes its own short chunk
            # instead of dragging a compilable neighbour down with it.
            proposed = driver.propose_stop(start, stop)
            if start < proposed < stop:
                stop = proposed
            driver.decline_reason = None
            if driver.begin_block(start, stop):
                self.blocks_compiled += 1
                try:
                    self._run_rounds(start, stop, driver)
                finally:
                    driver.end_block(self.round_no)
            else:
                self.blocks_fallback += 1
                reason = driver.decline_reason or "declined without a reason"
                self.block_decline_reasons[reason] = (
                    self.block_decline_reasons.get(reason, 0) + 1
                )
                self._run_rounds(start, stop, None)

    def _run_rounds(
        self, start: int, stop: int, driver: "RoundBlockDriver | None"
    ) -> None:
        """Simulate rounds ``[start, stop)`` of the chunk :meth:`run` planned.

        With ``driver`` (a block it accepted) only the driver's named
        transmitter acts and the driver applies the round's feedback
        effects; without, every awake station acts and hears feedback.
        The loop keeps the outcome counts in locals and, on the static
        tier, takes the block's awake counts from the precomputed series;
        it flushes both once at the end — also on exceptions, so partial
        state stays consistent with what the reference loop would have
        recorded up to the failing round.
        """
        controllers = self.controllers
        adversary = self.adversary
        collector = self.collector
        config = self.config
        energy = self.energy
        view = self.view
        period = self._period_awake
        period_len = len(period) if period is not None else 0
        oracle = self._wake_oracle
        oracle_tick = oracle.tick if oracle is not None else None
        oracle_awake = oracle.awake_stations if oracle is not None else None
        planned = self._planned_injections
        # An unbound adversary has no factory; the first plan_injections
        # call raises the same RuntimeError inject() would, before this
        # None could be used.
        factory_make = (
            adversary.factory.make
            if planned and adversary.factory is not None
            else None
        )
        checked_messages = (
            config.check_plain_packet or config.max_control_bits is not None
        )
        queue_sizes = self._queue_sizes
        total_queue = self._total_queue
        n = self.n
        act = self._act
        give_feedback = self._feedback
        poll = self._poll
        inject_into = self._inject_into
        record_injection = collector.record_injection
        record_delivery = collector.record_delivery
        inject = adversary.inject
        silence_capable = self._silence_capable
        pool = self._feedback_pool
        pool_heard = pool.heard
        silence_feedback = pool.silence()
        collision_feedback = pool.collision()
        # Collector internals, appended to directly in the loop; the
        # outcome counts are reconciled in the finally block.
        total_queue_series = collector.total_queue_series
        energy_series = collector.energy_series
        per_station_max = collector.per_station_max_queue
        cap = energy.cap
        enforce_cap = energy.enforce
        silence = ChannelOutcome.SILENCE
        heard_outcome = ChannelOutcome.HEARD
        collision = ChannelOutcome.COLLISION
        n_silence = n_heard = n_collision = 0
        rounds_done = 0
        # Vectorised energy bookkeeping (schedule fast path, cap-safe):
        # the chunk's awake counts are materialised once from the
        # per-period numpy series and flushed by the finally block, up
        # to the last completed round.
        counts_list = None
        if self._period_counts is not None:
            counts = self._period_counts
            counts_list = counts[
                np.arange(start, stop, dtype=np.int64) % len(counts)
            ].tolist()

        compiled = driver is not None
        span_hook = None
        lowering = False
        if compiled:
            transmitter = driver.transmitter
            silent_round = driver.silent_round
            heard_round = driver.heard_round
            lower_segment = driver.lower_segment
            span_hook = driver.advance_span
            period_member = self._period_member
            act_unconditional = self._act_unconditional
            # Lowered segments flush their energy from the cap-safe static
            # series (without it the per-round steps own the cap accounting
            # and must raise at the exact violating round).  They also skip
            # per-message validation, so checked configurations keep the
            # per-round steps, where check_message runs for every message.
            lowering = (
                self.config.lowering
                and counts_list is not None
                and not checked_messages
            )
        next_probe = start
        no_injections: tuple = ()
        if planned:
            # run() cached the plan covering [start, stop).
            plan = self._plan_state
            plan_offsets = plan.offsets
            plan_sources = plan.sources
            plan_destinations = plan.destinations
            plan_base = plan.start

        try:
            t = start
            while t < stop:
                # 1. Adversarial injections (stations receive packets even
                #    when off).  Planning adversaries are consumed as
                #    array slices of the chunk's plan; everyone else
                #    through the per-round inject() fallback.
                if planned:
                    if silence_capable and total_queue == 0:
                        # Quiescent-span fast path: elide every silent
                        # round up to the chunk's next injection at once.
                        span_end = self._elide_quiescent_span(
                            t, stop, plan, span_hook
                        )
                        if span_end > t:
                            span = span_end - t
                            n_silence += span
                            rounds_done += span
                            t = span_end
                            continue
                        silence_capable = self._silence_capable
                    if lowering and t >= next_probe:
                        # Segment lowering: the driver proves a span —
                        # planned injections included — in closed form.
                        # A driver answering None is re-probed later.
                        seg = lower_segment(t, stop, plan)
                        if seg is None:
                            next_probe = t + _LOWER_PROBE_BACKOFF
                        elif seg.start != t or not t < seg.stop <= stop:
                            raise ValueError(
                                f"driver lowered [{seg.start}, {seg.stop}) "
                                f"for requested span [{t}, {stop})"
                            )
                        else:
                            total_queue = self._flush_segment(
                                seg, plan, queue_sizes, total_queue
                            )
                            span = seg.stop - t
                            heard = count_transmitting(seg.transmitters)
                            n_heard += heard
                            n_silence += span - heard
                            rounds_done += span
                            self.lowered_segments += 1
                            self.lowered_rounds += span
                            t = next_probe = seg.stop
                            continue
                    rel = t - plan_base
                    lo = plan_offsets[rel]
                    hi = plan_offsets[rel + 1]
                    if lo == hi:
                        injections = no_injections
                    else:
                        injections = []
                        for j in range(lo, hi):
                            station = plan_sources[j]
                            packet = factory_make(plan_destinations[j], t, station)
                            inject_into[station](t, packet)
                            record_injection(packet, t)
                            injections.append((station, packet))
                else:
                    injections = inject(t, view)
                    for station, packet in injections:
                        if not 0 <= station < n:
                            raise ValueError(
                                f"adversary injected into unknown station {station}"
                            )
                        if not 0 <= packet.destination < n:
                            raise ValueError(
                                "adversary created packet with unknown destination "
                                f"{packet.destination}"
                            )
                        inject_into[station](t, packet)
                        record_injection(packet, t)

                # 2. On/off decisions and the energy cap check.  Compiled
                #    steps on the static tier test awakeness through the
                #    period's membership matrix and need no awake tuple.
                if counts_list is not None:
                    if not compiled:
                        awake = period[t % period_len]
                else:
                    if oracle_tick is not None:
                        oracle_tick(t)
                        awake = oracle_awake(t)
                    elif period is not None:
                        awake = period[t % period_len]
                    else:
                        awake = tuple(
                            i for i, ctrl in enumerate(controllers) if ctrl.wakes(t)
                        )
                    awake_count = len(awake)
                    if cap is not None and awake_count > cap:
                        energy.violations += 1
                        if enforce_cap:
                            raise EnergyCapViolation(t, awake_count, cap)

                if compiled:
                    # 3+4. Single-candidate act and arbitration: only the
                    #      token holder may transmit, and an empty holder
                    #      provably withholds — unless an injection landed
                    #      this round (queue_sizes is polled post-round),
                    #      or the driver waived the silence invariant
                    #      (beaconing algorithms transmit with empty queues).
                    s = transmitter(t)
                    message: Message | None = None
                    if s >= 0 and (
                        act_unconditional or queue_sizes[s] > 0 or injections
                    ):
                        message = act[s](t)
                    # 5+6. Delivery bookkeeping and feedback effects,
                    #      applied directly by the driver.
                    if message is None:
                        n_silence += 1
                        silent_round(t)
                        changed: tuple[int, ...] = ()
                    else:
                        if message.sender != s:
                            raise ValueError(
                                f"station {s} transmitted a message claiming "
                                f"sender {message.sender}"
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
                else:
                    # 3. Awake stations act, 4. channel arbitration (fused).
                    transmissions = 0
                    heard: Message | None = None
                    for i in awake:
                        message = act[i](t)
                        if message is None:
                            continue
                        if message.sender != i:
                            raise ValueError(
                                f"station {i} transmitted a message claiming "
                                f"sender {message.sender}"
                            )
                        if checked_messages:
                            check_message(config, i, message)
                        transmissions += 1
                        heard = message if transmissions == 1 else None
                    if transmissions == 0:
                        outcome = silence
                        n_silence += 1
                    elif transmissions == 1:
                        outcome = heard_outcome
                        n_heard += 1
                    else:
                        outcome = collision
                        n_collision += 1

                    # 5. Delivery bookkeeping.
                    delivered = False
                    if (
                        heard is not None
                        and heard.packet is not None
                        and heard.packet.destination in awake
                    ):
                        delivered = True
                        record_delivery(heard.packet, heard.packet.destination, t)

                    # 6. Feedback to awake stations (pooled: silence and
                    #    collision rounds share interned singletons, heard
                    #    rounds recycle one instance).
                    if outcome is heard_outcome:
                        feedback = pool_heard(t, heard, delivered)
                    elif outcome is silence:
                        feedback = silence_feedback
                    else:
                        feedback = collision_feedback
                    for i in awake:
                        give_feedback[i](t, feedback)
                    # Drop the loop's reference so the pool sees itself as
                    # the sole owner next round and can recycle the instance.
                    feedback = None
                    # The queue contract: only a heard round can change an
                    # awake queue other than through an injection.
                    changed = awake if outcome is heard_outcome else ()

                # 7. Metrics: queue sizes after the round.  Only stations
                #    whose queues can have changed are re-polled: this
                #    round's injectees plus ``changed`` (polls are pure
                #    reads, so a station polled twice is harmless).
                if injections:
                    for station, _ in injections:
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

                # 8. Adversary view update, for an adversary that does not
                #    plan (so the fan-out steps ran and set ``awake``).
                if not planned:
                    view.observe_round(awake)
                t += 1
        finally:
            # Reconcile the block's locals with the engine and collector,
            # so that after an exception the collector holds what the
            # reference loop would have recorded up to the failing round.
            self._queue_sizes = queue_sizes
            self._total_queue = total_queue
            self.round_no += rounds_done
            if self._plan_state is not None and self.round_no >= self._plan_state.stop:
                # The cached plan is fully consumed; only aborted chunks
                # leave a remainder for the next call to replay.
                self._plan_state = None
            if counts_list is not None:
                # The static tier's awake counts, up to the last completed
                # round, like the queue series appended per round.
                energy_series.extend(counts_list[:rounds_done])
            outcome_counts = collector.outcome_counts
            for outcome, count in (
                (silence, n_silence),
                (heard_outcome, n_heard),
                (collision, n_collision),
            ):
                if count:
                    outcome_counts[outcome] = outcome_counts.get(outcome, 0) + count
