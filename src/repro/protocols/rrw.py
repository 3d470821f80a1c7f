"""The always-on token ring: RRW, OF-RRW [3, 18] and the ring MBTF [17] runs.

``RRW`` and its old-first variant ``OF-RRW`` are the building blocks the
paper reuses inside k-Cycle and k-Clique, and — run with every station
switched on — they are the natural *uncapped* baselines against which the
energy-capped algorithms are compared in the figure-style sweeps.

Protocol (single shared channel, all participants awake):

* a conceptual token circulates round-robin over the stations;
* the token holder transmits its eligible packets one per round
  (eligible = any queued packet for RRW, only *old* packets — those
  present when the current phase began — for OF-RRW);
* a silent round advances the token; when the token has passed every
  station a *phase* ends and, for OF-RRW, packets queued meanwhile become
  old.

MBTF (:mod:`repro.protocols.mbtf`) is the same ring plus the big bit: a
holder with at least ``big_threshold`` queued packets sets it, and every
station moves the sender to the front of the ring.  So this module holds
the ring once — one controller, one block driver and one lowered loop —
and the three algorithm classes fix only ``old_first`` and
``big_threshold``.

Because every station is always on, every heard packet is immediately
delivered to its destination, so the protocols route directly.  Their
energy cap is ``n`` — the point of the paper is to do better.
"""

from __future__ import annotations

import sys
from bisect import bisect_left

from ..channel.feedback import ChannelOutcome, Feedback
from ..channel.message import Message
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import LoweredSegment, RoundBlockDriver, SegmentBuilder, resolve_refs
from ..core.controller import QueueingController
from ..core.registry import register_algorithm
from ..core.schedule import AlwaysOnSchedule, ObliviousSchedule
from .token_ring import TokenRingReplica, moved_to_front

__all__ = ["RoundRobinWithholding", "OldFirstRoundRobinWithholding"]


class _RingController(QueueingController):
    """Per-station controller of the always-on token ring."""

    # Always on: wakes() is trivially pure and matches AlwaysOnSchedule.
    static_wake_schedule = True

    # Holding no packets the holder withholds (act returns None), and a
    # silent round only advances the token — modular arithmetic that
    # advance_silent_span reproduces (phase-end aging is a no-op on an
    # empty queue, and only heard big bits reorder the ring), so
    # quiescent spans may be elided wholesale.
    silence_invariant = True

    def __init__(
        self, station_id: int, n: int, old_first: bool, big_threshold: int | None
    ) -> None:
        super().__init__(station_id, n)
        self.old_first = old_first
        self.big_threshold = big_threshold
        self.replica = TokenRingReplica(list(range(n)))

    def wakes(self, round_no: int) -> bool:
        return True

    def act(self, round_no: int) -> Message | None:
        if self.replica.holder != self.station_id:
            return None
        queue = self.queue
        packet = queue.peek_old() if self.old_first else queue.peek_any()
        if packet is None:
            return None
        big = self.big_threshold
        if big is not None and queue.size() >= big:
            return self.transmit(packet, control={TokenRingReplica.BIG_FLAG: True})
        return self.transmit(packet)

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        phase_done = self.replica.observe(feedback.outcome, feedback.message)
        if phase_done and self.old_first:
            self.queue.age_all()

    def advance_silent_span(self, start: int, stop: int) -> None:
        # Always awake: the token advances once per silent round.  The
        # OF-RRW phase-end age_all is a no-op on an empty queue, so the
        # completed-phase count needs no further replay.
        self.replica.advance_silence(stop - start)


class _RingBlockDriver(RoundBlockDriver):
    """Compiled-round driver for the token ring (one shared instance per run).

    All ``n`` per-station replicas are identical by construction, so
    inside a block the driver advances one *canonical* replica per round
    instead of ``n`` — copied from the controllers at block start and
    back to all of them at block end.  Quiescent-span elision advances
    the per-station replicas through ``advance_silent_span`` as usual;
    the :meth:`advance_span` hook applies the same jump to the canonical
    copy so both stay consistent until the end-of-block copy.
    """

    def __init__(
        self,
        controllers: list[_RingController],
        old_first: bool,
        big_threshold: int | None,
    ) -> None:
        super().__init__(len(controllers))
        self._controllers = controllers
        self._old_first = old_first
        self._big_threshold = big_threshold
        self._canonical = TokenRingReplica(list(range(len(controllers))))

    def begin_block(self, start: int, stop: int) -> bool:
        self._canonical.copy_from(self._controllers[0].replica)
        return True

    def end_block(self, stop: int) -> None:
        canonical = self._canonical
        for ctrl in self._controllers:
            ctrl.replica.copy_from(canonical)

    def advance_span(self, start: int, stop: int) -> None:
        self._canonical.advance_silence(stop - start)

    def transmitter(self, t: int) -> int:
        holder = self._canonical.holder
        # The holder's own (stale inside the block) replica must agree
        # before act() runs its holder check.
        self._controllers[holder].replica.holder = holder
        return holder

    def silent_round(self, t: int) -> None:
        phase_done = self._canonical.observe(ChannelOutcome.SILENCE)
        if phase_done and self._old_first:
            for ctrl in self._controllers:
                ctrl.queue.age_all()

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        # Only the sender's confirmed packet leaves a queue; the token
        # stays with its holder unless the message carries the big bit.
        sender_ctrl = self._controllers[sender]
        if sender_ctrl._in_flight is not None:
            sender_ctrl.queue.remove(sender_ctrl._in_flight)
            sender_ctrl._in_flight = None
        self._canonical.observe(ChannelOutcome.HEARD, message)
        return (sender,)

    def lower_segment(self, start: int, stop: int, plan) -> LoweredSegment | None:
        """Drain-cycle simulation: the whole span in closed form.

        The outcome sequence is fully determined by the ring, the token
        position, the per-station send lists and the span's *planned*
        arrivals: the holder sends its eligible packets one per round, a
        silent round advances the token, and each planned arrival joins
        its station's lists exactly where the per-round injection step
        would put it.  RRW and MBTF send the whole FIFO queue; OF-RRW
        sends only old packets, and a completed phase promotes the
        packets queued meanwhile.  A holder sending with at least
        ``big_threshold`` packets queued sets the big bit, which moves it
        to the front of the ring; the count is of the send list, which
        is the whole queue wherever a threshold is set (OF-RRW has none).
        Arrived-in-span packets are referenced by plan index; the
        simulation walks snapshots only — no controller state is touched
        until ``commit``.  Every station is always on, so every heard
        packet is delivered.  With nothing queued and no arrival planned
        it returns None, as k-Cycle's lowering does.
        """
        controllers = self._controllers
        canonical = self._canonical
        n = self.n
        old_first = self._old_first
        threshold = self._big_threshold
        if threshold is None:
            threshold = sys.maxsize  # no queue is that long: never big
        order = canonical.members
        pos = canonical.token_pos
        # Per station: ``pending`` is what its holder sends, in order;
        # its first ``old_counts`` entries are old packets.  OF-RRW's
        # ``later`` holds the new packets until a phase ends.
        pending: list[list] = []
        later: list[list] = []
        old_counts: list[int] = []
        live = 0
        for ctrl in controllers:
            queue = ctrl.queue
            old = queue.old_packets()
            new = queue.new_packets()
            live += len(old) + len(new)
            old_counts.append(len(old))
            if old_first:
                later.append(new)
            else:
                old.extend(new)
                later.append([])
            pending.append(old)
        offsets = plan.offsets
        plan_base = plan.start
        sources = plan.sources
        ai = offsets[start - plan_base]
        live += offsets[stop - plan_base] - ai
        if live == 0:
            return None  # idle span: elision or the per-round steps take it
        inj_rounds = plan.injection_rounds()
        ip = bisect_left(inj_rounds, start)
        n_inj = len(inj_rounds)
        next_arrival = inj_rounds[ip] if ip < n_inj and inj_rounds[ip] < stop else stop
        consumed = [0] * n
        dirty = [False] * n  # stations whose queue contents change in-span
        rows = SegmentBuilder()
        delta_stations = rows.stations
        net = rows.net
        phases = 0
        t = start
        cut = stop
        holder = order[pos]
        t_append = rows.transmitters.append
        o_append = rows.offsets.append
        s_append = delta_stations.append
        v_append = rows.values.append
        d_append = rows.deliveries.append
        # The holder's cursor is kept in locals between token moves (the
        # hot drain loop reads it every round).  The holder sets the big
        # bit while ``hold_len - hold_i >= threshold``, i.e. up to index
        # ``big_last``.  Sends only shorten its queue, so its first send
        # and an arrival at it are the only sends that can newly be big:
        # the move to the front is decided when the holder gets the token
        # or a packet, never in the send branches.
        hold_list = pending[holder]
        hold_i = consumed[holder]
        hold_len = len(hold_list)
        big_last = hold_len - threshold
        if hold_i <= big_last and hold_i < hold_len and order[0] != holder:
            order = moved_to_front(order, holder)
            pos = 0
        while t < stop:
            if live == 0:
                # Drained with no arrivals left: the tail is all silent —
                # cut here so the engine's elision takes it in one step.
                cut = t
                break
            if t == next_arrival:
                row_start = len(delta_stations)
                hi = offsets[t - plan_base + 1]
                while ai < hi:
                    s = sources[ai]
                    if old_first:
                        later[s].append(ai)
                    else:
                        pending[s].append(ai)
                        if s == holder:
                            hold_len += 1
                            big_last += 1
                            if hold_i <= big_last and order[0] != holder:
                                order = moved_to_front(order, holder)
                                pos = 0
                    dirty[s] = True
                    if len(delta_stations) == row_start:
                        s_append(s)
                        v_append(1)
                    else:
                        net(row_start, s, 1)
                    ai += 1
                ip += 1
                next_arrival = (
                    inj_rounds[ip] if ip < n_inj and inj_rounds[ip] < stop else stop
                )
                if hold_i < hold_len:
                    d_append((t, hold_list[hold_i]))
                    hold_i += 1
                    live -= 1
                    t_append(holder)
                    # Net the consumption against a same-round arrival at
                    # the holder: one entry per (round, station).
                    net(row_start, holder, -1)
                    o_append(len(delta_stations))
                    t += 1
                    continue
            elif hold_i < hold_len:
                d_append((t, hold_list[hold_i]))
                hold_i += 1
                live -= 1
                t_append(holder)
                s_append(holder)
                v_append(-1)
                o_append(len(delta_stations))
                t += 1
                continue
            t_append(-1)
            if hold_i:
                consumed[holder] = hold_i
                dirty[holder] = True
            pos += 1
            if pos == n:
                pos = 0
                phases += 1
                if old_first:
                    for station in range(n):
                        if later[station]:
                            pending[station].extend(later[station])
                            old_counts[station] = len(pending[station])
                            later[station] = []
                            dirty[station] = True
            holder = order[pos]
            hold_list = pending[holder]
            hold_i = consumed[holder]
            hold_len = len(hold_list)
            big_last = hold_len - threshold
            if (
                hold_i <= big_last
                and hold_i < hold_len
                and t + 1 < stop
                and order[0] != holder
            ):
                # It sends big in the next round, still inside the span.
                order = moved_to_front(order, holder)
                pos = 0
            o_append(len(delta_stations))
            t += 1
        if hold_i:
            consumed[holder] = hold_i
            dirty[holder] = True

        j0 = offsets[start - plan_base]

        def commit(packets: list) -> None:
            # The simulation already played the span's pushes, phase-end
            # promotions and front-pop consumptions against the snapshot
            # lists, so each dirty station's post-span queue is known
            # outright: the survivors of ``pending`` up to ``old_counts``
            # are the old store, the rest and OF-RRW's unpromoted
            # ``later`` tail the new store.  Swap them in wholesale.
            for s in range(n):
                if not dirty[s]:
                    continue
                seq = pending[s]
                c = consumed[s]
                b = max(old_counts[s], c)
                controllers[s].queue.replace(
                    resolve_refs(seq[c:b], packets, j0),
                    resolve_refs(seq[b:] + later[s], packets, j0),
                )
            canonical.members = order
            canonical.token_pos = pos
            canonical.phase_no += phases
            canonical.holder = order[pos]

        return rows.segment(start, cut, commit)


class _TokenRing(RoutingAlgorithm):
    """The always-on token ring; RRW, OF-RRW and MBTF fix its two values."""

    #: OF-RRW: the holder sends only the packets queued before the
    #: current phase began.
    old_first: bool = False
    #: MBTF: a holder with at least this many queued packets sets the big
    #: bit; None (RRW, OF-RRW): never.
    big_threshold: int | None = None

    def build_controllers(self) -> list[_RingController]:
        controllers = [
            _RingController(i, self.n, self.old_first, self.big_threshold)
            for i in range(self.n)
        ]
        driver = _RingBlockDriver(controllers, self.old_first, self.big_threshold)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=self.n,
            oblivious=True,
            direct=True,
            plain_packet=self.big_threshold is None,
        )

    def oblivious_schedule(self) -> ObliviousSchedule:
        return AlwaysOnSchedule(self.n)


@register_algorithm("rrw")
class RoundRobinWithholding(_TokenRing):
    """RRW [18]: token round-robin, holder drains its whole queue."""

    name = "RRW"


@register_algorithm("of-rrw")
class OldFirstRoundRobinWithholding(_TokenRing):
    """OF-RRW [3]: token round-robin, holder drains only its *old* packets."""

    name = "OF-RRW"
    old_first = True
