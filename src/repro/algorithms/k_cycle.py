"""k-Cycle: energy-oblivious indirect plain-packet routing (Section 5).

The stations are partitioned into overlapping *groups* of ``k`` consecutive
stations; two consecutive groups share exactly one station, their
*connector*, and the last group wraps around to share station 0 with the
first, so the groups form a cycle.  The groups take turns being *active*:
group ``g`` is switched on (all ``k`` of its members) for a contiguous
segment of

    delta = ceil(4 (n-1) k / (n - k))

rounds, then the next group takes over, round-robin forever.  This on/off
pattern depends only on ``(n, k, t)``, so the algorithm is k-energy-
oblivious and publishes it as a :class:`PeriodicSchedule`.

While a group is active its members run the OF-RRW sub-protocol: a
conceptual token circulates among them; the holder transmits its *old*
packets one per round, and a silent round advances the token.  A heard
packet whose destination belongs to the active group is thereby delivered;
otherwise the group's forward connector adopts it, so packets hop from
group to group around the cycle until they reach the group containing
their destination — routing is indirect.

Paper bounds (Table 1): latency at most ``(32 + beta) * n`` for injection
rates ``rho < (k-1)/(n-1)``; by Theorem 6 no k-energy-oblivious algorithm
is stable for ``rho > k/n``.

On the block engine one shared driver runs the protocol for every
station: round by round inside compiled blocks, and, on the cap-safe
static tier, as lowered spans that play a whole busy period across
activity segments in closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from ..channel.feedback import ChannelOutcome, Feedback
from ..channel.message import Message
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import LoweredSegment, RoundBlockDriver, SegmentBuilder, resolve_refs
from ..core.controller import QueueingController
from ..core.registry import register_algorithm
from ..core.schedule import PeriodicSchedule
from ..protocols.token_ring import TokenRingReplica

__all__ = ["KCycle", "cycle_groups", "activity_segment_length"]


def effective_group_size(n: int, k: int) -> int:
    """The group size actually used: the paper decreases ``k`` until ``2k <= n + 1``."""
    k_eff = min(k, (n + 1) // 2)
    return max(2, k_eff)


def cycle_groups(n: int, k: int) -> list[list[int]]:
    """The cyclic cover of ``[0, n)`` by groups of ``k`` consecutive stations.

    Group ``g`` starts at station ``g * (k - 1) (mod n)`` and contains ``k``
    consecutive stations (mod ``n``), so consecutive groups share exactly
    one station and the last group shares station 0 (or an early station)
    with the first, closing the cycle.
    """
    k = effective_group_size(n, k)
    stride = k - 1
    num_groups = math.ceil(n / stride)
    groups: list[list[int]] = []
    for g in range(num_groups):
        start = (g * stride) % n
        groups.append([(start + offset) % n for offset in range(k)])
    return groups


def activity_segment_length(n: int, k: int) -> int:
    """Length ``delta`` of one group's activity segment (equation (2))."""
    k = effective_group_size(n, k)
    return max(1, math.ceil(4 * (n - 1) * k / (n - k)))


class _KCycleController(QueueingController):
    """Per-station controller of k-Cycle."""

    # wakes() is a pure lookup of the group rotation (published as the
    # algorithm's PeriodicSchedule), so the kernel may batch awake sets.
    static_wake_schedule = True

    # Holding no packets the token holder withholds, and a silent round
    # only advances the active group's token (phase-end aging is a no-op
    # on an empty queue): quiescent spans fast-forward with one modular
    # count per group membership.
    silence_invariant = True

    def __init__(
        self,
        station_id: int,
        n: int,
        groups: list[list[int]],
        delta: int,
    ) -> None:
        super().__init__(station_id, n)
        self.groups = groups
        self.delta = delta
        self.num_groups = len(groups)
        # Group membership and one token replica per group we belong to.
        self.my_groups = [g for g, members in enumerate(groups) if station_id in members]
        self.replicas = {g: TokenRingReplica(groups[g]) for g in self.my_groups}
        # The forward connector of group g is the station shared with group g+1.
        self.forward_connector = {
            g: self._shared_station(groups[g], groups[(g + 1) % self.num_groups])
            for g in range(self.num_groups)
        }
        # Injected packets are immediately old for the next phase they meet;
        # OF-RRW ages them at phase boundaries of the groups we belong to.
        self._member_sets = [set(members) for members in groups]
        # Activity-segment cache: the active group only changes every
        # ``delta`` rounds, so the hot hooks (act / on_heard /
        # after_feedback, all called once per awake round) resolve it with
        # one comparison instead of div/mod plus dict lookups.
        self._seg_start = 0
        self._seg_end = 0  # empty: the first hook call refreshes
        self._seg_group = -1
        self._seg_replica: TokenRingReplica | None = None

    def _refresh_segment(self, round_no: int) -> None:
        block = round_no // self.delta
        self._seg_group = block % self.num_groups
        self._seg_replica = self.replicas.get(self._seg_group)
        self._seg_start = block * self.delta
        self._seg_end = self._seg_start + self.delta

    def _shared_station(self, group_a: list[int], group_b: list[int]) -> int:
        shared = [s for s in group_a if s in set(group_b)]
        # With the cyclic construction consecutive groups always overlap;
        # prefer the first station of the next group (the paper's connector).
        for station in group_b:
            if station in set(group_a):
                return station
        return shared[0]

    # -- schedule ----------------------------------------------------------
    def active_group(self, round_no: int) -> int:
        """The group that is switched on in ``round_no``."""
        return (round_no // self.delta) % self.num_groups

    def wakes(self, round_no: int) -> bool:
        return self.active_group(round_no) in self.my_groups

    # -- protocol -----------------------------------------------------------
    def _eligible_packet(self, group: int):
        if self.station_id != self.forward_connector[group]:
            return self.queue.peek_old()  # every packet makes progress here
        # A packet leaving the group is adopted by the forward connector;
        # we *are* that connector, so transmitting it now makes no
        # progress: withhold it until our other group is active.
        return self.queue.peek_old_in(self._member_sets[group])

    def act(self, round_no: int) -> Message | None:
        if not self._seg_start <= round_no < self._seg_end:
            self._refresh_segment(round_no)
        replica = self._seg_replica
        if replica is None or replica.holder != self.station_id:
            return None
        packet = self._eligible_packet(self._seg_group)
        if packet is None:
            return None
        return self.transmit(packet)

    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        if not self._seg_start <= round_no < self._seg_end:
            self._refresh_segment(round_no)
        if self._seg_replica is None:
            return  # not a member of the active group
        packet = message.packet
        if packet is None or message.sender == self.station_id:
            return
        if packet.destination == self.station_id:
            return  # consumed; the engine records the delivery
        group = self._seg_group
        if packet.destination in self._member_sets[group]:
            return  # delivered to another member of the active group
        if self.station_id == self.forward_connector[group]:
            # The packet leaves the group: we are its relay.
            self.adopt(packet)

    def advance_silent_span(self, start: int, stop: int) -> None:
        # This station observes exactly the silent rounds in which one of
        # its groups is active; each such round advances that group's
        # token.  Rounds are grouped into blocks of ``delta`` and block
        # ``b`` activates group ``b % num_groups``, so the number of
        # active rounds per group over [start, stop) is closed-form.
        delta = self.delta
        super_period = delta * self.num_groups
        for g in self.my_groups:
            offset = g * delta

            def active_upto(limit: int) -> int:
                full, rest = divmod(limit, super_period)
                partial = rest - offset
                if partial < 0:
                    partial = 0
                elif partial > delta:
                    partial = delta
                return full * delta + partial

            rounds = active_upto(stop) - active_upto(start)
            if rounds:
                self.replicas[g].advance_silence(rounds)

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        if feedback.outcome is not ChannelOutcome.SILENCE:
            return  # the token only moves on silent rounds
        if not self._seg_start <= round_no < self._seg_end:
            self._refresh_segment(round_no)
        replica = self._seg_replica
        if replica is None:
            return
        phase_done = replica.observe(feedback.outcome)
        if phase_done:
            # Packets injected or adopted during the finished phase become old.
            self.queue.age_all()


class _KCycleBlockDriver(RoundBlockDriver):
    """Compiled-round driver for k-Cycle (one shared instance per run).

    Per round only the active group's token holder may transmit.  The
    driver mirrors what the reference loop's feedback fan-out does to the
    k awake members: on silence every member's replica advances (queues
    age at phase end), on heard the sender drops its in-flight packet and
    the group's forward connector adopts a packet leaving the group.

    All member replicas of a group agree by construction, so inside a
    compiled block the driver advances one *canonical* replica per silent
    round instead of k — loaded from the members when an activity segment
    begins and written back to all of them when the segment (or the
    block) ends.  Quiescent-span elision advances the (stale-in-block)
    per-station replicas through ``advance_silent_span`` as usual; the
    :meth:`advance_span` hook applies the active-round count of the same
    jump to the canonical copy so the end-of-segment write-back stays
    consistent.

    :meth:`lower_segment` plays a whole busy period from snapshots of the
    queues and of every group's token instead, across activity segments.
    Its commit writes each group's token into every member's replica
    (for the group the canonical copy mirrors, the copy's state carried
    forward) and drops the canonical copy and the segment cache, so the
    next per-round round reloads them from the members.
    """

    def __init__(self, controllers: list[_KCycleController]) -> None:
        super().__init__(len(controllers))
        first = controllers[0]
        self._controllers = controllers
        self._delta = first.delta
        self._num_groups = first.num_groups
        self._groups = first.groups
        self._forward_connector = first.forward_connector
        self._member_sets = first._member_sets
        # Activity-segment cache, same shape as the controllers' own.
        self._seg_start = 0
        self._seg_end = 0  # empty: the first transmitter() call refreshes
        self._member_ctrls: list[_KCycleController] = []
        self._replicas: list[TokenRingReplica] = []
        self._member_set: set[int] = set()
        self._connector = -1
        self._group = -1
        self._canonical: TokenRingReplica | None = None

    def _write_back(self) -> None:
        canonical = self._canonical
        if canonical is None:
            return
        for replica in self._replicas:
            replica.copy_from(canonical)

    def _refresh_segment(self, round_no: int) -> None:
        self._write_back()
        block = round_no // self._delta
        group = block % self._num_groups
        ctrls = [self._controllers[i] for i in self._groups[group]]
        self._member_ctrls = ctrls
        self._replicas = [ctrl.replicas[group] for ctrl in ctrls]
        self._member_set = self._member_sets[group]
        self._connector = self._forward_connector[group]
        self._group = group
        canonical = TokenRingReplica(self._groups[group])
        canonical.copy_from(self._replicas[0])
        self._canonical = canonical
        self._seg_start = block * self._delta
        self._seg_end = self._seg_start + self._delta

    def begin_block(self, start: int, stop: int) -> bool:
        # The members are authoritative between blocks (the fallback path
        # mutates them directly): force the first round to reload.
        self._seg_start = self._seg_end = 0
        self._canonical = None
        return True

    def end_block(self, stop: int) -> None:
        self._write_back()
        self._canonical = None
        self._seg_start = self._seg_end = 0

    def advance_span(self, start: int, stop: int) -> None:
        canonical = self._canonical
        if canonical is None:
            return  # elision before the first round of the block
        # Same closed-form as the controllers' advance_silent_span, for
        # the one group the canonical copy currently mirrors.
        delta = self._delta
        super_period = delta * self._num_groups
        offset = self._group * delta

        def active_upto(limit: int) -> int:
            full, rest = divmod(limit, super_period)
            partial = rest - offset
            if partial < 0:
                partial = 0
            elif partial > delta:
                partial = delta
            return full * delta + partial

        rounds = active_upto(stop) - active_upto(start)
        if rounds:
            canonical.advance_silence(rounds)

    def transmitter(self, t: int) -> int:
        if not self._seg_start <= t < self._seg_end:
            self._refresh_segment(t)
        holder = self._canonical.holder
        # The holder's own (stale inside the segment) replica must agree
        # before act() runs its holder check.
        self._controllers[holder].replicas[self._group].holder = holder
        return holder

    def silent_round(self, t: int) -> None:
        if self._canonical.observe(ChannelOutcome.SILENCE):
            # Packets injected or adopted during the finished phase
            # become old for every member of the active group.
            for ctrl in self._member_ctrls:
                ctrl.queue.age_all()

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        # Sender's confirmed transmission leaves its queue; replicas do
        # not move on heard rounds (the token stays with its holder).
        sender_ctrl = self._controllers[sender]
        if sender_ctrl._in_flight is not None:
            sender_ctrl.queue.remove(sender_ctrl._in_flight)
            sender_ctrl._in_flight = None
        packet = message.packet
        if (
            packet is not None
            and packet.destination not in self._member_set
            and self._connector != sender
        ):
            # The packet leaves the group: the forward connector relays.
            self._controllers[self._connector].adopt(packet)
            return (sender, self._connector)
        return (sender,)

    def lower_segment(self, start: int, stop: int, plan) -> LoweredSegment | None:
        """Drain simulation: the span in closed form, across activity segments.

        Group ``(t // delta) % num_groups`` is on in round ``t``.  Each
        round first takes its planned arrivals into their sources' new
        packets (a station receives while it sleeps).  Then the active
        group's token holder sends its oldest old packet, or, as the
        group's forward connector, its oldest old packet addressed inside
        the group.  A packet for a member is delivered, and any other
        packet becomes the forward connector's newest packet.  A silent
        round advances the group's token, and a completed phase makes
        every member's new packets old.  A group with nothing queued when
        its activity segment begins stays silent until the next arrival,
        and those rounds are recorded in one step.

        The simulation works on snapshot lists: an entry is a queued
        packet or the plan index of an arrival, and a connector's pick
        from below the head leaves None behind.  Each forward connector
        keeps a cursor into its old list for its group, so a pick never
        rescans the out-of-group packets ahead of it.  The span ends at
        ``stop``, or once no packet is queued and none is planned to
        arrive, which leaves the silent tail to the engine's quiescent
        elision.  Nothing is touched until ``commit``.
        """
        controllers = self._controllers
        n = self.n
        groups = self._groups
        delta = self._delta
        num_groups = self._num_groups
        connectors = self._forward_connector
        member_sets = self._member_sets
        offsets = plan.offsets
        plan_base = plan.start
        sources = plan.sources
        plan_destinations = plan.destinations
        ai = offsets[start - plan_base]
        live = offsets[stop - plan_base] - ai
        old: list[list] = []
        new: list[list] = []
        for ctrl in controllers:
            queue = ctrl.queue
            queued_old = queue.old_packets()
            queued_new = queue.new_packets()
            live += len(queued_old) + len(queued_new)
            old.append(queued_old)
            new.append(queued_new)
        if live == 0:
            return None  # idle span: elision or the per-round steps take it
        # Token state per group: the canonical copy for the group it
        # mirrors (the members' replicas lag it), a member's otherwise.
        canonical = self._canonical
        pos: list[int] = []
        phase: list[int] = []
        for g in range(num_groups):
            if canonical is not None and g == self._group:
                replica = canonical
            else:
                replica = controllers[groups[g][0]].replicas[g]
            pos.append(replica.token_pos)
            phase.append(replica.phase_no)
        inj_rounds = plan.injection_rounds()
        ip = bisect_left(inj_rounds, start)
        n_inj = len(inj_rounds)
        next_arrival = inj_rounds[ip] if ip < n_inj and inj_rounds[ip] < stop else stop
        head = [0] * n  # per station: where its oldest old entry may sit
        cursor = [0] * num_groups  # per group: its forward connector's scan
        dirty = [False] * n  # stations whose queue contents change in-span
        rows = SegmentBuilder()
        delta_stations = rows.stations
        net = rows.net
        t_append = rows.transmitters.append
        t_extend = rows.transmitters.extend
        o_append = rows.offsets.append
        o_extend = rows.offsets.extend
        s_append = delta_stations.append
        v_append = rows.values.append
        d_append = rows.deliveries.append
        t = start
        cut = stop
        g = -1
        seg_end = start  # the first round loads its activity segment
        while t < stop:
            if live == 0:
                # Drained with no arrivals left: the tail is all silent —
                # cut here so the engine's elision takes it in one step.
                cut = t
                break
            if t == seg_end:
                if g >= 0:
                    pos[g] = p
                block = t // delta
                g = block % num_groups
                seg_end = min((block + 1) * delta, stop)
                members = groups[g]
                size = len(members)
                inside = member_sets[g]
                connector = connectors[g]
                p = pos[g]
                for m in members:
                    if new[m] or head[m] < len(old[m]):
                        break
                else:
                    # Nothing queued in the group: it is silent until the
                    # next arrival, and its phase ends age nothing.
                    quiet = (next_arrival if next_arrival < seg_end else seg_end) - t
                    if quiet:
                        t_extend([-1] * quiet)
                        o_extend([len(delta_stations)] * quiet)
                        p += quiet
                        if p >= size:
                            phase[g] += p // size
                            p %= size
                        t += quiet
                        continue
            arrived = t == next_arrival
            if arrived:
                row_start = len(delta_stations)
                hi = offsets[t - plan_base + 1]
                while ai < hi:
                    s = sources[ai]
                    new[s].append(ai)
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
            holder = members[p]
            entries = old[holder]
            end = len(entries)
            if holder == connector:
                # Entries before the cursor were picked or leave the
                # group, and those before the head were sent.
                i = cursor[g]
                if i < head[holder]:
                    i = head[holder]
                while i < end:
                    e = entries[i]
                    if e is not None and (
                        plan_destinations[e] if type(e) is int else e.destination
                    ) in inside:
                        entries[i] = None
                        break
                    i += 1
                else:
                    e = None
                cursor[g] = i
            else:
                i = head[holder]
                while i < end:
                    e = entries[i]
                    i += 1
                    if e is not None:
                        break
                else:
                    e = None
                head[holder] = i
            if e is None:
                t_append(-1)
                p += 1
                if p == size:
                    # The phase ends: every member's new packets age.
                    p = 0
                    phase[g] += 1
                    for m in members:
                        if new[m]:
                            old[m].extend(new[m])
                            new[m] = []
                            dirty[m] = True
            else:
                t_append(holder)
                dirty[holder] = True
                if holder == connector or (
                    plan_destinations[e] if type(e) is int else e.destination
                ) in inside:
                    d_append((t, e))
                    live -= 1
                    if arrived:
                        net(row_start, holder, -1)
                    else:
                        s_append(holder)
                        v_append(-1)
                else:
                    # The packet leaves the group: the forward connector
                    # relays it, as a new packet.
                    new[connector].append(e)
                    dirty[connector] = True
                    if arrived:
                        net(row_start, holder, -1)
                        net(row_start, connector, 1)
                    else:
                        s_append(holder)
                        v_append(-1)
                        s_append(connector)
                        v_append(1)
            o_append(len(delta_stations))
            t += 1
        if g >= 0:
            pos[g] = p

        j0 = offsets[start - plan_base]

        def commit(packets: list) -> None:
            # Swap in the changed queues; a station's old packets are its
            # entries from its head on, without the picked ones.
            for s in range(n):
                if dirty[s]:
                    survivors = [e for e in old[s][head[s] :] if e is not None]
                    controllers[s].queue.replace(
                        resolve_refs(survivors, packets, j0),
                        resolve_refs(new[s], packets, j0),
                    )
            # Every member's replica of each group takes the group's
            # state, the canonical copy's included; the canonical copy and
            # the segment cache reload at the next per-round round.
            for group, ring in enumerate(groups):
                token_pos = pos[group]
                for m in ring:
                    replica = controllers[m].replicas[group]
                    replica.token_pos = token_pos
                    replica.holder = ring[token_pos]
                    replica.phase_no = phase[group]
            self._canonical = None
            self._seg_start = self._seg_end = 0

        return rows.segment(start, cut, commit)


@register_algorithm("k-cycle")
class KCycle(RoutingAlgorithm):
    """The k-Cycle algorithm of Section 5.

    Parameters
    ----------
    n:
        Number of stations.
    k:
        Energy cap.  When ``2k > n + 1`` the effective group size is
        reduced to ``(n + 1) // 2`` as in the paper.
    """

    name = "k-Cycle"

    def __init__(self, n: int, k: int) -> None:
        super().__init__(n)
        if not 2 <= k < n:
            raise ValueError(f"energy cap k must satisfy 2 <= k < n, got k={k}, n={n}")
        self.k = k
        self.k_eff = effective_group_size(n, k)
        self.groups = cycle_groups(n, k)
        self.delta = activity_segment_length(n, k)

    def build_controllers(self) -> list[_KCycleController]:
        controllers = [
            _KCycleController(i, self.n, self.groups, self.delta)
            for i in range(self.n)
        ]
        driver = _KCycleBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=self.k_eff,
            oblivious=True,
            direct=False,
            plain_packet=True,
        )

    def oblivious_schedule(self) -> PeriodicSchedule:
        period: list[list[int]] = []
        for g, members in enumerate(self.groups):
            period.extend([list(members)] * self.delta)
        return PeriodicSchedule(self.n, period)

    # -- analytical quantities used by tests and the analysis module --------
    def stability_threshold(self) -> float:
        """The injection-rate threshold ``(k-1)/(n-1)`` of Theorem 5."""
        return (self.k_eff - 1) / (self.n - 1)

    def latency_bound(self, beta: float) -> float:
        """The latency bound ``(32 + beta) * n`` of Theorem 5."""
        return (32 + beta) * self.n
