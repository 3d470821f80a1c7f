"""Count-Hop: universal direct routing with control bits (Section 4.1).

One dedicated station (we use station 0) acts as the *coordinator*; every
other station is a *worker*.  An execution is structured into phases,
each phase into ``n`` stages — one per receiving station ``v`` — and each
stage into three substages:

1. **Report** (``n`` rounds): in round ``r`` station ``r`` (if it is
   neither ``v`` nor the coordinator and has old packets for ``v``)
   transmits a light message carrying the number of its old packets
   destined to ``v``; the coordinator listens throughout.
2. **Assign** (``n`` rounds): in round ``r`` the coordinator transmits a
   light message to station ``r`` carrying (a) the offset of ``r``'s
   transmission slot in the next substage and (b) the stage's total
   packet count, so every station — including ``v`` — knows when the
   stage ends.
3. **Deliver** (``total`` rounds): station ``v`` is switched on for the
   whole substage; the coordinator (first) and then the workers, in name
   order, transmit their old packets destined to ``v`` in consecutive
   slots.  Each heard packet is immediately consumed by ``v``: the
   algorithm routes directly.

Only the coordinator plus at most one other station are ever switched on
simultaneously, so the energy cap is 2.  Packets transmitted in a phase
are *old* — injected in a previous phase; at the end of each phase all
queued packets become old.  The first phase consists of ``n`` rounds with
every station switched off.

The stage/substage state machine is identical at every station, so it
lives in a single shared :class:`_CountHopClock` (a
:class:`~repro.core.schedule.WakeOracle`): an explicit ``tick(t)``
advances the stage, per-station ``wakes(t)`` is a pure query afterwards,
and the clock can answer the whole awake set at once — which is how the
kernel engine runs Count-Hop without ``n`` per-station wake-up calls.

Paper bound (Theorem 3): stable for every injection rate ``rho < 1`` with
latency at most ``2 (n^2 + beta) / (1 - rho)``.
"""

from __future__ import annotations

from ..channel.feedback import Feedback
from ..channel.message import Message
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import RoundBlockDriver
from ..core.controller import TickedQueueingController
from ..core.registry import register_algorithm
from ..core.schedule import WakeOracle

__all__ = ["CountHop"]

COORDINATOR = 0


class _CountHopClock(WakeOracle):
    """Shared stage/substage state machine of one Count-Hop execution.

    All globally-identical stage state (stage start, current receiver,
    Deliver-substage length) lives here; the controllers keep only their
    private queue-derived quantities (``my_count``, ``my_offset``).  When a
    stage begins the clock fixes the absolute rounds ``assign_at`` and
    ``deliver_at`` at which its Assign and Deliver substages start, so
    every hook picks its substage with compares and its slot with one
    subtraction.  Only the coordinator writes the Deliver-substage length
    ``total``, once Report ends, and it fixes its offsets table (each
    station's Deliver slot offset, which Assign sends it) at the same
    time.  Assign messages still carry the total on the channel.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        # The first stage begins after the silent warm-up.
        self.stage_start, self.assign_at, self.deliver_at = n, 2 * n, 3 * n
        self.receiver = 0
        self.total: int | None = None  # Deliver-substage length
        self._started = False
        self._last_ticked = -1
        # slot -> transmitting station for the current Deliver substage,
        # built lazily from the controllers' assigned offsets.
        self._deliver_plan: list[int | None] | None = None

    # -- state machine ---------------------------------------------------------
    def _begin_stage(self, stage_start: int, receiver: int) -> None:
        self.stage_start = stage_start
        self.assign_at = stage_start + self.n
        self.deliver_at = stage_start + 2 * self.n
        self.receiver = receiver
        self.total = None
        self._deliver_plan = None
        for ctrl in self.controllers:
            ctrl._begin_stage_local(receiver)

    def tick(self, round_no: int) -> None:
        if round_no <= self._last_ticked or round_no < self.n:
            return
        self._last_ticked = round_no
        if not self._started:
            self._started = True
            self._begin_stage(self.n, 0)
        while self.total is not None and round_no >= self.deliver_at + self.total:
            receiver = (self.receiver + 1) % self.n
            self._begin_stage(self.deliver_at + self.total, receiver)

    # -- batch awake-set query -------------------------------------------------
    def _build_deliver_plan(self) -> "list[int | None]":
        total = self.total or 0
        plan: list[int | None] = [None] * total
        receiver = self.receiver
        controllers = self.controllers
        if receiver != COORDINATOR:
            for slot in range(min(controllers[COORDINATOR].my_count, total)):
                plan[slot] = COORDINATOR
        for station, ctrl in enumerate(controllers):
            if station in (COORDINATOR, receiver):
                continue
            offset, count = ctrl.my_offset, ctrl.my_count
            if offset is None or count <= 0:
                continue
            for slot in range(offset, min(offset + count, total)):
                plan[slot] = station
        self._deliver_plan = plan
        return plan

    def awake_stations(self, round_no: int) -> tuple[int, ...]:
        if round_no < self.n:
            return ()
        receiver = self.receiver
        if round_no < self.assign_at:
            slot = round_no - self.stage_start
            if (
                slot not in (COORDINATOR, receiver)
                and self.controllers[slot].my_count > 0
            ):
                return (COORDINATOR, slot)
            return (COORDINATOR,)
        if round_no < self.deliver_at:
            slot = round_no - self.assign_at
            if slot == COORDINATOR:
                return (COORDINATOR,)
            return (COORDINATOR, slot)
        plan = self._deliver_plan
        if plan is None:
            plan = self._build_deliver_plan()
        slot = round_no - self.deliver_at
        sender = plan[slot] if 0 <= slot < len(plan) else None
        if sender is None:
            return (receiver,)
        return (sender, receiver) if sender < receiver else (receiver, sender)


class _CountHopController(TickedQueueingController):
    """Per-station controller of Count-Hop.

    The stage state machine is shared (:class:`_CountHopClock`); each
    station privately tracks only what it derives from its own queue and
    the Assign message addressed to it.

    Quiescence holdout: ``silence_invariant`` stays False because the
    coordinator *beacons* — it transmits an Assign control message in
    every Assign-substage round even when no station holds a packet, so
    an idle stretch is not a run of silent rounds and cannot be elided.
    """

    def __init__(self, station_id: int, n: int, clock: _CountHopClock) -> None:
        super().__init__(station_id, n, clock)
        self.is_coordinator = station_id == COORDINATOR
        self.my_offset: int | None = None
        self.my_count = 0
        # Coordinator-only bookkeeping: the stage's reported counts, and
        # the Deliver slot offset it assigns each station.
        self._reported_counts: dict[int, int] = {}
        self._offsets: list[int] = []

    @property
    def clock(self) -> _CountHopClock:
        """The shared stage clock (one source of truth: ``wake_oracle``)."""
        return self.wake_oracle

    # -- clock callbacks ---------------------------------------------------------
    def _begin_stage_local(self, receiver: int) -> None:
        self.my_offset = None
        if self.is_coordinator:
            self._reported_counts = {}
        if receiver == 0:
            # A new phase begins: everything queued becomes old.
            self.queue.age_all()
        self.my_count = (
            0
            if self.station_id == receiver
            else self.queue.count_old_for(receiver)
        )

    # -- coordinator helpers ------------------------------------------------------
    def _fix_stage_total(self) -> None:
        """Fix the Deliver-substage length and the offsets table.

        Called once per stage, after Report.  Workers get running offsets
        in name order after the coordinator's own packets; the receiver
        gets the final sum.  The coordinator's old count for the receiver
        cannot change before Assign: Report and Assign messages carry no
        packet, injections land as new, and packets age only when a phase
        begins.
        """
        receiver = self.clock.receiver
        offset = 0 if receiver == COORDINATOR else self.queue.count_old_for(receiver)
        reported = self._reported_counts
        self.clock.total = offset + sum(reported.values())
        self.my_offset = 0
        offsets = self._offsets = [0] * self.n
        for r in range(self.n):
            if r not in (COORDINATOR, receiver):
                offsets[r] = offset
                offset += reported.get(r, 0)
        offsets[receiver] = offset

    # -- StationController interface -----------------------------------------------
    def wakes(self, round_no: int) -> bool:
        clock = self.clock
        clock.tick(round_no)
        if round_no < self.n:
            return False
        receiver = clock.receiver
        if round_no < clock.assign_at:
            if self.is_coordinator:
                return True
            return (
                round_no - clock.stage_start == self.station_id
                and self.station_id != receiver
                and self.my_count > 0
            )
        if round_no < clock.deliver_at:
            return self.is_coordinator or round_no - clock.assign_at == self.station_id
        if self.station_id == receiver:
            return True
        if clock.total is None or self.my_offset is None:
            return False
        slot = round_no - clock.deliver_at
        if self.is_coordinator:
            return slot < (0 if receiver == COORDINATOR else self.my_count)
        return self.my_offset <= slot < self.my_offset + self.my_count

    def act(self, round_no: int) -> Message | None:
        clock = self.clock
        receiver = clock.receiver
        if round_no < clock.assign_at:
            if (
                not self.is_coordinator
                and round_no - clock.stage_start == self.station_id
                and self.station_id != receiver
                and self.my_count > 0
            ):
                return self.transmit(None, control={"count": self.my_count})
            return None
        if round_no < clock.deliver_at:
            slot = round_no - clock.assign_at
            if self.is_coordinator and slot != COORDINATOR:
                if clock.total is None:
                    self._fix_stage_total()
                return self.transmit(
                    None,
                    control={"offset": self._offsets[slot], "total": clock.total},
                    intended_receiver=slot,
                )
            return None
        if self.station_id == receiver:
            return None
        if self.my_offset is None:
            return None
        slot = round_no - clock.deliver_at
        in_my_slot = (
            slot < self.my_count
            if self.is_coordinator
            else self.my_offset <= slot < self.my_offset + self.my_count
        )
        if not in_my_slot:
            return None
        packet = self.queue.peek_old_for(receiver)
        if packet is None:
            return None
        return self.transmit(packet, intended_receiver=receiver)

    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        clock = self.clock
        if round_no < clock.assign_at:
            if self.is_coordinator:
                count = message.control.get("count")
                if count is not None:
                    self._reported_counts[message.sender] = int(count)
        elif round_no < clock.deliver_at and message.sender == COORDINATOR:
            if message.intended_receiver == self.station_id:
                # The message's "total" equals the clock's (the coordinator
                # wrote both); only the private offset needs remembering.
                self.my_offset = int(message.control["offset"])

    def on_silence(self, round_no: int) -> None:
        # The coordinator treats a silent Report slot as a zero count.
        clock = self.clock
        if round_no < clock.assign_at and self.is_coordinator:
            self._reported_counts.setdefault(round_no - clock.stage_start, 0)

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        # The coordinator fixes the stage total at the end of the Report
        # substage so that the state machine can advance even if every
        # Assign message targets a station other than itself.
        if (
            self.is_coordinator
            and round_no == self.clock.assign_at - 1
            and self.clock.total is None
        ):
            self._fix_stage_total()


class _CountHopBlockDriver(RoundBlockDriver):
    """Restricted compiled-round driver for Count-Hop.

    Count-Hop is a beaconing algorithm — the coordinator transmits an
    Assign control message whether or not any packets exist — so the
    driver waives the silence invariant
    (``relies_on_silence_invariant = False``) and the engine calls the
    named transmitter's ``act`` unconditionally.

    The driver is *restricted*: it compiles only the substages whose
    transmitter sequence is fixed by the published stage schedule.

    * **Warm-up** (``[0, n)``): every station off, trivially compiled.
    * **Assign**: the coordinator beacons in every non-self slot —
      deterministic, compiled.
    * **Deliver**: senders follow the slot plan fixed at the end of the
      Report substage — deterministic within the stage, compiled.
      Assign and Deliver are contiguous, so they compile together as a
      single block per stage.
    * **Report** is *adaptive*: whether slot ``r`` transmits depends on
      station ``r``'s private queue count, so these blocks are declined
      (with a reason string surfaced through ``--negotiation``) and run
      through the kernel fallback instead — never an error.

    ``propose_stop`` aligns block boundaries with substage boundaries so
    a declined Report substage never drags the compilable Assign/Deliver
    rounds of the same chunk down with it.
    """

    relies_on_silence_invariant = False

    def __init__(self, controllers: "list[_CountHopController]") -> None:
        super().__init__(len(controllers))
        self._controllers = controllers
        self._clock = controllers[0].clock

    # -- phase geometry --------------------------------------------------------
    def _substage_at(self, start: int) -> tuple[str, int]:
        """Substage containing ``start`` and its first round past the end.

        Pure projection: the clock is only ticked up to ``start - 1``
        when the engine plans a block, so ``start`` may sit one stage
        ahead of the clock's current one (never more — blocks tick every
        executed round).
        """
        clock = self._clock
        n = self.n
        if start < n:
            return "warmup", n
        stage_start = clock.stage_start
        total = clock.total
        if not clock._started:
            stage_start, total = n, None
        if total is not None and start >= stage_start + 2 * n + total:
            stage_start += 2 * n + total
            total = None
        rel = start - stage_start
        if rel < n:
            return "report", stage_start + n
        if rel < 2 * n:
            # Assign and Deliver are both deterministic and contiguous,
            # so they compile as ONE block: the span runs to the stage
            # end (``total`` is already fixed — the Report substage set
            # it before Assign began), halving the per-block setup cost
            # against cutting at every substage boundary.
            return "assign", stage_start + 2 * n + (total or 0)
        return "deliver", stage_start + 2 * n + (total or 0)

    def propose_stop(self, start: int, stop: int) -> int:
        _, end = self._substage_at(start)
        return end if end < stop else stop

    def begin_block(self, start: int, stop: int) -> bool:
        substage, _ = self._substage_at(start)
        if substage == "report":
            self.decline_reason = (
                "count-hop: Report substage is adaptive "
                "(transmissions depend on private queue counts)"
            )
            return False
        return True

    # -- per-round protocol ----------------------------------------------------
    def transmitter(self, t: int) -> int:
        clock = self._clock
        if t < clock.n:
            return -1
        if t < clock.assign_at:
            slot = t - clock.stage_start
            if (
                slot not in (COORDINATOR, clock.receiver)
                and self._controllers[slot].my_count > 0
            ):
                return slot
            return -1
        if t < clock.deliver_at:
            return COORDINATOR if t - clock.assign_at != COORDINATOR else -1
        plan = clock._deliver_plan
        if plan is None:
            plan = clock._build_deliver_plan()
        slot = t - clock.deliver_at
        sender = plan[slot] if 0 <= slot < len(plan) else None
        return -1 if sender is None else sender

    def silent_round(self, t: int) -> None:
        clock = self._clock
        if t < clock.n:
            return
        if t < clock.assign_at:
            coordinator = self._controllers[COORDINATOR]
            coordinator._reported_counts.setdefault(t - clock.stage_start, 0)
            if t == clock.assign_at - 1 and clock.total is None:
                coordinator._fix_stage_total()

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        clock = self._clock
        controllers = self._controllers
        if t < clock.assign_at:
            coordinator = controllers[COORDINATOR]
            count = message.control.get("count")
            if count is not None:
                coordinator._reported_counts[sender] = int(count)
            if t == clock.assign_at - 1 and clock.total is None:
                coordinator._fix_stage_total()
            return ()
        if t < clock.deliver_at:
            target = message.intended_receiver
            if target is not None and target != COORDINATOR:
                controllers[target].my_offset = int(message.control["offset"])
            return ()
        sender_ctrl = controllers[sender]
        if sender_ctrl._in_flight is not None:
            sender_ctrl.queue.remove(sender_ctrl._in_flight)
            sender_ctrl._in_flight = None
        return (sender,)


@register_algorithm("count-hop")
class CountHop(RoutingAlgorithm):
    """The Count-Hop algorithm of Section 4.1 (energy cap 2, universal)."""

    name = "Count-Hop"

    def build_controllers(self) -> list[_CountHopController]:
        clock = _CountHopClock(self.n)
        controllers = [_CountHopController(i, self.n, clock) for i in range(self.n)]
        clock.attach(controllers)
        driver = _CountHopBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=2,
            oblivious=False,
            direct=True,
            plain_packet=False,
        )

    # -- analytical quantities used by tests and the analysis module -------------
    def latency_bound(self, rho: float, beta: float) -> float:
        """The latency bound ``2 (n^2 + beta) / (1 - rho)`` of Theorem 3."""
        if rho >= 1:
            return float("inf")
        return 2 * (self.n**2 + beta) / (1 - rho)
