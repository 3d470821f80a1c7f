"""Orchestra: maximum-throughput routing with energy cap 3 (Section 3.1).

Time is divided into *seasons* of ``n - 1`` rounds.  In every season one
station — the *conductor* — is switched on throughout and transmits in
every round; the other stations are *musicians*.  A virtual *baton list*
(kept identically by every station) determines who conducts: stations
take the baton in list order, except that a *big* conductor (one with at
least ``n^2 - 1`` old packets) announces its status, is moved to the
front of everybody's list and keeps the baton while it stays big.

During a season each musician switches on

* once to **learn**: in the round given by its rank among the musicians
  it hears the conductor's message and extracts (a) the rounds of the
  conductor's *next* season in which it must wake to receive packets and
  (b) the big-status toggle bit; and
* possibly several times to **receive**: in the rounds it was taught
  during the conductor's previous season, the conductor sends it a packet
  addressed to it (one hop — Orchestra routes directly).

Thus at most three stations are on per round (conductor, learner,
receiver): energy cap 3.  At the start of each of its seasons the
conductor computes the schedule for its next season from its old packets,
in injection order, skipping only those of the schedule it is about to
send.  With it the conductor builds a teach table, mapping each learner
to the ascending tuple of its slots, which the learner's round sends.

The season/baton state machine is identical at every station (the
conductor transmits in every round, so every musician reliably hears its
learn-round message), so it lives in one shared :class:`_OrchestraClock`
(a :class:`~repro.core.schedule.WakeOracle`): ``tick(t)`` advances the
baton, ``wakes(t)`` is pure afterwards, and the clock answers the whole
awake set — conductor, learner, scheduled receiver — in one call.

Paper bound (Theorem 1): against any adversary of injection rate 1 with
burstiness ``beta`` at most ``2 n^3 + beta`` packets are ever queued.
Individual packets may wait arbitrarily long (latency is unbounded), but
the queues — and hence the throughput — are optimal; by Theorem 2 no
algorithm with energy cap 2 can achieve this.
"""

from __future__ import annotations

from ..channel.feedback import Feedback
from ..channel.message import Message
from ..channel.packet import Packet
from ..core.algorithm import AlgorithmProperties, RoutingAlgorithm
from ..core.blocks import RoundBlockDriver
from ..core.controller import TickedQueueingController
from ..core.registry import register_algorithm
from ..core.schedule import WakeOracle

__all__ = ["Orchestra"]


class _OrchestraClock(WakeOracle):
    """Shared season/baton state machine of one Orchestra execution."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.season_length = n - 1
        self.baton_list = list(range(n))
        self.conductor = self.baton_list[0]
        self.big_announced = False
        self.musicians_sorted = [s for s in range(n) if s != self.conductor]
        self._season_processed = 0
        # round-in-season -> destination of the packet the conductor will
        # transmit (its promoted schedule); refreshed every season.
        self._recv_dest: dict[int, int] = {}

    def attach(self, controllers) -> None:
        super().attach(controllers)
        self._refresh_receive_map()

    def _refresh_receive_map(self) -> None:
        schedule = self.controllers[self.conductor]._current_schedule
        self._recv_dest = {r: p.destination for r, p in schedule.items()}

    def tick(self, round_no: int) -> None:
        season = round_no // self.season_length
        while self._season_processed < season:
            self._season_processed += 1
            # End-of-season baton handling (identical at every station).
            if self.big_announced:
                self.baton_list.remove(self.conductor)
                self.baton_list.insert(0, self.conductor)
                next_conductor = self.conductor
            else:
                idx = self.baton_list.index(self.conductor)
                next_conductor = self.baton_list[(idx + 1) % self.n]
            self.conductor = next_conductor
            self.big_announced = False
            self.musicians_sorted = [s for s in range(self.n) if s != next_conductor]
            for ctrl in self.controllers:
                ctrl._on_season_start(next_conductor)
            self._refresh_receive_map()

    def awake_stations(self, round_no: int) -> tuple[int, ...]:
        r = round_no % self.season_length
        conductor = self.conductor
        learner = self.musicians_sorted[r]
        dest = self._recv_dest.get(r)
        if dest is None or dest == conductor or dest == learner:
            return (conductor, learner) if conductor < learner else (learner, conductor)
        awake = sorted((conductor, learner, dest))
        return (awake[0], awake[1], awake[2])


class _OrchestraController(TickedQueueingController):
    """Per-station controller of Orchestra.

    Quiescence holdout: ``silence_invariant`` stays False because the
    conductor transmits its teach/big control message in *every* round
    of its season, packets or not — an idle Orchestra execution has no
    silent rounds at all, so there is never a quiescent span to elide.
    """

    def __init__(self, station_id: int, n: int, clock: _OrchestraClock) -> None:
        super().__init__(station_id, n, clock)
        # Receive schedules taught by each conductor: ``active`` applies to
        # that conductor's current season, ``next`` is being taught now and
        # applies to its next season.
        self._active_receive: dict[int, frozenset[int]] = {}
        self._next_receive: dict[int, frozenset[int]] = {}
        # Conductor-only state.
        self._current_schedule: dict[int, Packet] = {}
        self._pending_schedule: dict[int, Packet] = {}
        # learner -> ascending slots of its packets in the pending schedule
        self._teach: dict[int, tuple[int, ...]] = {}
        self._is_big = False
        if clock.conductor == self.station_id:
            self._start_conducting()

    @property
    def clock(self) -> _OrchestraClock:
        """The shared season clock (one source of truth: ``wake_oracle``)."""
        return self.wake_oracle

    # -- season bookkeeping -------------------------------------------------------
    def _start_conducting(self) -> None:
        """Called when this station becomes the conductor of a new season.

        Of the packets it ever scheduled, only those it is about to send
        can still be queued: only the conductor transmits, so every round
        is heard and each earlier packet left the queue in its own slot.
        """
        self._current_schedule = self._pending_schedule
        sending = {packet.packet_id for packet in self._current_schedule.values()}
        self._pending_schedule = pending = {}
        self._teach = teach = {}
        old_packets = self.queue.old_packets()
        self._is_big = len(old_packets) >= self.n**2 - 1
        slot = 0
        for packet in old_packets:
            if slot >= self.clock.season_length:
                break
            if packet.packet_id in sending:
                continue
            pending[slot] = packet
            # Slots rise, so each learner's teach tuple stays ascending.
            teach[packet.destination] = teach.get(packet.destination, ()) + (slot,)
            slot += 1

    def _on_season_start(self, next_conductor: int) -> None:
        """Clock callback at a season boundary (runs for every station)."""
        # Packets injected into the old conductor during its season become
        # old now; musicians' packets are already old.
        self.queue.age_all()
        # Promote the receive schedule taught during the new conductor's
        # previous season: it applies to the season that starts now.
        self._active_receive[next_conductor] = self._next_receive.pop(
            next_conductor, frozenset()
        )
        if next_conductor == self.station_id:
            self._start_conducting()

    # -- StationController interface --------------------------------------------------
    def wakes(self, round_no: int) -> bool:
        clock = self.clock
        clock.tick(round_no)
        if self.station_id == clock.conductor:
            return True
        r = round_no % clock.season_length
        if clock.musicians_sorted[r] == self.station_id:
            return True
        return r in self._active_receive.get(clock.conductor, frozenset())

    def act(self, round_no: int) -> Message | None:
        clock = self.clock
        if self.station_id != clock.conductor:
            return None
        r = round_no % clock.season_length
        learner = clock.musicians_sorted[r]
        packet = self._current_schedule.get(r)
        control = {
            "teach": self._teach.get(learner, ()),
            "big": self._is_big,
            "learner": learner,
        }
        return self.transmit(
            packet,
            control=control,
            intended_receiver=packet.destination if packet is not None else None,
        )

    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        clock = self.clock
        if message.sender != clock.conductor or message.sender == self.station_id:
            return
        if message.control.get("big"):
            clock.big_announced = True
        if message.control.get("learner") == self.station_id:
            taught = frozenset(message.control.get("teach", ()))
            self._next_receive[clock.conductor] = taught

    def on_inject(self, round_no: int, packet: Packet) -> None:
        if self.station_id == self.clock.conductor:
            # New for the duration of this season; aged at the season end.
            self.queue.push(packet)
        else:
            # A packet injected into a musician becomes old immediately.
            self.queue.push_old(packet)

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        if self.station_id == self.clock.conductor:
            # The conductor hears its own big announcements.
            if self._is_big:
                self.clock.big_announced = True


class _OrchestraBlockDriver(RoundBlockDriver):
    """Restricted compiled-round driver for Orchestra.

    Orchestra is the purest beaconing algorithm in the suite: the
    conductor transmits its teach/big control message in **every** round
    of its season, packets or not, so there are no silent rounds and the
    silence invariant is meaningless — the driver sets
    ``relies_on_silence_invariant = False`` and the engine calls the
    conductor's ``act`` unconditionally.

    Unlike Count-Hop, Orchestra has no adaptive phase to decline: the
    round's sole transmitter is always the season's conductor (agreed by
    every station through the shared baton-list clock), and the season
    transitions — including the big-conductor move-to-front — are driven
    by the clock tick the engine already issues once per round.  Every
    block compiles.
    """

    relies_on_silence_invariant = False

    def __init__(self, controllers: "list[_OrchestraController]") -> None:
        super().__init__(len(controllers))
        self._controllers = controllers
        self._clock = controllers[0].clock

    # -- per-round protocol ----------------------------------------------------
    def transmitter(self, t: int) -> int:
        return self._clock.conductor

    def silent_round(self, t: int) -> None:
        # Unreachable in practice: the conductor beacons every round.
        pass

    def heard_round(self, t: int, sender: int, message: Message) -> tuple[int, ...]:
        clock = self._clock
        controllers = self._controllers
        changed: tuple[int, ...] = ()
        conductor_ctrl = controllers[sender]
        if conductor_ctrl._in_flight is not None:
            conductor_ctrl.queue.remove(conductor_ctrl._in_flight)
            conductor_ctrl._in_flight = None
            changed = (sender,)
        control = message.control
        # Every awake listener mirrors the big-status toggle into the
        # shared clock (the conductor itself does so in after_feedback
        # with the identical value), and the round's learner stores the
        # taught receive schedule for the conductor's next season.
        if control.get("big"):
            clock.big_announced = True
        learner = control.get("learner")
        if learner is not None and learner != sender:
            controllers[learner]._next_receive[sender] = frozenset(
                control.get("teach", ())
            )
        return changed


@register_algorithm("orchestra")
class Orchestra(RoutingAlgorithm):
    """The Orchestra algorithm of Section 3.1 (energy cap 3, throughput 1)."""

    name = "Orchestra"

    def build_controllers(self) -> list[_OrchestraController]:
        clock = _OrchestraClock(self.n)
        controllers = [_OrchestraController(i, self.n, clock) for i in range(self.n)]
        clock.attach(controllers)
        driver = _OrchestraBlockDriver(controllers)
        for ctrl in controllers:
            ctrl.block_driver = driver
        return controllers

    def properties(self) -> AlgorithmProperties:
        return AlgorithmProperties(
            name=self.name,
            energy_cap=3,
            oblivious=False,
            direct=True,
            plain_packet=False,
        )

    # -- analytical quantities used by tests and the analysis module ----------------
    def queue_bound(self, beta: float) -> float:
        """The queue bound ``2 n^3 + beta`` of Theorem 1."""
        return 2 * self.n**3 + beta
