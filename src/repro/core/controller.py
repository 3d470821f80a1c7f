"""Reusable controller base with a station-local packet queue.

Most algorithm controllers share the same skeleton: injected packets land
in a :class:`~repro.core.queues.PacketQueue`, a successfully heard own
transmission removes the transmitted packet, hearing a packet addressed to
someone else may lead to adopting it (relaying).  ``QueueingController``
factors that skeleton out so that the per-algorithm controllers only
contain protocol logic.
"""

from __future__ import annotations

from ..channel.feedback import ChannelOutcome, Feedback
from ..channel.message import Message
from ..channel.packet import Packet
from ..channel.station import StationController
from .queues import PacketQueue
from .schedule import WakeOracle

__all__ = ["QueueingController", "TickedQueueingController"]

_tuple_new = tuple.__new__


class QueueingController(StationController):
    """Station controller with a local queue and standard bookkeeping.

    Subclasses implement :meth:`wakes`, :meth:`act` and (optionally)
    :meth:`on_heard`.  The base class:

    * enqueues injected packets (:meth:`on_inject`);
    * remembers the packet attached to the message the subclass chose to
      transmit (:meth:`transmit`) and removes it from the queue once the
      transmission is confirmed heard — per Section 2 a packet may be
      removed from the transmitter's queue once it is heard on the
      channel;
    * dispatches heard messages to :meth:`on_heard`.
    """

    def __init__(self, station_id: int, n: int) -> None:
        super().__init__(station_id, n)
        self.queue = PacketQueue()
        self._in_flight: Packet | None = None
        # Pre-resolve which protocol hooks the subclass actually overrides
        # so the per-round dispatch skips no-op calls (feedback delivery is
        # the hottest controller path: once per awake station per round).
        cls = type(self)
        self._heard_hook = (
            self.on_heard if cls.on_heard is not QueueingController.on_heard else None
        )
        self._collision_hook = (
            self.on_collision
            if cls.on_collision is not QueueingController.on_collision
            else None
        )
        self._silence_hook = (
            self.on_silence
            if cls.on_silence is not QueueingController.on_silence
            else None
        )
        self._after_hook = (
            self.after_feedback
            if cls.after_feedback is not QueueingController.after_feedback
            else None
        )

    # -- helpers for subclasses -------------------------------------------------
    def transmit(
        self,
        packet: Packet | None,
        control: dict | None = None,
        intended_receiver: int | None = None,
    ) -> Message:
        """Build a message from this station and track its packet as in-flight.

        The packet (if any) stays in the queue until the channel feedback
        confirms it was heard; a collision therefore leaves the queue
        untouched.  One ``tuple.__new__`` builds the message, skipping
        :meth:`Message.__new__`.
        """
        self._in_flight = packet
        return _tuple_new(
            Message, (self.station_id, packet, control or {}, intended_receiver)
        )

    # -- StationController plumbing ----------------------------------------------
    def on_inject(self, round_no: int, packet: Packet) -> None:
        self.queue.push(packet)

    def queued_packets(self) -> int:
        return self.queue.size()

    def on_feedback(self, round_no: int, feedback: Feedback) -> None:
        # Hot path (once per awake station per round): compare the outcome
        # enum directly instead of going through the Feedback properties,
        # and only call the hooks the subclass overrides.
        outcome = feedback.outcome
        message = feedback.message
        if outcome is ChannelOutcome.HEARD and message is not None:
            if message.sender == self.station_id:
                # Own transmission confirmed: drop the in-flight packet.
                # (A packet addressed to us is consumed by the engine's
                # delivery bookkeeping; we never adopt it.)
                if self._in_flight is not None:
                    self.queue.remove(self._in_flight)
            if self._heard_hook is not None:
                self._heard_hook(round_no, message, feedback)
        elif outcome is ChannelOutcome.COLLISION:
            if self._collision_hook is not None:
                self._collision_hook(round_no)
        elif self._silence_hook is not None:
            self._silence_hook(round_no)
        self._in_flight = None
        if self._after_hook is not None:
            self._after_hook(round_no, feedback)

    # -- protocol hooks (subclasses override what they need) -----------------------
    def on_heard(self, round_no: int, message: Message, feedback: Feedback) -> None:
        """A message was heard on the channel this round."""

    def on_collision(self, round_no: int) -> None:
        """Two or more stations transmitted simultaneously."""

    def on_silence(self, round_no: int) -> None:
        """Nobody transmitted this round."""

    def after_feedback(self, round_no: int, feedback: Feedback) -> None:
        """Called after the specific outcome hook, for shared end-of-round work."""

    # -- relay helper -----------------------------------------------------------------
    def adopt(self, packet: Packet, *, as_old: bool = False) -> None:
        """Adopt a packet heard on the channel (become its relay)."""
        if packet.destination == self.station_id:
            raise ValueError("a station never adopts a packet addressed to itself")
        if as_old:
            self.queue.push_old(packet)
        else:
            self.queue.push(packet)


class TickedQueueingController(QueueingController):
    """Queueing controller with a tick-split wake protocol.

    The per-round state transitions of the algorithm's stage structure
    live in a shared :class:`~repro.core.schedule.WakeOracle` (one per
    run, referenced by every controller); :meth:`tick` delegates to it
    and :meth:`wakes` self-ticks before its pure query, so the stateful
    legacy calling convention (``wakes`` alone, once per station per
    round) keeps working unchanged.
    """

    ticked_wakes = True

    def __init__(self, station_id: int, n: int, wake_oracle: WakeOracle) -> None:
        super().__init__(station_id, n)
        self.wake_oracle = wake_oracle

    def tick(self, round_no: int) -> None:
        self.wake_oracle.tick(round_no)
