"""Station controller interface.

Each of the ``n`` stations attached to the channel runs a *controller* — the
per-station part of a distributed routing algorithm.  The engine drives all
controllers in lock-step rounds:

1. :meth:`StationController.on_inject` for every packet the adversary
   injects into this station at the start of the round (this happens even
   when the station is switched off);
2. :meth:`StationController.wakes` — does the station spend this round
   switched on?
3. for awake stations only, :meth:`StationController.act` — transmit a
   message or listen (return ``None``);
4. for awake stations only, :meth:`StationController.on_feedback` with the
   round's channel feedback.

A controller must base its behaviour only on (a) the packets injected into
it, (b) the feedback it has personally heard while awake, and (c) the
globally known quantities ``n`` and the energy cap ``k`` — never on global
simulator state.  The engine enforces the physics (collisions, energy cap)
and performs the correctness bookkeeping: a packet counts as *delivered*
when it is heard on the channel in a round in which its destination
station is switched on; the engine records that delivery exactly once.
Controllers are responsible for dropping delivered packets from their own
queues (the transmitter hears its own successful transmission, and the
destination never adopts a packet addressed to itself).
"""

from __future__ import annotations

import abc

from .feedback import Feedback
from .message import Message
from .packet import Packet

__all__ = ["StationController"]


class StationController(abc.ABC):
    """Abstract per-station controller.

    Every controller keeps one queue contract: :meth:`queued_packets`
    changes only inside :meth:`on_inject`, or in a round whose channel
    outcome is HEARD (a confirmed own transmission removes a packet, a
    heard foreign packet may be adopted).  The kernel and block engines
    rely on it: after a round they re-poll only its injectees and, in a
    heard round, its awake stations.  Moving packets between a
    controller's own internal queues is allowed at any time, as long as
    the total does not change outside those two cases.

    Parameters
    ----------
    station_id:
        This station's name, an integer in ``[0, n)``.
    n:
        Total number of stations (known to algorithms).
    """

    #: Capability flag read by the kernel engine: when True, this
    #: controller's :meth:`wakes` is a pure function of ``round_no`` that
    #: agrees with the algorithm's published oblivious schedule and has no
    #: side effects, so the engine may skip calling it and materialise
    #: awake sets from the schedule in batches.  Controllers whose
    #: ``wakes`` advances internal state machines (Count-Hop, Orchestra,
    #: Adjust-Window, k-Subsets) must leave this False.
    static_wake_schedule: bool = False

    #: Capability flag read by the kernel engine: when True, the wake
    #: protocol is *tick-split* — all per-round state transitions happen
    #: in the (idempotent) :meth:`tick` of the run's shared
    #: :class:`~repro.core.schedule.WakeOracle` (every controller of the
    #: run references the same oracle via :attr:`wake_oracle`), and
    #: :meth:`wakes` is a pure query after that tick.  The kernel then
    #: issues one ``tick(t)`` plus one batch ``awake_stations(t)`` per
    #: round instead of ``n`` stateful ``wakes(t)`` calls.  ``wakes``
    #: must still self-tick (call ``self.wake_oracle.tick(round_no)``
    #: first) so the reference engine's per-station loop stays valid.
    ticked_wakes: bool = False

    #: The run's shared :class:`~repro.core.schedule.WakeOracle`, for
    #: controllers declaring :attr:`ticked_wakes`; ``None`` otherwise.
    wake_oracle = None

    #: Capability flag read by the kernel engine (the *quiescence* axis):
    #: when True, this controller guarantees the **silence invariant** —
    #: while it holds no packets it never transmits, and the state it
    #: mutates during a stretch of silent rounds in which *every*
    #: station's queue is empty (token positions, phase counters) is a
    #: pure function of the stretch's round window, reproducible by one
    #: :meth:`advance_silent_span` call.  The kernel may then elide whole
    #: quiescent spans (all queues empty, no injection planned) in one
    #: step instead of driving wakes/act/on_feedback round by round.
    #: Controllers that transmit control messages while idle (Count-Hop's
    #: coordinator, Orchestra's conductor — their idle rounds are not
    #: even silent) or whose silent-round bookkeeping depends on queue
    #: history (Adjust-Window's gossip records) must leave this False.
    silence_invariant: bool = False

    #: The run's shared :class:`~repro.core.blocks.RoundBlockDriver`, for
    #: algorithms whose rounds can be compiled by the block engine (at
    #: most one candidate transmitter per round); ``None`` otherwise.
    #: Every controller of a run must reference the *same* driver object —
    #: the block engine treats a mismatch as "no driver" and runs every
    #: chunk through the loop's fan-out steps.
    block_driver = None

    def advance_silent_span(self, start: int, stop: int) -> None:
        """Fast-forward this controller across the silent span ``[start, stop)``.

        Called by the kernel engine only when :attr:`silence_invariant`
        is declared and every station's queue was empty for the whole
        span, so every round in it had channel outcome SILENCE and no
        station transmitted.  The implementation must leave the
        controller in exactly the state that per-round driving — a
        ``wakes(t)`` / ``act(t)`` / ``on_feedback(t, SILENCE)`` sequence
        for each of its awake rounds in the span — would have.  The
        default is a no-op, correct only for controllers with no
        silence-driven state.
        """


    def __init__(self, station_id: int, n: int) -> None:
        if not 0 <= station_id < n:
            raise ValueError(f"station_id {station_id} out of range for n={n}")
        self.station_id = station_id
        self.n = n

    # -- protocol hooks ----------------------------------------------------
    def tick(self, round_no: int) -> None:
        """Advance protocol state so that ``round_no`` lies inside it.

        Idempotent per round; called (directly or via :meth:`wakes`)
        after the round's injections and before any station acts.  The
        default is a no-op — controllers declaring :attr:`ticked_wakes`
        delegate to their shared wake oracle.
        """

    @abc.abstractmethod
    def wakes(self, round_no: int) -> bool:
        """Return True when this station is switched on in ``round_no``.

        Must behave exactly like ``tick(round_no)`` followed by a pure
        (side-effect-free) query of the post-tick state.
        """

    @abc.abstractmethod
    def act(self, round_no: int) -> Message | None:
        """Transmit a message this round, or listen by returning ``None``.

        Called only when :meth:`wakes` returned True for ``round_no``.
        """

    @abc.abstractmethod
    def on_feedback(self, round_no: int, feedback: Feedback) -> None:
        """Receive the channel feedback for ``round_no`` (awake rounds only)."""

    @abc.abstractmethod
    def on_inject(self, round_no: int, packet: Packet) -> None:
        """The adversary injected ``packet`` into this station in ``round_no``."""

    # -- introspection (metrics only, not used by algorithms) --------------
    @abc.abstractmethod
    def queued_packets(self) -> int:
        """Number of packets currently queued at this station.

        Used by the metrics collector; the value must count every packet
        this station is currently responsible for (injected or adopted and
        not yet heard on the channel / consumed).  It may change only as
        the class docstring's queue contract allows.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(station={self.station_id}, n={self.n})"
