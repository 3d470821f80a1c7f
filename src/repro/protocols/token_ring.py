"""Feedback-driven token ring.

The round-robin withholding protocols of prior work (RRW, OF-RRW [3, 18]),
Move-Big-To-Front (MBTF [17]) and the in-group sub-protocols of k-Cycle,
k-Clique and k-Subsets all rely on a *conceptual token* circulating around
a ring of stations.  The token is not a message: every participating
station infers its position purely from the shared channel feedback — a
silent round means the holder had nothing to send, so the token advances;
a heard message means the holder keeps it.  MBTF adds one rule: a heard
message carrying the *big* control bit moves its sender to the front of
the ring and hands it the token.  Because all participants hear the same
feedback whenever they are awake together, their replicas of the ring
evolve identically.
"""

from __future__ import annotations

from ..channel.feedback import ChannelOutcome
from ..channel.message import Message

__all__ = ["TokenRingReplica", "moved_to_front"]


def moved_to_front(order: list[int], station: int) -> list[int]:
    """A new ring order: ``order`` with ``station`` moved to the front.

    ``order`` itself is left as it is, since replicas whose state was
    copied share it.
    """
    moved = order.copy()
    moved.remove(station)
    moved.insert(0, station)
    return moved


class TokenRingReplica:
    """Replica of the token ring shared by a group of stations.

    A *phase* ends when silence carries the token from the last member
    back to the first; a move to the front hands the token to the front
    without ending one.  The ring order is never mutated in place: a move
    to the front builds a new list, so replicas whose state was copied
    may share one list.

    Parameters
    ----------
    members:
        Station names in the ring's initial order.  The token starts at
        ``members[0]``.
    """

    #: Control bit of a heard message that moves its sender to the front.
    BIG_FLAG = "big"

    def __init__(self, members: list[int]) -> None:
        if not members:
            raise ValueError("a token group needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("group members must be distinct")
        self.members = list(members)
        self.token_pos = 0
        self.phase_no = 0
        #: The station currently holding the token.  A plain attribute
        #: (updated on every token move) because controllers read it once
        #: per awake round — the hottest query in the whole simulation.
        self.holder = self.members[0]

    def observe(self, outcome: ChannelOutcome, message: Message | None = None) -> bool:
        """Update the replica with this round's outcome (and heard message).

        Returns True when a *phase* of the group's protocol ended this
        round.
        """
        if outcome is ChannelOutcome.SILENCE:
            # Advance the token (inlined: every replica of every awake
            # station runs this once per silent round).
            members = self.members
            pos = self.token_pos + 1
            if pos < len(members):
                self.token_pos = pos
                self.holder = members[pos]
                return False
            self.token_pos = 0
            self.holder = members[0]
            self.phase_no += 1
            return True
        # A heard message keeps the token with its holder unless it
        # carries the big bit.  Collisions do not occur in these protocols
        # (only the holder may transmit) and carry no message, so one
        # would leave the token where it is and replicas consistent.
        if message is not None and message.control.get(self.BIG_FLAG):
            self._move_to_front(message.sender)
        return False

    def advance_silence(self, rounds: int) -> int:
        """Fast-forward ``rounds`` consecutive silent observations in O(1).

        State-for-state equivalent to ``rounds`` calls of
        ``observe(SILENCE)``; returns the number of phases (full token
        cycles) completed in the stretch, so callers that act on
        ``observe``'s phase-done signal can replay it in aggregate.  This
        is the quiescent-span fast path of the kernel engine: during an
        all-queues-empty stretch every round is silent, and silence never
        reorders the ring, so the token's final position is pure modular
        arithmetic.
        """
        if rounds <= 0:
            return 0
        members = self.members
        phases, self.token_pos = divmod(self.token_pos + rounds, len(members))
        self.holder = members[self.token_pos]
        self.phase_no += phases
        return phases

    def copy_from(self, other: TokenRingReplica) -> None:
        """Take ``other``'s whole state; the two then share one ring order."""
        self.members = other.members
        self.token_pos = other.token_pos
        self.phase_no = other.phase_no
        self.holder = other.holder

    def _move_to_front(self, station: int) -> None:
        members = self.members
        if station not in members:
            return
        if members[0] != station:
            self.members = moved_to_front(members, station)
        self.token_pos = 0
        self.holder = station
