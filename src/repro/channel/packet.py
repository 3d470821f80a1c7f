"""Packets travelling on the multiple access channel.

A packet ``p = (d, c)`` consists of a destination address ``d`` (a station
name in ``[0, n)``) and an opaque content ``c`` (Section 2 of the paper).
For simulation and metrics purposes every packet also carries bookkeeping
fields that the *algorithms are not allowed to use*: a globally unique id,
the round it was injected, and the station it was injected into.  The
engine uses them to verify correctness (exactly-once delivery) and to
compute packet delays.  A :class:`Packet` is an immutable tuple of these
five fields, which :meth:`PacketFactory.make` builds with one
``tuple.__new__`` (and :meth:`PacketFactory.make_many` a batch of them
with C-level ``map``/``zip``).
"""

from __future__ import annotations

import itertools
from itertools import islice, repeat
from typing import Any, Iterator, NamedTuple, Sequence

__all__ = ["Packet", "PacketFactory"]

_packet_ids: Iterator[int] = itertools.count()
_tuple_new = tuple.__new__


class _PacketFields(NamedTuple):
    destination: int
    injected_at: int
    origin: int
    packet_id: int
    content: Any = None


class Packet(_PacketFields):
    """A single routable packet.

    An immutable tuple subclass with no per-instance ``__dict__``: equality
    and hash cover the five fields, so it equals the plain 5-tuple of them.

    Attributes
    ----------
    destination:
        Name of the station the packet must be delivered to.
    injected_at:
        Round number in which the adversary injected the packet.
    origin:
        Station the packet was injected into by the adversary.
    packet_id:
        Globally unique identifier, assigned by :class:`PacketFactory` (or,
        when omitted, the module-level counter).  Used only for bookkeeping.
    content:
        Opaque payload; never inspected by routing algorithms.
    """

    __slots__ = ()

    def __new__(cls, destination, injected_at, origin, packet_id=None, content=None):
        if packet_id is None:
            packet_id = next(_packet_ids)
        return _tuple_new(cls, (destination, injected_at, origin, packet_id, content))

    def delay_if_delivered(self, round_delivered: int) -> int:
        """Delay of the packet if it were delivered in ``round_delivered``."""
        return round_delivered - self.injected_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.packet_id} {self.origin}->{self.destination} "
            f"@{self.injected_at})"
        )


class PacketFactory:
    """Deterministic packet factory with its own id-space.

    Using a factory (rather than the module-level counter) makes runs
    reproducible regardless of how many packets other tests created
    before, which matters for trace comparison tests.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self.created = 0

    def make(
        self,
        destination: int,
        injected_at: int,
        origin: int,
        content: Any = None,
    ) -> Packet:
        """Create a packet with the next id from this factory.

        One ``tuple.__new__`` builds it, skipping :meth:`Packet.__new__`.
        """
        self.created += 1
        return _tuple_new(
            Packet, (destination, injected_at, origin, next(self._counter), content)
        )

    def make_many(
        self,
        destinations: Sequence[int],
        injected_at: Sequence[int],
        origins: Sequence[int],
    ) -> list[Packet]:
        """Create one packet per ``(destination, round, origin)`` triple.

        Equal to calling :meth:`make` on each triple in order: the packets
        take this factory's next ids, and ``created`` goes up by their
        count.  C-level ``map``/``zip`` build them, one ``tuple.__new__``
        each.  The three sequences must have equal lengths.
        """
        count = len(destinations)
        ids = islice(self._counter, count)
        fields = zip(
            destinations, injected_at, origins, ids, repeat(None, count), strict=True
        )
        packets = list(map(_tuple_new, repeat(Packet, count), fields))
        self.created += count
        return packets
