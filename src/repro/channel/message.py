"""Messages transmitted on the channel.

A message occupies exactly one round and consists of *at most one packet*
plus a string of control bits (Section 2, "Routing algorithms").  The paper
distinguishes two message disciplines:

* **plain-packet** algorithms: a message is a bare packet, no control bits;
  a station with nothing to route cannot transmit at all;
* **general** algorithms: a message may carry control bits (O(log n) of
  them) and may even be *light*, i.e. carry control bits but no packet.

The :class:`Message` class models both.  Control information is stored as a
small mapping so that algorithm code stays readable; :meth:`control_bits`
accounts for its encoded size so tests can check the O(log n) discipline.
A :class:`Message` is an immutable tuple of its four fields, which the
controllers' hot paths build with one ``tuple.__new__``.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, NamedTuple

from .packet import Packet

__all__ = ["Message", "control_bit_cost"]

_tuple_new = tuple.__new__


def control_bit_cost(value: Any) -> int:
    """Number of bits needed to encode one control value.

    Booleans cost one bit, non-negative integers cost ``ceil(log2(v + 2))``
    bits, ``None`` costs nothing, and small tuples cost the sum of their
    elements.  This is intentionally simple — it only needs to be a sound
    upper bound that lets tests verify the O(log n) control-bit discipline.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, math.ceil(math.log2(abs(value) + 2)))
    if isinstance(value, (tuple, list)):
        return sum(control_bit_cost(v) for v in value)
    raise TypeError(f"unsupported control value type: {type(value)!r}")


class _MessageFields(NamedTuple):
    sender: int
    packet: Packet | None
    control: Mapping[str, Any]
    intended_receiver: int | None


class Message(_MessageFields):
    """One round's worth of transmission by a single station.

    An immutable tuple subclass with no per-instance ``__dict__``: it
    equals the plain 4-tuple of its fields.  The keyword constructor
    gives each message a fresh empty ``control`` mapping by default; hot
    paths skip it and build the tuple with one ``tuple.__new__``.

    Attributes
    ----------
    sender:
        Name of the transmitting station (filled in by the controller).
    packet:
        The packet carried by the message, or ``None`` for a *light*
        message (only allowed for general algorithms).
    control:
        Mapping of control fields.  The packet's destination address is
        part of the packet, not of the control bits.
    intended_receiver:
        Optional addressing hint: the station this message is "sent to"
        in the sense of Section 4.2 (the unique listening station).  It is
        metadata for relays/metrics; physically every awake station hears
        the message.
    """

    __slots__ = ()

    def __new__(cls, sender, packet=None, control=None, intended_receiver=None):
        if control is None:
            control = {}
        return _tuple_new(cls, (sender, packet, control, intended_receiver))

    @property
    def is_light(self) -> bool:
        """True when the message carries no packet (control bits only)."""
        return self.packet is None

    @property
    def is_plain_packet(self) -> bool:
        """True when the message is a bare packet with no control bits."""
        return self.packet is not None and not self.control

    def control_bits(self) -> int:
        """Total number of control bits carried by this message."""
        return sum(control_bit_cost(v) for v in self.control.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"from={self.sender}"]
        if self.packet is not None:
            parts.append(f"pkt={self.packet.packet_id}->{self.packet.destination}")
        if self.control:
            parts.append(f"ctrl={dict(self.control)}")
        if self.intended_receiver is not None:
            parts.append(f"to={self.intended_receiver}")
        return "Message(" + ", ".join(parts) + ")"
