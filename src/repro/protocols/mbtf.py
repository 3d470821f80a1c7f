"""Move-Big-To-Front (MBTF) broadcast protocol (prior work [17]).

MBTF is the throughput-1 broadcast algorithm of Chlebus, Kowalski and
Rokicki for the uncapped multiple access channel.  The paper uses it in
two roles: as the per-thread sub-protocol of k-Subsets (Section 6) and,
conceptually, as the ancestor of Orchestra's baton mechanism.  Its ring is
the one RRW runs (:class:`~repro.protocols.token_ring.TokenRingReplica`,
driven by :mod:`repro.protocols.rrw`), so this module only fixes the
ring's big threshold for the standalone uncapped baseline.

Protocol sketch: stations keep a shared ordered list (initially by name).
A conceptual token moves down the list; the holder transmits one queued
packet per round while it has any, and a silent round passes the token
on.  A station whose queue size reaches the *big* threshold (``n``, the
number of participants) sets a control bit in its transmissions; hearing
that bit, every station moves the sender to the front of its list copy
and hands it the token, so a backlogged station can transmit every round
until it drains — which is what yields stability at injection rate 1.
"""

from __future__ import annotations

from ..core.registry import register_algorithm
from .rrw import _TokenRing

__all__ = ["MoveBigToFront"]


@register_algorithm("mbtf")
class MoveBigToFront(_TokenRing):
    """Uncapped MBTF baseline: stable for injection rate 1 with energy cap n.

    ``big_threshold`` defaults to ``n``.
    """

    name = "MBTF"

    def __init__(self, n: int, big_threshold: int | None = None) -> None:
        super().__init__(n)
        self.big_threshold = n if big_threshold is None else big_threshold
