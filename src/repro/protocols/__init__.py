"""Prior-work protocols the paper builds on: RRW, OF-RRW [3, 18] and MBTF [17]."""

from .mbtf import MoveBigToFront
from .rrw import OldFirstRoundRobinWithholding, RoundRobinWithholding
from .token_ring import TokenRingReplica

__all__ = [
    "MoveBigToFront",
    "OldFirstRoundRobinWithholding",
    "RoundRobinWithholding",
    "TokenRingReplica",
]
