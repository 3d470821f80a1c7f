"""Multiple access channel substrate.

This subpackage implements the shared-channel model of Section 2 of the
paper: packets, one-round messages, ternary channel feedback, switched
on/off stations with per-round energy accounting, and the synchronous
round engine that arbitrates transmissions and performs delivery
bookkeeping.
"""

from .block import BlockEngine
from .energy import EnergyCapViolation, EnergyMonitor
from .engine import AdversaryView, EngineConfig, RoundEngine
from .events import ExecutionTrace, InjectionEvent, RoundEvent
from .feedback import ChannelOutcome, Feedback
from .kernel import KernelEngine
from .message import Message, control_bit_cost
from .packet import Packet, PacketFactory
from .station import StationController

__all__ = [
    "AdversaryView",
    "BlockEngine",
    "ChannelOutcome",
    "EngineConfig",
    "EnergyCapViolation",
    "EnergyMonitor",
    "ExecutionTrace",
    "Feedback",
    "InjectionEvent",
    "KernelEngine",
    "Message",
    "Packet",
    "PacketFactory",
    "RoundEngine",
    "RoundEvent",
    "StationController",
    "control_bit_cost",
]
