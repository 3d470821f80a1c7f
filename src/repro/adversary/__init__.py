"""Adversarial packet-injection models (leaky bucket, Section 2).

Contains the ``(rho, beta)`` leaky-bucket constraint tracker, fixed
deterministic traffic patterns, seeded stochastic generators clipped to
the envelope, adaptive / schedule-aware lower-bound adversaries used for
the impossibility experiments, and trace record/replay utilities.
"""

from .adaptive import (
    AdaptiveStarvationAdversary,
    LeastOnPairAdversary,
    LeastOnStationAdversary,
    ScheduleLike,
)
from .base import Adversary, InjectionDemand, InjectionPlan, ObliviousAdversary
from .leaky_bucket import (
    AdversaryType,
    LeakyBucketConstraint,
    LeakyBucketViolation,
    verify_injection_record,
)
from .patterns import (
    AlternatingPairAdversary,
    BurstThenIdleAdversary,
    GroupLocalAdversary,
    NoInjectionAdversary,
    RoundRobinAdversary,
    SaturatingAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
)
from .stochastic import (
    DEFAULT_RNG_VERSION,
    HotspotAdversary,
    RandomWalkAdversary,
    SeededAdversary,
    UniformRandomAdversary,
)
from .traces import InjectionTrace, RecordingAdversary, ReplayAdversary, TraceEntry

__all__ = [
    "AdaptiveStarvationAdversary",
    "Adversary",
    "AdversaryType",
    "AlternatingPairAdversary",
    "BurstThenIdleAdversary",
    "DEFAULT_RNG_VERSION",
    "GroupLocalAdversary",
    "HotspotAdversary",
    "InjectionDemand",
    "InjectionPlan",
    "InjectionTrace",
    "LeakyBucketConstraint",
    "LeakyBucketViolation",
    "LeastOnPairAdversary",
    "LeastOnStationAdversary",
    "NoInjectionAdversary",
    "ObliviousAdversary",
    "RandomWalkAdversary",
    "RecordingAdversary",
    "ReplayAdversary",
    "RoundRobinAdversary",
    "SaturatingAdversary",
    "ScheduleLike",
    "SeededAdversary",
    "SingleSourceSprayAdversary",
    "SingleTargetAdversary",
    "TraceEntry",
    "UniformRandomAdversary",
    "verify_injection_record",
]
