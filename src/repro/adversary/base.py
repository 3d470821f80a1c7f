"""Adversary interface.

An adversary decides, at the start of every round, which packets to inject
and into which stations, subject to its leaky-bucket type ``(rho, beta)``.
Concrete adversaries implement :meth:`Adversary.demand`, returning the
*(station, destination)* pairs they would like to inject this round; the
base class clips the demand to the leaky-bucket budget, materialises
packets through the bound :class:`~repro.channel.packet.PacketFactory` and
keeps the online constraint tracker consistent, so that no concrete
adversary can accidentally exceed its own type.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import accumulate
from operator import eq, le
from typing import Sequence

import numpy as np

from .._accel import injection_round_indices
from ..channel.engine import AdversaryView
from ..channel.packet import Packet, PacketFactory
from .leaky_bucket import AdversaryType, LeakyBucketConstraint

__all__ = ["Adversary", "InjectionDemand", "InjectionPlan", "ObliviousAdversary"]

# A demand is a (source station, destination station) pair.
InjectionDemand = tuple[int, int]

@dataclass(slots=True)
class InjectionPlan:
    """Materialised injections for the half-open round window ``[start, stop)``.

    ``offsets`` has ``stop - start + 1`` entries; the injections of round
    ``start + r`` are the ``(sources[j], destinations[j])`` pairs for
    ``offsets[r] <= j < offsets[r + 1]``, in the exact order the
    per-round :meth:`Adversary.inject` path would have produced them.
    Sources and destinations are plain int lists (vectorised planners
    build them in numpy and convert once), so the consuming engine can
    slice them without per-packet numpy scalar boxing.
    """

    start: int
    stop: int
    offsets: list[int]
    sources: list[int]
    destinations: list[int]
    # Lazily-built structured views, cached because a plan is consumed by
    # several engine passes (injection slicing, quiescent-span probes) and
    # may be replayed across run() calls.  Excluded from repr/compare: two
    # plans with the same rounds and pairs are the same plan.
    _arrays: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = field(
        default=None, repr=False, compare=False
    )
    _injection_rounds: "list[int] | None" = field(
        default=None, repr=False, compare=False
    )
    # Structural fingerprint captured when the first cached view is
    # built.  The caches are derived from the mutable list fields, so a
    # plan that is mutated or re-chunked after its first export would
    # silently serve stale CSR arrays; every cached read re-checks the
    # O(1) fingerprint and raises instead.
    _seal: "tuple | None" = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.sources)

    def _fingerprint(self) -> tuple:
        return (
            self.start,
            self.stop,
            len(self.offsets),
            len(self.sources),
            len(self.destinations),
            self.offsets[-1] if self.offsets else None,
        )

    def _check_seal(self) -> None:
        if self._seal is None:
            self._seal = self._fingerprint()
        elif self._seal != self._fingerprint():
            raise RuntimeError(
                "InjectionPlan was mutated after its first array export; "
                "the cached CSR views would be stale.  Build a new plan "
                "instead of re-chunking one that engines already consumed."
            )

    def as_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The plan as structured arrays ``(offsets, sources, destinations)``.

        CSR layout: the injections of round ``start + r`` are rows
        ``offsets[r]:offsets[r + 1]`` of the flat source/destination
        arrays.  Built once and cached; all three are int64 so engine
        code can index and compare them without dtype surprises.  The
        plan is structurally sealed by the first export: mutating its
        window or pair lists afterwards makes this raise ``RuntimeError``
        rather than serve stale arrays.
        """
        self._check_seal()
        if self._arrays is None:
            self._arrays = (
                np.asarray(self.offsets, dtype=np.int64),
                np.asarray(self.sources, dtype=np.int64),
                np.asarray(self.destinations, dtype=np.int64),
            )
        return self._arrays

    def injection_rounds(self) -> list[int]:
        """Ascending absolute round numbers that carry >= 1 injection.

        This is the index the kernel and block engines binary-search when
        probing how far a quiescent span extends.  Cached after the first
        call; like :meth:`as_arrays` it raises if the plan was mutated
        after the cache was built.
        """
        self._check_seal()
        if self._injection_rounds is None:
            offsets = self.as_arrays()[0]
            self._injection_rounds = (
                injection_round_indices(offsets) + self.start
            ).tolist()
        return self._injection_rounds

    @classmethod
    def from_counts(
        cls,
        start: int,
        stop: int,
        counts: Sequence[int],
        sources: Sequence[int],
        destinations: Sequence[int],
    ) -> "InjectionPlan":
        """Assemble a plan from per-round counts plus flat pair arrays."""
        offsets = list(accumulate(counts, initial=0))
        return cls(start, stop, offsets, list(sources), list(destinations))

    def pairs_for(self, round_no: int) -> list[InjectionDemand]:
        """The (source, destination) pairs planned for ``round_no``."""
        rel = round_no - self.start
        if not 0 <= rel < self.stop - self.start:
            raise IndexError(f"round {round_no} outside plan window")
        lo, hi = self.offsets[rel], self.offsets[rel + 1]
        return list(zip(self.sources[lo:hi], self.destinations[lo:hi]))

    def validate(self, n: int) -> None:
        """Structural and range checks (the engine's per-chunk guard)."""
        if self.stop < self.start:
            raise ValueError("plan window is reversed")
        if len(self.offsets) != self.stop - self.start + 1:
            raise ValueError("plan offsets do not cover the round window")
        if (
            self.offsets[0] != 0
            or self.offsets[-1] != len(self.sources)
            or len(self.sources) != len(self.destinations)
        ):
            raise ValueError("plan offsets disagree with the pair arrays")
        if not all(map(le, self.offsets, self.offsets[1:])):
            raise ValueError("plan offsets must be non-decreasing")
        if self.sources:
            if min(self.sources) < 0 or max(self.sources) >= n:
                raise ValueError(f"plan injects into stations outside [0, {n})")
            if min(self.destinations) < 0 or max(self.destinations) >= n:
                raise ValueError(f"plan addresses stations outside [0, {n})")
            if any(map(eq, self.sources, self.destinations)):
                raise ValueError(
                    "a packet's destination must differ from its source"
                )


class Adversary(abc.ABC):
    """Base class of all packet-injection adversaries.

    Parameters
    ----------
    rho, beta:
        The leaky-bucket type of the adversary.
    """

    #: The adversary's one capability, read by the kernel and block
    #: engines.  When True, the adversary never reads the
    #: :class:`~repro.channel.engine.AdversaryView` and implements
    #: :meth:`plan_injections`: whole chunks of injections are
    #: materialised up front and consumed as array slices, and the view
    #: is never fed.  When False, the engines call :meth:`inject` once per
    #: round and feed the view after every round.  The reference loop
    #: always does the latter.
    plans_injections: bool = False

    def __init__(self, rho: float, beta: float) -> None:
        self.adversary_type = AdversaryType(rho=rho, beta=beta)
        self.constraint = LeakyBucketConstraint(self.adversary_type)
        self.n: int | None = None
        self.factory: PacketFactory | None = None

    # -- wiring ------------------------------------------------------------
    def bind(self, n: int, factory: PacketFactory | None = None) -> "Adversary":
        """Attach the adversary to a system of ``n`` stations."""
        if n < 2:
            raise ValueError("the routing problem needs at least 2 stations")
        self.n = n
        self.factory = factory or PacketFactory()
        self.on_bind(n)
        return self

    def on_bind(self, n: int) -> None:
        """Hook for subclasses that need to precompute per-``n`` state."""

    @property
    def rho(self) -> float:
        return self.adversary_type.rho

    @property
    def beta(self) -> float:
        return self.adversary_type.beta

    # -- per-round injection ------------------------------------------------
    def inject(self, round_no: int, view: AdversaryView) -> list[tuple[int, Packet]]:
        """Return the (station, packet) injections for ``round_no``.

        The number of injections is the minimum of the subclass's demand
        and the current leaky-bucket budget.
        """
        if self.n is None or self.factory is None:
            raise RuntimeError("adversary.bind(n) must be called before inject()")
        budget = self.constraint.budget()
        demanded = self.demand(round_no, budget, view)
        if not demanded:
            # Most rounds of a low-rate run inject nothing; still advance
            # the constraint tracker so the budget refills.
            self.constraint.consume(0)
            return []
        demands = list(demanded)
        if len(demands) > budget:
            demands = demands[:budget]
        injections: list[tuple[int, Packet]] = []
        for source, destination in demands:
            self._validate_pair(source, destination)
            packet = self.factory.make(destination, round_no, source)
            injections.append((source, packet))
        self.constraint.consume(len(injections))
        return injections

    @abc.abstractmethod
    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        """Return up to ``budget`` (source, destination) pairs for this round."""

    # -- batched injection planning ------------------------------------------
    def plan_injections(self, start: int, stop: int) -> InjectionPlan:
        """Materialise the injections of rounds ``[start, stop)`` in one call.

        Only adversaries declaring :attr:`plans_injections` implement
        this; the plan must be packet-for-packet identical to calling
        :meth:`inject` for each round of the window (same pairs, same
        per-round order, same leaky-bucket state afterwards), so chunks
        may alternate freely with per-round injection.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not plan injections "
            "(plans_injections is False)"
        )

    # -- helpers -------------------------------------------------------------
    def _validate_pair(self, source: int, destination: int) -> None:
        assert self.n is not None
        if not 0 <= source < self.n:
            raise ValueError(f"source station {source} out of range for n={self.n}")
        if not 0 <= destination < self.n:
            raise ValueError(
                f"destination station {destination} out of range for n={self.n}"
            )
        if source == destination:
            raise ValueError("a packet's destination must differ from its source")

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return f"{type(self).__name__}{self.adversary_type}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class ObliviousAdversary(Adversary):
    """Base class of adversaries whose demands never read the view.

    Subclasses decide their injections from ``(round_no, budget)`` and
    internal state alone.  That makes the injections *plannable*
    (:attr:`plans_injections`): because demands cannot depend on the
    execution, whole chunks of rounds can be materialised up front, and
    the kernel and block engines never feed the view.
    Every subclass implements :meth:`_plan_chunk` with batched pair
    generation; :meth:`plan_injections` wraps its output in an
    :class:`InjectionPlan`.
    """

    plans_injections = True

    def plan_injections(self, start: int, stop: int) -> InjectionPlan:
        if self.n is None or self.factory is None:
            raise RuntimeError(
                "adversary.bind(n) must be called before plan_injections()"
            )
        if stop < start:
            raise ValueError("plan window is reversed")
        counts, sources, destinations = self._plan_chunk(start, stop)
        return InjectionPlan.from_counts(start, stop, counts, sources, destinations)

    def _plan_chunk(
        self, start: int, stop: int
    ) -> tuple[list[int], list[int], list[int]]:
        """Per-round counts and flat (source, destination) lists of
        rounds ``[start, stop)``.

        Must match calling :meth:`inject` for each round of the window:
        the same pairs in the same per-round order, clipped to the same
        budgets, with the leaky-bucket tracker left in the same state.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _plan_chunk"
        )
