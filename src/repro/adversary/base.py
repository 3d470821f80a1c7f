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
from typing import Sequence

import numpy as np

from .._accel import injection_round_indices
from ..channel.engine import AdversaryView
from ..channel.packet import Packet, PacketFactory
from .leaky_bucket import AdversaryType, LeakyBucketConstraint

__all__ = [
    "Adversary",
    "DEFAULT_OBSERVATION_WINDOW",
    "InjectionDemand",
    "InjectionPlan",
    "ObliviousAdversary",
    "ObservationProfile",
]

# A demand is a (source station, destination station) pair.
InjectionDemand = tuple[int, int]

#: History window granted to adversaries that do not declare a profile of
#: their own.  Large enough for any bounded-lookback heuristic, small
#: enough that week-long runs stay at O(window) memory.
DEFAULT_OBSERVATION_WINDOW = 1024


@dataclass(frozen=True, slots=True)
class ObservationProfile:
    """How much of the execution history an adversary actually observes.

    The engine negotiates the cheapest correct :class:`AdversaryView` from
    this declaration: an *oblivious* adversary (window 0) gets a view that
    is never updated, a *windowed* adversary a bounded ring buffer of the
    last ``window`` rounds, and a *full-history* adversary (window None)
    the unbounded record the worst-case model permits.  Per-station
    on-round counts (:meth:`AdversaryView.station_on_rounds`) are
    maintained incrementally from round 0 whenever the view is updated at
    all, so a bounded window never changes their values.
    """

    #: Number of completed rounds visible in the view's histories;
    #: ``0`` means the adversary never reads the view, ``None`` means the
    #: full unbounded history is required.
    window: int | None = None

    def __post_init__(self) -> None:
        if self.window is not None and self.window < 0:
            raise ValueError("observation window must be >= 0 (or None)")

    @property
    def is_oblivious(self) -> bool:
        """True when the adversary never reads the execution history."""
        return self.window == 0

    @classmethod
    def oblivious(cls) -> "ObservationProfile":
        """The adversary ignores the view entirely (fixed injection pattern)."""
        return cls(window=0)

    @classmethod
    def windowed(cls, window: int) -> "ObservationProfile":
        """The adversary reads at most the last ``window`` completed rounds."""
        if window < 1:
            raise ValueError("a windowed profile needs window >= 1")
        return cls(window=window)

    @classmethod
    def full(cls) -> "ObservationProfile":
        """The adversary may read the entire execution history."""
        return cls(window=None)


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
        offsets = [0] * (len(counts) + 1)
        acc = 0
        for r, count in enumerate(counts):
            acc += count
            offsets[r + 1] = acc
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
        if any(a > b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("plan offsets must be non-decreasing")
        if self.sources:
            if min(self.sources) < 0 or max(self.sources) >= n:
                raise ValueError(f"plan injects into stations outside [0, {n})")
            if min(self.destinations) < 0 or max(self.destinations) >= n:
                raise ValueError(f"plan addresses stations outside [0, {n})")
            if any(s == d for s, d in zip(self.sources, self.destinations)):
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

    #: Capability flag read by the kernel engine: when True, the adversary
    #: implements :meth:`plan_injections` and its injections for a whole
    #: chunk of rounds can be materialised up front — the kernel then
    #: consumes injections as array slices instead of calling
    #: :meth:`inject` once per round.  Only meaningful for adversaries
    #: whose demands never read the execution view (the per-round
    #: :meth:`inject` stays the universal fallback and the reference-loop
    #: path).
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

    # -- capability declaration ---------------------------------------------
    def observation_profile(self) -> ObservationProfile:
        """Declare how much execution history this adversary observes.

        The engines size the :class:`~repro.channel.engine.AdversaryView`
        from this declaration.  The conservative default grants a bounded
        window of :data:`DEFAULT_OBSERVATION_WINDOW` rounds; subclasses
        that never read the view should return
        :meth:`ObservationProfile.oblivious` (the kernel then skips view
        maintenance entirely), and subclasses that genuinely need the
        unbounded history must return :meth:`ObservationProfile.full` (or
        the run must set ``EngineConfig(full_history=True)``).
        """
        return ObservationProfile.windowed(DEFAULT_OBSERVATION_WINDOW)

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
            packet = self.factory.make(
                destination=destination, injected_at=round_no, origin=source
            )
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
    internal state alone; declaring that lets the kernel engine skip all
    :class:`~repro.channel.engine.AdversaryView` maintenance — and makes
    the injections *plannable*: because demands cannot depend on the
    execution, whole chunks of rounds can be materialised up front.
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

    def observation_profile(self) -> ObservationProfile:
        return ObservationProfile.oblivious()
