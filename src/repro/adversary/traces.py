"""Recording and replaying injection traces.

Two uses:

* **Reproducibility** — a stochastic or adaptive adversary's realised
  injections can be recorded once and replayed bit-for-bit against a
  different algorithm, so that algorithm comparisons in the benchmark
  harness see *identical* traffic.
* **Hand-crafted scenarios** — tests construct explicit
  :class:`InjectionTrace` objects to exercise specific protocol corner
  cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..channel.engine import AdversaryView
from .base import Adversary, InjectionDemand, ObliviousAdversary
from .leaky_bucket import AdversaryType, verify_injection_record

__all__ = ["TraceEntry", "InjectionTrace", "RecordingAdversary", "ReplayAdversary"]


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One recorded injection: round, source station and destination."""

    round_no: int
    source: int
    destination: int


@dataclass(slots=True)
class InjectionTrace:
    """An ordered collection of injections, independent of packet identity."""

    entries: list[TraceEntry] = field(default_factory=list)

    def append(self, round_no: int, source: int, destination: int) -> None:
        self.entries.append(TraceEntry(round_no, source, destination))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def per_round_counts(self, rounds: int | None = None) -> list[int]:
        """Number of injections in each round (padded to ``rounds``)."""
        horizon = rounds if rounds is not None else (
            max((e.round_no for e in self.entries), default=-1) + 1
        )
        counts = [0] * horizon
        for entry in self.entries:
            if entry.round_no < horizon:
                counts[entry.round_no] += 1
        return counts

    def conforms_to(self, rho: float, beta: float, rounds: int | None = None) -> bool:
        """Check the trace against a (rho, beta) leaky-bucket envelope."""
        counts = self.per_round_counts(rounds)
        return verify_injection_record(
            counts, AdversaryType(rho=rho, beta=beta), strict=False
        )

    @classmethod
    def from_entries(
        cls, entries: Iterable[tuple[int, int, int]]
    ) -> "InjectionTrace":
        trace = cls()
        for round_no, source, destination in entries:
            trace.append(round_no, source, destination)
        return trace


class RecordingAdversary(Adversary):
    """Wraps another adversary and records every injection it makes.

    It records round by round and so does not plan its injections: the
    engines call :meth:`inject` every round and feed the view, which the
    wrapped adversary's demands may read.
    """

    def __init__(self, inner: Adversary) -> None:
        super().__init__(inner.rho, inner.beta)
        self.inner = inner
        self.trace = InjectionTrace()

    def on_bind(self, n: int) -> None:
        if self.inner.n is None:
            self.inner.bind(n, self.factory)

    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        demands = list(self.inner.demand(round_no, budget, view))[:budget]
        # Keep the inner adversary's own constraint tracker in sync so its
        # later decisions (e.g. burst scheduling) see the true budget.
        self.inner.constraint.consume(len(demands))
        for source, destination in demands:
            self.trace.append(round_no, source, destination)
        return demands

    def describe(self) -> str:
        return f"Recording({self.inner.describe()})"


class ReplayAdversary(ObliviousAdversary):
    """Replays a previously recorded :class:`InjectionTrace`.

    The declared ``(rho, beta)`` type must admit the trace; this is
    verified eagerly at bind time so that misuse fails fast.
    """

    def __init__(self, rho: float, beta: float, trace: InjectionTrace) -> None:
        super().__init__(rho, beta)
        self.trace = trace
        self._by_round: dict[int, list[TraceEntry]] = {}

    def on_bind(self, n: int) -> None:
        if not self.trace.conforms_to(self.rho, self.beta):
            raise ValueError(
                "trace does not conform to the declared (rho, beta) envelope"
            )
        self._by_round = {}
        for entry in self.trace:
            if entry.source >= n or entry.destination >= n:
                raise ValueError("trace references stations outside this system")
            self._by_round.setdefault(entry.round_no, []).append(entry)

    def demand(
        self, round_no: int, budget: int, view: AdversaryView
    ) -> Sequence[InjectionDemand]:
        entries = self._by_round.get(round_no, [])
        return [(e.source, e.destination) for e in entries][:budget]

    def _plan_chunk(self, start, stop):
        """Batched replay: one pass over the chunk, no per-round demand call.

        The trace conforms to the declared envelope (checked at bind), so
        the budget clip almost never engages; it is still applied exactly
        as the per-round path would, via the same budget()/consume()
        recurrence.
        """
        constraint = self.constraint
        by_round = self._by_round
        counts: list[int] = []
        sources: list[int] = []
        destinations: list[int] = []
        for t in range(start, stop):
            entries = by_round.get(t)
            if not entries:
                constraint.consume(0)
                counts.append(0)
                continue
            budget = constraint.budget()
            take = entries if len(entries) <= budget else entries[:budget]
            for entry in take:
                sources.append(entry.source)
                destinations.append(entry.destination)
            counts.append(len(take))
            constraint.consume(len(take))
        return counts, sources, destinations

    def describe(self) -> str:
        return f"Replay({len(self.trace)} injections, {self.adversary_type})"
