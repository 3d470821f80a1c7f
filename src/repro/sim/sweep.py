"""Parameter sweeps producing figure-style series.

The arXiv version of the paper reports its results as worst-case bounds
(Table 1); the simulation sections of such papers typically plot latency
and queue size against injection rate, system size or energy cap.  The
sweep helpers here produce exactly those series so the benchmark harness
can regenerate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .parallel import run_specs
from .runner import RunResult
from .specs import RunSpec

__all__ = ["SweepPoint", "SweepSeries", "sweep"]


@dataclass(slots=True)
class SweepPoint:
    """One point of a sweep: the swept value and the run it produced.

    Under a fault-tolerant sweep ``result`` may be a quarantined
    :class:`~repro.sim.faults.FailedResult`; check :attr:`failed` before
    reading the run metrics.
    """

    value: float
    result: RunResult

    @property
    def failed(self) -> bool:
        return self.result.failed

    @property
    def latency(self) -> int:
        return self.result.latency

    @property
    def max_queue(self) -> int:
        return self.result.max_queue

    @property
    def stable(self) -> bool:
        return self.result.stable

    @property
    def energy_per_round(self) -> float:
        return self.result.summary.energy_per_round


@dataclass(slots=True)
class SweepSeries:
    """A named series of sweep points (one curve of a figure)."""

    name: str
    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def values(self) -> list[float]:
        return [p.value for p in self.points]

    def latencies(self) -> list[int]:
        return [p.latency for p in self.points]

    def stabilities(self) -> list[bool]:
        return [p.stable for p in self.points]

    def failed_points(self) -> list[SweepPoint]:
        """Quarantined points (empty for a fault-free sweep)."""
        return [p for p in self.points if p.failed]

    def as_rows(self) -> list[dict]:
        """Rows suitable for CSV export / text rendering.

        Quarantined points render as structured failure rows (metrics
        None, ``failed`` message filled in) rather than crashing or being
        silently dropped.
        """
        rows = []
        for p in self.points:
            if p.failed:
                rows.append(
                    {
                        "series": self.name,
                        self.parameter: p.value,
                        "latency": None,
                        "max_queue": None,
                        "energy_per_round": None,
                        "stable": False,
                        "failed": p.result.describe(),
                    }
                )
            else:
                rows.append(
                    {
                        "series": self.name,
                        self.parameter: p.value,
                        "latency": p.latency,
                        "max_queue": p.max_queue,
                        "energy_per_round": round(p.energy_per_round, 3),
                        "stable": p.stable,
                        "failed": None,
                    }
                )
        return rows


def sweep(
    name: str,
    parameter: str,
    values: Sequence[float],
    algorithm_factory: Callable[[float], Mapping],
    adversary_factory: Callable[[float], Mapping],
    rounds: int | Callable[[float], int],
    *,
    enforce_energy_cap: bool = True,
    energy_cap: int | None = None,
    record_trace: bool = False,
    workers: int = 1,
    executor=None,
    cache=None,
    engine: str = "auto",
    progress=None,
    policy=None,
    manifest=None,
) -> SweepSeries:
    """Run one simulation per swept value and collect the results.

    ``algorithm_factory`` and ``adversary_factory`` receive the swept
    value and return declarative :func:`~repro.sim.specs.spec_fragment`
    dicts; ``rounds`` may be a constant or a function of the value
    (larger systems typically need longer runs).

    The sweep runs as one :class:`~repro.sim.specs.RunSpec` batch through
    :func:`~repro.sim.parallel.run_specs`: on ``executor`` when given,
    else on ``workers`` processes with an optional on-disk ``cache``
    (``workers=1`` is the serial fallback and produces bit-identical
    results).  ``executor`` excludes ``workers``, ``cache``, ``policy``
    and ``manifest``, which would configure only a one-shot executor:
    passing both raises ``ValueError``.

    An :class:`~repro.sim.parallel.ExecutionPolicy` (``policy``) makes
    the sweep fault-tolerant — worker crashes, transient exceptions and
    timeouts retry with deterministic backoff, and poison specs land as
    quarantined points instead of aborting the series — and a
    :class:`~repro.sim.manifest.SweepManifest` (``manifest``) checkpoints
    per-spec status incrementally so an interrupted sweep resumes.
    """
    values = list(values)
    specs = [
        RunSpec.from_fragments(
            algorithm_factory(value),
            adversary_factory(value),
            rounds(value) if callable(rounds) else rounds,
            enforce_energy_cap=enforce_energy_cap,
            energy_cap=energy_cap,
            record_trace=record_trace,
            label=f"{name}[{parameter}={value}]",
            engine=engine,
        )
        for value in values
    ]
    results = run_specs(
        specs,
        workers=workers,
        executor=executor,
        cache=cache,
        progress=progress,
        policy=policy,
        manifest=manifest,
    )
    return SweepSeries(
        name=name,
        parameter=parameter,
        points=[SweepPoint(value=v, result=r) for v, r in zip(values, results)],
    )
