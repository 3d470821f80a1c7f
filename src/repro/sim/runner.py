"""Simulation runner: wire an algorithm, an adversary and the engine together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..adversary.base import Adversary
from ..channel.block import BlockEngine
from ..channel.engine import EngineConfig, RoundEngine
from ..channel.events import ExecutionTrace
from ..channel.kernel import KernelEngine
from ..channel.packet import PacketFactory
from ..core.algorithm import RoutingAlgorithm
from ..metrics.collector import MetricsCollector
from ..metrics.summary import RunSummary

__all__ = ["ENGINE_KINDS", "RunResult", "resolve_engine", "run_simulation", "worst_case_over"]

#: Valid values of the ``engine`` selector: ``"auto"`` picks the block
#: engine unless the run needs a trace, ``"block"`` forces it (compiled
#: round blocks where a driver accepts them, the kernel's fan-out steps
#: everywhere else), ``"kernel"`` forces the capability-negotiated
#: per-round loop with fan-out steps only, ``"reference"`` forces the
#: checked oracle loop.  All four produce bit-identical results.
ENGINE_KINDS = ("auto", "block", "kernel", "reference")


def resolve_engine(engine: str, record_trace: bool) -> str:
    """Resolve the ``engine`` selector to a concrete engine kind.

    ``"auto"`` prefers ``"block"``: runs whose components negotiate the
    block capabilities get compiled blocks, and everything else runs
    the kernel's fan-out steps — per chunk, inside the same loop — at
    negligible cost, so the preference is always safe.  A requested
    trace forces ``"reference"``, the only engine that records one.
    """
    if engine not in ENGINE_KINDS:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_KINDS}")
    if engine == "auto":
        return "reference" if record_trace else "block"
    return engine


@dataclass(slots=True)
class RunResult:
    """Everything produced by one simulated execution.

    ``collector`` keeps the per-round series and delays, but per-packet
    state only for the packets still queued at the end (its ``records``
    ledger), so a pickled result grows with the backlog and the per-round
    series, not with the number of packets ever injected.
    """

    algorithm: str
    adversary: str
    n: int
    rounds: int
    summary: RunSummary
    collector: MetricsCollector
    trace: ExecutionTrace | None = None
    #: Concrete engine kind that executed the run ("block" / "kernel" /
    #: "reference"), after ``auto`` resolution.
    engine_used: str | None = None
    #: The engine's negotiated-capability report (``None`` for the
    #: reference loop, which negotiates nothing).
    negotiation: dict | None = None

    @property
    def failed(self) -> bool:
        """Discriminator mirrored by :class:`~repro.sim.faults.FailedResult`
        (True there): supervised batches may mix both types."""
        return False

    @property
    def max_queue(self) -> int:
        return self.summary.max_queue

    @property
    def latency(self) -> int:
        return self.summary.observed_latency

    @property
    def stable(self) -> bool:
        return self.summary.stable


def run_simulation(
    algorithm: RoutingAlgorithm,
    adversary: Adversary,
    rounds: int,
    *,
    enforce_energy_cap: bool = True,
    energy_cap: int | None = None,
    record_trace: bool = False,
    label: str | None = None,
    engine: str = "auto",
    **engine_options,
) -> RunResult:
    """Simulate ``rounds`` rounds of ``algorithm`` against ``adversary``.

    Parameters
    ----------
    algorithm:
        A concrete :class:`RoutingAlgorithm` instance (defines ``n``).
    adversary:
        The packet-injection adversary; it is bound to the algorithm's
        system size if not bound already.
    rounds:
        Number of rounds to simulate.
    enforce_energy_cap:
        When True (default) the engine raises if the algorithm ever wakes
        more stations than its declared energy cap — a correctness check.
        Set to False for experiments that merely *measure* energy.
    energy_cap:
        Override of the cap to enforce/record; defaults to the
        algorithm's own declared cap.
    record_trace:
        Keep the full round-by-round execution trace (memory heavy).
    label:
        Label stored in the resulting summary; defaults to a description
        of the configuration.
    engine:
        ``"auto"`` (default) runs the block engine unless a trace is
        requested; ``"block"`` forces it explicitly (chunks no driver
        compiles run the kernel's fan-out steps inside the same loop);
        ``"kernel"`` forces the capability-negotiated per-round loop; ``"reference"`` is the escape hatch forcing the original
        checked loop.  All engines produce bit-identical summaries
        (property-tested).
    engine_options:
        Further :class:`~repro.channel.engine.EngineConfig` fields
        (``plan_chunk``, ``quiescence_skip``, ``lowering``), passed on
        unchanged.  They choose how the engine executes the run, never
        what it computes: results are bit-identical for every value.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    controllers = algorithm.build_controllers()
    if adversary.n is None:
        adversary.bind(algorithm.n, PacketFactory())
    elif adversary.n != algorithm.n:
        raise ValueError(
            f"adversary bound to n={adversary.n} but algorithm has n={algorithm.n}"
        )
    collector = MetricsCollector()
    cap = energy_cap if energy_cap is not None else algorithm.energy_cap
    config = EngineConfig(
        energy_cap=cap,
        enforce_energy_cap=enforce_energy_cap,
        record_trace=record_trace,
        **engine_options,
    )
    kind = resolve_engine(engine, record_trace)
    if kind in ("block", "kernel"):
        engine_cls = BlockEngine if kind == "block" else KernelEngine
        eng = engine_cls(
            controllers,
            adversary,
            collector=collector,
            config=config,
            schedule=algorithm.oblivious_schedule(),
        )
    else:
        eng = RoundEngine(controllers, adversary, collector=collector, config=config)
    eng.run(rounds)
    run_label = label or f"{algorithm.describe()} vs {adversary.describe()}"
    return RunResult(
        algorithm=algorithm.describe(),
        adversary=adversary.describe(),
        n=algorithm.n,
        rounds=rounds,
        summary=collector.summary(run_label),
        collector=collector,
        trace=eng.trace,
        engine_used=kind,
        negotiation=eng.negotiation() if kind != "reference" else None,
    )


def worst_case_over(
    algorithm_factory: Callable[[], Mapping],
    adversary_factories: Sequence[Callable[[], Mapping]],
    rounds: int,
    *,
    enforce_energy_cap: bool = True,
    workers: int = 1,
    executor=None,
    cache=None,
    engine: str = "auto",
    policy=None,
) -> tuple[RunResult, list[RunResult]]:
    """Run one fresh algorithm instance against each adversary in a family.

    Returns the worst run (by observed latency, then max queue, with the
    adversary description as a final deterministic tie-break) and the full
    list of per-adversary results.  The paper's bounds are worst-case
    statements, so the measured values ``repro table1`` reports are maxima
    over an adversary family.

    Factories return declarative :func:`~repro.sim.specs.spec_fragment`
    dicts; the family runs as one spec batch through
    :func:`~repro.sim.parallel.run_specs` (on ``executor`` when given,
    else on ``workers`` processes with an optional on-disk ``cache``;
    ``workers=1`` is the serial fallback; an ``executor`` beside
    ``workers``, ``cache`` or ``policy`` raises ``ValueError``).  An
    :class:`~repro.sim.parallel.ExecutionPolicy` (or a supervised
    ``executor``) makes the family fault-tolerant; quarantined
    :class:`~repro.sim.faults.FailedResult` entries stay in the returned
    list but are deterministically skipped — with a warning — when
    picking the worst run (a quarantined spec must never silently *be*
    the worst case).
    """
    from .parallel import run_specs
    from .specs import RunSpec

    specs = [
        RunSpec.from_fragments(
            algorithm_factory(),
            factory(),
            rounds,
            enforce_energy_cap=enforce_energy_cap,
            engine=engine,
        )
        for factory in adversary_factories
    ]
    results = run_specs(
        specs, workers=workers, executor=executor, cache=cache, policy=policy
    )
    completed = [r for r in results if not r.failed]
    skipped = [r for r in results if r.failed]
    if skipped:
        import warnings

        # Sorted hashes make the warning text deterministic regardless of
        # completion order; the skip itself is deterministic because the
        # max() below only ever sees successfully completed runs.
        detail = ", ".join(
            sorted(f"{r.label} ({r.error_type})" for r in skipped)
        )
        warnings.warn(
            f"worst_case_over: skipping {len(skipped)} quarantined run(s): {detail}",
            RuntimeWarning,
            stacklevel=2,
        )
    if not completed:
        raise RuntimeError(
            "worst_case_over: every run in the family was quarantined; "
            "no worst case can be reported"
        )
    worst = max(completed, key=lambda r: (r.latency, r.max_queue, r.adversary))
    return worst, results
