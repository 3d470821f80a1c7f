"""Experiment entry points: one per Table 1 row, impossibility and figure.

Each ``experiment_*`` function reproduces one artefact of the paper's
evaluation (``repro table1`` runs the Table 1 rows) and returns an
:class:`ExperimentResult` holding the paper's bound, the measured value
and a boolean *shape check* — the qualitative property that must hold for
the reproduction to count (stability where the paper proves stability,
divergence where it proves impossibility, measured latency within the
paper's bound where a closed-form bound exists).

The ``figure_*`` functions produce the sweep series behind the
simulation-style figures (latency vs rate, vs n, vs k, energy usage,
queue trajectories).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..algorithms import AdjustWindow, KClique, KSubsets
from ..analysis import bounds
from .parallel import ParallelExecutor, run_specs
from .runner import RunResult, worst_case_over
from .specs import RunSpec, spec_fragment
from .sweep import SweepSeries, sweep

__all__ = [
    "ExperimentResult",
    "default_adversary_family",
    "experiment_orchestra_queue",
    "experiment_cap2_impossibility",
    "experiment_count_hop_latency",
    "experiment_adjust_window_latency",
    "experiment_k_cycle_latency",
    "experiment_oblivious_impossibility",
    "experiment_k_clique_latency",
    "experiment_k_subsets_stability",
    "experiment_oblivious_direct_impossibility",
    "figure_latency_vs_rate",
    "figure_scaling_n",
    "figure_energy_tradeoff",
    "figure_energy_usage",
    "figure_queue_trajectories",
    "regenerate_table1",
]


@dataclass(slots=True)
class ExperimentResult:
    """Outcome of one reproduced experiment."""

    experiment_id: str
    label: str
    params: dict
    paper: dict
    measured: dict
    shape_ok: bool
    runs: list[RunResult] = field(default_factory=list)

    def comparison_row(self) -> dict:
        """Row for :func:`repro.analysis.table1.render_comparison`."""
        paper_text = ", ".join(f"{k}={_fmt(v)}" for k, v in self.paper.items())
        measured_text = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        params_text = ", ".join(f"{k}={_fmt(v)}" for k, v in self.params.items())
        return {
            "label": f"{self.experiment_id} {self.label}",
            "params": params_text,
            "paper": paper_text,
            "measured": measured_text + ("  [ok]" if self.shape_ok else "  [MISMATCH]"),
        }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def default_adversary_family(
    rho: float,
    beta: float,
    *,
    include_stochastic: bool = True,
    seed: int = 7,
) -> list[Callable[[], dict]]:
    """The adversary family over which worst-case metrics are maximised.

    Each factory returns a fresh :func:`~repro.sim.specs.spec_fragment`
    dict, so :func:`~repro.sim.runner.worst_case_over` can fan the family
    out over parallel worker processes (and cache results on disk).
    """
    family: list[Callable[[], dict]] = [
        lambda: spec_fragment("single-target", rho=rho, beta=beta),
        lambda: spec_fragment("spray", rho=rho, beta=beta),
        lambda: spec_fragment("round-robin", rho=rho, beta=beta),
        lambda: spec_fragment("alternating-pair", rho=rho, beta=beta),
        lambda: spec_fragment("bursty", rho=rho, beta=beta),
    ]
    if include_stochastic:
        family.append(lambda: spec_fragment("random", rho=rho, beta=beta, seed=seed))
    return family


# ---------------------------------------------------------------------------
# Table 1 rows
# ---------------------------------------------------------------------------

def experiment_orchestra_queue(
    n: int = 6, beta: float = 2.0, rounds: int = 6000,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.1 — Orchestra keeps queues below ``2 n^3 + beta`` at injection rate 1."""
    family = default_adversary_family(1.0, beta)
    family.append(lambda: spec_fragment("saturating", rho=1.0, beta=beta))
    worst, runs = worst_case_over(
        lambda: spec_fragment("orchestra", n=n), family, rounds,
        workers=workers, executor=executor, cache=cache,
    )
    queue_bound = bounds.orchestra_queue_bound(n, beta)
    max_queue = max(r.max_queue for r in runs)
    all_stable = all(r.stable for r in runs)
    return ExperimentResult(
        experiment_id="T1.1",
        label="Orchestra, rho=1",
        params={"n": n, "rho": 1.0, "beta": beta, "rounds": rounds},
        paper={"queue_bound": queue_bound, "cap": 3, "stable": True},
        measured={
            "max_queue": max_queue,
            "energy_per_round": worst.summary.energy_per_round,
            "stable": all_stable,
        },
        shape_ok=all_stable and max_queue <= queue_bound,
        runs=runs,
    )


def experiment_cap2_impossibility(
    n: int = 6, beta: float = 1.0, rounds: int = 6000,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.2 / Theorem 2 — cap-2 algorithms cannot sustain injection rate 1."""
    def families() -> list[tuple[str, Callable[[], dict]]]:
        return [("Count-Hop", lambda: spec_fragment("count-hop", n=n))]

    adversaries: list[Callable[[], dict]] = [
        lambda: spec_fragment("adaptive-starvation", rho=1.0, beta=beta),
        lambda: spec_fragment("single-target", rho=1.0, beta=beta),
        lambda: spec_fragment("saturating", rho=1.0, beta=beta),
    ]
    runs: list[RunResult] = []
    any_unstable = False
    for _, algo_factory in families():
        worst, results = worst_case_over(
            algo_factory, adversaries, rounds,
            workers=workers, executor=executor, cache=cache,
        )
        runs.extend(results)
        if any(not r.stable for r in results):
            any_unstable = True
    max_queue = max(r.max_queue for r in runs)
    return ExperimentResult(
        experiment_id="T1.2",
        label="Impossibility: cap 2 at rho=1",
        params={"n": n, "rho": 1.0, "beta": beta, "rounds": rounds},
        paper={"stable": False, "cap": 2},
        measured={"stable": not any_unstable, "max_queue": max_queue},
        shape_ok=any_unstable,
        runs=runs,
    )


def experiment_count_hop_latency(
    n: int = 6, rho: float = 0.5, beta: float = 2.0, rounds: int = 8000,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.3 — Count-Hop latency scales like ``2 (n^2 + beta)/(1 - rho)``.

    Our implementation spends ``2n`` bookkeeping rounds per stage (an
    explicit Report and an explicit Assign slot for every station) where
    the paper's accounting charges only ``n - 1``; the measured latency is
    therefore compared against twice the paper's bound, and the 1/(1-rho)
    and n^2 scaling is exercised by the F1/F2 sweeps.
    """
    family = default_adversary_family(rho, beta)
    worst, runs = worst_case_over(
        lambda: spec_fragment("count-hop", n=n), family, rounds,
        workers=workers, executor=executor, cache=cache,
    )
    latency_bound = bounds.count_hop_latency_bound(n, rho, beta)
    max_latency = max(r.latency for r in runs)
    all_stable = all(r.stable for r in runs)
    return ExperimentResult(
        experiment_id="T1.3",
        label="Count-Hop latency",
        params={"n": n, "rho": rho, "beta": beta, "rounds": rounds},
        paper={"latency_bound": latency_bound, "cap": 2, "stable": True},
        measured={
            "max_latency": max_latency,
            "implementation_bound": 2 * latency_bound,
            "energy_per_round": worst.summary.energy_per_round,
            "stable": all_stable,
        },
        shape_ok=all_stable and max_latency <= 2 * latency_bound,
        runs=runs,
    )


def experiment_adjust_window_latency(
    n: int = 4, rho: float = 0.4, beta: float = 2.0, rounds: int | None = None,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.4 — Adjust-Window is universal (stable for rho < 1) at energy cap 2.

    At small ``n`` the additive ``n^3 log L`` stage lengths dominate, so we
    compare the measured latency against twice the realised window length
    (the structural bound of Theorem 4's proof) and against the asymptotic
    formula, reporting both.
    """
    algorithm = AdjustWindow(n)
    if rounds is None:
        rounds = 4 * algorithm.initial_window
    family = default_adversary_family(rho, beta, include_stochastic=False)
    worst, runs = worst_case_over(
        lambda: spec_fragment("adjust-window", n=n), family, rounds,
        workers=workers, executor=executor, cache=cache,
    )
    asymptotic = bounds.adjust_window_latency_bound(n, rho, beta)
    max_latency = max(r.latency for r in runs)
    all_stable = all(r.stable for r in runs)
    structural_bound = 4 * algorithm.initial_window / (1 - rho)
    return ExperimentResult(
        experiment_id="T1.4",
        label="Adjust-Window latency",
        params={"n": n, "rho": rho, "beta": beta, "rounds": rounds},
        paper={
            "latency_bound_asymptotic": asymptotic,
            "cap": 2,
            "stable": True,
        },
        measured={
            "max_latency": max_latency,
            "structural_bound": structural_bound,
            "energy_per_round": worst.summary.energy_per_round,
            "stable": all_stable,
        },
        shape_ok=all_stable and max_latency <= structural_bound,
        runs=runs,
    )


def experiment_k_cycle_latency(
    n: int = 9, k: int = 4, beta: float = 2.0, rounds: int = 12000,
    rate_fraction: float = 0.6,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.5 — k-Cycle is stable below ``(k-1)/(n-1)`` with latency O(n)."""
    rho = rate_fraction * bounds.k_cycle_rate_threshold(n, k)
    family = default_adversary_family(rho, beta)
    worst, runs = worst_case_over(
        lambda: spec_fragment("k-cycle", n=n, k=k), family, rounds,
        workers=workers, executor=executor, cache=cache,
    )
    latency_bound = bounds.k_cycle_latency_bound(n, beta)
    max_latency = max(r.latency for r in runs)
    all_stable = all(r.stable for r in runs)
    return ExperimentResult(
        experiment_id="T1.5",
        label="k-Cycle latency",
        params={"n": n, "k": k, "rho": rho, "beta": beta, "rounds": rounds},
        paper={
            "latency_bound": latency_bound,
            "rate_threshold": bounds.k_cycle_rate_threshold(n, k),
            "stable": True,
        },
        measured={
            "max_latency": max_latency,
            "energy_per_round": worst.summary.energy_per_round,
            "stable": all_stable,
        },
        shape_ok=all_stable and max_latency <= latency_bound,
        runs=runs,
    )


def experiment_oblivious_impossibility(
    n: int = 9, k: int = 3, beta: float = 1.0, rounds: int = 15000,
    rate_margin: float = 1.5,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.6 / Theorem 6 — k-oblivious algorithms diverge above rate ``k/n``.

    The schedule-aware lower-bound adversary is spec'd through its
    ``least-on-station`` registry key (the published schedule is derived
    from the algorithm at execution time), so the single run dispatches
    through the shared :class:`~repro.sim.parallel.ParallelExecutor` —
    cache-aware and batched with the other rows' runs.
    """
    rho = min(1.0, rate_margin * bounds.oblivious_rate_upper_bound(n, k))
    spec = RunSpec.from_fragments(
        spec_fragment("k-cycle", n=n, k=k),
        spec_fragment("least-on-station", rho=rho, beta=beta, horizon=rounds),
        rounds,
    )
    [result] = run_specs([spec], workers=workers, executor=executor, cache=cache)
    return ExperimentResult(
        experiment_id="T1.6",
        label="Impossibility: oblivious above k/n",
        params={"n": n, "k": k, "rho": rho, "beta": beta, "rounds": rounds},
        paper={"stable": False, "threshold": bounds.oblivious_rate_upper_bound(n, k)},
        measured={
            "stable": result.stable,
            "max_queue": result.max_queue,
            "queue_growth": result.summary.queue_growth_rate,
        },
        shape_ok=not result.stable,
        runs=[result],
    )


def experiment_k_clique_latency(
    n: int = 8, k: int = 4, beta: float = 2.0, rounds: int = 20000,
    rate_fraction: float = 0.8,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.7 — k-Clique latency within ``8 (n^2/k)(1 + beta/2k)`` below its threshold."""
    rho = rate_fraction * bounds.k_clique_latency_rate_threshold(n, k)
    family = default_adversary_family(rho, beta)
    family.append(
        lambda: spec_fragment("group-local", rho=rho, beta=beta, group_size=max(2, k // 2))
    )
    worst, runs = worst_case_over(
        lambda: spec_fragment("k-clique", n=n, k=k), family, rounds,
        workers=workers, executor=executor, cache=cache,
    )
    latency_bound = bounds.k_clique_latency_bound(n, k, beta)
    max_latency = max(r.latency for r in runs)
    all_stable = all(r.stable for r in runs)
    return ExperimentResult(
        experiment_id="T1.7",
        label="k-Clique latency",
        params={"n": n, "k": k, "rho": rho, "beta": beta, "rounds": rounds},
        paper={
            "latency_bound": latency_bound,
            "rate_threshold": bounds.k_clique_latency_rate_threshold(n, k),
            "stable": True,
        },
        measured={
            "max_latency": max_latency,
            "energy_per_round": worst.summary.energy_per_round,
            "stable": all_stable,
        },
        shape_ok=all_stable and max_latency <= 2 * latency_bound,
        runs=runs,
    )


def experiment_k_subsets_stability(
    n: int = 6, k: int = 3, beta: float = 1.0, rounds: int = 20000,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.8 — k-Subsets is stable at rate ``k(k-1)/(n(n-1))`` with bounded queues."""
    rho = bounds.k_subsets_rate_threshold(n, k)
    family = default_adversary_family(rho, beta)
    worst, runs = worst_case_over(
        lambda: spec_fragment("k-subsets", n=n, k=k), family, rounds,
        workers=workers, executor=executor, cache=cache,
    )
    queue_bound = bounds.k_subsets_queue_bound(n, k, beta)
    max_queue = max(r.max_queue for r in runs)
    all_stable = all(r.stable for r in runs)
    return ExperimentResult(
        experiment_id="T1.8",
        label="k-Subsets stability",
        params={"n": n, "k": k, "rho": rho, "beta": beta, "rounds": rounds},
        paper={"queue_bound": queue_bound, "rate": rho, "stable": True},
        measured={
            "max_queue": max_queue,
            "energy_per_round": worst.summary.energy_per_round,
            "stable": all_stable,
        },
        shape_ok=all_stable and max_queue <= queue_bound,
        runs=runs,
    )


def experiment_oblivious_direct_impossibility(
    n: int = 6, k: int = 3, beta: float = 1.0, rounds: int = 20000,
    rate_margin: float = 2.0,
    *, workers: int = 1, executor=None, cache=None,
) -> ExperimentResult:
    """T1.9 / Theorem 9 — oblivious direct algorithms diverge above ``k(k-1)/(n(n-1))``.

    Both stressed algorithms (k-Subsets and k-Clique) are spec'd with the
    ``least-on-pair`` registry key and dispatched as one batch through the
    shared :class:`~repro.sim.parallel.ParallelExecutor`.
    """
    rho = min(1.0, rate_margin * bounds.oblivious_direct_rate_upper_bound(n, k))
    subsets_horizon = KSubsets(n, k).oblivious_schedule().period_length
    clique_horizon = KClique(n, k).num_pairs
    specs = [
        RunSpec.from_fragments(
            spec_fragment("k-subsets", n=n, k=k),
            spec_fragment("least-on-pair", rho=rho, beta=beta, horizon=subsets_horizon),
            rounds,
        ),
        RunSpec.from_fragments(
            spec_fragment("k-clique", n=n, k=k),
            spec_fragment("least-on-pair", rho=rho, beta=beta, horizon=clique_horizon),
            rounds,
        ),
    ]
    result, clique_result = run_specs(
        specs, workers=workers, executor=executor, cache=cache
    )
    unstable = (not result.stable) or (not clique_result.stable)
    return ExperimentResult(
        experiment_id="T1.9",
        label="Impossibility: oblivious direct",
        params={"n": n, "k": k, "rho": rho, "beta": beta, "rounds": rounds},
        paper={
            "stable": False,
            "threshold": bounds.oblivious_direct_rate_upper_bound(n, k),
        },
        measured={
            "k_subsets_stable": result.stable,
            "k_clique_stable": clique_result.stable,
            "max_queue": max(result.max_queue, clique_result.max_queue),
        },
        shape_ok=unstable,
        runs=[result, clique_result],
    )


# ---------------------------------------------------------------------------
# Figure-style sweeps
# ---------------------------------------------------------------------------

def figure_latency_vs_rate(
    n: int = 8,
    k: int = 4,
    beta: float = 1.0,
    rates: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
    rounds: int = 6000,
    workers: int = 1,
    cache=None,
) -> dict[str, SweepSeries]:
    """F1 — latency as a function of the injection rate, one curve per algorithm."""
    def adversary(rho: float) -> dict:
        return spec_fragment("spray", rho=rho, beta=beta)

    curves = {
        "Count-Hop": lambda rho: spec_fragment("count-hop", n=n),
        "Orchestra": lambda rho: spec_fragment("orchestra", n=n),
        "k-Cycle": lambda rho: spec_fragment("k-cycle", n=n, k=k),
        "k-Clique": lambda rho: spec_fragment("k-clique", n=n, k=k),
    }
    return {
        name: sweep(
            name, "rho", rates, algorithm, adversary, rounds,
            workers=workers, cache=cache,
        )
        for name, algorithm in curves.items()
    }


def figure_scaling_n(
    sizes: tuple[int, ...] = (4, 6, 8, 10),
    rho: float = 0.4,
    beta: float = 1.0,
    rounds_per_station: int = 1200,
    workers: int = 1,
    cache=None,
) -> dict[str, SweepSeries]:
    """F2 — latency and queue size as the system grows (fixed rate)."""
    def adversary(_: float) -> dict:
        return spec_fragment("round-robin", rho=rho, beta=beta)

    rounds = lambda n: int(rounds_per_station * n)
    curves = {
        "Count-Hop": lambda n: spec_fragment("count-hop", n=int(n)),
        "Orchestra": lambda n: spec_fragment("orchestra", n=int(n)),
        "k-Cycle (k=n/2)": lambda n: spec_fragment(
            "k-cycle", n=int(n), k=max(2, int(n) // 2)
        ),
    }
    return {
        name: sweep(
            name, "n", sizes, algorithm, adversary, rounds,
            workers=workers, cache=cache,
        )
        for name, algorithm in curves.items()
    }


def figure_energy_tradeoff(
    n: int = 12,
    caps: tuple[int, ...] = (2, 3, 4, 6),
    beta: float = 1.0,
    rate_fraction: float = 0.5,
    rounds: int = 15000,
    workers: int = 1,
    cache=None,
) -> dict[str, SweepSeries]:
    """F3 — latency of the oblivious algorithms as the energy cap grows."""
    def cycle_adversary(k: float) -> dict:
        rho = rate_fraction * bounds.k_cycle_rate_threshold(n, max(2, int(k)))
        return spec_fragment("spray", rho=rho, beta=beta)

    def clique_adversary(k: float) -> dict:
        rho = max(
            0.01, rate_fraction * bounds.k_clique_latency_rate_threshold(n, max(2, int(k)))
        )
        return spec_fragment("spray", rho=rho, beta=beta)

    series = {}
    series["k-Cycle"] = sweep(
        "k-Cycle",
        "k",
        [c for c in caps if c >= 2],
        lambda k: spec_fragment("k-cycle", n=n, k=int(k)),
        cycle_adversary,
        rounds,
        workers=workers,
        cache=cache,
    )
    series["k-Clique"] = sweep(
        "k-Clique",
        "k",
        [c for c in caps if c >= 2],
        lambda k: spec_fragment("k-clique", n=n, k=int(k)),
        clique_adversary,
        rounds,
        workers=workers,
        cache=cache,
    )
    return series


def figure_energy_usage(
    n: int = 8, k: int = 4, rho: float = 0.3, beta: float = 1.0, rounds: int = 6000,
    workers: int = 1, cache=None,
) -> dict[str, RunResult]:
    """F4 — energy per round / per delivered packet for every algorithm."""
    adversary = spec_fragment("round-robin", rho=rho, beta=beta)
    configs: dict[str, dict] = {
        "Orchestra": spec_fragment("orchestra", n=n),
        "Count-Hop": spec_fragment("count-hop", n=n),
        "k-Cycle": spec_fragment("k-cycle", n=n, k=k),
        "k-Clique": spec_fragment("k-clique", n=n, k=k),
        "k-Subsets": spec_fragment("k-subsets", n=n, k=2),
        "RRW (uncapped)": spec_fragment("rrw", n=n),
        "MBTF (uncapped)": spec_fragment("mbtf", n=n),
    }
    specs = [
        RunSpec.from_fragments(algorithm, adversary, rounds)
        for algorithm in configs.values()
    ]
    results = run_specs(specs, workers=workers, cache=cache)
    return dict(zip(configs, results))


def figure_queue_trajectories(
    n: int = 9, k: int = 3, beta: float = 1.0, rounds: int = 12000,
    workers: int = 1, cache=None,
) -> dict[str, RunResult]:
    """F5 — queue-size trajectories below, at and above the oblivious threshold."""
    threshold = bounds.k_cycle_rate_threshold(n, k)
    impossibility = bounds.oblivious_rate_upper_bound(n, k)
    rates = {
        "below threshold": 0.6 * threshold,
        "at threshold": threshold,
        "above impossibility": min(1.0, 1.4 * impossibility),
    }
    specs = [
        RunSpec.from_fragments(
            spec_fragment("k-cycle", n=n, k=k),
            spec_fragment("single-target", rho=rho, beta=beta),
            rounds,
        )
        for rho in rates.values()
    ]
    results = run_specs(specs, workers=workers, cache=cache)
    return dict(zip(rates, results))


# ---------------------------------------------------------------------------
# Table 1 regeneration
# ---------------------------------------------------------------------------

def regenerate_table1(
    quick: bool = True, *, workers: int = 1, cache=None, progress=None
) -> tuple[str, list[ExperimentResult]]:
    """Run every Table 1 experiment and render a paper-vs-measured table.

    With ``quick=True`` (the default) small systems and shorter runs are
    used so that the whole table regenerates in a couple of minutes; the
    benchmark harness runs the full-size versions row by row.  With
    ``workers > 1`` each row's adversary family fans out over a shared
    process pool; the summaries are bit-identical to a serial run.
    ``progress`` is a ``progress(done, total)`` callback (e.g.
    :class:`~repro.sim.progress.ProgressTicker`) invoked per adversary
    family as its runs finish.
    """
    from ..analysis.table1 import render_comparison

    with ParallelExecutor(workers, cache=cache, progress=progress) as executor:
        fan = {"executor": executor}
        if quick:
            results = [
                experiment_orchestra_queue(n=5, rounds=3000, **fan),
                experiment_cap2_impossibility(n=5, rounds=4000, **fan),
                experiment_count_hop_latency(n=5, rho=0.5, rounds=4000, **fan),
                experiment_adjust_window_latency(n=3, rho=0.4, **fan),
                experiment_k_cycle_latency(n=7, k=3, rounds=8000, **fan),
                experiment_oblivious_impossibility(n=6, k=2, rounds=8000, **fan),
                experiment_k_clique_latency(n=6, k=2, rounds=10000, **fan),
                experiment_k_subsets_stability(n=5, k=2, rounds=10000, **fan),
                experiment_oblivious_direct_impossibility(n=5, k=2, rounds=10000, **fan),
            ]
        else:
            results = [
                experiment_orchestra_queue(**fan),
                experiment_cap2_impossibility(**fan),
                experiment_count_hop_latency(**fan),
                experiment_adjust_window_latency(**fan),
                experiment_k_cycle_latency(**fan),
                experiment_oblivious_impossibility(**fan),
                experiment_k_clique_latency(**fan),
                experiment_k_subsets_stability(**fan),
                experiment_oblivious_direct_impossibility(**fan),
            ]
    table = render_comparison([r.comparison_row() for r in results])
    return table, results
