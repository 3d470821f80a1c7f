#!/usr/bin/env python
"""Engine micro-benchmark: block vs kernel vs reference rounds-per-second.

Times the compiled round-block backend and the capability-negotiated
kernel loop against the checked reference loop on a fixed set of
configurations and appends the rounds/sec numbers to the
``BENCH_engine.json`` trajectory (one entry per invocation, keyed
by ``unix_time``) so CI can archive the history per commit.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py \
        [--smoke] [--output PATH] [--fail-below X]

``--smoke`` runs short horizons (under a minute in total) for CI; the
default horizons give steadier numbers for local comparisons.  Every
config is timed over five repeats after an untimed warm-up, every run
starts from a collected heap, and within a repeat the variants of each
gated pair run back to back (the short lowered pair three times per
repeat); a gated ratio is the median of the per-repeat ratios, so one
slow spell on a shared box moves one repeat, not the verdict.  ``--fail-below X``
exits non-zero when any tracked config's kernel speedup drops below
``X`` — the CI perf-regression gate (the trajectory file is still
written first, so the artifact survives a failing run).  Gating also
enforces the quiescent baseline bands: low-rate rows whose algorithm
declares ``silence_invariant`` are timed a second time with
``quiescence_skip=False``, and the with-skip vs without-skip ratio must
stay above the band recorded in :data:`QUIESCENT_BANDS` — the
compiled-block bands: the busy-round dense-rho rows must hold their
block-vs-kernel speedup above :data:`BLOCK_BANDS` — and the
segment-lowering bands: the dense token-withholding rows are timed a
second time with ``lowering=False`` (the strictly per-round block loop),
and the lowered vs per-round ratio must stay above
:data:`LOWERED_BANDS`.

The headline configuration — an oblivious adversary driving a
schedule-published k-Cycle at n=64 in the paper's energy-frugal regime
(k << n) — is where the kernel's negotiated fast paths all engage
(including batched injection planning); the Count-Hop / Orchestra /
Adjust-Window / k-Subsets rows track the ticked-wakes tier (shared state
machine, one tick + one batch awake-set query per round) per algorithm,
the adaptive rows track the windowed-view path with its schedule-backed
batch maintenance, and the low-rate bursty rows track the quiescence
axis (whole injection-free spans elided in one step — the win that
moves low-rate runs from O(rounds) toward O(busy rounds)), so a
regression in any negotiation branch shows up in the trajectory.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from statistics import median

if __package__ in (None, ""):  # run as a script
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.exists() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.sim import RunSpec, run_simulation  # noqa: E402

#: (name, spec template).  ``rounds`` is filled in per mode.  Names are
#: the trajectory keys — keep them stable across commits.
CONFIGS: list[tuple[str, dict]] = [
    (
        "k-cycle n=64 k=4, oblivious spray (all fast paths)",
        dict(
            algorithm="k-cycle",
            algorithm_params={"n": 64, "k": 4},
            adversary="spray",
            adversary_params={"rho": 0.04, "beta": 2.0},
        ),
    ),
    (
        "k-cycle n=64 k=8, oblivious spray",
        dict(
            algorithm="k-cycle",
            algorithm_params={"n": 64, "k": 8},
            adversary="spray",
            adversary_params={"rho": 0.08, "beta": 2.0},
        ),
    ),
    (
        "k-clique n=32 k=8, oblivious round-robin",
        dict(
            algorithm="k-clique",
            algorithm_params={"n": 32, "k": 8},
            adversary="round-robin",
            adversary_params={"rho": 0.05, "beta": 2.0},
        ),
    ),
    (
        "count-hop n=16, oblivious spray (dynamic wakes path)",
        dict(
            algorithm="count-hop",
            algorithm_params={"n": 16},
            adversary="spray",
            adversary_params={"rho": 0.3, "beta": 2.0},
        ),
    ),
    (
        "orchestra n=16, oblivious spray (ticked wakes path)",
        dict(
            algorithm="orchestra",
            algorithm_params={"n": 16},
            adversary="spray",
            adversary_params={"rho": 0.3, "beta": 2.0},
        ),
    ),
    (
        "adjust-window n=4, oblivious spray (ticked wakes path)",
        dict(
            algorithm="adjust-window",
            algorithm_params={"n": 4},
            adversary="spray",
            adversary_params={"rho": 0.3, "beta": 2.0},
        ),
    ),
    (
        "k-cycle n=32 k=4, adaptive adversary (windowed view path)",
        dict(
            algorithm="k-cycle",
            algorithm_params={"n": 32, "k": 4},
            adversary="adaptive-starvation",
            adversary_params={"rho": 0.1, "beta": 2.0},
            enforce_energy_cap=False,
        ),
    ),
    (
        "k-cycle n=64 k=4, adaptive adversary (batched windowed view)",
        dict(
            algorithm="k-cycle",
            algorithm_params={"n": 64, "k": 4},
            adversary="adaptive-starvation",
            adversary_params={"rho": 0.1, "beta": 2.0},
            enforce_energy_cap=False,
        ),
    ),
    (
        "k-subsets n=8 k=3, oblivious spray (ticked wakes path)",
        dict(
            algorithm="k-subsets",
            algorithm_params={"n": 8, "k": 3},
            adversary="spray",
            adversary_params={"rho": 0.1, "beta": 2.0},
        ),
    ),
    # -- low-rate rows: the quiescence axis.  Bursty type-(rho, beta)
    # traffic leaves long all-queues-empty stretches between bursts; the
    # quiescent rows are additionally timed with quiescence_skip=False
    # (the strictly per-round kernel) so the trajectory records the span
    # win itself, gated by QUIESCENT_BANDS below.
    (
        "k-cycle n=64 k=4, bursty rho=0.1 (quiescent span skip)",
        dict(
            algorithm="k-cycle",
            algorithm_params={"n": 64, "k": 4},
            adversary="bursty",
            adversary_params={"rho": 0.1, "beta": 8.0, "idle_rounds": 2400},
        ),
    ),
    (
        "count-hop n=16, bursty rho=0.1 (low rate, beacon holdout)",
        dict(
            algorithm="count-hop",
            algorithm_params={"n": 16},
            adversary="bursty",
            adversary_params={"rho": 0.1, "beta": 6.0, "idle_rounds": 600},
        ),
    ),
    (
        "k-subsets n=8 k=3, bursty rho=0.1 (ticked quiescent span skip)",
        dict(
            algorithm="k-subsets",
            algorithm_params={"n": 8, "k": 3},
            adversary="bursty",
            adversary_params={"rho": 0.1, "beta": 5.0, "idle_rounds": 800},
        ),
    ),
    # -- busy-round rows: the compiled-block axis.  Dense rho at n=64
    # keeps nearly every round busy (a transmission or a token advance),
    # which is exactly the regime quiescence skipping cannot touch and
    # the block engine compiles: one transmitter probe and a
    # changed-stations-only poll per round instead of the kernel's
    # per-awake-station fan-out.  Gated by BLOCK_BANDS below.
    (
        "k-cycle n=64 k=8, dense random rho near threshold (compiled blocks)",
        dict(
            algorithm="k-cycle",
            algorithm_params={"n": 64, "k": 8},
            adversary="random",
            adversary_params={"rho": 0.015, "beta": 2.0, "seed": 9},
        ),
    ),
    (
        "rrw n=64, dense random rho=0.9 (compiled blocks, all awake)",
        dict(
            algorithm="rrw",
            algorithm_params={"n": 64},
            adversary="random",
            adversary_params={"rho": 0.9, "beta": 2.0, "seed": 9},
        ),
    ),
    (
        "of-rrw n=64, dense random rho=0.9 (compiled blocks, all awake)",
        dict(
            algorithm="of-rrw",
            algorithm_params={"n": 64},
            adversary="random",
            adversary_params={"rho": 0.9, "beta": 2.0, "seed": 9},
        ),
    ),
    (
        "mbtf n=64, dense random rho=0.95 (compiled blocks, all awake)",
        dict(
            algorithm="mbtf",
            algorithm_params={"n": 64},
            adversary="random",
            adversary_params={"rho": 0.95, "beta": 2.0, "seed": 9},
        ),
    ),
    # -- restricted-driver rows: Count-Hop and Orchestra cannot promise
    # the silence invariant (their named transmitters beacon with empty
    # queues), so until this PR they always ran per-round.  The
    # restricted block drivers compile their deterministic phases
    # (Orchestra entirely; Count-Hop everything but the adaptive Report
    # substage, which each block declines into the kernel fallback) —
    # these rows are the first block numbers either algorithm has had.
    (
        "count-hop n=64, oblivious round-robin (restricted block driver)",
        dict(
            algorithm="count-hop",
            algorithm_params={"n": 64},
            adversary="round-robin",
            adversary_params={"rho": 0.5, "beta": 2.0},
        ),
    ),
    (
        "orchestra n=64, oblivious round-robin (restricted block driver)",
        dict(
            algorithm="orchestra",
            algorithm_params={"n": 64},
            adversary="round-robin",
            adversary_params={"rho": 0.5, "beta": 2.0},
        ),
    ),
]

#: Configs whose controllers declare ``silence_invariant``: name -> the
#: recorded baseline band, the minimum acceptable kernel-with-skip vs
#: kernel-without-skip speedup.  Full runs measure ~x4.3 (k-Cycle) and
#: ~x3.0 (k-Subsets) on the reference box; the bands leave headroom for
#: CI noise while still failing hard when the span fast path stops
#: engaging (speedup ~x1.0).  Enforced whenever ``--fail-below`` gates a
#: run.  The Count-Hop low-rate row is deliberately absent: its
#: coordinator beacons through idle stretches, so it has no span win to
#: protect (its kernel-vs-reference speedup is gated like every row).
QUIESCENT_BANDS: dict[str, float] = {
    "k-cycle n=64 k=4, bursty rho=0.1 (quiescent span skip)": 2.0,
    "k-subsets n=8 k=3, bursty rho=0.1 (ticked quiescent span skip)": 1.8,
}

#: Busy-round configs the block backend must keep compiling: name -> the
#: minimum acceptable block-vs-kernel speedup.  Full runs measure ~x2.8
#: (k-Cycle, canonical-replica segments), ~x4.9 (RRW) and ~x4.3 (MBTF)
#: on the reference box; the bands hold the acceptance floor of x2 on
#: the n=64 dense-rho regime while leaving headroom for CI noise.
#: Enforced whenever ``--fail-below`` gates a run.
BLOCK_BANDS: dict[str, float] = {
    "k-cycle n=64 k=8, dense random rho near threshold (compiled blocks)": 2.0,
    "rrw n=64, dense random rho=0.9 (compiled blocks, all awake)": 2.0,
    "of-rrw n=64, dense random rho=0.9 (compiled blocks, all awake)": 2.0,
    "mbtf n=64, dense random rho=0.95 (compiled blocks, all awake)": 2.0,
    # Restricted drivers: the floor only asserts "block beats kernel" —
    # Count-Hop pays the per-block decline + kernel fallback through
    # every Report substage, so its margin (~x1.17 on full horizons,
    # thinner on smoke ones) is structurally smaller than the
    # fully-compiled rows above; a total compilation failure shows up as
    # ~x0.85, far below the floor.
    "count-hop n=64, oblivious round-robin (restricted block driver)": 1.05,
    "orchestra n=64, oblivious round-robin (restricted block driver)": 1.3,
}

#: Dense token-withholding configs whose drivers lower whole segments to
#: array kernels: name -> the minimum acceptable lowered vs per-round
#: block speedup (``lowering=True`` over ``lowering=False``, both on the
#: block engine, so the ratio isolates the segment-lowering tier from the
#: compiled-block win already gated above).  Full runs measure ~x1.5-1.7
#: (RRW, MBTF) and ~x1.4 (OF-RRW) on the reference box — these are the
#: ISSUE's >=1.5x dense-rho n=64 acceptance rows — but single-core CI
#: timing is noisy, so the bands hold a conservative floor that still
#: fails hard when lowering stops engaging (ratio ~x1.0).  Enforced
#: whenever ``--fail-below`` gates a run.
LOWERED_BANDS: dict[str, float] = {
    "rrw n=64, dense random rho=0.9 (compiled blocks, all awake)": 1.3,
    "of-rrw n=64, dense random rho=0.9 (compiled blocks, all awake)": 1.15,
    "mbtf n=64, dense random rho=0.95 (compiled blocks, all awake)": 1.3,
}

# A band keyed by a name no config carries would silently stop gating the
# span win — fail at import instead.
_UNKNOWN_BANDS = (set(QUIESCENT_BANDS) | set(BLOCK_BANDS) | set(LOWERED_BANDS)) - {
    name for name, _ in CONFIGS
}
assert not _UNKNOWN_BANDS, f"band keys not in CONFIGS: {sorted(_UNKNOWN_BANDS)}"


def _time_run(template: dict, rounds: int, engine: str, **options) -> float:
    """Rounds/sec of one run of a configuration, from a collected heap.

    ``options`` (``quiescence_skip``, ``lowering``) go to the engine's
    ``EngineConfig`` through ``run_simulation``.  The timed region builds
    the algorithm and adversary too, as ``execute_spec`` does.
    Collecting first matters for the gated pairs: otherwise the garbage
    one run leaves behind is collected during the next run, which
    charges one side of a pair for the other's allocations.
    """
    spec = RunSpec(rounds=rounds, engine=engine, **template)
    gc.collect()
    start = time.perf_counter()
    algorithm = spec.build_algorithm()
    run_simulation(
        algorithm,
        spec.build_adversary(algorithm),
        rounds,
        enforce_energy_cap=spec.enforce_energy_cap,
        energy_cap=spec.energy_cap,
        engine=engine,
        **options,
    )
    return rounds / (time.perf_counter() - start)


def _median_ratio(numerators: list[float], denominators: list[float]) -> float:
    """Median of the per-repeat ratios of two interleaved timings."""
    return median(a / b for a, b in zip(numerators, denominators))


#: Timed repeats per config; gated ratios are medians over these.
REPEATS = 5

#: Interleaved (lowered, per-round) pairs per repeat of the lowered
#: rows; their gate is the median over all of these pairs' ratios.
LOWERED_PAIRS_PER_REPEAT = 3

#: Horizon of the untimed warm-up run of each variant, which pays the
#: first-call costs (lazy imports, schedule caches, numpy first use)
#: outside the timed repeats.
WARMUP_ROUNDS = 500


def run_benchmark(smoke: bool) -> dict:
    """Time every config; gated ratios are medians of per-repeat ratios.

    Within each repeat, the variants of a config's gated pairs run back
    to back, so both sides of every pair see the same machine state.  A
    slow spell on a shared box then depresses one repeat's pair together
    instead of one side of the ratio, and the median over the repeats
    discards it.  The variant no gate reads (reference on the
    block-banded rows, which are exempt from the kernel gate; block on
    the others) is timed once for the report.
    """
    base_rounds = 3_000 if smoke else 20_000
    rows = []
    for name, template in CONFIGS:
        # Block-banded rows amortise fixed setup (driver wiring, plan and
        # awake-matrix builds) over a longer smoke horizon so the gated
        # ratio is not dominated by startup noise on shared CI boxes.
        rounds = base_rounds
        if smoke and (name in BLOCK_BANDS or name in LOWERED_BANDS):
            # The restricted-driver rows amortise a per-stage block cut
            # (propose_stop aligns blocks with Count-Hop/Orchestra phase
            # boundaries), so they need a longer horizon than the other
            # banded rows before the gated ratio stabilises.
            rounds = 16_000 if "restricted" in name else 8_000
        # Variants of the row's gated pairs are timed in every repeat;
        # the one that only completes the report (reference on the
        # block-banded rows, which are exempt from the kernel gate, and
        # block elsewhere) is timed once.
        banded = name in BLOCK_BANDS
        gated: dict[str, dict] = {"kernel": {"engine": "kernel"}}
        if banded:
            gated["block"] = {"engine": "block"}
        else:
            gated["reference"] = {"engine": "reference"}
        if name in QUIESCENT_BANDS:
            # The strictly per-round kernel: the ratio records the
            # quiescent-span win itself, not the kernel-vs-reference
            # ratio that conflates all fast paths.
            gated["noskip"] = {"engine": "kernel", "quiescence_skip": False}
        lowered_pair = name in LOWERED_BANDS
        if lowered_pair:
            # The strictly per-round block steps: the ratio isolates the
            # segment-lowering win from the compiled per-round win.
            gated["nolower"] = {"engine": "block", "lowering": False}
        for options in gated.values():
            _time_run(template, WARMUP_ROUNDS, **options)
        samples: dict[str, list[float]] = {key: [] for key in gated}
        if lowered_pair:
            samples["lowered"] = []
        for _ in range(REPEATS):
            for key, options in gated.items():
                if key == "nolower":
                    # Both sides of this pair run in about a tenth of a
                    # second, so one host hiccup is a large share of a
                    # run: it runs several interleaved pairs per repeat.
                    for _ in range(LOWERED_PAIRS_PER_REPEAT):
                        samples["lowered"].append(_time_run(template, rounds, "block"))
                        samples["nolower"].append(_time_run(template, rounds, **options))
                else:
                    samples[key].append(_time_run(template, rounds, **options))
        once = "reference" if banded else "block"
        _time_run(template, WARMUP_ROUNDS, once)
        samples[once] = [_time_run(template, rounds, once)]
        rps = {key: median(values) for key, values in samples.items()}
        if banded:
            kernel_x = rps["kernel"] / rps["reference"]
            block_x = _median_ratio(samples["block"], samples["kernel"])
        else:
            kernel_x = _median_ratio(samples["kernel"], samples["reference"])
            block_x = rps["block"] / rps["kernel"]
        row = {
            "name": name,
            "rounds": rounds,
            "repeats": REPEATS,
            "reference_rps": round(rps["reference"], 1),
            "kernel_rps": round(rps["kernel"], 1),
            "block_rps": round(rps["block"], 1),
            "speedup": round(kernel_x, 2),
            "block_speedup": round(block_x, 2),
        }
        extra = ""
        band = QUIESCENT_BANDS.get(name)
        if band is not None:
            skip_x = _median_ratio(samples["kernel"], samples["noskip"])
            row["noskip_rps"] = round(rps["noskip"], 1)
            row["skip_speedup"] = round(skip_x, 2)
            row["quiescent_band"] = band
            extra = f"   span x{skip_x:.2f} (band x{band:.2f})"
        block_band = BLOCK_BANDS.get(name)
        if block_band is not None:
            row["block_band"] = block_band
            extra += f"   block band x{block_band:.2f}"
        lowered_band = LOWERED_BANDS.get(name)
        if lowered_band is not None:
            lowered_x = _median_ratio(samples["lowered"], samples["nolower"])
            row["nolower_rps"] = round(rps["nolower"], 1)
            row["lowered_speedup"] = round(lowered_x, 2)
            row["lowered_band"] = lowered_band
            extra += f"   lowered x{lowered_x:.2f} (band x{lowered_band:.2f})"
        rows.append(row)
        print(
            f"{name:<58s} reference {rps['reference']:>10,.0f} rps   "
            f"kernel {rps['kernel']:>10,.0f} rps   x{kernel_x:.2f}   "
            f"block x{block_x:.2f}{extra}"
        )
    return {
        "smoke": smoke,
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "configs": rows,
    }


def load_trajectory(path: Path) -> dict:
    """Read an existing trajectory file, upgrading the schema-1 layout.

    Schema 1 held a single run at the top level; schema 2 is
    ``{"schema": 2, "runs": [run, ...]}`` ordered by ``unix_time``.  A
    file that cannot be parsed into either shape is moved aside (to
    ``<name>.corrupt``) rather than silently overwritten, so an
    interrupted write never erases the accumulated history.
    """
    if not path.exists():
        return {"schema": 2, "runs": []}
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = None
    if isinstance(data, dict) and isinstance(data.get("runs"), list):
        return {"schema": 2, "runs": list(data["runs"])}
    if isinstance(data, dict) and "configs" in data:  # schema 1: one bare run
        data.pop("schema", None)
        return {"schema": 2, "runs": [data]}
    backup = path.with_suffix(path.suffix + ".corrupt")
    path.replace(backup)
    print(
        f"warning: could not parse {path} as a benchmark trajectory; "
        f"moved it to {backup} and starting a fresh history",
        file=sys.stderr,
    )
    return {"schema": 2, "runs": []}


def append_run(path: Path, run: dict) -> dict:
    """Append ``run`` to the trajectory at ``path`` and write it back."""
    trajectory = load_trajectory(path)
    trajectory["runs"].append(run)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def speedup_failures(run: dict, minimum: float) -> list[str]:
    """Configs of ``run`` failing the gates.

    Every row's kernel-vs-reference speedup must reach ``minimum``;
    quiescent rows must additionally hold their span win — the
    kernel-with-skip vs kernel-without-skip ratio may not regress below
    the recorded baseline band — the busy-round rows must hold their
    block-vs-kernel compiled-loop win above the BLOCK_BANDS floor — and
    the dense token-withholding rows must hold their lowered vs
    per-round block win above the LOWERED_BANDS floor.
    Block-banded rows are exempt from the kernel minimum: dense all-awake
    traffic is where the kernel's own negotiated wins are thinnest (it
    still pays the full per-awake-station fan-out), and those rows exist
    to gate the compiled-block ratio, which is strictly harder to hold.
    """
    failures = [
        f"{row['name']}: x{row['speedup']:.2f} < x{minimum:.2f}"
        for row in run["configs"]
        if row["speedup"] < minimum and "block_band" not in row
    ]
    failures.extend(
        f"{row['name']}: quiescent-span speedup x{row['skip_speedup']:.2f} "
        f"< band x{row['quiescent_band']:.2f}"
        for row in run["configs"]
        if "quiescent_band" in row and row["skip_speedup"] < row["quiescent_band"]
    )
    failures.extend(
        f"{row['name']}: block speedup x{row['block_speedup']:.2f} "
        f"< band x{row['block_band']:.2f}"
        for row in run["configs"]
        if "block_band" in row and row["block_speedup"] < row["block_band"]
    )
    failures.extend(
        f"{row['name']}: lowered speedup x{row['lowered_speedup']:.2f} "
        f"< band x{row['lowered_band']:.2f}"
        for row in run["configs"]
        if "lowered_band" in row and row["lowered_speedup"] < row["lowered_band"]
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short horizons for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        default="BENCH_engine.json",
        help="trajectory file to append to (default: ./BENCH_engine.json)",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero when any config's kernel speedup is below X "
        "(the trajectory is still written first)",
    )
    args = parser.parse_args(argv)
    run = run_benchmark(smoke=args.smoke)
    trajectory = append_run(Path(args.output), run)
    print(f"appended run to {args.output} ({len(trajectory['runs'])} runs recorded)")
    if args.fail_below is not None:
        failures = speedup_failures(run, args.fail_below)
        if failures:
            for failure in failures:
                print(f"FAIL perf regression: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
