"""Steadiness check: run each workload under several seeds, report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads paper,long-horizon,sweep-service \
        --seeds 10 --seconds 20

For every end-to-end metric it prints the median of the runs and the
spread — the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — next to
the metric's bound from ``BENCHMARK.json``.  ``wall_s`` and ``setup_s``
are followed by the same spread of the raw (not normalised) times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for constants)."""
    mid = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """``(final JSON line, host line)`` of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    host = next(json.loads(l[5:]) for l in lines if l.startswith("host "))
    return json.loads(lines[-1]), host


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", default="paper,long-horizon,sweep-service")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, host = run_once(workload, seed, seconds)
            results.append((result, host))
            wall = result["metrics"]["wall_s"]["value"]
            print(f"  {workload} seed {seed}: wall_s {wall:.3f} raw {host['raw_wall_s']:.3f} "
                  f"setup_s {result['metrics']['setup_s']['value']:.3f} "
                  f"passes {host['passes']} run {host['run_s']:.1f}s", flush=True)
        print(f"{workload}: {len(results)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            s = spread(values)
            line = (f"  {name:<14} median {statistics.median(values):<14.6g} "
                    f"spread {s:.4f} (bound {bound}, third {bound / 3:.4f})")
            raw_key = {"wall_s": "raw_wall_s", "setup_s": "raw_setup_s"}.get(name)
            if raw_key:
                line += f"  raw spread {spread([h[raw_key] for _, h in results]):.4f}"
            if name != "setup_s":
                worst = max(worst, s / bound)
            print(line, flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
