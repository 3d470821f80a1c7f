"""End-to-end benchmark of the reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``paper``, ``long-horizon``
and ``sweep-service``.  The process pins itself, and with it every child
it starts, to one vCPU, and reports time in host-speed-normalised
*reference seconds* (see ``perfbench/calib.py``).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` one
untraced pass and one profiled pass give the per-layer metrics instead.
Human-readable lines before it include the host diagnostics.  Any failed
or mismatching run makes the command exit 1; a checkout without the
``repro`` sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: ``(name, unit, better)`` of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("result_bytes", "B", "lower"),
    ("ok_share", "ratio", "higher"),
)
#: ``(name, unit, better)`` of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    ("adversary.busy_s", "s", "lower"),
    ("adversary.packets", "count", "higher"),
    ("core.queues.busy_s", "s", "lower"),
    ("core.queues.packet_compares", "count", "lower"),
    ("core.queues.compares_per_remove", "ratio", "lower"),
    ("algorithms.busy_s", "s", "lower"),
    ("channel.busy_s", "s", "lower"),
    ("channel.compiled_block_share", "ratio", "higher"),
    ("channel.lowered_round_share", "ratio", "higher"),
    ("channel.elided_round_share", "ratio", "higher"),
    ("metrics.busy_s", "s", "lower"),
    ("metrics.records_bytes", "B", "lower"),
    ("metrics.delays_bytes", "B", "lower"),
    ("metrics.series_bytes", "B", "lower"),
    ("metrics.other_bytes", "B", "lower"),
    ("sim.cache.busy_s", "s", "lower"),
    ("sim.cache.put_s", "s", "lower"),
    ("sim.cache.get_s", "s", "lower"),
    ("sim.cache.hit_ratio", "ratio", "higher"),
    ("sim.executor.busy_s", "s", "lower"),
    ("sim.service.busy_s", "s", "lower"),
    ("sim.service.overhead_per_spec_ms", "ms", "lower"),
    ("sim.service.submit_s", "s", "lower"),
    ("sim.service.wait_s", "s", "lower"),
    ("sim.service.fetch_s", "s", "lower"),
    ("sim.queue.shards", "count", "lower"),
    ("sim.service.served_locally", "count", "lower"),
    ("sim.netclient.busy_s", "s", "lower"),
    ("sim.netclient.requests", "count", "lower"),
    ("sim.netclient.retries", "count", "lower"),
    ("sim.cache.remote_puts", "count", "lower"),
    ("sim.cache.remote_gets", "count", "lower"),
    ("other.busy_s", "s", "lower"),
    ("trace.overhead", "x", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.raw_wall_s", "s", "lower"),
)


def pick_cpu() -> int:
    """The last vCPU this process may run on."""
    return max(os.sched_getaffinity(0))


def host_info(cpu: int) -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    import numpy

    return {
        "vcpu": cpu,
        "nproc": os.cpu_count(),
        "numba": has_numba,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def end_to_end(out) -> dict[str, float]:
    return {
        "wall_s": median(out.wall_s),
        "setup_s": median(out.setup_s),
        "peak_rss_mb": out.peak_rss_mb,
        "result_bytes": out.result_bytes,
        "ok_share": 1 - out.failed / out.attempted,
    }


def metrics_json(values: dict[str, float], spec) -> dict:
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("paper", "long-horizon", "sweep-service"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's digests to perfbench/expected.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads
    from perfbench.calib import Sampler

    def terminate(signum, frame):
        raise SystemExit(f"terminated by signal {signum}")

    signal.signal(signal.SIGTERM, terminate)
    cpu = pick_cpu()
    os.sched_setaffinity(0, {cpu})
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = {
        "paper": workloads.paper,
        "long-horizon": workloads.long_horizon,
        "sweep-service": workloads.sweep_service,
    }[args.workload]
    started = time.perf_counter()
    try:
        with Sampler() as sampler:
            ctx = workloads.Context(
                seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                work=work, sampler=sampler, deadline=started + 120.0,
            )
            out = run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    calib_ms = median(ms for _, ms in (out.calib_samples or sampler.samples))
    host = host_info(cpu)
    host.update(calib_ms=calib_ms, raw_wall_s=median(out.raw_s) if out.raw_s else None,
                raw_setup_s=median(out.setup_raw_s) if out.setup_raw_s else None,
                passes=len(out.wall_s), run_s=time.perf_counter() - started)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{out.attempted} runs checked, {out.failed} failed")
    for message in out.errors[:20]:
        print(f"  FAIL {message}")
    print("passes (reference s): " + " ".join(f"{w:.3f}" for w in out.wall_s))
    print("passes (raw s):       " + " ".join(f"{w:.3f}" for w in out.raw_s))
    print("host " + json.dumps(host, sort_keys=True))
    correct = out.failed == 0 and not out.errors and out.attempted > 0
    if args.record and correct:
        record_expected(args.workload, args.seed, out)
    if args.trace:
        values = dict(out.layers)
        values["host.calib_ms"] = calib_ms
        values["host.raw_wall_s"] = host["raw_wall_s"] or 0.0
        metrics = metrics_json(values, PER_LAYER)
    else:
        metrics = metrics_json(end_to_end(out), END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def record_expected(workload: str, seed: int, out) -> None:
    from perfbench.check import EXPECTED

    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data.setdefault(workload, {})[str(seed)] = out.reference
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
