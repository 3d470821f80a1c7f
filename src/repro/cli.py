"""Command-line interface.

Provides quick access to the library from a shell::

    python -m repro list
    python -m repro run --algorithm k-cycle --n 9 --k 3 --rho 0.15 --rounds 20000
    python -m repro table1 [--full] [--workers N]
    python -m repro sweep --algorithm count-hop --n 6 --rates 0.2,0.4,0.6,0.8 --workers 4

The CLI is a thin wrapper over :mod:`repro.sim`; anything beyond a quick
look should use the Python API directly.  ``--workers N`` fans independent
runs out over N spawn-safe worker processes with results bit-identical to
the serial path, and ``--cache-dir`` reuses finished runs across
invocations (defaults to ``~/.cache/repro-sim`` when ``--cache`` is set).

The distributed trio turns the harness into a service::

    python -m repro serve  --queue-dir Q --cache-dir C --port 8750
    python -m repro worker --server http://host:8750 &   # any number, any machine
    python -m repro submit --server http://host:8750 --algorithm rrw --n 8 ...

``serve`` shards submitted batches into its in-memory lease-based work
queue, ``worker`` processes claim/execute/heartbeat them over HTTP and
publish results to the server's cache endpoints (crash-safe: expired
leases are stolen and finished idempotently against the cache), and
``submit`` posts a sweep and streams progress until the results are in.
Workers share no filesystem with the server.  Every RPC goes through a
resilient client — timeouts, deterministic retry/backoff, a circuit
breaker that degrades to a local spill cache and reconciles on
recovery — and both sides can deterministically inject network faults
(``--fault-net-*``) for testing.  ``sweep --shard i/k`` is the manual
alternative: a deterministic spec-hash partition for splitting one
sweep across machines by hand.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .adversary.stochastic import SeededAdversary
from .core import available_algorithms
from .metrics.summary import RunSummary
from .sim import (
    ExecutionPolicy,
    FaultPlan,
    ParallelExecutor,
    ProgressTicker,
    ResultCache,
    RunSpec,
    SweepManifest,
    run_simulation,
    run_worker,
    spec_fragment,
    sweep,
)
from .sim.faults import mark_worker_process
from .sim.runner import ENGINE_KINDS
from .sim.reporting import sweep_table
from .sim.specs import (
    adversary_entry,
    materialize_adversary,
    materialize_algorithm,
    rate_adversaries,
)

__all__ = ["main", "build_parser"]


def _algorithm_fragment(name: str, n: int, k: int | None) -> dict:
    """Declarative algorithm fragment, passing k only where it applies."""
    if name in ("k-cycle", "k-clique", "k-subsets"):
        if k is None:
            raise SystemExit(f"algorithm {name!r} requires --k")
        return spec_fragment(name, n=n, k=k)
    return spec_fragment(name, n=n)


def _effective_seed(name: str, seed: int | None) -> int | None:
    """Return ``seed`` if the adversary is stochastic, warning (once) if not."""
    if seed is None:
        return None
    try:
        entry = adversary_entry(name)
    except KeyError as exc:
        raise SystemExit(str(exc)) from exc
    if issubclass(entry.cls, SeededAdversary):
        return seed
    print(
        f"warning: adversary {name!r} is deterministic; --seed ignored",
        file=sys.stderr,
    )
    return None


def _adversary_fragment(name: str, rho: float, beta: float, seed: int | None) -> dict:
    params: dict = {"rho": rho, "beta": beta}
    if seed is not None:
        params["seed"] = seed
    return spec_fragment(name, **params)


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be at least 1")
    return value


def _cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    if getattr(args, "cache_dir", None):
        return ResultCache(args.cache_dir)
    if getattr(args, "cache", False):
        return ResultCache()
    return None


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``i/k`` into a (index, total) shard selector."""
    try:
        index_text, total_text = text.split("/", 1)
        index, total = int(index_text), int(total_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid shard {text!r}: expected i/k (e.g. 0/4)"
        ) from exc
    if total < 1 or not 0 <= index < total:
        raise argparse.ArgumentTypeError(
            f"invalid shard {text!r}: need 0 <= i < k"
        )
    return index, total


def _fault_plan_from_args(args: argparse.Namespace) -> FaultPlan | None:
    """Build the process's injection plan; None when every rate is zero.

    Worker processes read both the worker coins (kill/lease/transient)
    and the client-side network coins; ``repro serve`` builds its plan
    from the network rates alone (server-side injection).
    """
    plan = FaultPlan(
        seed=args.fault_seed,
        kill_rate=getattr(args, "fault_kill_rate", 0.0),
        transient_rate=getattr(args, "fault_transient_rate", 0.0),
        lease_death_rate=getattr(args, "fault_lease_rate", 0.0),
        net_refuse_rate=getattr(args, "fault_net_refuse_rate", 0.0),
        net_timeout_rate=getattr(args, "fault_net_timeout_rate", 0.0),
        net_torn_rate=getattr(args, "fault_net_torn_rate", 0.0),
        net_http_error_rate=getattr(args, "fault_net_error_rate", 0.0),
        net_corrupt_rate=getattr(args, "fault_net_corrupt_rate", 0.0),
        stall_seconds=getattr(args, "fault_stall_seconds", 1.0),
        fault_budget=args.fault_budget,
    )
    return plan if (plan.active or plan.net_active) else None


def _add_net_fault_args(parser: argparse.ArgumentParser) -> None:
    """The deterministic network-fault injection knobs (worker + serve)."""
    parser.add_argument("--fault-net-refuse-rate", type=float, default=0.0,
                        help="injected probability of a refused connection")
    parser.add_argument("--fault-net-timeout-rate", type=float, default=0.0,
                        help="injected probability of a request timeout/stall")
    parser.add_argument("--fault-net-torn-rate", type=float, default=0.0,
                        help="injected probability of a torn (truncated) response")
    parser.add_argument("--fault-net-error-rate", type=float, default=0.0,
                        help="injected probability of an HTTP 500")
    parser.add_argument("--fault-net-corrupt-rate", type=float, default=0.0,
                        help="injected probability of a bit-flipped body")
    parser.add_argument("--fault-stall-seconds", type=float, default=1.0,
                        help="how long an injected net timeout/stall lasts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-capped adversarial routing on multiple access channels "
        "(reproduction of Chlebus et al., SPAA 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available algorithms and adversaries")

    run_p = sub.add_parser("run", help="run one algorithm against one adversary")
    run_p.add_argument("--algorithm", required=True, choices=available_algorithms())
    run_p.add_argument("--n", type=int, required=True, help="number of stations")
    run_p.add_argument("--k", type=int, default=None, help="energy cap (oblivious algorithms)")
    run_p.add_argument("--adversary", default="spray", choices=rate_adversaries())
    run_p.add_argument("--rho", type=float, default=0.5, help="injection rate")
    run_p.add_argument("--beta", type=float, default=2.0, help="burstiness coefficient")
    run_p.add_argument("--rounds", type=int, default=10_000)
    run_p.add_argument("--seed", type=int, default=None,
                       help="RNG seed for stochastic adversaries")
    run_p.add_argument("--engine", default=None, choices=ENGINE_KINDS,
                       help="engine selector (default: auto)")
    run_p.add_argument("--reference-engine", action="store_true",
                       help="shorthand for --engine reference")
    run_p.add_argument("--negotiation", action="store_true",
                       help="print the engine's negotiated-capability report")

    table_p = sub.add_parser("table1", help="regenerate Table 1 (paper vs measured)")
    table_p.add_argument("--full", action="store_true", help="full-size experiments")
    table_p.add_argument("--workers", type=_worker_count, default=1,
                         help="parallel worker processes per adversary family")
    table_p.add_argument("--cache", action="store_true",
                         help="reuse finished runs from the default on-disk cache")
    table_p.add_argument("--cache-dir", default=None,
                         help="reuse finished runs from this cache directory")
    table_p.add_argument("--progress", action="store_true",
                         help="stderr ticker as each adversary family's runs finish")

    sweep_p = sub.add_parser("sweep", help="sweep the injection rate for one algorithm")
    sweep_p.add_argument("--algorithm", required=True, choices=available_algorithms())
    sweep_p.add_argument("--n", type=int, required=True)
    sweep_p.add_argument("--k", type=int, default=None)
    sweep_p.add_argument("--rates", default="0.1,0.3,0.5,0.7,0.9",
                         help="comma-separated injection rates")
    sweep_p.add_argument("--beta", type=float, default=2.0)
    sweep_p.add_argument("--rounds", type=int, default=8_000)
    sweep_p.add_argument("--adversary", default="spray", choices=rate_adversaries())
    sweep_p.add_argument("--seed", type=int, default=None,
                         help="RNG seed for stochastic adversaries")
    sweep_p.add_argument("--workers", type=_worker_count, default=1,
                         help="parallel worker processes (1 = serial fallback)")
    sweep_p.add_argument("--cache", action="store_true",
                         help="reuse finished runs from the default on-disk cache")
    sweep_p.add_argument("--cache-dir", default=None,
                         help="reuse finished runs from this cache directory")
    sweep_p.add_argument("--progress", action="store_true",
                         help="stderr ticker as sweep points finish")
    sweep_p.add_argument("--engine", default=None, choices=ENGINE_KINDS,
                         help="engine selector (default: auto)")
    sweep_p.add_argument("--reference-engine", action="store_true",
                         help="shorthand for --engine reference")
    sweep_p.add_argument("--max-retries", type=int, default=None, metavar="N",
                         help="fault-tolerant mode: retry each failed point up "
                         "to N times (deterministic exponential backoff), then "
                         "quarantine it as a FAILED row instead of aborting "
                         "the sweep; exit status 3 flags quarantined points")
    sweep_p.add_argument("--spec-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="fault-tolerant mode: kill and retry any point "
                         "running longer than SECONDS (the worker pool is "
                         "respawned; implies supervised execution)")
    sweep_p.add_argument("--manifest", default=None, metavar="PATH",
                         help="write an incrementally-updated checkpoint "
                         "manifest (spec hash -> done/failed/pending, attempt "
                         "counts, fault events) to PATH")
    sweep_p.add_argument("--resume", action="store_true",
                         help="resume from the --manifest checkpoint: points "
                         "it records as failed are skipped without burning a "
                         "new retry budget (done points come back as cache "
                         "hits when --cache/--cache-dir is set)")
    sweep_p.add_argument("--shard", type=_parse_shard, default=None, metavar="i/k",
                         help="run only the points whose canonical spec hash "
                         "falls in shard i of k — a deterministic partition, "
                         "so k machines running shards 0/k..k-1/k against a "
                         "shared --cache-dir cover exactly the full sweep")

    worker_p = sub.add_parser(
        "worker",
        help="claim and execute shards from a repro serve instance",
    )
    worker_p.add_argument("--server", required=True, metavar="URL",
                          help="base URL of the repro serve instance: shards "
                          "are claimed and results published over HTTP")
    worker_p.add_argument("--spill-dir", default=None,
                          help="local spill directory for results while the "
                          "server is unreachable (default: a private temp dir)")
    worker_p.add_argument("--rpc-timeout", type=float, default=10.0,
                          help="per-request timeout for remote queue/cache RPCs")
    worker_p.add_argument("--rpc-max-attempts", type=int, default=4,
                          help="attempts per RPC before giving up")
    worker_p.add_argument("--rpc-breaker-threshold", type=int, default=5,
                          help="consecutive RPC failures before the circuit "
                          "opens (fail fast + local spill)")
    worker_p.add_argument("--rpc-breaker-reset", type=float, default=1.0,
                          help="seconds before an open circuit admits a probe")
    worker_p.add_argument("--owner", default=None,
                          help="lease owner name (default: worker-<pid>)")
    worker_p.add_argument("--poll", type=float, default=0.2,
                          help="seconds between claim attempts when idle")
    worker_p.add_argument("--max-idle", type=float, default=None,
                          help="exit after this many idle seconds "
                          "(default: wait forever)")
    worker_p.add_argument("--exit-when-drained", action="store_true",
                          help="exit as soon as no shard is pending or leased")
    worker_p.add_argument("--wait-for-queue", type=float, default=0.0,
                          metavar="SECONDS",
                          help="wait up to SECONDS for the server to come up "
                          "and hold work")
    worker_p.add_argument("--max-retries", type=int, default=2,
                          help="per-spec retry budget inside this worker")
    worker_p.add_argument("--fault-seed", type=int, default=0,
                          help="fault-injection seed (testing)")
    worker_p.add_argument("--fault-kill-rate", type=float, default=0.0,
                          help="injected probability this worker hard-exits "
                          "mid-spec (testing; the shard's lease expires and "
                          "is stolen)")
    worker_p.add_argument("--fault-lease-rate", type=float, default=0.0,
                          help="injected probability this worker abandons a "
                          "claimed shard without heartbeating (testing)")
    worker_p.add_argument("--fault-transient-rate", type=float, default=0.0,
                          help="injected probability of a retryable exception "
                          "per attempt (testing)")
    worker_p.add_argument("--fault-budget", type=int, default=1,
                          help="max faulted attempts per spec across the "
                          "whole fleet")
    _add_net_fault_args(worker_p)

    serve_p = sub.add_parser(
        "serve",
        help="HTTP front end: accept spec batches, shard them into the queue, "
        "stream progress",
    )
    serve_p.add_argument("--queue-dir", required=True,
                         help="directory for per-job manifests "
                         "(jobs/<id>.manifest.json)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="shared result cache "
                         "(default: ~/.cache/repro-sim or $REPRO_CACHE_DIR)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8750,
                         help="listen port (0 = ephemeral, printed on boot)")
    serve_p.add_argument("--lease-ttl", type=float, default=15.0,
                         help="seconds before an unrenewed worker lease may "
                         "be stolen")
    serve_p.add_argument("--shard-size", type=int, default=4,
                         help="specs per work-queue shard")
    serve_p.add_argument("--fallback-after", type=float, default=2.0,
                         help="seconds of stalled progress with no live lease "
                         "before the server executes shards itself")
    serve_p.add_argument("--fault-seed", type=int, default=0,
                         help="server-side network fault-injection seed (testing)")
    serve_p.add_argument("--fault-budget", type=int, default=1,
                         help="max injected net faults per request key")
    _add_net_fault_args(serve_p)

    submit_p = sub.add_parser(
        "submit",
        help="submit a sweep to a repro serve instance and wait for results",
    )
    submit_p.add_argument("--server", required=True,
                          help="base URL of the repro serve instance")
    submit_p.add_argument("--algorithm", required=True,
                          choices=available_algorithms())
    submit_p.add_argument("--n", type=int, required=True)
    submit_p.add_argument("--k", type=int, default=None)
    submit_p.add_argument("--rates", default="0.1,0.3,0.5,0.7,0.9",
                          help="comma-separated injection rates")
    submit_p.add_argument("--beta", type=float, default=2.0)
    submit_p.add_argument("--rounds", type=int, default=8_000)
    submit_p.add_argument("--adversary", default="spray",
                          choices=rate_adversaries())
    submit_p.add_argument("--seed", type=int, default=None,
                          help="RNG seed for stochastic adversaries")
    submit_p.add_argument("--engine", default=None, choices=ENGINE_KINDS,
                          help="engine selector (default: auto)")
    submit_p.add_argument("--shard-size", type=int, default=None,
                          help="override the server's specs-per-shard")
    submit_p.add_argument("--timeout", type=float, default=300.0,
                          help="seconds to wait for the job to complete")
    submit_p.add_argument("--progress", action="store_true",
                          help="stderr line per streamed progress snapshot")
    return parser


def _cmd_list() -> int:
    print("algorithms:")
    for name in available_algorithms():
        print(f"  {name}")
    print("adversaries:")
    for name in rate_adversaries():
        print(f"  {name}")
    return 0


def _engine_from_args(args: argparse.Namespace) -> str:
    explicit = getattr(args, "engine", None)
    reference = getattr(args, "reference_engine", False)
    if explicit is not None:
        if reference and explicit != "reference":
            raise SystemExit(
                f"--reference-engine conflicts with --engine {explicit}"
            )
        return explicit
    return "reference" if reference else "auto"


def _cmd_run(args: argparse.Namespace) -> int:
    seed = _effective_seed(args.adversary, args.seed)
    algorithm = materialize_algorithm(_algorithm_fragment(args.algorithm, args.n, args.k))
    adversary = materialize_adversary(
        _adversary_fragment(args.adversary, args.rho, args.beta, seed), algorithm
    )
    result = run_simulation(
        algorithm, adversary, args.rounds, engine=_engine_from_args(args)
    )
    if args.negotiation:
        print(f"engine: {result.engine_used}")
        if result.negotiation is None:
            print("  (reference engine: no capability negotiation)")
        else:
            for key, value in result.negotiation.items():
                if key == "block_decline_reasons" and value:
                    # Per-driver decline reasons: one line per reason so
                    # the *why* of each kernel fallback is readable, not
                    # just the fallback count.
                    print(f"  {key}:")
                    for reason, count in sorted(value.items()):
                        print(f"    {count}x {reason}")
                else:
                    print(f"  {key}: {value}")
    print(RunSummary.header())
    print(result.summary.format_row())
    return 0 if result.stable else 2


def _cmd_table1(args: argparse.Namespace) -> int:
    from .sim.experiments import regenerate_table1

    table, results = regenerate_table1(
        quick=not args.full,
        workers=args.workers,
        cache=_cache_from_args(args),
        progress=ProgressTicker("table1 runs") if args.progress else None,
    )
    print(table)
    return 0 if all(r.shape_ok for r in results) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    rates = [float(x) for x in args.rates.split(",") if x]
    seed = _effective_seed(args.adversary, args.seed)

    if args.resume and not args.manifest:
        raise SystemExit("--resume requires --manifest PATH")
    policy = None
    if args.max_retries is not None or args.spec_timeout is not None:
        policy_kwargs: dict = {}
        if args.max_retries is not None:
            policy_kwargs["max_retries"] = args.max_retries
        if args.spec_timeout is not None:
            policy_kwargs["spec_timeout"] = args.spec_timeout
        try:
            policy = ExecutionPolicy(**policy_kwargs)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
    manifest = SweepManifest(args.manifest, resume=args.resume) if args.manifest else None

    supervised = policy is not None or manifest is not None
    with ParallelExecutor(
        args.workers,
        cache=_cache_from_args(args),
        policy=policy,
        manifest=manifest,
    ) as executor:
        ticker = None
        if args.progress:
            # Supervised sweeps append live retry/quarantine/timeout
            # counters to the ticker line.
            stats = executor.stats.summary if supervised else None
            ticker = ProgressTicker("sweep points", stats=stats)
        series = sweep(
            args.algorithm,
            "rho",
            rates,
            lambda rho: _algorithm_fragment(args.algorithm, args.n, args.k),
            lambda rho: _adversary_fragment(args.adversary, rho, args.beta, seed),
            args.rounds,
            executor=executor,
            engine=_engine_from_args(args),
            progress=ticker,
            shard=args.shard,
        )
    print(sweep_table(series))
    failed = series.failed_points()
    if failed:
        print(
            f"warning: {len(failed)} point(s) quarantined after exhausting "
            "retries; see the FAILED rows above"
            + (f" and the manifest at {args.manifest}" if args.manifest else ""),
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .sim.netclient import RpcPolicy

    try:
        fault_plan = _fault_plan_from_args(args)
        policy = ExecutionPolicy(max_retries=args.max_retries)
        rpc_policy = RpcPolicy(
            timeout=args.rpc_timeout,
            max_attempts=args.rpc_max_attempts,
            breaker_threshold=args.rpc_breaker_threshold,
            breaker_reset=args.rpc_breaker_reset,
            seed=args.fault_seed,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    # Injected kill coins must take down the whole worker process (a real
    # crash, so the lease expires and the shard is stolen) — exactly what
    # they do to pool workers in a local supervised sweep.
    mark_worker_process()
    stats = run_worker(
        args.server,
        spill_dir=args.spill_dir,
        rpc_policy=rpc_policy,
        owner=args.owner,
        policy=policy,
        fault_plan=fault_plan,
        poll=args.poll,
        max_idle=args.max_idle,
        exit_when_drained=args.exit_when_drained,
        wait_for_queue=args.wait_for_queue,
    )
    print(f"worker done: {stats.summary()}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .sim import SweepService, make_server

    service = SweepService(
        args.queue_dir,
        args.cache_dir,
        lease_ttl=args.lease_ttl,
        shard_size=args.shard_size,
        fallback_after=args.fallback_after,
        fault_plan=_fault_plan_from_args(args),
    )
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        server.server_close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .sim.service import fetch_results, submit_batch, wait_for_job

    rates = [float(x) for x in args.rates.split(",") if x]
    seed = _effective_seed(args.adversary, args.seed)
    specs = [
        RunSpec.from_fragments(
            _algorithm_fragment(args.algorithm, args.n, args.k),
            _adversary_fragment(args.adversary, rho, args.beta, seed),
            args.rounds,
            label=f"{args.algorithm}[rho={rho}]",
            engine=_engine_from_args(args),
        ).to_dict()
        for rho in rates
    ]

    def on_progress(snap: dict) -> None:
        if args.progress:
            print(
                f"job {snap['job']}: {snap['done']}/{snap['total']} done, "
                f"{snap['failed']} failed",
                file=sys.stderr,
            )

    try:
        job = submit_batch(args.server, specs, shard_size=args.shard_size)
        wait_for_job(
            args.server, job["job"], timeout=args.timeout, on_progress=on_progress
        )
        results = fetch_results(args.server, job["job"])
    except (OSError, TimeoutError, ValueError, KeyError) as exc:
        raise SystemExit(f"submit failed: {exc}") from exc

    print(RunSummary.header())
    failed = 0
    for record in results:
        if record["status"] == "done":
            print(RunSummary(**record["summary"]).format_row())
        else:
            failed += 1
            detail = record.get("error", "result missing")
            print(f"{record['label']}: FAILED ({detail})")
    if failed:
        print(
            f"warning: {failed} point(s) failed on the service; "
            "see the FAILED rows above",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro``."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
