"""Simulation harness: runner, parameter sweeps, experiments and reporting.

The orchestration layer is spec-first: declarative :class:`RunSpec`
descriptions of runs can be executed serially, fanned out over a process
pool by :class:`ParallelExecutor`, and cached on disk by
:class:`ResultCache`.  The supervised layer on top makes that stack
fault-tolerant: a seeded :class:`FaultPlan` injects deterministic,
replayable failures (worker kills, transient exceptions, cache
corruption, stalls), an :class:`ExecutionPolicy` retries/quarantines
them, and a :class:`SweepManifest` checkpoints sweep status for resume.

The distributed layer turns that harness into a service:
:class:`SweepService` is the ``repro serve`` front end accepting spec
batches over HTTP, sharding them into its private in-memory
:class:`WorkQueue` (token-addressed leases, TTL heartbeats,
expired-lease stealing) and draining them itself when no worker is
alive; :func:`run_worker` is the ``repro worker`` loop that claims
shards over HTTP and executes them through the supervised executor.

The network is the only link between them, and a fault domain:
:class:`ResilientClient` wraps every RPC with timeouts, deterministic
retry/backoff and a circuit breaker; :class:`RemoteWorkQueue` gives
workers the queue with **no shared filesystem**, each finished spec's
checksummed result riding the lease heartbeat into the server's cache;
and :class:`FaultPlan` network coins inject refused/torn/corrupt/500
exchanges deterministically on both client and server.
"""

from .cache import CacheCorruptionError, ClearStats, ResultCache, default_cache_dir
from .faults import FailedResult, FaultPlan, InjectedFault, TransientFault
from .manifest import SweepManifest
from .netclient import (
    CircuitBreaker,
    CircuitOpenError,
    ResilientClient,
    RpcError,
    RpcHttpError,
    RpcPolicy,
    RpcStats,
    RpcUnavailableError,
    TornResponseError,
)
from .parallel import (
    ExecutionPolicy,
    ExecutorStats,
    ParallelExecutor,
    WorkerCrashError,
    default_chunk_size,
    default_worker_count,
    run_specs,
)
from .progress import ProgressTicker
from .queue import (
    LeaseLostError,
    RemoteWorkLease,
    RemoteWorkQueue,
    WorkLease,
    WorkQueue,
    collect_results,
    status_record,
)
from .runner import RunResult, resolve_engine, run_simulation, worst_case_over
from .service import SweepJob, SweepService, make_server
from .specs import (
    RunSpec,
    available_adversaries,
    execute_spec,
    execute_spec_batch,
    make_adversary,
    register_adversary,
    spec_fragment,
)
from .sweep import SweepPoint, SweepSeries, sweep
from .worker import WorkerStats, process_lease, run_worker

__all__ = [
    "CacheCorruptionError",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClearStats",
    "ExecutionPolicy",
    "ExecutorStats",
    "FailedResult",
    "FaultPlan",
    "InjectedFault",
    "LeaseLostError",
    "ParallelExecutor",
    "ProgressTicker",
    "RemoteWorkLease",
    "RemoteWorkQueue",
    "ResilientClient",
    "ResultCache",
    "RpcError",
    "RpcHttpError",
    "RpcPolicy",
    "RpcStats",
    "RpcUnavailableError",
    "RunResult",
    "RunSpec",
    "SweepJob",
    "SweepManifest",
    "SweepPoint",
    "SweepSeries",
    "SweepService",
    "TornResponseError",
    "TransientFault",
    "WorkLease",
    "WorkQueue",
    "WorkerCrashError",
    "WorkerStats",
    "available_adversaries",
    "collect_results",
    "default_cache_dir",
    "default_chunk_size",
    "default_worker_count",
    "execute_spec",
    "execute_spec_batch",
    "make_adversary",
    "make_server",
    "process_lease",
    "register_adversary",
    "resolve_engine",
    "run_simulation",
    "run_specs",
    "spec_fragment",
    "status_record",
    "sweep",
    "worst_case_over",
]
