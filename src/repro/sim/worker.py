"""The distributed sweep worker: claim shards, execute, heartbeat, publish.

``repro worker`` runs this loop.  Each iteration claims one shard from a
``repro serve`` process over HTTP (:class:`~repro.sim.queue.RemoteWorkQueue`),
executes its specs through the supervised
:class:`~repro.sim.parallel.ParallelExecutor` (serial in-process — the
worker *is* the parallelism unit; retries, backoff and poison-spec
quarantine all behave exactly as in a local sweep), renews the lease
after every finished spec, publishes results to the server's cache
(:class:`~repro.sim.cache.RemoteCacheBackend`), and posts per-spec
status records when the shard completes.

Every coordination step is an RPC through one
:class:`~repro.sim.netclient.ResilientClient` shared by the queue client
and the cache backend — one circuit breaker per server, so a dead
server fails everything fast and a recovered one reopens everything at
once.  Results spilled locally while the circuit was open are
**reconciled** (re-published) before the shard's done record is posted:
a "done" status must never point at a result the server does not hold.

Crash semantics are the point:

* The CLI marks the process with
  :func:`~repro.sim.faults.mark_worker_process`, so an injected ``kill``
  coin hard-exits the *whole worker* (``os._exit``) mid-shard — a real
  crash, leaving a lease that expires and is stolen.
* An injected ``lease`` coin makes the worker execute only half the
  shard and then silently stop heartbeating — the "wedged but alive"
  failure mode — again forcing expiry and a steal.
* A stolen shard re-executes under
  :meth:`FaultPlan.with_offset(takeovers)
  <repro.sim.faults.FaultPlan.with_offset>`: the fault-coin stream
  resumes where the dead worker left off, so the fault budget bounds
  faults per spec across the fleet and every steal chain terminates.
* Specs the dead worker already finished are cache hits for the thief —
  reclaimed shards complete without re-burning retry budgets.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

from .cache import RemoteCacheBackend, ResultCache
from .faults import FaultPlan
from .netclient import ResilientClient, RpcPolicy
from .parallel import ExecutionPolicy, ParallelExecutor
from .queue import (
    LeaseLostError,
    RemoteWorkLease,
    RemoteWorkQueue,
    WorkLease,
    status_record,
)

__all__ = ["WorkerStats", "process_lease", "run_worker"]


@dataclass
class WorkerStats:
    """Counters accumulated over one worker's lifetime."""

    claims: int = 0
    shards_completed: int = 0
    specs_done: int = 0
    specs_failed: int = 0
    lease_deaths: int = 0
    leases_lost: int = 0
    # RPC health (zero for the server's in-process fallback drain).
    rpc_retries: int = 0
    rpc_giveups: int = 0
    circuit_opens: int = 0
    circuit_closes: int = 0
    spilled: int = 0
    reconciled: int = 0
    outcomes: list[str] = field(default_factory=list)
    #: RPC deltas from shards whose done record never posted (lease lost
    #: or deliberately abandoned); carried onto the next complete so the
    #: job's aggregated health is at-least-once, not sometimes-lost.
    rpc_unreported: dict = field(default_factory=dict)
    #: Backend-stats watermark of the last reported/carried delta.  The
    #: delta windows tile the worker's whole lifetime — claims, breaker
    #: probes and circuit-close reconciliations that happen *between*
    #: shards land in the next shard's delta instead of a gap.
    rpc_watermark: dict = field(default_factory=dict)

    def apply_rpc(self, totals: dict[str, int]) -> None:
        """Adopt a client/backend stats dict as this worker's RPC totals."""
        self.rpc_retries = int(totals.get("retries", 0))
        self.rpc_giveups = int(totals.get("giveups", 0))
        self.circuit_opens = int(totals.get("circuit_opens", 0))
        self.circuit_closes = int(totals.get("circuit_closes", 0))
        self.spilled = int(totals.get("spilled", 0))
        self.reconciled = int(totals.get("reconciled", 0))

    def summary(self) -> str:
        text = (
            f"{self.shards_completed}/{self.claims} shards "
            f"({self.specs_done} specs done, {self.specs_failed} failed, "
            f"{self.lease_deaths} lease deaths, {self.leases_lost} leases lost)"
        )
        rpc_parts = []
        if self.rpc_retries:
            rpc_parts.append(f"{self.rpc_retries} rpc retries")
        if self.circuit_opens:
            rpc_parts.append(
                f"{self.circuit_opens} circuit opens/{self.circuit_closes} closes"
            )
        if self.spilled:
            rpc_parts.append(f"{self.spilled} spilled/{self.reconciled} reconciled")
        if rpc_parts:
            text += f" [{', '.join(rpc_parts)}]"
        return text


def _stats_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Counter deltas between two backend snapshots (gauges pass through)."""
    delta: dict[str, int] = {}
    for key in set(before) | set(after):
        if key == "spill_pending":
            if after.get(key, 0):
                delta[key] = after.get(key, 0)
            continue
        diff = after.get(key, 0) - before.get(key, 0)
        if diff:
            delta[key] = diff
    return delta


def _merge_rpc(carry: dict, delta: dict[str, int]) -> dict[str, int]:
    """Fold a carried-forward delta into a fresh one (counters sum; the
    ``spill_pending`` gauge keeps only the newer reading)."""
    merged = dict(delta)
    for key, value in carry.items():
        if key == "spill_pending":
            continue
        merged[key] = merged.get(key, 0) + int(value)
    return merged


def _take_rpc_delta(stats: WorkerStats, cache: ResultCache) -> dict[str, int]:
    """This worker's RPC activity since the last taken delta."""
    current = cache.rpc_stats()
    delta = _stats_delta(stats.rpc_watermark, current)
    stats.rpc_watermark = current
    return delta


def _carry_rpc(stats: WorkerStats, cache: ResultCache) -> None:
    """Bank the current RPC delta for the next done record that posts."""
    stats.rpc_unreported = _merge_rpc(
        stats.rpc_unreported, _take_rpc_delta(stats, cache)
    )


def _flush_spill_before_complete(
    lease: WorkLease | RemoteWorkLease,
    cache: ResultCache,
    stats: WorkerStats,
    timeout: float = 10.0,
) -> bool:
    """Reconcile spilled results to the server before posting ``done``.

    A shard's done record must never reference a result only this
    worker's spill directory holds — the server would report the spec
    "missing".  Keeps heartbeating while it waits for the circuit to
    half-open; gives up (False) when the lease is lost or ``timeout``
    elapses with the server still unreachable.
    """
    deadline = time.monotonic() + timeout
    while cache.pending_spill():
        cache.flush_spill()
        if not cache.pending_spill():
            break
        if time.monotonic() >= deadline:
            return False
        try:
            lease.heartbeat()
        except LeaseLostError:
            stats.leases_lost += 1
            return False
        time.sleep(0.1)
    return True


def process_lease(
    lease: WorkLease | RemoteWorkLease,
    cache: ResultCache,
    policy: ExecutionPolicy | None = None,
    *,
    fault_plan: FaultPlan | None = None,
    stats: WorkerStats | None = None,
) -> str:
    """Execute one claimed shard; returns ``completed``/``died``/``lost``.

    ``died`` means the lease-death coin fired: half the shard was
    executed (its results are cached and stay valid) and the lease was
    deliberately left to expire.  ``lost`` means a heartbeat discovered
    the lease had already been stolen mid-execution — or, on a remote
    cache, that spilled results could not be reconciled before
    completion; whatever was computed is cached (or spilled for later
    reconciliation), and the thief finishes the rest idempotently.
    """
    stats = stats if stats is not None else WorkerStats()
    policy = policy if policy is not None else ExecutionPolicy()
    specs = lease.specs
    dying = fault_plan is not None and fault_plan.lease_death(
        lease.shard_id, lease.takeovers
    )
    if dying:
        stats.lease_deaths += 1
        specs = specs[: len(specs) // 2]

    if fault_plan is not None:
        # Resume the global per-spec coin stream past the attempts any
        # previous holder of this shard already burned.
        policy = dataclasses.replace(
            policy, fault_plan=fault_plan.with_offset(lease.takeovers)
        )

    def renew(done: int, total: int) -> None:
        lease.heartbeat()

    executor = ParallelExecutor(workers=1, cache=cache, policy=policy)
    try:
        results = executor.run(specs, progress=renew)
    except LeaseLostError:
        stats.leases_lost += 1
        _carry_rpc(stats, cache)
        return "lost"
    finally:
        executor.close()

    if dying:
        _carry_rpc(stats, cache)
        return "died"

    if not _flush_spill_before_complete(lease, cache, stats):
        # Results are safe in the spill cache; hand the shard back (the
        # abandon itself may fail on a dead server — then the TTL lapses
        # and the steal happens anyway).
        lease.abandon()
        _carry_rpc(stats, cache)
        return "lost"

    statuses = [
        status_record(spec, result) for spec, result in zip(lease.specs, results)
    ]
    for record in statuses:
        if record["status"] == "done":
            stats.specs_done += 1
        else:
            stats.specs_failed += 1
    rpc_delta = _merge_rpc(stats.rpc_unreported, _take_rpc_delta(stats, cache))
    stats.rpc_unreported = {}
    if not lease.complete(statuses, extra=rpc_delta or None):
        # The record may not have been written (remote 410 / unreachable):
        # re-bank the delta so a later complete still reports it.  A rare
        # double count (torn response after the server applied it) only
        # inflates diagnostics, never results.
        stats.leases_lost += 1
        stats.rpc_unreported = _merge_rpc(stats.rpc_unreported, rpc_delta)
    stats.shards_completed += 1
    return "completed"


def run_worker(
    server_url: str,
    *,
    spill_dir: str | os.PathLike | None = None,
    rpc_policy: RpcPolicy | None = None,
    owner: str | None = None,
    policy: ExecutionPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    poll: float = 0.2,
    max_idle: float | None = None,
    max_shards: int | None = None,
    exit_when_drained: bool = False,
    wait_for_queue: float = 0.0,
) -> WorkerStats:
    """Pull and execute shards from a ``repro serve`` process until there
    is no work.

    Parameters
    ----------
    server_url:
        ``repro serve`` base URL; shard claims, heartbeats, done records
        and result payloads all go over HTTP through the resilient
        client.
    spill_dir:
        Local spill directory for results while the server is
        unreachable (a private temp directory when omitted).
    rpc_policy:
        Timeout/retry/circuit-breaker tuning for all RPCs
        (:class:`~repro.sim.netclient.RpcPolicy`).
    owner:
        Lease owner name (defaults to ``worker-<pid>``), for debugging.
    poll:
        Seconds between claim attempts while the queue is empty.
    max_idle:
        Exit after this many consecutive seconds without claiming
        anything (``None`` = wait forever, for daemon workers).
    max_shards:
        Exit after claiming this many shards (tests).
    exit_when_drained:
        Exit as soon as no shard is pending *or* leased — i.e. the sweep
        is finished, not merely contended.  The queue only reports
        drained on a positive server answer, so a partition cannot make
        a worker exit early.
    wait_for_queue:
        Seconds to wait for the server to be reachable with at least one
        shard ever enqueued before entering the claim loop.
    """
    client = ResilientClient(rpc_policy, fault_plan=fault_plan)
    queue = RemoteWorkQueue(server_url, client=client)
    deadline = time.monotonic() + wait_for_queue
    while time.monotonic() < deadline and not queue.ready():
        time.sleep(min(poll, 0.05))
    cache = ResultCache(
        backend=RemoteCacheBackend(server_url, client=client, spill_dir=spill_dir)
    )

    owner = owner or f"worker-{os.getpid()}"
    stats = WorkerStats()
    idle_since: float | None = None

    while True:
        lease = queue.claim(owner)
        if lease is None:
            if exit_when_drained and queue.drained():
                break
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if max_idle is not None and now - idle_since >= max_idle:
                break
            time.sleep(poll)
            continue
        idle_since = None
        stats.claims += 1
        outcome = process_lease(
            lease, cache, policy, fault_plan=fault_plan, stats=stats
        )
        stats.outcomes.append(f"{lease.shard_id}:t{lease.takeovers}:{outcome}")
        if max_shards is not None and stats.claims >= max_shards:
            break

    # Last-chance reconciliation: don't exit with results stranded in
    # the spill directory if the server is reachable again.
    cache.flush_spill()
    stats.apply_rpc(cache.rpc_stats())
    return stats
