"""The distributed sweep worker: claim shards, execute, heartbeat results.

``repro worker`` runs this loop.  Each iteration claims one shard from a
``repro serve`` process over HTTP (:class:`~repro.sim.queue.RemoteWorkQueue`),
executes its specs one by one through the supervised
:class:`~repro.sim.parallel.ParallelExecutor` (serial in-process — the
worker *is* the parallelism unit; retries, backoff and poison-spec
quarantine all behave exactly as in a local sweep), and after every
finished spec sends the lease heartbeat that renews the lease — which
carries that spec's checksummed result for the server to store.  The
shard's completion then posts only the failed specs' status records.
The worker keeps no cache and writes nothing to disk.

Every coordination step is an RPC through one
:class:`~repro.sim.netclient.ResilientClient` — one circuit breaker per
server, so a dead server fails everything fast and a recovered one
reopens everything at once.  A result-bearing heartbeat that cannot
reach the server loses the lease: the worker stops working the shard,
the lease lapses, and the next holder recomputes only the spec whose
result was in flight (every earlier one is stored already).

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
* Specs the dead worker already delivered are not in the thief's lease —
  reclaimed shards complete without re-burning retry budgets.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field

from .faults import FailedResult, FaultPlan
from .netclient import ResilientClient, RpcPolicy, RpcStats
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
    outcomes: list[str] = field(default_factory=list)
    #: RPC deltas from shards whose completion never posted (lease lost
    #: or left to die); carried onto the next completion so
    #: the job's aggregated health is at-least-once, not sometimes-lost.
    rpc_unreported: dict = field(default_factory=dict)
    #: Client-stats watermark of the last reported/carried delta.  The
    #: delta windows tile the worker's whole lifetime — claims and
    #: breaker probes that happen *between* shards land in the next
    #: shard's delta instead of a gap.
    rpc_watermark: dict = field(default_factory=dict)

    def apply_rpc(self, totals: dict[str, int]) -> None:
        """Adopt a client stats dict as this worker's RPC totals."""
        self.rpc_retries = int(totals.get("retries", 0))
        self.rpc_giveups = int(totals.get("giveups", 0))
        self.circuit_opens = int(totals.get("circuit_opens", 0))
        self.circuit_closes = int(totals.get("circuit_closes", 0))

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
        if rpc_parts:
            text += f" [{', '.join(rpc_parts)}]"
        return text


def _take_rpc_delta(stats: WorkerStats, rpc: RpcStats | None) -> dict[str, int]:
    """RPC activity since the last taken delta, plus any banked delta."""
    current = rpc.as_dict() if rpc is not None else {}
    delta = dict(stats.rpc_unreported)
    for key, value in current.items():
        diff = value - stats.rpc_watermark.get(key, 0)
        if diff:
            delta[key] = delta.get(key, 0) + diff
    stats.rpc_watermark = current
    stats.rpc_unreported = {}
    return delta


def process_lease(
    lease: WorkLease | RemoteWorkLease,
    policy: ExecutionPolicy | None = None,
    *,
    fault_plan: FaultPlan | None = None,
    stats: WorkerStats | None = None,
    rpc: RpcStats | None = None,
) -> str:
    """Execute one claimed shard; returns ``completed``/``died``/``lost``.

    Each finished spec's result rides the heartbeat that follows it, so
    every result delivered before the shard ends stays with the server.
    ``died`` means the lease-death coin fired: half the shard was
    executed and delivered, and the lease was deliberately left to
    expire.  ``lost`` means a heartbeat found the lease stolen or the
    server unreachable; the next holder finishes the rest.  ``rpc`` is
    the client whose counters the completion reports.
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

    failed = []
    executor = ParallelExecutor(workers=1, policy=policy)
    try:
        for spec in specs:
            [result] = executor.run([spec])
            if isinstance(result, FailedResult):
                failed.append(status_record(spec, result))
                lease.heartbeat()
            else:
                lease.heartbeat(spec, result)
    except LeaseLostError:
        stats.leases_lost += 1
        stats.rpc_unreported = _take_rpc_delta(stats, rpc)
        return "lost"
    finally:
        executor.close()

    if dying:
        stats.rpc_unreported = _take_rpc_delta(stats, rpc)
        return "died"

    stats.specs_done += len(specs) - len(failed)
    stats.specs_failed += len(failed)
    delta = _take_rpc_delta(stats, rpc)
    if not lease.complete(failed, extra=delta or None):
        # The completion may not have landed (lost, unreachable): bank
        # the delta for a later one.  A rare double count (torn response
        # after the server applied it) only inflates diagnostics.
        stats.leases_lost += 1
        stats.rpc_unreported = delta
    stats.shards_completed += 1
    return "completed"


def run_worker(
    server_url: str,
    *,
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
        ``repro serve`` base URL; shard claims, result-bearing
        heartbeats and completions all go over HTTP through the
        resilient client.
    rpc_policy:
        Timeout/retry/circuit-breaker tuning for all RPCs
        (:class:`~repro.sim.netclient.RpcPolicy`).
    owner:
        Lease owner name (defaults to ``worker-<pid>``), for debugging.
    poll:
        Longest an idle claim waits at the server for work; also the
        pause after a failed claim.  The worker asks the server to hold
        each claim up to ``min(poll, rpc timeout / 2)`` and, after an
        empty or failed answer, sleeps only what is left of ``poll``
        since the claim was sent, so a new shard is picked up as soon as
        it is enqueued and an unreachable server is still asked at most
        once per ``poll``.
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
    for name, value in (
        ("poll", poll), ("max_idle", max_idle or 0.0), ("wait_for_queue", wait_for_queue)
    ):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    client = ResilientClient(rpc_policy, fault_plan=fault_plan)
    queue = RemoteWorkQueue(server_url, client=client)
    hold = min(poll, client.policy.timeout / 2)
    deadline = time.monotonic() + wait_for_queue
    while time.monotonic() < deadline and not queue.ready():
        time.sleep(min(poll, 0.05))

    owner = owner or f"worker-{os.getpid()}"
    stats = WorkerStats()
    idle_since: float | None = None

    while True:
        sent = time.monotonic()
        lease = queue.claim(owner, wait=hold)
        if lease is None:
            if exit_when_drained and queue.drained():
                break
            if idle_since is None:
                idle_since = sent
            if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                break
            time.sleep(max(0.0, sent + poll - time.monotonic()))
            continue
        idle_since = None
        stats.claims += 1
        outcome = process_lease(
            lease, policy, fault_plan=fault_plan, stats=stats, rpc=client.stats
        )
        stats.outcomes.append(f"{lease.shard_id}:t{lease.takeovers}:{outcome}")
        if max_shards is not None and stats.claims >= max_shards:
            break

    stats.apply_rpc(client.stats.as_dict())
    return stats
