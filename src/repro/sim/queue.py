"""Lease-based work queue with token-addressed claims and work stealing.

``repro serve`` owns one :class:`WorkQueue`: an in-memory store, guarded
by one lock, that coordinates every ``repro worker`` through the
server's ``/api/queue`` endpoints (:class:`RemoteWorkQueue` is the
worker's HTTP client for them):

* a sweep is **enqueued** as shards (a few :class:`~repro.sim.specs.RunSpec`
  each), claimed first in, first out;
* a worker **claims** a shard and receives an opaque lease *token*;
  the lease carries a **TTL** (measured on the server's monotonic
  clock) that the worker **heartbeats** while it executes;
* a lease whose TTL lapses (worker crashed, stalled, or was killed) is
  **reclaimed**: the shard returns to the front of the pending line
  with its *takeover counter* bumped — this is work stealing, and the
  counter survives worker crashes because the server holds it;
* a finished shard publishes per-spec status records (plus optional
  per-shard RPC counters) and retires.

Delivery is **at least once**: a stolen shard may still be finished by
its original (slow, not dead) owner, so two workers can execute the same
spec.  That is safe because results land in the content-addressed,
checksummed :class:`~repro.sim.cache.ResultCache` — both workers compute
the bit-identical payload — and because the first completion retires
the shard and spends every token issued for it.  The takeover counter
doubles as the shard's global attempt clock for deterministic fault
injection: :meth:`FaultPlan.with_offset(takeovers)
<repro.sim.faults.FaultPlan.with_offset>` lets a stolen shard resume the
fault-coin stream where its dead predecessor left it, so the fault
budget bounds faults per spec across the whole fleet, not per process.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .faults import FailedResult
from .netclient import ResilientClient, RpcError, RpcHttpError, RpcPolicy
from .runner import RunResult
from .specs import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    from .cache import ResultCache
    from .faults import FaultPlan

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LeaseLostError",
    "RemoteWorkLease",
    "RemoteWorkQueue",
    "WorkLease",
    "WorkQueue",
    "collect_results",
    "status_record",
]

#: Default lease TTL in seconds before a claimed shard may be stolen.
DEFAULT_LEASE_TTL = 15.0


class LeaseLostError(RuntimeError):
    """The lease token is no longer live: it expired and was stolen, or
    its shard is already done."""


@dataclass
class _Shard:
    shard_id: str
    specs: list[RunSpec]
    takeovers: int = 0
    #: Token of the live lease (None while pending).
    token: str | None = None
    #: ``time.monotonic()`` deadline of the live lease.
    expires: float = 0.0
    #: Every token issued on this shard, spent together when it retires.
    tokens: list[str] = field(default_factory=list)


@dataclass
class WorkLease:
    """In-process handle on one claimed shard (the server's fallback drain).

    Same three methods as :class:`RemoteWorkLease`, so
    :func:`~repro.sim.worker.process_lease` runs either.  Once the lease
    is stolen, :attr:`lost` flips and the handle reports the loss.
    """

    queue: "WorkQueue"
    shard_id: str
    takeovers: int
    owner: str
    specs: list[RunSpec]
    token: str
    lost: bool = field(default=False)

    def heartbeat(self) -> None:
        """Renew the lease; :class:`LeaseLostError` once it was stolen."""
        try:
            self.queue.heartbeat(self.token)
        except LeaseLostError:
            self.lost = True
            raise

    def complete(self, statuses: Sequence[dict], extra: dict | None = None) -> bool:
        """Publish the statuses; False when the lease had been stolen."""
        try:
            held = self.queue.complete(self.token, statuses, extra)
        except LeaseLostError:
            held = False
        self.lost = self.lost or not held
        return held

    def abandon(self) -> bool:
        """Hand the shard back; False when the lease had been stolen."""
        released = self.queue.abandon(self.token)
        self.lost = self.lost or not released
        return released


class WorkQueue:
    """The ``repro serve`` process's shard store: pending, leased, done.

    Every method takes the one lock, so racing claims from the HTTP
    handler threads and the fallback drain have exactly one winner.
    ``lease_ttl`` is the seconds before an unrenewed lease may be stolen.
    """

    def __init__(self, *, lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.lease_ttl = float(lease_ttl)
        self._lock = threading.Lock()
        self._pending: OrderedDict[str, _Shard] = OrderedDict()
        self._leased: dict[str, _Shard] = {}
        self._tokens: dict[str, _Shard] = {}
        #: shard id → the RPC counters its done record carried.
        self._done: dict[str, dict] = {}
        self._statuses: dict[str, dict] = {}
        self._token_seq = 0

    def enqueue(
        self,
        specs: Iterable[RunSpec | dict],
        *,
        shard_size: int = 4,
        prefix: str = "shard",
    ) -> list[str]:
        """Shard ``specs`` into pending work items; return the shard ids.

        Order is preserved within and across shards, so shard contents
        are deterministic for a given spec sequence.
        """
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        batch = [s if isinstance(s, RunSpec) else RunSpec.from_dict(s) for s in specs]
        shards = [
            _Shard(f"{prefix}-{n:04d}", batch[start : start + shard_size])
            for n, start in enumerate(range(0, len(batch), shard_size))
        ]
        ids = [shard.shard_id for shard in shards]
        with self._lock:
            if any(i in self._pending or i in self._leased or i in self._done for i in ids):
                raise ValueError(f"shard prefix {prefix!r} is already in use")
            self._pending.update(zip(ids, shards))
        return ids

    def claim(self, owner: str) -> WorkLease | None:
        """Lease the oldest pending shard to ``owner``, or None.

        Expired leases are reclaimed first, so a lone worker can steal
        back its own abandoned shard.
        """
        with self._lock:
            self._reclaim_expired()
            if not self._pending:
                return None
            _, shard = self._pending.popitem(last=False)
            self._token_seq += 1
            token = f"{shard.shard_id}.t{shard.takeovers}.{self._token_seq}"
            shard.token = token
            shard.expires = time.monotonic() + self.lease_ttl
            shard.tokens.append(token)
            self._tokens[token] = shard
            self._leased[shard.shard_id] = shard
            return WorkLease(
                queue=self,
                shard_id=shard.shard_id,
                takeovers=shard.takeovers,
                owner=owner,
                specs=list(shard.specs),
                token=token,
            )

    def _live(self, token: str) -> _Shard:
        shard = self._tokens.get(token)
        if shard is None or shard.token != token:
            raise LeaseLostError(f"lease {token} expired and was stolen, or is spent")
        return shard

    def _requeue(self, shard: _Shard) -> None:
        """Put a leased shard back at the front, takeover bumped."""
        del self._leased[shard.shard_id]
        shard.token = None
        shard.takeovers += 1
        self._pending[shard.shard_id] = shard
        self._pending.move_to_end(shard.shard_id, last=False)

    def heartbeat(self, token: str) -> None:
        """Push the lease expiry :attr:`lease_ttl` seconds into the future.

        Raises :class:`LeaseLostError` if the lease was reclaimed — the
        caller should stop working on it (results already cached stay
        valid; the thief recomputes idempotently).
        """
        with self._lock:
            shard = self._live(token)
            shard.expires = time.monotonic() + self.lease_ttl

    def complete(
        self, token: str, statuses: Sequence[dict], extra: dict | None = None
    ) -> bool:
        """Publish per-spec status records and retire the shard.

        A token whose lease was stolen still publishes (its owner was
        slow, not dead) and retires the shard, spending the thief's
        token too; that case returns False.  ``extra`` (the worker's
        RPC/spill counter deltas for this shard) is summed by
        :meth:`rpc_totals`.  Raises :class:`LeaseLostError`, publishing
        nothing, when the token is unknown or its shard already done.
        """
        # Index before touching any state: a malformed record raises here
        # and leaves the lease live, never a half-published retired shard.
        published = {record["spec_hash"]: record for record in statuses}
        with self._lock:
            shard = self._tokens.get(token)
            if shard is None:
                raise LeaseLostError(f"lease {token} is unknown or its shard is done")
            held = shard.token == token
            self._pending.pop(shard.shard_id, None)
            self._leased.pop(shard.shard_id, None)
            for spent in shard.tokens:
                del self._tokens[spent]
            # Only integer counters: a worker's NaN would crash the sum.
            self._done[shard.shard_id] = {
                k: v for k, v in (extra or {}).items() if isinstance(v, int)
            }
            self._statuses.update(published)
            return held

    def abandon(self, token: str) -> bool:
        """Hand the shard back to pending with the takeover bumped.

        Used by a worker that cannot finish a shard; the bump keeps the
        fault-coin stream advancing exactly as a crash-and-steal would.
        Returns False if the lease was already stolen.
        """
        with self._lock:
            try:
                shard = self._live(token)
            except LeaseLostError:
                return False
            self._requeue(shard)
            return True

    def reclaim_expired(self) -> int:
        """Steal every lease whose TTL lapsed back into pending; return
        how many were reclaimed."""
        with self._lock:
            return self._reclaim_expired()

    def _reclaim_expired(self) -> int:
        now = time.monotonic()
        expired = [s for s in self._leased.values() if s.expires <= now]
        for shard in expired:
            self._requeue(shard)
        return len(expired)

    def done_statuses(self) -> dict[str, dict]:
        """Every published status record as one ``spec_hash → status`` map."""
        with self._lock:
            return dict(self._statuses)

    def counts(self) -> dict[str, int]:
        """``{"pending": n, "leased": n, "done": n}`` shard counts."""
        with self._lock:
            return {
                "pending": len(self._pending),
                "leased": len(self._leased),
                "done": len(self._done),
            }

    def drained(self) -> bool:
        """True when no shard is pending or leased (not even an expired one)."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def rpc_totals(self, *, prefix: str | None = None) -> dict[str, int]:
        """Sum the per-shard RPC counters across done shards.

        ``prefix`` restricts the sum to one job's shards (shard ids are
        ``{job_id}-{n:04d}``), so concurrent jobs on one queue report
        their own worker RPC/spill totals.
        """
        totals: dict[str, int] = {}
        with self._lock:
            extras = [
                extra
                for shard_id, extra in self._done.items()
                if prefix is None or shard_id.startswith(f"{prefix}-")
            ]
        for extra in extras:
            for name, value in extra.items():
                totals[name] = totals.get(name, 0) + value
        return totals


@dataclass
class RemoteWorkLease:
    """One shard claimed over HTTP from a ``repro serve`` queue.

    The lifecycle mirrors :class:`WorkLease` (``process_lease`` duck-types
    over either), but every transition is an RPC through the worker's
    :class:`~repro.sim.netclient.ResilientClient`: the lease is addressed
    by the opaque ``token`` the server minted at claim time.  A heartbeat
    that cannot reach the server — retries exhausted or circuit open — is
    reported as a *lost* lease: the server will reclaim the shard when
    the TTL lapses anyway, and at-least-once delivery plus cache
    idempotence make the duplicate execution safe.
    """

    queue: "RemoteWorkQueue"
    shard_id: str
    takeovers: int
    owner: str
    specs: list[RunSpec]
    token: str
    lost: bool = field(default=False)

    def heartbeat(self) -> None:
        if self.lost:
            raise LeaseLostError(f"lease on {self.shard_id} already lost")
        try:
            self.queue._post("heartbeat", {"token": self.token}, key=self.token)
        except RpcHttpError as exc:
            if exc.status in (404, 410):
                self.lost = True
                raise LeaseLostError(
                    f"lease on {self.shard_id} expired and was stolen "
                    f"from {self.owner}"
                ) from None
            raise LeaseLostError(
                f"heartbeat on {self.shard_id} rejected: {exc}"
            ) from exc
        except RpcError as exc:
            # Unreachable server: the lease will expire and be stolen, so
            # stop working the shard now rather than racing the thief.
            self.lost = True
            raise LeaseLostError(
                f"heartbeat on {self.shard_id} unreachable: {exc}"
            ) from exc

    def complete(self, statuses: Sequence[dict], extra: dict | None = None) -> bool:
        body = {"token": self.token, "statuses": list(statuses)}
        if extra:
            body["rpc"] = extra
        try:
            self.queue._post("complete", body, key=self.token)
        except RpcHttpError as exc:
            if exc.status in (404, 410):
                self.lost = True
                return False
            raise
        except RpcError:
            # Statuses never reached the server; the shard will be stolen
            # and re-completed (idempotently) by another claimant.
            self.lost = True
            return False
        return True

    def abandon(self) -> bool:
        try:
            self.queue._post("abandon", {"token": self.token}, key=self.token)
        except RpcError:
            self.lost = True
            return False
        return True


class RemoteWorkQueue:
    """HTTP client for the queue endpoints of a ``repro serve`` process.

    Speaks ``POST /api/queue/{claim,heartbeat,complete,abandon}`` and
    ``GET /api/queue`` through a :class:`ResilientClient` — the same
    instance the worker's :class:`~repro.sim.cache.RemoteCacheBackend`
    uses, so cache and queue RPCs share one circuit breaker per server.
    All operations degrade gracefully: an unreachable server makes
    :meth:`claim` return None (the worker idles and retries) and
    :meth:`drained` return False (never a false "all done").
    """

    def __init__(
        self,
        base_url: str,
        *,
        client: ResilientClient | None = None,
        policy: RpcPolicy | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        base = base_url.rstrip("/")
        if not base.endswith("/api/queue"):
            base = f"{base}/api/queue"
        self.base_url = base
        self.client = (
            client
            if client is not None
            else ResilientClient(policy, fault_plan=fault_plan)
        )

    def _post(self, action: str, body: dict, *, key: str) -> dict:
        return self.client.post_json(
            f"{self.base_url}/{action}", body, key=f"queue/{action}/{key}"
        )

    def claim(self, owner: str) -> RemoteWorkLease | None:
        try:
            payload = self._post("claim", {"owner": owner}, key=owner)
        except RpcError:
            return None
        lease = payload.get("lease") if isinstance(payload, dict) else None
        if not isinstance(lease, dict):
            return None
        try:
            specs = [RunSpec.from_dict(d) for d in lease["specs"]]
            return RemoteWorkLease(
                queue=self,
                shard_id=str(lease["shard"]),
                takeovers=int(lease["takeovers"]),
                owner=owner,
                specs=specs,
                token=str(lease["token"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def counts(self) -> dict[str, int]:
        info = self.client.get_json(self.base_url, key="queue/info")
        counts = info.get("counts", {}) if isinstance(info, dict) else {}
        return {
            "pending": int(counts.get("pending", 0)),
            "leased": int(counts.get("leased", 0)),
            "done": int(counts.get("done", 0)),
        }

    def drained(self) -> bool:
        """True only when the server *positively reports* a drained queue."""
        try:
            info = self.client.get_json(self.base_url, key="queue/info")
        except RpcError:
            return False
        return bool(info.get("drained")) if isinstance(info, dict) else False

    def ready(self) -> bool:
        """Whether the server is reachable and has ever held any shards."""
        try:
            info = self.client.get_json(self.base_url, key="queue/info")
        except RpcError:
            return False
        if not isinstance(info, dict):
            return False
        counts = info.get("counts", {})
        total = sum(int(counts.get(k, 0)) for k in ("pending", "leased", "done"))
        return total > 0


def status_record(
    spec: RunSpec, result: RunResult | FailedResult, *, attempts: int = 0
) -> dict:
    """The per-spec record a completed shard publishes."""
    if isinstance(result, FailedResult):
        return {
            "spec_hash": spec.spec_hash(),
            "status": "failed",
            "error": result.error,
            "error_type": result.error_type,
            "attempts": result.attempts,
            "fault_events": list(result.fault_events),
        }
    return {"spec_hash": spec.spec_hash(), "status": "done", "attempts": attempts}


def collect_results(
    specs: Sequence[RunSpec],
    cache: "ResultCache",
    queue: WorkQueue | None = None,
) -> list[RunResult | FailedResult | None]:
    """Assemble final results for ``specs`` from the shared cache.

    ``done`` specs come back as cache hits; ``failed`` specs are
    reconstructed as :class:`FailedResult` from the queue's published
    status records (when a queue is given); anything else — still
    running, or a done record whose cache entry was corrupted away — is
    ``None`` and the caller decides whether to wait or recompute.
    """
    statuses = queue.done_statuses() if queue is not None else {}
    out: list[RunResult | FailedResult | None] = []
    for spec in specs:
        hit = cache.get(spec)
        if hit is not None:
            out.append(hit)
            continue
        record = statuses.get(spec.spec_hash())
        if record is not None and record.get("status") == "failed":
            out.append(
                FailedResult(
                    spec=spec,
                    error=str(record.get("error", "unknown failure")),
                    error_type=str(record.get("error_type", "Exception")),
                    attempts=int(record.get("attempts", 0)),
                    fault_events=list(record.get("fault_events") or []),
                )
            )
        else:
            out.append(None)
    return out
