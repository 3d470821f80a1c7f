"""Lease-based work queue with token-addressed claims and work stealing.

``repro serve`` owns one :class:`WorkQueue`: an in-memory store, guarded
by one lock, that coordinates every ``repro worker`` through the
server's ``/api/queue`` endpoints (:class:`RemoteWorkQueue` is the
worker's HTTP client for them):

* a sweep is **enqueued** as shards (a few :class:`~repro.sim.specs.RunSpec`
  each), claimed first in, first out; a spec some shard already holds
  unsettled is not enqueued again, so overlapping jobs share its run;
* a worker **claims** a shard and receives an opaque lease *token*;
  the lease carries a **TTL** (measured on the server's monotonic
  clock) that the worker **heartbeats** while it executes.  A claim on
  an empty queue may **wait** at the server: an enqueue or a reclaimed
  lease wakes it;
* each finished spec's result **rides the next heartbeat**:
  :meth:`WorkQueue.record` stores it in the server's
  :class:`~repro.sim.cache.ResultCache` and only then marks the spec
  settled, so a spec is never done without a stored result;
* a lease whose TTL lapses (worker crashed, stalled, or was killed) is
  **reclaimed**: the shard returns to the front of the pending line
  with its *takeover counter* bumped — this is work stealing, and the
  counter survives worker crashes because the server holds it.  The
  thief's lease carries only the specs with no stored result;
* the **completion** carries the failed specs' status records (plus
  optional per-shard RPC counters) and retires the shard once every
  spec has a stored result or a failed status.

Delivery is **at least once**: a stolen shard may still be worked by its
original (slow, not dead) owner, so two workers can deliver the same
spec.  That is safe because results are content-addressed and both
workers compute the bit-identical payload; a superseded token's result
is still accepted.  The takeover counter doubles as the shard's global
attempt clock for deterministic fault injection:
:meth:`FaultPlan.with_offset(takeovers)
<repro.sim.faults.FaultPlan.with_offset>` lets a stolen shard resume the
fault-coin stream where its dead predecessor left it, so the fault
budget bounds faults per spec across the whole fleet, not per process.
"""

from __future__ import annotations

import base64
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .cache import ResultCache, encode_entry
from .faults import FailedResult
from .netclient import ResilientClient, RpcError, RpcHttpError, RpcPolicy
from .runner import RunResult
from .specs import RunSpec

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultPlan
    from .service import SweepJob

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
    #: ``specs[i].spec_hash()``, computed once at enqueue.
    hashes: list[str]
    #: The job that enqueued the shard; its completion's RPC counters go there.
    job: "SweepJob"
    takeovers: int = 0
    #: Token of the live lease (None while pending).
    token: str | None = None
    #: ``time.monotonic()`` deadline of the live lease.
    expires: float = 0.0
    #: Every token issued on this shard, spent together when it retires.
    tokens: list[str] = field(default_factory=list)
    #: Spec hashes with a stored result (or, at retirement, a failed status).
    settled: set[str] = field(default_factory=set)


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

    def heartbeat(self, spec: RunSpec | None = None, result: RunResult | None = None) -> None:
        """Renew the lease, delivering ``spec``'s ``result`` when given.

        Raises :class:`LeaseLostError` once the lease was stolen; a
        result delivered under a superseded token is still kept.
        """
        records, entry = [], None
        if spec is not None:
            records, entry = [status_record(spec, result)], encode_entry(spec, result)
        try:
            held = self.queue.record(self.token, records, entry)
        except LeaseLostError:
            held = False
        if not held:
            self.lost = True
            raise LeaseLostError(f"lease {self.token} was stolen or is spent")

    def complete(self, statuses: Sequence[dict], extra: dict | None = None) -> bool:
        """Publish the failed statuses and retire the shard; False when
        the lease had been stolen."""
        try:
            held = self.queue.record(self.token, statuses, retire=True, rpc=extra)
        except LeaseLostError:
            held = False
        self.lost = self.lost or not held
        return held


class WorkQueue:
    """The ``repro serve`` process's shard store: pending, leased, done.

    Every state change happens under the one lock, so racing claims
    from the HTTP handler threads and the fallback drain have exactly
    one winner; a claim held on an empty queue waits on a condition over
    that lock, which every enqueue and reclaimed lease notifies.
    ``cache`` is where :meth:`record` stores delivered results;
    ``lease_ttl`` is the seconds before an unrenewed lease may be stolen.
    """

    def __init__(self, cache: ResultCache, *, lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        if not 0 < lease_ttl < math.inf:
            raise ValueError(f"lease_ttl must be positive and finite, got {lease_ttl!r}")
        self.lease_ttl = float(lease_ttl)
        self.cache = cache
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._closed = False
        self._pending: OrderedDict[str, _Shard] = OrderedDict()
        self._leased: dict[str, _Shard] = {}
        self._tokens: dict[str, _Shard] = {}
        #: Ids of retired shards.
        self._done: set[str] = set()
        #: Spec hash -> the jobs its first settled record advances, for
        #: every spec a pending or leased shard holds unsettled.
        self._waiting: dict[str, list["SweepJob"]] = {}
        self._token_seq = 0

    def enqueue(
        self,
        specs: Iterable[RunSpec | dict],
        job: "SweepJob",
        *,
        shard_size: int = 4,
        prefix: str = "shard",
    ) -> list[str]:
        """Shard ``specs`` into pending work items for ``job``; return the
        new shard ids.

        A spec hash is in flight at most once: a spec that an earlier copy
        in this batch, or an overlapping job's pending or leased shard,
        already holds unsettled is not enqueued again, and its first
        settled record advances every job waiting on it.  Order is
        preserved within and across shards, so shard contents are
        deterministic for a given spec sequence and queue state.
        """
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        batch: dict[str, RunSpec] = {}
        for spec in specs:
            spec = spec if isinstance(spec, RunSpec) else RunSpec.from_dict(spec)
            batch.setdefault(spec.spec_hash(), spec)
        with self._lock:
            fresh = [key for key in batch if key not in self._waiting]
            shards = [
                _Shard(f"{prefix}-{n:04d}", [batch[key] for key in chunk], chunk, job)
                for n, chunk in enumerate(
                    fresh[start : start + shard_size]
                    for start in range(0, len(fresh), shard_size)
                )
            ]
            ids = [shard.shard_id for shard in shards]
            if any(i in self._pending or i in self._leased or i in self._done for i in ids):
                raise ValueError(f"shard prefix {prefix!r} is already in use")
            for key in batch:
                self._waiting.setdefault(key, []).append(job)
            self._pending.update(zip(ids, shards))
            self._work.notify_all()
        return ids

    def claim(self, owner: str, wait: float = 0.0) -> WorkLease | None:
        """Lease the oldest pending shard to ``owner``, or None.

        Expired leases are reclaimed first, so a lone worker can steal
        back its own lapsed lease.  With nothing pending, the claim waits
        up to ``wait`` seconds for an enqueue or a reclaimed lease (or
        :meth:`close`), then reclaims again.  The lease carries only the
        specs with no stored result; a shard whose every spec was
        delivered before its holder could complete it retires here
        instead.
        """
        with self._lock:
            self._reclaim_expired()
            if wait > 0:
                self._work.wait_for(lambda: self._pending or self._closed, wait)
                self._reclaim_expired()
            while self._pending:
                _, shard = self._pending.popitem(last=False)
                specs = [
                    spec
                    for spec, key in zip(shard.specs, shard.hashes)
                    if key not in shard.settled
                ]
                if not specs:
                    self._retire(shard)
                    continue
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
                    specs=specs,
                    token=token,
                )
            return None

    def _requeue(self, shard: _Shard) -> None:
        """Put a leased shard back at the front, takeover bumped."""
        del self._leased[shard.shard_id]
        shard.token = None
        shard.takeovers += 1
        self._pending[shard.shard_id] = shard
        self._pending.move_to_end(shard.shard_id, last=False)
        self._work.notify_all()

    def _retire(self, shard: _Shard) -> None:
        """Drop a shard from the lines and spend every token issued on it."""
        self._pending.pop(shard.shard_id, None)
        self._leased.pop(shard.shard_id, None)
        for spent in shard.tokens:
            del self._tokens[spent]
        self._done.add(shard.shard_id)

    def record(
        self,
        token: str,
        records: Sequence[dict],
        entry: tuple[bytes, str] | None = None,
        *,
        retire: bool = False,
        rpc: Mapping | None = None,
    ) -> bool:
        """Renew ``token``'s lease and settle specs of its shard: the one
        path heartbeats and results take.

        ``records`` are :func:`status_record` dicts.  A plain heartbeat
        carries none; a delivery carries one "done" record and ``entry``,
        the :func:`~repro.sim.cache.encode_entry` pair of its result,
        which is stored in :attr:`cache` before the spec counts as
        settled; a completion (``retire=True``) carries the failed records
        and ``rpc``, the worker's counters for the shard, and retires the
        shard.  A spec's first settled record advances every job waiting
        on it.

        Returns True while ``token`` is the shard's live lease; a
        superseded token's records are still accepted, and it returns
        False.  Raises :class:`LeaseLostError`, recording nothing, when
        the token is unknown or its shard retired, and :class:`ValueError`,
        leaving the lease live, for a record naming a spec outside the
        shard or a completion that would leave a spec with neither a
        stored result nor a failed status.
        """
        # Index before touching any state: a malformed record raises here.
        keys = {record["spec_hash"] for record in records}
        if entry is not None:
            with self._lock:
                self._settleable(token, keys, retire)
            (key,) = keys
            # The bytes are content-addressed and the same from every
            # holder, so they are written outside the lock: claims and
            # heartbeats never wait on the disk.
            self.cache.store(key, *entry)
        with self._lock:
            shard = self._settleable(token, keys, retire)
            shard.settled.update(keys)
            held = shard.token == token
            if retire:
                self._retire(shard)
            elif held:
                shard.expires = time.monotonic() + self.lease_ttl
            if rpc:
                shard.job.count_rpc(rpc)
            for record in records:
                for job in self._waiting.pop(record["spec_hash"], ()):
                    job.settle(record)
            return held

    def _settleable(self, token: str, keys: set[str], retire: bool) -> _Shard:
        """``token``'s shard, if ``keys`` may settle on it (see :meth:`record`)."""
        shard = self._tokens.get(token)
        if shard is None:
            raise LeaseLostError(f"lease {token} is unknown or its shard is done")
        outside = keys.difference(shard.hashes)
        if outside:
            raise ValueError(f"spec(s) {sorted(outside)} are not in shard {shard.shard_id}")
        unsettled = set(shard.hashes) - shard.settled - keys if retire else ()
        if unsettled:
            raise ValueError(
                f"shard {shard.shard_id} has {len(unsettled)} spec(s) with "
                "no stored result and no failed status"
            )
        return shard

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

    def close(self) -> None:
        """Release every held claim now, and hold none from here on."""
        with self._lock:
            self._closed = True
            self._work.notify_all()


@dataclass
class RemoteWorkLease:
    """One shard claimed over HTTP from a ``repro serve`` queue.

    The lifecycle mirrors :class:`WorkLease` (``process_lease`` duck-types
    over either), but every transition is an RPC through the worker's
    :class:`~repro.sim.netclient.ResilientClient`: the lease is addressed
    by the opaque ``token`` the server minted at claim time.  A heartbeat
    that cannot reach the server — retries exhausted or circuit open — is
    reported as a *lost* lease: the server will reclaim the shard when
    the TTL lapses anyway, and the next holder's lease carries only the
    specs with no stored result.
    """

    queue: "RemoteWorkQueue"
    shard_id: str
    takeovers: int
    owner: str
    specs: list[RunSpec]
    token: str
    lost: bool = field(default=False)

    def heartbeat(self, spec: RunSpec | None = None, result: RunResult | None = None) -> None:
        """Renew the lease, carrying ``spec``'s checksummed ``result`` when
        given; :class:`LeaseLostError` when the lease is gone."""
        if self.lost:
            raise LeaseLostError(f"lease on {self.shard_id} already lost")
        body, key = {"token": self.token}, self.token
        if spec is not None:
            payload, sidecar = encode_entry(spec, result)
            body.update(
                spec_hash=spec.spec_hash(),
                payload=base64.b64encode(payload).decode("ascii"),
                sidecar=sidecar,
            )
            # Fault coins per delivery and holder, not per claim order,
            # so a seeded schedule replays whichever worker holds it.
            key = f"{spec.spec_hash()}.t{self.takeovers}"
        try:
            self.queue._post("heartbeat", body, key=key)
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
        except RpcError:
            # Lost (410), rejected (400) or never delivered: the shard
            # stays leased until its TTL lapses, and the next holder
            # recomputes whatever has no stored result.
            self.lost = True
            return False
        return True


class RemoteWorkQueue:
    """HTTP client for the queue endpoints of a ``repro serve`` process.

    Speaks ``POST /api/queue/{claim,heartbeat,complete}`` and
    ``GET /api/queue`` through one :class:`ResilientClient`, so every
    RPC to the server shares one circuit breaker.  All operations
    degrade gracefully: an unreachable server makes
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

    def claim(self, owner: str, wait: float = 0.0) -> RemoteWorkLease | None:
        """Claim a shard, letting the server hold the claim up to ``wait``
        seconds for work; None when there is none or on any RPC failure."""
        body: dict = {"owner": owner}
        if wait > 0:
            body["wait"] = wait
        try:
            payload = self._post("claim", body, key=owner)
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
    """The per-spec status record a delivery or completion carries."""
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
    cache: ResultCache,
    statuses: Mapping[str, dict],
) -> list[RunResult | FailedResult | None]:
    """Assemble final results for ``specs`` from the cache.

    ``done`` specs come back as cache hits; ``failed`` specs are
    reconstructed as :class:`FailedResult` from ``statuses`` (spec hash →
    status record, as a job holds them); anything else — still running,
    or a done record whose cache entry was corrupted away — is ``None``
    and the caller decides whether to wait or recompute.
    """
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
