"""``repro serve``: an HTTP front end over the distributed sweep queue.

Stdlib only (``http.server`` + ``urllib``) — the service accepts batches
of :class:`~repro.sim.specs.RunSpec` dicts over HTTP, shards them into
its private in-memory :class:`~repro.sim.queue.WorkQueue`, tracks
per-job progress in memory, and streams newline-delimited JSON progress
snapshots.  It is the
**cache and queue authority** for ``repro worker`` processes, which
share no filesystem with it: the ``/api/cache`` endpoints serve and
accept checksummed result payloads, and the ``/api/queue`` endpoints
expose claim/heartbeat/complete/abandon on token-addressed leases.
Robustness posture:

* **Work stealing** — the monitor thread reclaims expired leases, so a
  killed worker's shard returns to the pending line for the survivors:
  a worker whose heartbeats stop (crash, partition, open circuit)
  lapses its TTL and is stolen.
* **Local fallback** — when a job stalls (work pending, nothing leased,
  no progress for ``fallback_after`` seconds) the server claims shards
  itself and executes them in-process.  A sweep submitted with *zero*
  workers alive therefore still completes, just serially.  Fallback
  execution never injects faults and never marks the server a worker
  process, so a stray ``kill`` coin can only degrade to a transient.
* **Idempotent results** — results live in the content-addressed cache;
  the server assembles a job's result set from cache + published
  status records, so at-least-once shard execution is invisible to
  clients.
  Duplicate concurrent cache PUTs of the same key carry bit-identical
  bodies and converge through atomic rename, last writer wins.
* **Verified payloads** — cache bodies carry SHA-256 checksums at two
  layers (transport header over the HTTP body, embedded header inside
  the payload); the server verifies both on PUT — rejecting torn uploads
  with 400 + ``X-Checksum-Mismatch`` so clients retry with clean bytes —
  and re-verifies on GET, quarantining entries that rotted on disk.
* **Deterministic network faults** — a server-side
  :class:`~repro.sim.faults.FaultPlan` with net rates injects refused
  connections, stalls, torn/corrupted responses and HTTP 500s from
  SHA-256 coins over ``(seed, kind, key, attempt)``, mirroring the
  client-side injection in :mod:`repro.sim.netclient`.

Endpoints (HTTP/1.0, ``Connection: close``):

==============================  ===============================================
``GET /healthz``                liveness + job count
``POST /api/jobs``              ``{"specs": [...], "shard_size"?: n}`` → job id
``GET /api/jobs/<id>``          one progress snapshot (incl. rpc/cache stats)
``GET /api/jobs/<id>/stream``   ndjson snapshots until the job completes
``GET /api/jobs/<id>/results``  per-spec outcomes (409 until complete)
``GET/HEAD /api/cache/<hash>``  fetch / probe one checksummed payload
``PUT /api/cache/<hash>``       publish one payload (sidecar + pickle body)
``GET /api/queue``              shard counts, drained flag, lease TTL
``POST /api/queue/claim``       ``{"owner"}`` → token-addressed lease or null
``POST /api/queue/heartbeat``   ``{"token"}`` renews by lease TTL (410 when lost)
``POST /api/queue/complete``    ``{"token", "statuses", "rpc"?}`` (410 when lost)
``POST /api/queue/abandon``     ``{"token"}``
==============================  ===============================================
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib import error as urlerror
from urllib import request as urlrequest

from .cache import (
    SIDECAR_LENGTH_HEADER,
    LocalCacheBackend,
    ResultCache,
    default_cache_dir,
    payload_checksum_ok,
)
from .faults import FailedResult, FaultPlan
from .netclient import (
    CHECKSUM_MISMATCH_HEADER,
    PAYLOAD_CHECKSUM_HEADER,
    ResilientClient,
    RpcPolicy,
    payload_digest,
)
from .parallel import ExecutionPolicy
from .queue import DEFAULT_LEASE_TTL, LeaseLostError, WorkQueue, collect_results
from .runner import RunResult
from .specs import RunSpec
from .worker import process_lease

__all__ = [
    "SweepJob",
    "SweepService",
    "fetch_results",
    "make_server",
    "submit_batch",
    "wait_for_job",
]

_CACHE_KEY_RE = re.compile(r"^[0-9a-f]{16,64}$")


def _is_status_record(record: object) -> bool:
    """Whether a worker's status has the :func:`~repro.sim.queue.status_record`
    shape in every field the job monitor reads, so it cannot crash it."""
    return (
        isinstance(record, dict)
        and isinstance(record.get("spec_hash"), str)
        and isinstance(record.get("attempts", 0), int)
        and isinstance(record.get("fault_events") or [], list)
    )


@dataclass
class SweepJob:
    """One submitted spec batch and its tracking state."""

    job_id: str
    specs: list[RunSpec]
    shard_ids: list[str]
    #: ``specs[i].spec_hash()``, computed once at submit; a batch may
    #: hold the same spec twice, so counts go per spec, not per hash.
    hashes: list[str]
    #: spec hash → "done" | "failed", filled in by the monitor.
    state: dict[str, str] = field(default_factory=dict)
    complete: bool = False
    served_locally: int = 0
    #: Aggregated worker RPC/spill counters from this job's done records.
    rpc: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict:
        states = [self.state.get(key) for key in self.hashes]
        done = states.count("done")
        failed = states.count("failed")
        return {
            "job": self.job_id,
            "total": len(self.specs),
            "done": done,
            "failed": failed,
            "pending": len(self.specs) - done - failed,
            "complete": self.complete,
            "served_locally": self.served_locally,
            "rpc": dict(self.rpc),
        }


class SweepService:
    """Job registry + queue monitor backing the HTTP handler.

    Usable without HTTP too (the in-process tests drive it directly):
    :meth:`submit` shards a batch and starts a monitor thread;
    :meth:`wait` blocks until the job completes; :meth:`results`
    assembles the final per-spec outcomes.  The HTTP handler routes
    worker traffic to :attr:`queue` by lease token and serves the cache
    endpoints straight from the service's local cache backend.

    Parameters
    ----------
    cache_dir:
        The result cache the service owns and serves (default:
        :func:`~repro.sim.cache.default_cache_dir`); the queue and the
        job records live in this process's memory.
    fault_plan:
        Optional *server-side* network fault injector: cache and queue
        endpoint responses draw ``net_fault(f"srv:{key}", attempt)``
        coins and simulate refused/stalled/torn/corrupt/500 responses
        deterministically (progress streaming and health checks are
        exempt — they are observability, not the fault domain under
        test).
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        shard_size: int = 4,
        fallback_after: float = 2.0,
        poll: float = 0.1,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if cache_dir is None:
            cache_dir = default_cache_dir()
        self.queue = WorkQueue(lease_ttl=lease_ttl)
        self.cache = ResultCache(cache_dir)
        self.shard_size = shard_size
        self.fallback_after = fallback_after
        self.poll = poll
        self.fault_plan = fault_plan
        self.jobs: dict[str, SweepJob] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._closed = threading.Event()
        #: Per-key attempt clocks for server-side net fault coins.
        self._net_attempts: dict[str, int] = {}
        #: Cache endpoint counters (merged into job snapshots).
        self.cache_counters: dict[str, int] = {
            "gets": 0,
            "get_hits": 0,
            "puts": 0,
            "put_rejects": 0,
            "quarantined": 0,
        }

    # -- server-side fault coins ----------------------------------------------
    def draw_server_fault(self, key: str) -> str | None:
        plan = self.fault_plan
        if plan is None or not plan.net_active:
            return None
        with self._lock:
            attempt = self._net_attempts.get(key, 0)
            self._net_attempts[key] = attempt + 1
        return plan.net_fault(f"srv:{key}", attempt)

    # -- cache authority -------------------------------------------------------
    def _local_backend(self) -> LocalCacheBackend:
        backend = self.cache.backend
        if not isinstance(backend, LocalCacheBackend):  # pragma: no cover
            raise TypeError("the serve process must own a local cache backend")
        return backend

    def cache_get(self, key: str) -> bytes | None:
        """Raw verified payload bytes for ``key``, or None on a miss.

        A stored entry that fails its embedded checksum (rotted on disk,
        torn by a crashed writer) is quarantined server-side and reads
        as a miss — the same never-serve-garbage contract
        :meth:`ResultCache.get` keeps locally.
        """
        backend = self._local_backend()
        with self._lock:
            self.cache_counters["gets"] += 1
        try:
            raw = backend.load(key)
        except (KeyError, OSError):
            return None
        if not payload_checksum_ok(raw):
            backend.quarantine(key)
            with self._lock:
                self.cache_counters["quarantined"] += 1
            return None
        with self._lock:
            self.cache_counters["get_hits"] += 1
        return raw

    def cache_put(self, key: str, payload: bytes, sidecar: str) -> None:
        backend = self._local_backend()
        backend.store(key, payload, sidecar)
        with self._lock:
            self.cache_counters["puts"] += 1

    def cache_contains(self, key: str) -> bool:
        return self._local_backend().contains(key)

    def count_put_reject(self) -> None:
        with self._lock:
            self.cache_counters["put_rejects"] += 1

    # -- job lifecycle --------------------------------------------------------
    def submit(
        self, spec_dicts: list[dict | RunSpec], *, shard_size: int | None = None
    ) -> SweepJob:
        """Shard a batch into the queue and start tracking it."""
        specs = [
            s if isinstance(s, RunSpec) else RunSpec.from_dict(s) for s in spec_dicts
        ]
        if not specs:
            raise ValueError("a job needs at least one spec")
        with self._lock:
            job_id = f"job-{self._next_id}"
            self._next_id += 1
        shard_ids = self.queue.enqueue(
            specs, shard_size=shard_size or self.shard_size, prefix=job_id
        )
        job = SweepJob(
            job_id=job_id,
            specs=specs,
            shard_ids=shard_ids,
            hashes=[spec.spec_hash() for spec in specs],
        )
        with self._lock:
            self.jobs[job_id] = job
        threading.Thread(
            target=self._drive, args=(job,), name=f"monitor-{job_id}", daemon=True
        ).start()
        return job

    def _refresh(self, job: SweepJob) -> bool:
        """Fold the queue's status records into the job; True if anything
        advanced.

        Only a status record marks a spec done: workers and the local
        fallback publish one for every spec, cache hits included, and a
        cache entry alone may be stale (another cache version) and read
        as a miss.
        """
        statuses = self.queue.done_statuses()
        advanced = False
        for key in job.hashes:
            if key in job.state:
                continue
            status = statuses.get(key, {}).get("status")
            if status in ("done", "failed"):
                job.state[key] = status
                advanced = True
        if advanced:
            job.rpc = self.queue.rpc_totals(prefix=job.job_id)
            job.complete = all(key in job.state for key in job.hashes)
        return advanced

    def _drive(self, job: SweepJob) -> None:
        """Monitor thread: reclaim expired leases and fall back to local
        execution when no worker is making progress."""
        last_advance = time.monotonic()
        while not self._closed.is_set():
            self.queue.reclaim_expired()
            if self._refresh(job):
                last_advance = time.monotonic()
            if job.complete:
                return
            stalled = time.monotonic() - last_advance >= self.fallback_after
            counts = self.queue.counts()
            if stalled and counts["leased"] == 0 and counts["pending"] > 0:
                # No worker is alive and holding a lease: drain the
                # pending shards in-process until the queue is empty (or
                # a resurrected worker starts winning the claim races).
                while not self._closed.is_set():
                    lease = self.queue.claim(f"serve-local-{job.job_id}")
                    if lease is None:
                        break
                    job.served_locally += 1
                    process_lease(lease, self.cache, ExecutionPolicy())
                    self._refresh(job)
                last_advance = time.monotonic()
                continue
            self._closed.wait(self.poll)

    def wait(self, job: SweepJob, timeout: float | None = None) -> bool:
        """Block until ``job`` completes; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not job.complete:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self.poll)
        return True

    def results(self, job: SweepJob) -> list[dict]:
        """Per-spec outcome records for a completed job."""
        out = []
        for spec, key, result in zip(
            job.specs, job.hashes, collect_results(job.specs, self.cache, self.queue)
        ):
            record: dict = {
                "spec_hash": key,
                "label": spec.label or f"{spec.algorithm} vs {spec.adversary}",
            }
            if isinstance(result, RunResult):
                record["status"] = "done"
                record["summary"] = result.summary.as_dict()
            elif isinstance(result, FailedResult):
                record["status"] = "failed"
                record["error"] = result.error
                record["error_type"] = result.error_type
                record["attempts"] = result.attempts
            else:
                record["status"] = "missing"
            out.append(record)
        return out

    def close(self) -> None:
        self._closed.set()


def make_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server over ``service`` (port 0 = ephemeral)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.0"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        # -- plumbing ---------------------------------------------------------
        def _send_body(
            self,
            body: bytes,
            status: int = 200,
            content_type: str = "application/json",
            *,
            fault: str | None = None,
            extra_headers: dict[str, str] | None = None,
            head_only: bool = False,
        ) -> None:
            """Send one response, applying an injected wire fault if drawn.

            ``torn`` advertises the full Content-Length but writes only
            half the body; ``corrupt`` flips the final byte while the
            checksum header still covers the pristine bytes — either way
            the client's verification layer must detect the damage.
            Write errors (client went away) are swallowed: a disconnect
            is the peer's business, not a handler crash.
            """
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.send_header(PAYLOAD_CHECKSUM_HEADER, payload_digest(body))
                for name, value in (extra_headers or {}).items():
                    self.send_header(name, value)
                self.send_header("Connection", "close")
                self.end_headers()
                if head_only:
                    return
                out = body
                if fault == "torn" and len(body) > 1:
                    out = body[: len(body) // 2]
                elif fault == "corrupt" and body:
                    out = body[:-1] + bytes([body[-1] ^ 0xFF])
                self.wfile.write(out)
            except OSError:
                pass

        def _send_json(
            self,
            payload: dict,
            status: int = 200,
            *,
            fault: str | None = None,
            extra_headers: dict[str, str] | None = None,
        ) -> None:
            self._send_body(
                json.dumps(payload).encode("utf-8"),
                status,
                fault=fault,
                extra_headers=extra_headers,
            )

        def _job(self, job_id: str) -> SweepJob | None:
            return service.jobs.get(job_id)

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length", "0"))
            return self.rfile.read(length) if length > 0 else b""

        def _read_json(self) -> dict:
            payload = json.loads(self._read_body().decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        def _pre_fault(self, key: str) -> str | None:
            """Draw the server-side fault for this exchange; apply the
            ones that preempt a response.  Returns the fault to thread
            into the response writer ("torn"/"corrupt"), or raises
            ``_Refused`` semantics by returning the sentinel "refuse"
            which the caller must honour by *not responding at all*.
            """
            fault = service.draw_server_fault(key)
            if fault == "timeout":
                time.sleep(
                    service.fault_plan.stall_seconds
                    if service.fault_plan is not None
                    else 0.0
                )
                return None
            return fault

        # -- routes -----------------------------------------------------------
        def do_GET(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["healthz"]:
                self._send_json({"ok": True, "jobs": len(service.jobs)})
                return
            if len(parts) == 3 and parts[:2] == ["api", "cache"]:
                self._cache_get(parts[2], head_only=False)
                return
            if parts == ["api", "queue"]:
                fault = self._pre_fault("queue/info")
                if fault == "refuse":
                    return
                counts = service.queue.counts()
                info = {
                    "counts": counts,
                    "drained": counts["pending"] == 0 and counts["leased"] == 0,
                    "lease_ttl": service.queue.lease_ttl,
                }
                self._send_json(info, fault=fault)
                return
            if len(parts) >= 2 and parts[:1] == ["api"] and parts[1] == "jobs":
                if len(parts) == 3:
                    job = self._job(parts[2])
                    if job is None:
                        self._send_json({"error": "unknown job"}, 404)
                        return
                    snap = job.snapshot()
                    snap["cache"] = dict(service.cache_counters)
                    self._send_json(snap)
                    return
                if len(parts) == 4 and parts[3] == "results":
                    job = self._job(parts[2])
                    if job is None:
                        self._send_json({"error": "unknown job"}, 404)
                        return
                    if not job.complete:
                        self._send_json({"error": "job still running"}, 409)
                        return
                    self._send_json(
                        {"job": job.job_id, "results": service.results(job)}
                    )
                    return
                if len(parts) == 4 and parts[3] == "stream":
                    self._stream(parts[2])
                    return
            self._send_json({"error": "not found"}, 404)

        def do_HEAD(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if len(parts) == 3 and parts[:2] == ["api", "cache"]:
                self._cache_get(parts[2], head_only=True)
                return
            self._send_body(b"", 404, head_only=True)

        def _cache_get(self, key: str, *, head_only: bool) -> None:
            if not _CACHE_KEY_RE.match(key):
                self._send_json({"error": "bad cache key"}, 400)
                return
            fault = self._pre_fault(f"cache/{key}")
            if fault == "refuse":
                return
            raw = service.cache_get(key)
            if raw is None:
                self._send_body(
                    b"", 404, "application/octet-stream", head_only=head_only
                )
                return
            self._send_body(
                raw,
                200,
                "application/octet-stream",
                fault=fault,
                head_only=head_only,
            )

        def do_PUT(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if len(parts) != 3 or parts[:2] != ["api", "cache"]:
                self._send_json({"error": "not found"}, 404)
                return
            key = parts[2]
            if not _CACHE_KEY_RE.match(key):
                self._send_json({"error": "bad cache key"}, 400)
                return
            # Writes draw their own coin stream, mirroring the client's
            # read/write key split.
            fault = self._pre_fault(f"cache/put/{key}")
            if fault == "refuse":
                return
            try:
                declared = int(self.headers.get("Content-Length", "0"))
                body = self._read_body()
            except (OSError, ValueError):
                self._send_json({"error": "unreadable body"}, 400)
                return
            mismatch = {CHECKSUM_MISMATCH_HEADER: "1"}
            if len(body) != declared:
                service.count_put_reject()
                self._send_json(
                    {"error": "body checksum/length mismatch"},
                    400,
                    extra_headers=mismatch,
                )
                return
            transport_digest = self.headers.get(PAYLOAD_CHECKSUM_HEADER)
            if transport_digest is not None and payload_digest(body) != transport_digest:
                service.count_put_reject()
                self._send_json(
                    {"error": "body checksum mismatch"}, 400, extra_headers=mismatch
                )
                return
            try:
                sidecar_len = int(self.headers.get(SIDECAR_LENGTH_HEADER, "0"))
                if not 0 <= sidecar_len <= len(body):
                    raise ValueError("bad sidecar length")
                sidecar = body[:sidecar_len].decode("utf-8")
            except (ValueError, UnicodeDecodeError):
                self._send_json({"error": "bad sidecar framing"}, 400)
                return
            payload = body[sidecar_len:]
            if not payload_checksum_ok(payload):
                # The embedded checksum failed with an intact transport
                # body: the *client* sent rotten bytes; still flagged as
                # a checksum mismatch so a client whose request tore in
                # flight (no transport header verified) retries cleanly.
                service.count_put_reject()
                self._send_json(
                    {"error": "payload checksum mismatch"},
                    400,
                    extra_headers=mismatch,
                )
                return
            service.cache_put(key, payload, sidecar)
            self._send_json({"stored": key}, 201, fault=fault)

        def _stream(self, job_id: str) -> None:
            job = self._job(job_id)
            if job is None:
                self._send_json({"error": "unknown job"}, 404)
                return
            try:
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Connection", "close")
                self.end_headers()
            except OSError:
                return
            while True:
                snap = job.snapshot()
                try:
                    self.wfile.write((json.dumps(snap) + "\n").encode("utf-8"))
                    self.wfile.flush()
                except OSError:
                    # Client went away mid-stream: exit quietly; the job
                    # (and every other subscriber) is unaffected.
                    return
                if snap["complete"]:
                    return
                time.sleep(service.poll)

        def do_POST(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["api", "jobs"]:
                self._post_job()
                return
            if len(parts) == 3 and parts[:2] == ["api", "queue"]:
                self._post_queue(parts[2])
                return
            self._send_json({"error": "not found"}, 404)

        def _post_job(self) -> None:
            try:
                payload = self._read_json()
                specs = payload["specs"]
                if not isinstance(specs, list) or not specs:
                    raise ValueError("specs must be a non-empty list")
                job = service.submit(specs, shard_size=payload.get("shard_size"))
            except (KeyError, TypeError, ValueError) as exc:
                self._send_json({"error": f"bad request: {exc}"}, 400)
                return
            self._send_json(
                {
                    "job": job.job_id,
                    "total": len(job.specs),
                    "shards": job.shard_ids,
                },
                201,
            )

        def _post_queue(self, action: str) -> None:
            fault = self._pre_fault(f"queue/{action}")
            if fault == "refuse":
                return
            try:
                payload = self._read_json()
            except (OSError, ValueError):
                self._send_json({"error": "bad request body"}, 400)
                return
            if action == "claim":
                lease = service.queue.claim(str(payload.get("owner", "worker")))
                record = None
                if lease is not None:
                    record = {
                        "token": lease.token,
                        "shard": lease.shard_id,
                        "takeovers": lease.takeovers,
                        "specs": [spec.to_dict() for spec in lease.specs],
                        "lease_ttl": service.queue.lease_ttl,
                    }
                self._send_json({"lease": record}, fault=fault)
                return
            token = payload.get("token")
            if not isinstance(token, str) or not token:
                self._send_json({"error": "missing lease token"}, 400)
                return
            if action == "heartbeat":
                if payload.get("ttl") is not None:
                    # Leases renew by the server's TTL only: a client expiry
                    # could be one that never lapses and strands the shard.
                    self._send_json({"error": "ttl is not accepted"}, 400)
                    return
                try:
                    service.queue.heartbeat(token)
                except LeaseLostError:
                    self._send_json({"error": "lease lost"}, 410)
                    return
                self._send_json({"ok": True}, fault=fault)
                return
            if action == "complete":
                statuses = payload.get("statuses")
                if not isinstance(statuses, list) or not all(
                    map(_is_status_record, statuses)
                ):
                    self._send_json({"error": "malformed status records"}, 400)
                    return
                rpc = payload.get("rpc")
                try:
                    service.queue.complete(
                        token, statuses, rpc if isinstance(rpc, dict) else None
                    )
                except LeaseLostError:
                    self._send_json({"error": "lease lost"}, 410)
                    return
                self._send_json({"ok": True}, fault=fault)
                return
            if action == "abandon":
                released = service.queue.abandon(token)
                self._send_json({"ok": True, "released": released}, fault=fault)
                return
            self._send_json({"error": "not found"}, 404)

    class Server(ThreadingHTTPServer):
        daemon_threads = True
        allow_reuse_address = True

    return Server((host, port), Handler)


# -- client helpers (used by ``repro submit`` and the integration tests) ------
def submit_batch(
    base_url: str,
    spec_dicts: list[dict],
    *,
    shard_size: int | None = None,
    client: ResilientClient | None = None,
    timeout: float = 10.0,
) -> dict:
    """POST a spec batch; returns the server's job record.

    Goes through the resilient client as a *non-idempotent* request:
    only *connection refused* (the server socket not listening yet — the
    startup race — or gone) is retried, since a refused connection is
    the one transport failure that proves the batch never arrived.  Any
    other failure surfaces rather than risking a double enqueue.
    """
    body: dict = {"specs": spec_dicts}
    if shard_size is not None:
        body["shard_size"] = shard_size
    cli = client if client is not None else ResilientClient(RpcPolicy(timeout=timeout))
    return cli.post_json(
        f"{base_url.rstrip('/')}/api/jobs",
        body,
        key="jobs/submit",
        idempotent=False,
        ok=(200, 201),
    )


def wait_for_job(
    base_url: str,
    job_id: str,
    *,
    timeout: float = 300.0,
    on_progress=None,
    read_timeout: float = 10.0,
) -> dict:
    """Follow the job's ndjson progress stream until it completes.

    Returns the final snapshot.  ``on_progress(snapshot)`` is invoked
    for every streamed line.  Every socket operation is bounded by
    ``read_timeout`` — a hung server reads as a dropped stream, never a
    wedged client — and reconnects back off exponentially (reset on a
    successful connect) until the ``timeout`` deadline expires.
    """
    deadline = time.monotonic() + timeout
    url = f"{base_url.rstrip('/')}/api/jobs/{job_id}/stream"
    last: dict = {}
    delay = 0.05
    while time.monotonic() < deadline:
        try:
            with urlrequest.urlopen(url, timeout=read_timeout) as resp:
                delay = 0.05
                for raw in resp:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    last = json.loads(line)
                    if on_progress is not None:
                        on_progress(last)
                    if last.get("complete"):
                        return last
        except (OSError, urlerror.URLError, ValueError, http.client.HTTPException):
            pass
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(delay, remaining))
        delay = min(2.0, delay * 2)
    raise TimeoutError(f"job {job_id} did not complete within {timeout}s")


def fetch_results(
    base_url: str,
    job_id: str,
    *,
    client: ResilientClient | None = None,
    timeout: float = 10.0,
) -> list[dict]:
    """GET a completed job's per-spec outcome records (with retries)."""
    cli = client if client is not None else ResilientClient(RpcPolicy(timeout=timeout))
    payload = cli.get_json(
        f"{base_url.rstrip('/')}/api/jobs/{job_id}/results",
        key=f"jobs/{job_id}/results",
    )
    return payload["results"]
