"""``repro serve``: an HTTP front end over the distributed sweep queue.

Stdlib only (``http.server`` + ``urllib``) — the service accepts batches
of :class:`~repro.sim.specs.RunSpec` dicts over HTTP, answers the specs
its own cache already holds, shards the rest into its private in-memory
:class:`~repro.sim.queue.WorkQueue`, and streams newline-delimited JSON
progress snapshots.  It is the **cache and queue authority** for
``repro worker`` processes, which share no filesystem with it and keep
no cache: the ``/api/queue`` endpoints expose claim/heartbeat/complete
on token-addressed leases, and each heartbeat after a finished spec
carries that spec's checksummed result, which the server stores.
Robustness posture:

* **Work stealing** — a job's monitor thread reclaims expired leases, so
  a killed worker's shard returns to the pending line for the
  survivors: a worker whose heartbeats stop (crash, partition, open
  circuit) lapses its TTL and is stolen.  The thief's lease carries
  only the specs with no stored result.
* **Local fallback** — when a job stalls (work pending, nothing leased,
  no result for ``fallback_after`` seconds) the server claims shards
  itself and executes them in-process.  A sweep submitted with *zero*
  workers alive therefore still completes, just serially.  Fallback
  execution never injects faults and never marks the server a worker
  process, so a stray ``kill`` coin can only degrade to a transient.
* **Event-driven jobs** — :meth:`WorkQueue.record
  <repro.sim.queue.WorkQueue.record>` is the one path a result takes,
  from a worker's heartbeat or the in-process fallback alike: it stores
  the result, then advances every job waiting on that spec (overlapping
  jobs share one run of a spec in flight).  Nothing polls status
  records, so the server's work per result does not grow with the job
  or with the server's history.  A job's progress stream ends as soon
  as its last result lands, and an idle worker's claim waits at the
  server (up to :data:`MAX_CLAIM_WAIT` seconds) until a shard is
  enqueued or a lease is reclaimed.
* **Idempotent results** — results live in the content-addressed cache,
  so at-least-once delivery is invisible to clients: two holders of a
  stolen shard deliver bit-identical bytes for a spec, and atomic
  renames converge them on one entry.
* **Verified payloads** — a delivered result carries SHA-256 checksums
  at two layers (transport header over the HTTP body, embedded header
  inside the payload); the server verifies both and rejects a torn
  delivery with 400 + ``X-Checksum-Mismatch`` so the client retries.
* **Deterministic network faults** — a server-side
  :class:`~repro.sim.faults.FaultPlan` with net rates injects refused
  connections, stalls, torn/corrupted responses and HTTP 500s from
  SHA-256 coins over ``(seed, kind, key, attempt)``, mirroring the
  client-side injection in :mod:`repro.sim.netclient`.

Endpoints (HTTP/1.0, ``Connection: close``):

==============================  ===============================================
``GET /healthz``                liveness + job count
``POST /api/jobs``              ``{"specs": [...], "shard_size"?: n}`` → job id
``GET /api/jobs/<id>``          one progress snapshot (incl. worker rpc stats)
``GET /api/jobs/<id>/stream``   ndjson snapshots until the job completes
``GET /api/jobs/<id>/results``  per-spec outcomes (409 until complete)
``GET /api/queue``              shard counts, drained flag, lease TTL
``POST /api/queue/claim``       ``{"owner", "wait"?}`` → token-addressed lease
                                or null; an empty queue holds the claim up
                                to ``wait`` seconds for work
``POST /api/queue/heartbeat``   ``{"token", "spec_hash"?, "payload"?,
                                "sidecar"?}`` renews by lease TTL and stores
                                the base64 result it carries (410 when lost)
``POST /api/queue/complete``    ``{"token", "statuses", "rpc"?}``: failed
                                statuses only; retires the shard (410 when
                                lost)
==============================  ===============================================
"""

from __future__ import annotations

import base64
import binascii
import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping
from urllib import error as urlerror
from urllib import request as urlrequest

from .cache import ResultCache, default_cache_dir, payload_checksum_ok
from .faults import FailedResult, FaultPlan
from .netclient import (
    CHECKSUM_MISMATCH_HEADER,
    PAYLOAD_CHECKSUM_HEADER,
    ResilientClient,
    RpcHttpError,
    RpcPolicy,
    payload_digest,
)
from .parallel import ExecutionPolicy
from .queue import DEFAULT_LEASE_TTL, LeaseLostError, WorkQueue, collect_results
from .runner import RunResult
from .specs import RunSpec
from .worker import process_lease

__all__ = [
    "MAX_CLAIM_WAIT",
    "SweepJob",
    "SweepService",
    "fetch_results",
    "make_server",
    "submit_batch",
    "wait_for_job",
]

#: Longest a claim waits at the server for work, whatever it asks for,
#: so no client parks a handler thread for long.
MAX_CLAIM_WAIT = 5.0


def _check_shard_size(value: object) -> int:
    """``value`` if it is an int of at least 1 (bools rejected), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"shard_size must be an integer of at least 1, got {value!r}")
    return value


def _is_failed_record(record: object) -> bool:
    """Whether a completion's status has the failed
    :func:`~repro.sim.queue.status_record` shape in every field the job
    reads, so it cannot crash it.  Only failed statuses ride a completion:
    a spec is done only where its result was stored."""
    return (
        isinstance(record, dict)
        and isinstance(record.get("spec_hash"), str)
        and record.get("status") == "failed"
        and isinstance(record.get("attempts", 0), int)
        and isinstance(record.get("fault_events") or [], list)
    )


@dataclass
class SweepJob:
    """One submitted spec batch and its tracking state."""

    job_id: str
    specs: list[RunSpec]
    #: ``specs[i].spec_hash()``, computed once at submit; a batch may
    #: hold the same spec twice, so counts go per spec, not per hash.
    hashes: list[str]
    shard_ids: list[str] = field(default_factory=list)
    #: spec hash → its "done" or "failed" status record, set as results land.
    state: dict[str, dict] = field(default_factory=dict)
    served_locally: int = 0
    #: Summed integer RPC counters from the completions of its shards.
    rpc: dict[str, int] = field(default_factory=dict)
    #: ``time.monotonic()`` of the last status that landed: the stall clock.
    advanced_at: float = field(default_factory=time.monotonic)
    finished: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        self._distinct = len(set(self.hashes))

    @property
    def complete(self) -> bool:
        return self.finished.is_set()

    def settle(self, record: dict) -> None:
        """Fold one landed status record into the job (the first per spec
        wins); O(1), whatever the job's size."""
        self.state.setdefault(record["spec_hash"], record)
        self.advanced_at = time.monotonic()
        if len(self.state) == self._distinct:
            self.finished.set()

    def count_rpc(self, rpc: Mapping) -> None:
        """Add a completion's RPC counters to the job's."""
        for name, value in rpc.items():
            # Only integer counters: a worker's NaN would poison the sum.
            if isinstance(value, int):
                self.rpc[name] = self.rpc.get(name, 0) + value

    def snapshot(self) -> dict:
        states = [self.state.get(key, {}).get("status") for key in self.hashes]
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
    :meth:`submit` answers cached specs, shards the rest and starts a
    monitor thread; :meth:`wait` blocks until the job completes;
    :meth:`results` assembles the final per-spec outcomes.  The HTTP
    handler routes worker traffic to :attr:`queue` by lease token.

    Parameters
    ----------
    cache_dir:
        The result cache the service owns (default:
        :func:`~repro.sim.cache.default_cache_dir`); the queue and the
        job records live in this process's memory.
    lease_ttl, shard_size, fallback_after:
        Seconds before an unrenewed lease may be stolen, specs per
        shard (a job may ask for another), and seconds of stalled
        progress with no live lease before the server runs shards itself.
    poll:
        Seconds between a progress stream's snapshots while its job
        runs, and between a job monitor's lease reclaims and stall
        checks.  Nothing waits on it for an event: a stream ends as soon
        as its job finishes, and a held claim wakes as soon as work is
        enqueued or a lease is reclaimed.
    fault_plan:
        Optional *server-side* network fault injector: queue endpoint
        responses draw ``net_fault(f"srv:{key}", attempt)`` coins and
        simulate refused/stalled/torn/corrupt/500 responses
        deterministically (job submission, progress and health checks
        are exempt — they are not the fault domain under test).
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
        if not 0 <= fallback_after < math.inf:
            raise ValueError(
                f"fallback_after must be finite and non-negative, got {fallback_after!r}"
            )
        if not 0 < poll < math.inf:
            raise ValueError(f"poll must be positive and finite, got {poll!r}")
        if cache_dir is None:
            cache_dir = default_cache_dir()
        self.cache = ResultCache(cache_dir)
        self.queue = WorkQueue(self.cache, lease_ttl=lease_ttl)
        self.shard_size = _check_shard_size(shard_size)
        self.fallback_after = fallback_after
        self.poll = poll
        self.fault_plan = fault_plan
        self.jobs: dict[str, SweepJob] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._closed = threading.Event()
        #: Per-key attempt clocks for server-side net fault coins.
        self._net_attempts: dict[str, int] = {}

    # -- server-side fault coins ----------------------------------------------
    def draw_server_fault(self, key: str) -> str | None:
        plan = self.fault_plan
        if plan is None or not plan.net_active:
            return None
        with self._lock:
            attempt = self._net_attempts.get(key, 0)
            self._net_attempts[key] = attempt + 1
        return plan.net_fault(f"srv:{key}", attempt)

    # -- job lifecycle --------------------------------------------------------
    def submit(
        self, spec_dicts: list[dict | RunSpec], *, shard_size: int | None = None
    ) -> SweepJob:
        """Answer cached specs, shard the rest into the queue, track the job.

        A spec counts as cached only on a verified :meth:`ResultCache.get`,
        so an entry from another cache version is recomputed.  Each
        remaining spec hash is enqueued once, however often the batch
        holds it, and not at all while another job's shard holds it.
        ``shard_size`` (default: the service's) must be an int of at
        least 1; anything else raises :class:`ValueError`.
        """
        shard_size = _check_shard_size(
            self.shard_size if shard_size is None else shard_size
        )
        specs = [
            s if isinstance(s, RunSpec) else RunSpec.from_dict(s) for s in spec_dicts
        ]
        if not specs:
            raise ValueError("a job needs at least one spec")
        with self._lock:
            job_id = f"job-{self._next_id}"
            self._next_id += 1
        job = SweepJob(job_id, specs, [spec.spec_hash() for spec in specs])
        misses: dict[str, RunSpec] = {}
        for spec, key in zip(specs, job.hashes):
            if key in job.state or key in misses:
                continue
            if self.cache.get(spec) is not None:
                job.settle({"spec_hash": key, "status": "done", "attempts": 0})
            else:
                misses[key] = spec
        if misses:
            job.shard_ids = self.queue.enqueue(
                misses.values(),
                job,
                shard_size=shard_size,
                prefix=job_id,
            )
        with self._lock:
            self.jobs[job_id] = job
        if not job.complete:
            threading.Thread(
                target=self._drive, args=(job,), name=f"monitor-{job_id}", daemon=True
            ).start()
        return job

    def _drive(self, job: SweepJob) -> None:
        """Monitor thread: reclaim expired leases and fall back to local
        execution when no worker is making progress."""
        while not self._closed.is_set() and not job.complete:
            self.queue.reclaim_expired()
            stalled = time.monotonic() - job.advanced_at >= self.fallback_after
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
                    process_lease(lease, ExecutionPolicy())
                continue
            self._closed.wait(self.poll)

    def wait(self, job: SweepJob, timeout: float | None = None) -> bool:
        """Block until ``job`` completes; False on timeout."""
        return job.finished.wait(timeout)

    def results(self, job: SweepJob) -> list[dict]:
        """Per-spec outcome records for a completed job."""
        out = []
        for spec, key, result in zip(
            job.specs, job.hashes, collect_results(job.specs, self.cache, job.state)
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
        """Stop the job monitors and release every held claim with no lease."""
        self._closed.set()
        self.queue.close()


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

        @staticmethod
        def _json_object(body: bytes) -> dict:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        def _read_verified(self) -> bytes | None:
            """The request body, or None after answering 400 +
            ``X-Checksum-Mismatch`` to one torn in flight (shorter than
            its Content-Length, or failing its transport checksum), which
            the client retries."""
            try:
                declared = int(self.headers.get("Content-Length", "0"))
                body = self._read_body()
            except (OSError, ValueError):
                self._send_json({"error": "unreadable body"}, 400)
                return None
            digest = self.headers.get(PAYLOAD_CHECKSUM_HEADER)
            if len(body) != declared or (
                digest is not None and payload_digest(body) != digest
            ):
                self._send_mismatch("body checksum/length mismatch")
                return None
            return body

        def _send_mismatch(self, error: str) -> None:
            self._send_json(
                {"error": error}, 400, extra_headers={CHECKSUM_MISMATCH_HEADER: "1"}
            )

        def _pre_fault(self, key: str) -> str | None:
            """Draw the server-side fault for this exchange; apply the
            ones that preempt a response.  Returns the fault to thread
            into the response writer ("torn"/"corrupt"), or the sentinel
            "refuse", which the caller must honour by *not responding at
            all*.
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
                    self._send_json(job.snapshot())
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
                job.finished.wait(service.poll)

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
                payload = self._json_object(self._read_body())
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
            body = self._read_verified()
            if body is None:
                return
            try:
                payload = self._json_object(body)
            except ValueError:
                self._send_json({"error": "bad request body"}, 400)
                return
            # Coins keyed per worker for claims, per spec for a delivered
            # result, and per lease for everything else.
            subject = (
                payload.get("owner")
                if action == "claim"
                else payload.get("spec_hash") or payload.get("token")
            )
            fault = self._pre_fault(f"queue/{action}/{subject}")
            if fault == "refuse":
                return
            if action == "claim":
                wait = payload.get("wait", 0.0)
                # JSON numbers decode to exactly int or float, so bools fail.
                if type(wait) not in (int, float) or not 0 <= wait < math.inf:
                    self._send_json({"error": "wait must be a finite number >= 0"}, 400)
                    return
                lease = service.queue.claim(
                    str(payload.get("owner", "worker")), min(wait, MAX_CLAIM_WAIT)
                )
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
                self._heartbeat(token, payload, fault)
                return
            if action == "complete":
                statuses = payload.get("statuses")
                if not isinstance(statuses, list) or not all(
                    map(_is_failed_record, statuses)
                ):
                    self._send_json({"error": "malformed status records"}, 400)
                    return
                rpc = payload.get("rpc")
                self._record(
                    token,
                    statuses,
                    None,
                    fault,
                    retire=True,
                    rpc=rpc if isinstance(rpc, dict) else None,
                )
                return
            self._send_json({"error": "not found"}, 404)

        def _heartbeat(self, token: str, payload: dict, fault: str | None) -> None:
            if payload.get("ttl") is not None:
                # Leases renew by the server's TTL only: a client expiry
                # could be one that never lapses and strands the shard.
                self._send_json({"error": "ttl is not accepted"}, 400)
                return
            if "payload" not in payload:
                self._record(token, [], None, fault)
                return
            key, sidecar = payload.get("spec_hash"), payload.get("sidecar")
            try:
                if not isinstance(key, str) or not isinstance(sidecar, str):
                    raise ValueError("spec_hash and sidecar must be strings")
                raw = base64.b64decode(payload["payload"], validate=True)
            except (TypeError, ValueError, binascii.Error) as exc:
                self._send_json({"error": f"bad result: {exc}"}, 400)
                return
            if not payload_checksum_ok(raw):
                # The embedded checksum failed inside an intact body: the
                # client sent rotten bytes.  Flagged as a mismatch so a
                # request torn before any transport header verified it
                # is retried with clean bytes.
                self._send_mismatch("payload checksum mismatch")
                return
            record = {"spec_hash": key, "status": "done", "attempts": 0}
            self._record(token, [record], (raw, sidecar), fault)

        def _record(
            self,
            token: str,
            records: list[dict],
            entry: tuple[bytes, str] | None,
            fault: str | None,
            *,
            retire: bool = False,
            rpc: dict | None = None,
        ) -> None:
            """Land a heartbeat, a delivered result or a completion through
            :meth:`WorkQueue.record`.  Answers 410 once the token is spent,
            or to a heartbeat under a superseded token (a result it carries
            is kept), and 400 for a spec outside the shard or an incomplete
            completion, leaving the lease live."""
            try:
                held = service.queue.record(token, records, entry, retire=retire, rpc=rpc)
            except LeaseLostError:
                self._send_json({"error": "lease lost"}, 410)
                return
            except ValueError as exc:
                self._send_json({"error": f"bad request: {exc}"}, 400)
                return
            if not held and not retire:
                self._send_json({"error": "lease superseded"}, 410)
                return
            self._send_json({"ok": True}, fault=fault)

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
    successful connect) until the ``timeout`` deadline expires.  A 404
    raises :class:`~repro.sim.netclient.RpcHttpError` at once: the stream
    is exempt from injected server faults, so it means the server does
    not know ``job_id`` (jobs live in its memory: it restarted, or the id
    is wrong).
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
        except urlerror.HTTPError as exc:
            if exc.code == 404:
                raise RpcHttpError(404, f"unknown job {job_id} at {base_url}") from None
        except (OSError, ValueError, http.client.HTTPException):
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
