"""On-disk and remote result caches keyed by canonical :class:`RunSpec` hashes.

Simulations are deterministic functions of their spec, so a finished
:class:`~repro.sim.runner.RunResult` can be reused whenever the same spec
is executed again — across processes, sessions and machines.  The cache
stores one pickled payload per spec hash plus a small JSON sidecar (the
spec and its headline summary) so cached results remain inspectable with
ordinary shell tools.

Storage is pluggable: :class:`ResultCache` handles the *envelope*
(checksummed pickled payloads, version and spec-identity verification,
hit/miss/quarantine accounting) while a :class:`CacheBackend` moves the
bytes.  Two backends exist:

* :class:`LocalCacheBackend` — the original filesystem layout
  (``<hash>.pkl`` + ``<hash>.json`` under one directory, atomic
  write-then-rename, a ``corrupt/`` quarantine subdirectory).
* :class:`RemoteCacheBackend` — speaks to the cache endpoints of a
  ``repro serve`` process (``GET/PUT /api/cache/<hash>``) through the
  resilient RPC client (:mod:`repro.sim.netclient`): per-request
  timeouts, deterministic retry/backoff, a circuit breaker, and SHA-256
  checksums verified on both ends.  Workers using it need **no shared
  filesystem**.  While the circuit is open the backend *degrades
  gracefully*: writes spill into a local spill directory and reads fall
  back to it, so the worker keeps making progress; when the circuit
  half-opens and a probe succeeds, spilled entries are *reconciled* —
  re-published to the server — and the spill drains.

Robustness contract (the distributed-sweep substrate relies on it):

* **Checksums** — every payload is written with a SHA-256 header line;
  reads verify it, so a truncated or bit-flipped payload is *detected*
  (:class:`~repro.sim.faults.CacheCorruptionError`), not unpickled into
  garbage.  Pre-checksum payloads (no header) are still readable.
* **Atomic writes** — payloads and sidecars land via write-then-rename;
  a crash mid-write leaves a swept ``*.tmp``, never a half entry.
  Racing writers of the same entry (duplicate shard execution) both
  write the bit-identical bytes and the last rename wins.
* **Quarantine** — an entry that fails verification is moved into the
  ``corrupt/`` subdirectory (payload + sidecar, preserved for forensics)
  and the read falls through to a recompute: :meth:`ResultCache.get`
  returns None, it never raises — including when two processes race to
  quarantine the same entry and the loser's rename finds it gone.  A
  payload whose checksum verifies but which no longer unpickles was
  written by another code version; it reads as a plain miss instead.
* **Fault injection** — a seeded :class:`~repro.sim.faults.FaultPlan`
  can deterministically truncate payloads at read time, so the whole
  detect → quarantine → recompute path is replayable in tests.

The default location is ``~/.cache/repro-sim`` and can be overridden with
the ``REPRO_CACHE_DIR`` environment variable or per-cache with an explicit
root path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from .faults import CacheCorruptionError, FaultPlan
from .netclient import (
    CircuitOpenError,
    ResilientClient,
    RpcError,
    RpcPolicy,
    RpcResponse,
    TornResponseError,
)
from .runner import RunResult
from .specs import EXECUTION_FIELDS, RunSpec

__all__ = [
    "CACHE_VERSION",
    "CacheBackend",
    "CacheCorruptionError",
    "ClearStats",
    "LocalCacheBackend",
    "RemoteCacheBackend",
    "ResultCache",
    "default_cache_dir",
    "payload_checksum_ok",
    "split_checksum_header",
]

# Version 2: the seeded adversaries' default RNG protocol flipped to the
# batched stream (rng_version=2).  Entries cached under version 1 may hold
# results for specs whose dicts predate explicit rng_version recording, so
# they cannot be trusted against the re-normalised spec hashes.  (The
# checksum header added later is a *file-format* wrapper, detected per
# file, and did not invalidate version-2 entries.)
# Version 3: the metrics collector's ``records`` became a ledger of
# undelivered packets, ``packet_id → (packet, injection round)``, in place
# of one record object per injected packet.  A version-2 payload names a
# record class that no longer exists, so it no longer unpickles; its
# checksum still verifies, and :func:`verify_payload` reads it as a plain
# miss that the next put overwrites.
CACHE_VERSION = 3

#: Length of the payload checksum header: 64 hex chars + ``\n``.
_CHECKSUM_HEADER_LEN = 65

#: Request/response header naming the sidecar's byte length when a PUT
#: body carries ``sidecar + payload`` concatenated.
SIDECAR_LENGTH_HEADER = "X-Sidecar-Length"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sim"


def split_checksum_header(raw: bytes) -> tuple[str | None, bytes]:
    """Split a payload into ``(embedded hex digest, body)``.

    Returns ``(None, raw)`` for pre-checksum payloads that carry no
    header — those cannot be verified but must remain readable.
    """
    header = raw[:_CHECKSUM_HEADER_LEN]
    if len(header) == _CHECKSUM_HEADER_LEN and header.endswith(b"\n"):
        digest = header[:-1]
        try:
            digest_text = digest.decode("ascii")
        except UnicodeDecodeError:
            return None, raw
        if len(digest_text) == 64 and all(
            c in "0123456789abcdef" for c in digest_text
        ):
            return digest_text, raw[_CHECKSUM_HEADER_LEN:]
    return None, raw


def payload_checksum_ok(raw: bytes) -> bool:
    """Whether a payload's embedded checksum (if present) verifies.

    The transport-level check both ends of the remote cache protocol
    apply: cheap (no unpickling), and a legacy payload with no header
    passes — it is merely unverifiable, not known-bad.
    """
    digest, body = split_checksum_header(raw)
    return digest is None or hashlib.sha256(body).hexdigest() == digest


def verify_payload(raw: bytes, name: str) -> object:
    """Verify and unpickle one payload's bytes.

    Raises :class:`CacheCorruptionError` on anything that means the
    bytes cannot be trusted: a checksum mismatch (which covers
    truncation), or an unpicklable body with no checksum header.
    (Unpickling raises a zoo of types — UnpicklingError, EOFError,
    ValueError, AttributeError, ... — all of which are corruption when
    nothing vouches for the bytes.)  A body whose checksum verifies but
    which fails to unpickle is intact bytes written by another code
    version (say, naming a class that has since gone): it returns None,
    which the caller reads as a plain miss.
    """
    digest, body = split_checksum_header(raw)
    if digest is not None:
        actual = hashlib.sha256(body).hexdigest()
        if actual != digest:
            raise CacheCorruptionError(
                f"payload checksum mismatch in {name}: "
                f"header {digest[:12]}..., body {actual[:12]}..."
            )
    try:
        return pickle.loads(body)
    except Exception as exc:
        if digest is not None:
            return None
        raise CacheCorruptionError(
            f"unreadable payload in {name}: {type(exc).__name__}: {exc}"
        ) from exc


class ClearStats(int):
    """Return value of :meth:`ResultCache.clear`.

    An ``int`` (the number of live entries removed, back-compatible with
    older callers) carrying the full sweep breakdown: quarantined entries
    removed from ``corrupt/`` and stale ``*.tmp`` files swept.
    """

    entries: int
    quarantined: int
    tmp_swept: int

    def __new__(cls, entries: int, quarantined: int, tmp_swept: int) -> "ClearStats":
        self = super().__new__(cls, entries)
        self.entries = entries
        self.quarantined = quarantined
        self.tmp_swept = tmp_swept
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClearStats(entries={self.entries}, quarantined={self.quarantined}, "
            f"tmp_swept={self.tmp_swept})"
        )


class CacheBackend:
    """Byte-level storage under :class:`ResultCache` (and the cache server).

    Keys are canonical spec hashes (hex strings).  ``load`` raises
    :class:`KeyError` on a miss; ``store`` must be atomic per entry;
    ``quarantine`` is best-effort and must never raise on a concurrent
    removal of the same entry.
    """

    def load(self, key: str) -> bytes:
        raise NotImplementedError

    def store(self, key: str, payload: bytes, sidecar: str) -> None:
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def quarantine(self, key: str) -> None:
        raise NotImplementedError


class LocalCacheBackend(CacheBackend):
    """The original one-directory filesystem layout."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Atomic write hook; :class:`ResultCache` rebinds it to its own
        #: (historically monkeypatchable) ``_atomic_write`` method.
        self._write = self._atomic_write

    # -- layout ---------------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / "corrupt"

    def payload_path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def sidecar_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- byte I/O -------------------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load(self, key: str) -> bytes:
        try:
            with self.payload_path(key).open("rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise KeyError(key) from None

    def store(self, key: str, payload: bytes, sidecar: str) -> None:
        # Sidecar before payload: the payload keys a hit, so a crash
        # between the writes leaves a clean miss (an orphan sidecar is
        # inert), never a payload with missing/stale metadata.
        self._write(self.sidecar_path(key), sidecar.encode("utf-8"))
        self._write(self.payload_path(key), payload)

    def contains(self, key: str) -> bool:
        return self.payload_path(key).exists()

    def quarantine(self, key: str) -> None:
        """Move a failed-verification entry into ``corrupt/``.

        Concurrency-safe: two processes that both detect the same
        corrupt entry race their renames, and the loser — whose source
        file the winner already moved or unlinked — treats the
        FileNotFoundError as success, preserving ``get()``'s
        never-raises contract.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for path in (self.payload_path(key), self.sidecar_path(key)):
            try:
                os.replace(path, self.quarantine_dir / path.name)
            except FileNotFoundError:
                continue
            except OSError:
                continue

    # -- maintenance ----------------------------------------------------------
    def entry_count(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    def quarantined_entries(self) -> int:
        if not self.quarantine_dir.is_dir():
            return 0
        return len({p.stem for p in self.quarantine_dir.iterdir() if p.is_file()})

    def clear(self) -> ClearStats:
        entries: set[str] = set()
        for pattern in ("*.pkl", "*.json"):
            for path in self.root.glob(pattern):
                path.unlink(missing_ok=True)
                entries.add(path.stem)
        tmp_swept = 0
        for path in self.root.glob("*.tmp"):
            path.unlink(missing_ok=True)
            tmp_swept += 1
        quarantined: set[str] = set()
        if self.quarantine_dir.is_dir():
            for path in list(self.quarantine_dir.iterdir()):
                if path.is_file():
                    quarantined.add(path.stem)
                    path.unlink(missing_ok=True)
            try:
                self.quarantine_dir.rmdir()
            except OSError:
                pass
        return ClearStats(len(entries), len(quarantined), tmp_swept)


class RemoteCacheBackend(CacheBackend):
    """Cache entries fetched from / published to a ``repro serve`` process.

    Every exchange goes through one :class:`ResilientClient` (timeouts,
    deterministic retries, circuit breaker, checksummed bodies).  The
    graceful-degradation contract:

    * ``store`` that cannot reach the server (circuit open, retries
      exhausted) **spills** the entry into a local spill directory and
      returns success — the worker keeps computing.
    * ``load`` that cannot reach the server serves spilled entries and
      otherwise reads as a miss (the caller recomputes).
    * When the circuit half-opens and a probe succeeds — or any later
      request succeeds while spill entries remain — the backend
      **reconciles**: spilled entries are re-published and removed.

    Parameters
    ----------
    base_url:
        The serve process's base URL (``http://host:port``) or its cache
        prefix (``.../api/cache``); either is accepted.
    client:
        Shared :class:`ResilientClient` (the worker passes the same one
        used for queue RPCs so the breaker state is shared); a private
        client is built from ``policy``/``fault_plan`` when omitted.
    spill_dir:
        Local spill directory; a private temp directory is created
        lazily when omitted.  Must be worker-local — spilling to shared
        storage would defeat the no-shared-filesystem topology.
    """

    def __init__(
        self,
        base_url: str,
        *,
        client: ResilientClient | None = None,
        policy: RpcPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        base = base_url.rstrip("/")
        if not base.endswith("/api/cache"):
            base = f"{base}/api/cache"
        self.base_url = base
        self.client = (
            client
            if client is not None
            else ResilientClient(policy, fault_plan=fault_plan)
        )
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.spilled = 0
        self.reconciled = 0
        self.spill_hits = 0
        self.degraded_reads = 0
        self._flushing = False
        self.client.breaker.on_close.append(self._on_circuit_close)

    def _url(self, key: str) -> str:
        return f"{self.base_url}/{key}"

    @staticmethod
    def _verify_response(resp: RpcResponse) -> None:
        """Defence in depth: the payload's *embedded* checksum must hold
        (the client already verified transport length + header digest)."""
        if resp.status == 200 and not payload_checksum_ok(resp.body):
            raise TornResponseError("cache payload failed its embedded checksum")

    # -- spill ----------------------------------------------------------------
    @property
    def spill_dir(self) -> Path:
        if self._spill_dir is None:
            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir

    def _spill(self, key: str, payload: bytes, sidecar: str) -> None:
        root = self.spill_dir
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        (root / f"{key}.json.part").write_text(sidecar, encoding="utf-8")
        os.replace(root / f"{key}.json.part", root / f"{key}.json")
        os.replace(tmp, root / f"{key}.pkl")
        self.spilled += 1

    def _spill_read(self, key: str) -> bytes | None:
        if self._spill_dir is None:
            return None
        try:
            return (self._spill_dir / f"{key}.pkl").read_bytes()
        except OSError:
            return None

    def pending_spill(self) -> set[str]:
        """Spec hashes currently parked in the spill directory."""
        if self._spill_dir is None or not self._spill_dir.is_dir():
            return set()
        return {p.stem for p in self._spill_dir.glob("*.pkl")}

    def _on_circuit_close(self) -> None:
        self.flush_spill()

    def flush_spill(self) -> int:
        """Re-publish spilled entries to the server; returns how many.

        Stops at the first failure (the circuit machinery decides when
        to try again); never raises.
        """
        if self._flushing or self._spill_dir is None:
            return 0
        self._flushing = True
        flushed = 0
        try:
            for pkl in sorted(self._spill_dir.glob("*.pkl")):
                key = pkl.stem
                sidecar_path = self._spill_dir / f"{key}.json"
                try:
                    payload = pkl.read_bytes()
                    sidecar = (
                        sidecar_path.read_text("utf-8")
                        if sidecar_path.exists()
                        else "{}"
                    )
                except OSError:
                    continue
                try:
                    self._put(key, payload, sidecar)
                except RpcError:
                    break
                pkl.unlink(missing_ok=True)
                sidecar_path.unlink(missing_ok=True)
                self.reconciled += 1
                flushed += 1
        finally:
            self._flushing = False
        return flushed

    # -- backend protocol ------------------------------------------------------
    def load(self, key: str) -> bytes:
        try:
            resp = self.client.request(
                "GET",
                self._url(key),
                key=f"cache/{key}",
                ok=(200, 404),
                verify=self._verify_response,
            )
        except (CircuitOpenError, RpcError):
            spilled = self._spill_read(key)
            if spilled is not None:
                self.spill_hits += 1
                return spilled
            self.degraded_reads += 1
            raise KeyError(key) from None
        if resp.status == 404:
            spilled = self._spill_read(key)
            if spilled is not None:
                self.spill_hits += 1
                return spilled
            raise KeyError(key)
        return resp.body

    def _put(self, key: str, payload: bytes, sidecar: str) -> None:
        sidecar_bytes = sidecar.encode("utf-8")
        # Distinct request key from the GET/HEAD of the same entry:
        # reads and writes are independent operations, so they must not
        # share one backoff-jitter/fault-coin attempt clock.
        self.client.request(
            "PUT",
            self._url(key),
            data=sidecar_bytes + payload,
            headers={
                "Content-Type": "application/octet-stream",
                SIDECAR_LENGTH_HEADER: str(len(sidecar_bytes)),
            },
            key=f"cache/put/{key}",
        )

    def store(self, key: str, payload: bytes, sidecar: str) -> None:
        try:
            self._put(key, payload, sidecar)
        except RpcError:
            # Circuit open or retries exhausted: degrade to the local
            # spill cache; reconciliation re-publishes it later.
            self._spill(key, payload, sidecar)
            return
        if self.pending_spill():
            self.flush_spill()

    def contains(self, key: str) -> bool:
        try:
            resp = self.client.request(
                "HEAD", self._url(key), key=f"cache/{key}", ok=(200, 404)
            )
        except RpcError:
            return self._spill_read(key) is not None
        return resp.status == 200 or self._spill_read(key) is not None

    def quarantine(self, key: str) -> None:
        # Verification failures on the server's copy are quarantined by
        # the server itself on its next read; the client just recomputes.
        return

    def stats_dict(self) -> dict[str, int]:
        """RPC + spill counters (merged into worker/executor stats)."""
        merged = self.client.stats.as_dict()
        merged.update(
            spilled=self.spilled,
            reconciled=self.reconciled,
            spill_hits=self.spill_hits,
            degraded_reads=self.degraded_reads,
            spill_pending=len(self.pending_spill()),
        )
        return merged


class ResultCache:
    """Persistent spec-hash → :class:`RunResult` store.

    Corrupt, unreadable or version-mismatched entries are treated as
    misses, never as errors: the cache must always be safe to delete.
    Entries that fail *verification* (checksum mismatch, truncated
    payload, or an unpicklable payload with no checksum header) are
    additionally quarantined into ``corrupt/`` so repeated sweeps do not
    re-read known-bad bytes and the evidence survives for inspection.
    An intact payload written by another code version — its checksum
    verifies but it does not unpickle — is a plain miss, left in place
    for the next :meth:`put` to overwrite.

    Parameters
    ----------
    root:
        Cache directory (default :func:`default_cache_dir`); ignored
        when an explicit ``backend`` is given.
    fault_plan:
        Optional deterministic fault injector: reads whose
        ``corrupts_read(spec_hash, read_no)`` coin fires have their
        payload truncated on disk first, exercising the real quarantine
        path (local backends only — remote corruption is injected by the
        RPC layer instead).
    backend:
        Byte-level storage; defaults to a :class:`LocalCacheBackend`
        over ``root``.  Pass a :class:`RemoteCacheBackend` to run
        against a ``repro serve`` cache with no shared filesystem.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        backend: CacheBackend | None = None,
    ) -> None:
        if backend is None:
            backend = LocalCacheBackend(root if root is not None else default_cache_dir())
        self.backend = backend
        self.root = getattr(backend, "root", None)
        if isinstance(backend, LocalCacheBackend):
            # Route the backend's writes through the (historically
            # monkeypatchable) method below, resolved at call time.
            backend._write = lambda path, data: self._atomic_write(path, data)
        self.fault_plan = fault_plan
        self.hits = 0
        self.misses = 0
        #: Entries moved to ``corrupt/`` by this cache instance.
        self.quarantined = 0
        self._read_counts: dict[str, int] = {}

    def _local(self) -> LocalCacheBackend:
        if not isinstance(self.backend, LocalCacheBackend):
            raise TypeError(
                "this operation needs a local cache backend, not "
                f"{type(self.backend).__name__}"
            )
        return self.backend

    # -- key layout (local-backend compatibility surface) ----------------------
    @property
    def quarantine_dir(self) -> Path:
        return self._local().quarantine_dir

    def _payload_path(self, spec: RunSpec) -> Path:
        return self._local().payload_path(spec.spec_hash())

    def _sidecar_path(self, spec: RunSpec) -> Path:
        return self._local().sidecar_path(spec.spec_hash())

    # -- store/load ----------------------------------------------------------
    @staticmethod
    def _stored_identity(stored: object) -> dict | None:
        """Project a stored spec dict onto its identity fields.

        Stored specs carry the full :meth:`RunSpec.to_dict` (identity
        fields plus execution knobs); entries written before the knobs
        were serialised carry the identity fields alone.  Either way the
        identity projection is what must match — a result computed by one
        engine is valid for a spec requesting another.
        """
        if not isinstance(stored, dict):
            return None
        return {k: v for k, v in stored.items() if k not in EXECUTION_FIELDS}

    @staticmethod
    def _load_payload(path: Path) -> object:
        """Read and verify one payload file.

        Raises :class:`FileNotFoundError` on a plain miss and
        :class:`CacheCorruptionError` on anything that means the bytes
        on disk cannot be trusted.
        """
        with path.open("rb") as fh:
            raw = fh.read()
        return verify_payload(raw, path.name)

    def _quarantine(self, spec: RunSpec) -> None:
        """Move a failed-verification entry out of the live set."""
        self.backend.quarantine(spec.spec_hash())
        self.quarantined += 1

    def _maybe_inject_corruption(self, spec: RunSpec) -> None:
        """Deterministically truncate the payload when the fault coin fires."""
        if self.fault_plan is None or not isinstance(self.backend, LocalCacheBackend):
            return
        key = spec.spec_hash()
        path = self.backend.payload_path(key)
        if not path.exists():
            return
        read_no = self._read_counts.get(key, 0)
        self._read_counts[key] = read_no + 1
        if self.fault_plan.corrupts_read(key, read_no):
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])

    def get(self, spec: RunSpec) -> RunResult | None:
        """Return the cached result for ``spec``, or None on a miss.

        Never raises: a payload that fails verification is quarantined
        (locally: into ``corrupt/``) and reads as a miss, so the caller
        recomputes; an unreachable remote backend likewise reads as a
        miss (graceful degradation).
        """
        key = spec.spec_hash()
        self._maybe_inject_corruption(spec)
        try:
            raw = self.backend.load(key)
        except KeyError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        try:
            payload = verify_payload(raw, key)
        except CacheCorruptionError:
            self._quarantine(spec)
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or self._stored_identity(payload.get("spec")) != spec.identity_dict()
            or not isinstance(payload.get("result"), RunResult)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, spec: RunSpec, result: RunResult) -> None:
        """Store ``result`` under ``spec``'s hash (atomic writes).

        The JSON sidecar is written *before* the pickled payload: the
        payload is what :meth:`get` keys a hit on, so after a crash
        between the two writes the entry reads as a clean miss (an
        orphan sidecar is inert) rather than as a payload whose sidecar
        is missing or stale.  The payload itself carries a SHA-256
        header over its pickled body so later reads can verify it.
        """
        sidecar = json.dumps(
            {
                "version": CACHE_VERSION,
                "spec": spec.to_dict(),
                "summary": result.summary.as_dict(),
            },
            indent=2,
            sort_keys=True,
        )
        body = pickle.dumps(
            {
                "version": CACHE_VERSION,
                "spec": spec.to_dict(),
                "result": result,
            }
        )
        header = hashlib.sha256(body).hexdigest().encode("ascii") + b"\n"
        self.backend.store(spec.spec_hash(), header + body, sidecar)

    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- remote-backend passthroughs ------------------------------------------
    def rpc_stats(self) -> dict[str, int]:
        """RPC/spill counters when the backend is remote, else ``{}``."""
        if isinstance(self.backend, RemoteCacheBackend):
            return self.backend.stats_dict()
        return {}

    def flush_spill(self) -> int:
        """Reconcile a remote backend's spill cache; no-op locally."""
        if isinstance(self.backend, RemoteCacheBackend):
            return self.backend.flush_spill()
        return 0

    def pending_spill(self) -> set[str]:
        if isinstance(self.backend, RemoteCacheBackend):
            return self.backend.pending_spill()
        return set()

    # -- maintenance ----------------------------------------------------------
    def __len__(self) -> int:
        return self._local().entry_count()

    def __contains__(self, spec: RunSpec) -> bool:
        return self.backend.contains(spec.spec_hash())

    def quarantined_entries(self) -> int:
        """Distinct spec hashes currently held in ``corrupt/``."""
        return self._local().quarantined_entries()

    def clear(self) -> ClearStats:
        """Delete every cache entry; return a :class:`ClearStats` count.

        An *entry* is one spec hash, counted once whether its payload,
        its sidecar or both were present — so an orphan sidecar left by
        an interrupted :meth:`put` is counted too, not silently removed.
        Stale ``*.tmp`` files from writes that never reached
        ``os.replace`` are swept as well (they have no entry semantics
        and are not counted in the int value).  Quarantined entries in
        ``corrupt/`` are removed and reported via
        :attr:`ClearStats.quarantined`.
        """
        return self._local().clear()
