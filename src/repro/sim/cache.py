"""On-disk result cache keyed by canonical :class:`RunSpec` hashes.

Simulations are deterministic functions of their spec, so a finished
:class:`~repro.sim.runner.RunResult` can be reused whenever the same spec
is executed again — across processes and sessions.  The cache stores one
pickled payload per spec hash (``<hash>.pkl``) plus a small JSON sidecar
(``<hash>.json``: the spec and its headline summary) so cached results
remain inspectable with ordinary shell tools.

``repro serve`` owns one of these and is the only writer of its
entries: ``repro worker`` processes keep no cache and send each finished
spec's :func:`encode_entry` bytes to the server on their lease
heartbeat, which :meth:`ResultCache.store` writes unchanged.

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
from .runner import RunResult
from .specs import RunSpec

__all__ = [
    "CACHE_VERSION",
    "CacheCorruptionError",
    "ClearStats",
    "ResultCache",
    "default_cache_dir",
    "encode_entry",
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
# Version 4: ``Packet`` became a tuple subclass in place of a frozen
# dataclass, so a version-3 payload whose backlog holds packets no longer
# unpickles either; the bump makes every version-3 entry the same miss.
# Version 5: ``RunResult`` lost its ``energy`` report (the collector's
# ``energy_series`` is the one record of each round's awake count), so a
# version-4 payload sets a field the class no longer has and no longer
# unpickles; the bump makes every version-4 entry the same miss.
CACHE_VERSION = 5

#: Length of the payload checksum header: 64 hex chars + ``\n``.
_CHECKSUM_HEADER_LEN = 65

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

    The check the server applies to a result a worker delivers: cheap
    (no unpickling), and a legacy payload with no header passes — it is
    merely unverifiable, not known-bad.
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


def encode_entry(spec: RunSpec, result: RunResult) -> tuple[bytes, str]:
    """The ``(payload, sidecar)`` pair one cache entry stores for ``spec``.

    The payload is the pickled ``{version, spec, result}`` envelope
    behind a SHA-256 header line over the pickled body, so any later
    read — or the server receiving it from a worker — can verify it.
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
    return header + body, sidecar


def _same_identity(stored: object, spec: RunSpec) -> bool:
    """Whether a stored spec dict describes the same run as ``spec``.

    Only the identity fields are compared.  Stored dicts may also carry
    ``engine``, or the execution keys older versions wrote; entries
    written before any of those were serialised carry the identity
    fields alone.  A result computed by one engine is valid for a spec
    requesting another, so none of that matters.
    """
    if not isinstance(stored, dict):
        return False
    identity = spec.identity_dict()
    return {k: v for k, v in stored.items() if k in identity} == identity


class ResultCache:
    """Persistent spec-hash → :class:`RunResult` store in one directory.

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
        Cache directory (default :func:`default_cache_dir`).
    fault_plan:
        Optional deterministic fault injector: reads whose
        ``corrupts_read(spec_hash, read_no)`` coin fires have their
        payload truncated on disk first, exercising the real quarantine
        path.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.root.mkdir(parents=True, exist_ok=True)
        self.fault_plan = fault_plan
        self.hits = 0
        self.misses = 0
        #: Entries moved to ``corrupt/`` by this cache instance.
        self.quarantined = 0
        self._read_counts: dict[str, int] = {}

    # -- key layout -----------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / "corrupt"

    def _payload_path(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.spec_hash()}.pkl"

    def _sidecar_path(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.spec_hash()}.json"

    # -- store/load ----------------------------------------------------------
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

    def _quarantine(self, key: str) -> None:
        """Move a failed-verification entry into ``corrupt/``.

        Concurrency-safe: two processes that both detect the same
        corrupt entry race their renames, and the loser — whose source
        file the winner already moved — treats the error as success,
        preserving :meth:`get`'s never-raises contract.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for path in (self.root / f"{key}.pkl", self.root / f"{key}.json"):
            try:
                os.replace(path, self.quarantine_dir / path.name)
            except OSError:
                continue

    def _maybe_inject_corruption(self, key: str) -> None:
        """Deterministically truncate the payload when the fault coin fires."""
        if self.fault_plan is None:
            return
        path = self.root / f"{key}.pkl"
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
        into ``corrupt/`` and reads as a miss, so the caller recomputes.
        """
        key = spec.spec_hash()
        self._maybe_inject_corruption(key)
        try:
            payload = self._load_payload(self.root / f"{key}.pkl")
        except OSError:
            self.misses += 1
            return None
        except CacheCorruptionError:
            self._quarantine(key)
            self.quarantined += 1
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or not _same_identity(payload.get("spec"), spec)
            or not isinstance(payload.get("result"), RunResult)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, spec: RunSpec, result: RunResult) -> None:
        """Store ``result`` under ``spec``'s hash (atomic writes)."""
        self.store(spec.spec_hash(), *encode_entry(spec, result))

    def store(self, key: str, payload: bytes, sidecar: str) -> None:
        """Write one :func:`encode_entry` pair under ``key``.

        The JSON sidecar is written *before* the pickled payload: the
        payload is what :meth:`get` keys a hit on, so after a crash
        between the two writes the entry reads as a clean miss (an
        orphan sidecar is inert) rather than as a payload whose sidecar
        is missing or stale.
        """
        self._atomic_write(self.root / f"{key}.json", sidecar.encode("utf-8"))
        self._atomic_write(self.root / f"{key}.pkl", payload)

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

    # -- maintenance ----------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    def __contains__(self, spec: RunSpec) -> bool:
        return self._payload_path(spec).exists()

    def quarantined_entries(self) -> int:
        """Distinct spec hashes currently held in ``corrupt/``."""
        if not self.quarantine_dir.is_dir():
            return 0
        return len({p.stem for p in self.quarantine_dir.iterdir() if p.is_file()})

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
