"""Deterministic fault injection for the orchestration layer.

A sweep should survive every failure mode a multi-machine deployment can
throw at it — a worker dying mid-spec, a transient exception inside a
dispatch, a cache payload truncated on disk, a worker stalling past its
deadline — and produce results *bit-identical* to a fault-free run.  To
pin that with the same equivalence discipline the engine stack uses
(lowered ≡ block ≡ kernel ≡ reference), faults must be replayable: a
:class:`FaultPlan` derives every fault decision from a SHA-256 coin over
``(seed, fault kind, spec hash, attempt)``, so a plan injects exactly
the same faults wherever and whenever it is replayed — independent of
scheduling order, worker count or wall-clock time.

Like the ``engine`` selector, a fault plan rides on
:class:`~repro.sim.specs.RunSpec` *outside* the spec's identity: an
executor stamps the ``fault_plan`` field of the specs it pickles to its
own worker processes, but the stamp never enters
``identity_dict``/``spec_hash`` — injecting faults cannot change what a
run computes, only how many attempts computing it takes.  Nor does it
enter ``to_dict``: a spec that arrives as a dict (over HTTP, from a
lease) carries no stamp, so only the process that armed a plan injects
its faults.

Fault kinds:

``kill``
    The worker process exits hard (``os._exit``) mid-spec, breaking the
    pool.  In the serial in-process path a kill degrades to a
    :class:`TransientFault` (killing the orchestrator itself would not
    be an injection, it would be sabotage).
``stall``
    The worker sleeps ``stall_seconds`` before executing — long enough
    to blow a supervised per-spec deadline, harmless when no deadline is
    armed.
``transient``
    A :class:`TransientFault` is raised instead of executing.
``corrupt``
    :class:`~repro.sim.cache.ResultCache` truncates the stored payload
    before reading it, exercising the checksum → quarantine →
    recompute path.
``lease``
    A distributed-sweep worker "dies" mid-shard: it stops heartbeating
    and abandons its claimed :class:`~repro.sim.queue.WorkQueue` lease
    without completing or releasing it, forcing the lease to expire and
    the shard to be *stolen* by another worker.  Applied by the worker
    loop (:func:`repro.sim.worker.run_worker`), keyed on the shard id
    and its takeover count rather than a spec hash.
``net-refuse`` / ``net-timeout`` / ``net-torn`` / ``net-http-error`` /
``net-corrupt``
    Network faults injected around the distributed service's RPC calls:
    a refused connection, a request timeout, a torn (truncated)
    response, an HTTP 500, or a bit-flipped body.  Drawn via
    :meth:`FaultPlan.net_fault` over ``(seed, kind, request key,
    attempt)`` and applied on *both* sides — the
    :class:`~repro.sim.netclient.ResilientClient` simulates them before/
    after real exchanges, and the ``repro serve`` HTTP handlers inflict
    them on real responses — so the retry/backoff/circuit-breaker/
    checksum machinery is exercised end to end.  Like every other kind
    they are budgeted per key, so bounded retries provably converge.

Every kind is budgeted: a spec suffers at most ``fault_budget`` faulted
attempts, so any retry policy with ``max_retries >= fault_budget``
provably converges on the fault-free result.  In the distributed
setting an attempt counter cannot survive a worker crash, so the coin
is drawn over the *effective* attempt ``attempt + attempt_offset``: a
worker executing a shard stolen ``t`` times runs the specs under
``with_offset(t)``, which advances every spec's coin stream past the
attempts the dead workers already burned — the budget bounds total
faults per spec across the whole fleet, not per process.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = [
    "CacheCorruptionError",
    "FailedResult",
    "FaultPlan",
    "InjectedFault",
    "TransientFault",
    "mark_worker_process",
]


class InjectedFault(RuntimeError):
    """Base class of every deliberately injected failure."""


class TransientFault(InjectedFault):
    """A retryable failure: re-executing the same spec is expected to work."""


class CacheCorruptionError(RuntimeError):
    """A cache payload failed verification (truncated, unpicklable, or
    checksum mismatch).  Raised by the low-level payload loader and routed
    through the cache's quarantine path — callers of
    :meth:`ResultCache.get` observe a miss, never this error."""


# Worker processes are marked via the pool initializer so a kill fault
# knows whether ``os._exit`` takes down a disposable worker (intended) or
# the orchestrating process itself (never).
_IN_WORKER = False


def mark_worker_process() -> None:
    """Pool initializer: flag this process as a disposable worker."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    return _IN_WORKER


#: Exit status used by injected worker kills (distinctive in core dumps /
#: pool diagnostics; any nonzero status breaks the pool the same way).
KILL_EXIT_STATUS = 86

#: Worker-side fault kinds in the order they are checked; the first kind
#: whose coin fires wins, so one attempt suffers at most one fault.
WORKER_FAULT_KINDS = ("kill", "stall", "transient")

#: Network fault kinds in check order; as above, the first coin to fire
#: wins, so one request attempt suffers at most one network disaster.
NET_FAULT_KINDS = ("refuse", "timeout", "torn", "http_error", "corrupt")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    Rates are per-attempt probabilities in ``[0, 1]``; the decision for
    ``(kind, spec_hash, attempt)`` is a pure function of the plan's seed,
    so replaying a plan — in any process, in any order — injects exactly
    the same faults.  ``fault_budget`` bounds the number of faulted
    attempts per spec (and corrupted reads per cache entry), guaranteeing
    convergence under bounded retries.
    """

    seed: int = 0
    kill_rate: float = 0.0
    stall_rate: float = 0.0
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    lease_death_rate: float = 0.0
    net_refuse_rate: float = 0.0
    net_timeout_rate: float = 0.0
    net_torn_rate: float = 0.0
    net_http_error_rate: float = 0.0
    net_corrupt_rate: float = 0.0
    stall_seconds: float = 1.0
    fault_budget: int = 1
    #: Added to every ``attempt`` before budgeting and coin draws.  The
    #: distributed worker loop sets it to a shard's takeover count so a
    #: stolen shard resumes the fault schedule where the dead worker
    #: left off instead of replaying (and re-suffering) attempt 0.
    attempt_offset: int = 0

    def __post_init__(self) -> None:
        for name in (
            "kill_rate",
            "stall_rate",
            "transient_rate",
            "corrupt_rate",
            "lease_death_rate",
            "net_refuse_rate",
            "net_timeout_rate",
            "net_torn_rate",
            "net_http_error_rate",
            "net_corrupt_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.fault_budget < 0:
            raise ValueError("fault_budget must be non-negative")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")
        if self.attempt_offset < 0:
            raise ValueError("attempt_offset must be non-negative")

    # -- the deterministic coin ----------------------------------------------
    def _coin(self, kind: str, spec_hash: str, attempt: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{spec_hash}:{attempt}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _rate(self, kind: str) -> float:
        return {
            "kill": self.kill_rate,
            "stall": self.stall_rate,
            "transient": self.transient_rate,
            "corrupt": self.corrupt_rate,
            "lease": self.lease_death_rate,
            "net-refuse": self.net_refuse_rate,
            "net-timeout": self.net_timeout_rate,
            "net-torn": self.net_torn_rate,
            "net-http_error": self.net_http_error_rate,
            "net-corrupt": self.net_corrupt_rate,
        }[kind]

    def decide(self, kind: str, spec_hash: str, attempt: int) -> bool:
        """Whether fault ``kind`` fires for ``spec_hash`` on ``attempt``.

        Pure and replayable: the same arguments always return the same
        answer, in any process.  The decision is keyed on the *effective*
        attempt ``attempt + attempt_offset``; effective attempts at or
        beyond ``fault_budget`` never fault.
        """
        effective = attempt + self.attempt_offset
        if effective >= self.fault_budget:
            return False
        rate = self._rate(kind)
        return rate > 0.0 and self._coin(kind, spec_hash, effective) < rate

    @property
    def active(self) -> bool:
        """Whether any *worker/cache/lease* fault can fire (what the
        supervised executor stamps on specs; network coins are drawn by
        the RPC layer and never ride a spec)."""
        return any(
            (
                self.kill_rate,
                self.stall_rate,
                self.transient_rate,
                self.corrupt_rate,
                self.lease_death_rate,
            )
        )

    @property
    def net_active(self) -> bool:
        """Whether any network fault can fire."""
        return any(
            (
                self.net_refuse_rate,
                self.net_timeout_rate,
                self.net_torn_rate,
                self.net_http_error_rate,
                self.net_corrupt_rate,
            )
        )

    def net_fault(self, key: str, attempt: int) -> str | None:
        """The network fault (if any) for request ``key``, attempt ``attempt``.

        Drawn from the *base* coin stream like :meth:`lease_death` —
        ``attempt_offset`` is a spec-attempt shift and does not apply;
        the caller's per-key request counter is already the global
        clock.  Budgeted: attempts at or beyond ``fault_budget`` never
        fault, so every bounded retry loop converges.
        """
        if attempt >= self.fault_budget:
            return None
        for kind in NET_FAULT_KINDS:
            rate = self._rate(f"net-{kind}")
            if rate > 0.0 and self._coin(f"net-{kind}", key, attempt) < rate:
                return kind
        return None

    def with_offset(self, offset: int) -> "FaultPlan":
        """The same plan shifted to effective attempt ``offset``.

        The distributed worker loop calls this with a shard's takeover
        count before stamping specs, so every process executing the
        shard draws from one global per-spec coin stream.
        """
        return replace(self, attempt_offset=offset)

    def lease_death(self, shard_id: str, takeovers: int) -> bool:
        """Whether the worker claiming ``shard_id`` abandons it mid-shard.

        Keyed on the takeover count (not the worker's identity), so a
        stolen shard's coin advances and ``fault_budget`` bounds how
        often one shard can be orphaned.  Drawn from the *base* stream —
        ``attempt_offset`` does not shift it, the takeover count is
        already the global counter.
        """
        effective = takeovers
        if effective >= self.fault_budget:
            return False
        rate = self.lease_death_rate
        return rate > 0.0 and self._coin("lease", shard_id, effective) < rate

    # -- worker-side application ---------------------------------------------
    def worker_fault(self, spec_hash: str, attempt: int) -> str | None:
        """The worker-side fault (if any) for this attempt.

        The supervisor calls this too — with identical answers — to
        *attribute* pool breakage to the spec whose kill fired.
        """
        for kind in WORKER_FAULT_KINDS:
            if self.decide(kind, spec_hash, attempt):
                return kind
        return None

    def apply_in_worker(self, spec_hash: str, attempt: int) -> None:
        """Inject this attempt's fault (called at the top of ``execute_spec``).

        ``kill`` hard-exits worker processes only; in-process (serial)
        execution degrades it to a :class:`TransientFault` so the
        orchestrator survives.  ``stall`` sleeps and then lets the run
        proceed — the spec completes normally unless a supervised
        deadline kills it first.
        """
        kind = self.worker_fault(spec_hash, attempt)
        if kind is None:
            return
        if kind == "kill":
            if in_worker_process():
                os._exit(KILL_EXIT_STATUS)
            raise TransientFault(
                f"injected worker-kill for {spec_hash[:12]} attempt {attempt} "
                "(degraded to a transient fault in serial mode)"
            )
        if kind == "stall":
            time.sleep(self.stall_seconds)
            return
        raise TransientFault(
            f"injected transient fault for {spec_hash[:12]} attempt {attempt}"
        )

    def corrupts_read(self, spec_hash: str, read_no: int) -> bool:
        """Whether cache read number ``read_no`` of this entry is corrupted."""
        return self.decide("corrupt", spec_hash, read_no)

    # -- serialisation --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "kill_rate": self.kill_rate,
            "stall_rate": self.stall_rate,
            "transient_rate": self.transient_rate,
            "corrupt_rate": self.corrupt_rate,
            "lease_death_rate": self.lease_death_rate,
            "net_refuse_rate": self.net_refuse_rate,
            "net_timeout_rate": self.net_timeout_rate,
            "net_torn_rate": self.net_torn_rate,
            "net_http_error_rate": self.net_http_error_rate,
            "net_corrupt_rate": self.net_corrupt_rate,
            "stall_seconds": self.stall_seconds,
            "fault_budget": self.fault_budget,
            "attempt_offset": self.attempt_offset,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            kill_rate=float(data.get("kill_rate", 0.0)),
            stall_rate=float(data.get("stall_rate", 0.0)),
            transient_rate=float(data.get("transient_rate", 0.0)),
            corrupt_rate=float(data.get("corrupt_rate", 0.0)),
            lease_death_rate=float(data.get("lease_death_rate", 0.0)),
            net_refuse_rate=float(data.get("net_refuse_rate", 0.0)),
            net_timeout_rate=float(data.get("net_timeout_rate", 0.0)),
            net_torn_rate=float(data.get("net_torn_rate", 0.0)),
            net_http_error_rate=float(data.get("net_http_error_rate", 0.0)),
            net_corrupt_rate=float(data.get("net_corrupt_rate", 0.0)),
            stall_seconds=float(data.get("stall_seconds", 1.0)),
            fault_budget=int(data.get("fault_budget", 1)),
            attempt_offset=int(data.get("attempt_offset", 0)),
        )

    def stamp(self, attempt: int) -> dict:
        """The plan plus the attempt number, as shipped on a pickled
        spec's ``fault_plan`` field to the executing process."""
        data = self.to_dict()
        data["attempt"] = int(attempt)
        return data

    @staticmethod
    def apply_stamp(stamp: Mapping[str, Any], spec_hash: str) -> None:
        """Replay a shipped stamp inside the executing process."""
        FaultPlan.from_dict(stamp).apply_in_worker(
            spec_hash, int(stamp.get("attempt", 0))
        )


@dataclass(slots=True)
class FailedResult:
    """A quarantined spec: every attempt failed, the sweep moved on.

    Takes the place of a :class:`~repro.sim.runner.RunResult` in a result
    list so one poison spec aborts nothing.  Never cached; skipped
    (deterministically, with a warning) by ``worst_case_over``; rendered
    as a FAILED row by the sweep table.
    """

    spec: Any  # RunSpec (typed loosely to keep this module import-free)
    error: str
    error_type: str
    attempts: int
    fault_events: list[str] = field(default_factory=list)

    #: Discriminator mirrored by ``RunResult.failed`` (False there), so
    #: callers can branch without importing this type.
    failed: bool = True

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    @property
    def label(self) -> str:
        return self.spec.label or f"{self.spec.algorithm} vs {self.spec.adversary}"

    def describe(self) -> str:
        return (
            f"FAILED after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.error}"
        )
