"""Parallel experiment orchestration.

The paper's results are worst-case statements over adversary *families*,
so regenerating Table 1 and the figure sweeps means executing many
independent simulations.  :class:`ParallelExecutor` fans declarative
:class:`~repro.sim.specs.RunSpec` batches out to a process pool and
collects their :class:`~repro.sim.runner.RunResult` objects in order.

Design constraints:

* **Determinism** — a worker process reconstructs every algorithm,
  adversary and RNG from the spec alone, so a parallel run is bit-identical
  to its serial counterpart (asserted by
  ``tests/property/test_parallel_determinism.py``).
* **Spawn safety** — workers are started with the ``spawn`` method (no
  inherited state, works identically on Linux/macOS/Windows); the unit of
  work, :func:`repro.sim.specs.execute_spec`, is a module-level function,
  so it pickles cleanly.
* **Serial fallback** — ``workers=1`` (and a lone spec without a policy)
  executes in-process with no pool at all, which keeps single-run
  debugging (pdb, profilers, exceptions with full local state) trivial.
* **Caching** — an optional :class:`~repro.sim.cache.ResultCache` is
  consulted before any work is scheduled and updated as results arrive.
* **Chunking** — small specs are batched per worker dispatch
  (:func:`repro.sim.specs.execute_spec_batch`) so that pickling/IPC
  overhead is amortised over several runs; result ordering and cache
  semantics are unchanged.
* **Progress** — any ``progress(done, total)`` callable (e.g.
  :class:`~repro.sim.progress.ProgressTicker`) is invoked once per
  finished spec, cache hits included.
* **One loop** — every batch runs through the same supervised loop.
  Without an :class:`ExecutionPolicy` or a
  :class:`~repro.sim.manifest.SweepManifest` it runs *fail-fast*: the
  first failed attempt re-raises its exception and cancels the dispatches
  still in flight.  With either attached, failed attempts retry with
  deterministic exponential backoff, specs exceeding their deadline are
  timed out (the pool is terminated and respawned), dead pools are
  respawned with in-flight work requeued, poison specs are quarantined
  as structured :class:`~repro.sim.faults.FailedResult` entries after the
  retry budget instead of aborting the batch, and a pool that keeps
  dying degrades gracefully to in-process serial execution.  Fault
  injection (:class:`~repro.sim.faults.FaultPlan`) rides the same loop,
  and the per-spec results are bit-identical to a fault-free run
  (property-tested by ``tests/property/test_fault_tolerance.py``).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .cache import ResultCache
from .faults import FailedResult, FaultPlan, mark_worker_process
from .manifest import SweepManifest
from .runner import RunResult
from .specs import RunSpec, execute_spec, execute_spec_batch

__all__ = [
    "ExecutionPolicy",
    "ExecutorStats",
    "ParallelExecutor",
    "WorkerCrashError",
    "default_chunk_size",
    "default_worker_count",
    "run_specs",
]

#: Progress callback signature: ``progress(done, total)``.
ProgressCallback = Callable[[int, int], None]


class WorkerCrashError(RuntimeError):
    """A worker process died (or the whole pool broke) mid-dispatch."""


class SpecTimeoutError(RuntimeError):
    """A dispatch ran past its supervised deadline and was killed."""


def default_worker_count() -> int:
    """A sensible default worker count: the machine's CPU count."""
    return max(1, os.cpu_count() or 1)


def default_chunk_size(pending: int, workers: int) -> int:
    """Specs per worker dispatch: ~4 chunks per worker, at most 32 per chunk.

    Small enough that stragglers do not serialise the tail of a batch,
    large enough that spawn/pickling overhead is amortised when a batch
    holds many short runs.
    """
    return max(1, min(32, math.ceil(pending / (workers * 4))))


@dataclass
class ExecutionPolicy:
    """How the supervised executor treats failures.

    Parameters
    ----------
    max_retries:
        Failed attempts a spec may burn beyond its first before it is
        quarantined as a :class:`FailedResult` (``0`` = quarantine on
        the first failure; the batch itself never aborts).
    spec_timeout:
        Wall-clock seconds a dispatched spec may run before the pool is
        terminated and the spec retried (``None`` = no deadline).
        Enforced at dispatch granularity: a chunk of *k* specs gets
        ``k * spec_timeout``; retries always dispatch singly, so a
        repeat offender gets exactly ``spec_timeout``.
    backoff_base / backoff_cap:
        Deterministic exponential backoff before retry *n*:
        ``min(backoff_cap, backoff_base * 2**(n-1))`` seconds — no
        jitter, so supervised schedules replay exactly.
    fault_plan:
        Optional deterministic :class:`FaultPlan`; each dispatch is
        stamped with the plan and the spec's attempt number, and the
        supervisor uses the same plan to *attribute* pool deaths to the
        spec whose kill coin fired.
    serial_degrade_after:
        After this many pool breakages (crashes or timeouts) in one
        batch, the executor stops respawning pools and finishes the
        batch in-process (kill faults degrade to transients there).
    """

    max_retries: int = 2
    spec_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    fault_plan: FaultPlan | None = None
    serial_degrade_after: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.spec_timeout is not None and not 0 < self.spec_timeout < math.inf:
            raise ValueError(
                "spec_timeout must be positive and finite (or None), "
                f"got {self.spec_timeout!r}"
            )
        for name in ("backoff_base", "backoff_cap"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.serial_degrade_after < 1:
            raise ValueError("serial_degrade_after must be at least 1")

    def backoff_delay(self, attempt: int) -> float:
        """Deterministic delay before retry number ``attempt`` (1-based)."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


@dataclass
class ExecutorStats:
    """Counters accumulated by the supervised loop (read by the ticker)."""

    retries: int = 0
    quarantined: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    resumed_failures: int = 0
    cache_corruptions: int = 0
    serial_degraded: bool = False

    def summary(self) -> str:
        """Short human summary, empty when nothing noteworthy happened."""
        parts = []
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.cache_corruptions:
            parts.append(f"{self.cache_corruptions} corrupt cache entries")
        if self.resumed_failures:
            parts.append(f"{self.resumed_failures} resumed-failed")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.pool_respawns:
            parts.append(f"{self.pool_respawns} respawns")
        if self.serial_degraded:
            parts.append("serial degrade")
        return ", ".join(parts)


@dataclass
class _Dispatch:
    """One queued/in-flight unit of supervised work."""

    indices: list[int]
    ready_at: float = 0.0
    deadline: float | None = None


def _coerce_specs(specs: Iterable[RunSpec | Mapping]) -> list[RunSpec]:
    out: list[RunSpec] = []
    for spec in specs:
        if isinstance(spec, RunSpec):
            out.append(spec)
        elif isinstance(spec, Mapping):
            out.append(RunSpec.from_dict(spec))
        else:
            raise TypeError(f"expected RunSpec or mapping, got {type(spec).__name__}")
    return out


class ParallelExecutor:
    """Process-pool-backed executor for batches of :class:`RunSpec`.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs everything
        serially in the calling process, as does a lone spec without a
        policy or manifest; ``None`` uses the CPU count.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are written back.
    mp_context:
        Multiprocessing start method; ``"spawn"`` is the safe default.
    chunk_size:
        Specs shipped per worker dispatch; ``None`` (default) picks
        :func:`default_chunk_size` per batch.  ``1`` restores one-spec
        dispatches.
    progress:
        Optional ``progress(done, total)`` callback invoked for every
        batch this executor runs (a per-``run`` callback can override it).
    policy:
        Optional :class:`ExecutionPolicy`.  When set (or when a manifest
        is attached) the loop supervises its batches: bounded retries
        with deterministic backoff, per-spec timeouts, pool respawn,
        poison-spec quarantine and serial degradation.  Without either
        the same loop runs fail-fast: the first failed attempt re-raises
        its exception, with no retry and no quarantine (a broken pool
        raises :class:`WorkerCrashError`).
    manifest:
        Optional :class:`SweepManifest` checkpoint, updated incrementally
        as specs finish, fail or retry; a *resumed* manifest short-cuts
        specs the previous run quarantined.

    The executor may be used as a context manager; the worker pool is
    created lazily on the first parallel batch and reused across ``run``
    calls until :meth:`close`.  :attr:`stats` accumulates supervised
    counters across those calls.
    """

    def __init__(
        self,
        workers: int | None = 1,
        *,
        cache: ResultCache | None = None,
        mp_context: str = "spawn",
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        policy: ExecutionPolicy | None = None,
        manifest: SweepManifest | None = None,
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.workers = workers
        self.cache = cache
        self.chunk_size = chunk_size
        self.progress = progress
        self.policy = policy
        self.manifest = manifest
        self.stats = ExecutorStats()
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self._mp_context),
                initializer=mark_worker_process,
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _teardown_pool(self, *, terminate: bool) -> None:
        """Drop the pool so the next dispatch respawns it.

        ``terminate=True`` hard-kills worker processes first — the only
        way to reclaim a worker stuck past its deadline (there is no
        cooperative cancel for running pool tasks).
        """
        pool = self._pool
        if pool is None:
            return
        if terminate:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------------
    def run(
        self,
        specs: Sequence[RunSpec | Mapping],
        *,
        progress: ProgressCallback | None = None,
    ) -> list[RunResult | FailedResult]:
        """Execute every spec and return results in input order.

        Fail-fast (no policy/manifest): the first failed attempt
        re-raises its exception and aborts the batch.  Supervised:
        exceptions are retried and, past the budget, quarantined — every
        slot of the returned list is then either a :class:`RunResult` or
        a :class:`FailedResult`, and the batch always completes.
        """
        batch = _coerce_specs(specs)
        results: list[RunResult | FailedResult | None] = [None] * len(batch)
        pending: list[int] = []
        corruptions_before = self.cache.quarantined if self.cache is not None else 0
        for i, spec in enumerate(batch):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[i] = hit
            else:
                pending.append(i)
        if self.cache is not None:
            # Entries the hit scan quarantined read as misses and are
            # silently recomputed; surface them so corrupted-cache
            # re-runs are visible in the stats/ticker.
            self.stats.cache_corruptions += self.cache.quarantined - corruptions_before

        run = _SupervisedRun(
            self, batch, results, progress if progress is not None else self.progress
        )
        run.execute(pending)
        if self.manifest is not None:
            # Leave a plain JSON snapshot behind (fold the event log).
            self.manifest.compact()
        return results  # type: ignore[return-value]


class _SupervisedRun:
    """State of one batch: attempts, events, requeue logic.

    The contract the fault-tolerance property suite pins: whatever faults
    fire, every result slot ends up holding either the bit-identical
    :class:`RunResult` a fault-free run computes, or — only once the
    retry budget is truly exhausted — a structured :class:`FailedResult`.
    A fail-fast run (no policy, no manifest) has no budget: its first
    failed attempt re-raises.
    """

    def __init__(
        self,
        executor: ParallelExecutor,
        batch: list[RunSpec],
        results: list,
        progress: ProgressCallback | None,
    ) -> None:
        self.executor = executor
        self.fail_fast = executor.policy is None and executor.manifest is None
        self.policy = executor.policy or ExecutionPolicy()
        self.manifest = executor.manifest
        self.stats = executor.stats
        self.batch = batch
        self.results = results
        self.progress = progress
        self.done = sum(result is not None for result in results)
        self.total = len(batch)
        self.attempts: dict[int, int] = {}
        self.events: dict[int, list[str]] = {}

    # -- bookkeeping ----------------------------------------------------------
    def _tick(self) -> None:
        if self.progress is not None:
            self.progress(self.done, self.total)

    def _stamped(self, i: int) -> RunSpec:
        plan = self.policy.fault_plan
        if plan is None or not plan.active:
            return self.batch[i]
        return dataclasses.replace(
            self.batch[i], fault_plan=plan.stamp(self.attempts.get(i, 0))
        )

    def _finish(self, i: int, result: RunResult) -> None:
        self.results[i] = result
        if self.executor.cache is not None:
            self.executor.cache.put(self.batch[i], result)
        if self.manifest is not None:
            self.manifest.record_done(self.batch[i], attempts=self.attempts.get(i, 0))
        self.done += 1
        self._tick()

    def _quarantine(self, i: int, exc: BaseException) -> None:
        failure = FailedResult(
            spec=self.batch[i],
            error=str(exc),
            error_type=type(exc).__name__,
            attempts=self.attempts.get(i, 0),
            fault_events=list(self.events.get(i, [])),
        )
        self.results[i] = failure
        self.stats.quarantined += 1
        if self.manifest is not None:
            self.manifest.record_failed(self.batch[i], failure)
        self.done += 1
        self._tick()

    def _register_failure(self, i: int, exc: BaseException) -> bool:
        """Count a failed attempt; quarantine past the budget.

        Returns True when the spec should be retried.  A fail-fast run
        re-raises ``exc`` instead.
        """
        if self.fail_fast:
            raise exc
        attempt = self.attempts.get(i, 0)
        self.attempts[i] = attempt + 1
        event = f"attempt {attempt}: {type(exc).__name__}: {exc}"
        self.events.setdefault(i, []).append(event)
        if self.manifest is not None:
            self.manifest.record_attempt(self.batch[i], self.attempts[i], event)
        if self.attempts[i] > self.policy.max_retries:
            self._quarantine(i, exc)
            return False
        self.stats.retries += 1
        return True

    # -- entry point ----------------------------------------------------------
    def execute(self, pending: list[int]) -> None:
        manifest = self.manifest
        if manifest is not None:
            # Checkpoint cache hits, short-cut previously quarantined
            # specs (resume), and mark the remainder pending.
            for i, result in enumerate(self.results):
                if isinstance(result, RunResult):
                    manifest.record_done(self.batch[i], attempts=0)
            if manifest.resumed:
                still: list[int] = []
                for i in pending:
                    prior = manifest.prior_failure(self.batch[i])
                    if prior is not None:
                        self.results[i] = prior
                        self.stats.resumed_failures += 1
                        self.done += 1
                    else:
                        still.append(i)
                pending = still
            for i in pending:
                manifest.record_pending(self.batch[i])
        if self.done or not pending:
            self._tick()
        if not pending:
            return
        if self.executor.workers == 1 or (self.fail_fast and len(pending) == 1):
            self._execute_serial(pending)
        else:
            self._execute_parallel(pending)

    # -- serial supervised path ------------------------------------------------
    def _execute_serial(self, pending: Sequence[int]) -> None:
        for i in pending:
            self._execute_one_serial(i)

    def _execute_one_serial(self, i: int) -> None:
        while True:
            try:
                result = execute_spec(self._stamped(i))
            except Exception as exc:
                if not self._register_failure(i, exc):
                    return
                delay = self.policy.backoff_delay(self.attempts[i])
                if delay:
                    time.sleep(delay)
                continue
            self._finish(i, result)
            return

    # -- parallel supervised path ----------------------------------------------
    def _execute_parallel(self, pending: list[int]) -> None:
        executor = self.executor
        size = executor.chunk_size or default_chunk_size(len(pending), executor.workers)
        queue: deque[_Dispatch] = deque(
            _Dispatch(indices=pending[j : j + size])
            for j in range(0, len(pending), size)
        )
        window: dict = {}
        try:
            self._pump(queue, window)
        finally:
            # A fail-fast raise (or an interrupt) leaves dispatches in
            # flight: cancel those not yet running, so the executor's
            # next batch does not queue behind them.
            for future in window:
                future.cancel()

    def _pump(self, queue: deque, window: dict) -> None:
        """Keep up to ``workers`` dispatches in flight until ``queue`` and
        ``window`` (future → dispatch) are both empty."""
        executor = self.executor
        policy = self.policy
        breakages = 0
        while queue or window:
            if breakages >= policy.serial_degrade_after:
                # The pool keeps dying: stop paying respawn costs and
                # finish in-process (kill faults degrade to transients).
                self.stats.serial_degraded = True
                executor._teardown_pool(terminate=True)
                leftover = sorted(
                    {i for d in [*window.values(), *queue] for i in d.indices}
                )
                window.clear()
                queue.clear()
                self._execute_serial(leftover)
                return

            now = time.monotonic()
            while queue and len(window) < executor.workers:
                dispatch = self._pop_ready(queue, now)
                if dispatch is None:
                    break
                specs = [self._stamped(i) for i in dispatch.indices]
                future = executor._ensure_pool().submit(execute_spec_batch, specs)
                if policy.spec_timeout is not None:
                    dispatch.deadline = (
                        time.monotonic() + policy.spec_timeout * len(dispatch.indices)
                    )
                window[future] = dispatch

            if not window:
                # Everything runnable is backing off; sleep to the next
                # ready time instead of spinning.
                next_ready = min(d.ready_at for d in queue)
                time.sleep(max(0.0, next_ready - time.monotonic()))
                continue

            done_set, _ = futures_wait(
                set(window),
                timeout=self._wait_timeout(window, queue),
                return_when=FIRST_COMPLETED,
            )

            broken = False
            crashed: list[_Dispatch] = []
            for future in done_set:
                dispatch = window.pop(future)
                try:
                    chunk_results = future.result()
                except BrokenExecutor:
                    broken = True
                    crashed.append(dispatch)
                except Exception as exc:
                    self._dispatch_failed(dispatch, exc, queue)
                else:
                    for i, result in zip(dispatch.indices, chunk_results):
                        self._finish(i, result)

            if broken:
                breakages += 1
                self.stats.pool_respawns += 1
                executor._teardown_pool(terminate=True)
                in_flight = crashed + list(window.values())
                window.clear()
                self._requeue_after_pool_death(in_flight, queue)
                continue

            if policy.spec_timeout is not None:
                now = time.monotonic()
                expired = [
                    future
                    for future, dispatch in window.items()
                    if dispatch.deadline is not None and now > dispatch.deadline
                ]
                if expired:
                    breakages += 1
                    self.stats.pool_respawns += 1
                    executor._teardown_pool(terminate=True)
                    for future in expired:
                        dispatch = window.pop(future)
                        # Split like a failed chunk: only a spec that
                        # overruns on its own burns an attempt.
                        if len(dispatch.indices) == 1:
                            self.stats.timeouts += 1
                        self._dispatch_failed(
                            dispatch,
                            SpecTimeoutError(
                                f"exceeded the {policy.spec_timeout}s deadline"
                            ),
                            queue,
                        )
                    # Collateral: the pool died under the other in-flight
                    # dispatches too; requeue them without burning an
                    # attempt (the fault was not theirs).
                    for dispatch in window.values():
                        queue.append(_Dispatch(list(dispatch.indices)))
                    window.clear()

    def _pop_ready(self, queue: deque, now: float) -> _Dispatch | None:
        for _ in range(len(queue)):
            dispatch = queue.popleft()
            if dispatch.ready_at <= now:
                return dispatch
            queue.append(dispatch)
        return None

    def _wait_timeout(self, window: dict, queue: deque) -> float | None:
        """How long to block in wait(): until the next deadline or backoff
        expiry, or indefinitely when neither is armed."""
        now = time.monotonic()
        candidates = [
            d.deadline - now for d in window.values() if d.deadline is not None
        ]
        if queue and len(window) < self.executor.workers:
            candidates.append(min(d.ready_at for d in queue) - now)
        if not candidates:
            return None
        return max(0.01, min(candidates))

    def _dispatch_failed(
        self, dispatch: _Dispatch, exc: BaseException, queue: deque
    ) -> None:
        """An exception (or an expired deadline) came back from a dispatch.

        A multi-spec chunk fails as a unit (``execute_spec_batch`` raises
        at the first bad spec, a deadline covers the whole chunk), so it
        is split and re-dispatched singly — attempts unchanged — to
        attribute the failure; a single-spec dispatch is the attribution,
        and burns an attempt.  A fail-fast run re-raises at once.
        """
        if self.fail_fast:
            raise exc
        if len(dispatch.indices) > 1:
            for i in dispatch.indices:
                queue.append(_Dispatch([i]))
            return
        self._retry_singly(dispatch.indices[0], exc, queue)

    def _retry_singly(self, i: int, exc: BaseException, queue: deque) -> None:
        """Burn an attempt of spec ``i``; requeue it alone after its backoff."""
        if self._register_failure(i, exc):
            queue.append(
                _Dispatch(
                    [i],
                    ready_at=time.monotonic()
                    + self.policy.backoff_delay(self.attempts[i]),
                )
            )

    def _requeue_after_pool_death(
        self, in_flight: list[_Dispatch], queue: deque
    ) -> None:
        """Requeue everything that was in flight when the pool broke.

        With a fault plan armed, the supervisor replays the same coins
        the workers did and *attributes* the crash: specs whose kill
        coin fired burn an attempt, everything else requeues free.
        Without a plan (a real crash) attribution is impossible, so every
        in-flight spec conservatively burns an attempt.
        """
        plan = self.policy.fault_plan
        for dispatch in in_flight:
            for i in dispatch.indices:
                attributed = True
                if plan is not None and plan.active:
                    kind = plan.worker_fault(
                        self.batch[i].spec_hash(), self.attempts.get(i, 0)
                    )
                    attributed = kind == "kill"
                if attributed:
                    exc = WorkerCrashError("worker process died mid-dispatch")
                    self._retry_singly(i, exc, queue)
                else:
                    queue.append(_Dispatch([i]))


def run_specs(
    specs: Sequence[RunSpec | Mapping],
    *,
    workers: int | None = 1,
    executor: ParallelExecutor | None = None,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    policy: ExecutionPolicy | None = None,
    manifest: SweepManifest | None = None,
) -> list[RunResult | FailedResult]:
    """Execute ``specs`` on ``executor``, or on a one-shot executor.

    An explicit ``executor`` runs the batch with its own workers, cache,
    chunking, policy and manifest, and only ``progress`` is forwarded;
    passing any of those options alongside it raises ``ValueError``
    instead of ignoring them.  Otherwise an executor is built from the
    options and its pool torn down after this one batch.
    """
    if executor is not None:
        ignored = [
            name
            for name, given in (
                ("workers", workers != 1),
                ("cache", cache is not None),
                ("chunk_size", chunk_size is not None),
                ("policy", policy is not None),
                ("manifest", manifest is not None),
            )
            if given
        ]
        if ignored:
            raise ValueError(
                f"run_specs got an executor and {', '.join(ignored)}, which "
                "only configure a one-shot executor; configure the executor "
                "instead"
            )
        return executor.run(specs, progress=progress)
    with ParallelExecutor(
        workers, cache=cache, chunk_size=chunk_size, policy=policy, manifest=manifest
    ) as one_shot:
        return one_shot.run(specs, progress=progress)
