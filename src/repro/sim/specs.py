"""Declarative run specifications.

A :class:`RunSpec` describes one simulated execution — algorithm, adversary,
horizon and engine — as plain data (registry keys + JSON-serialisable
parameter dicts).  Because a spec is pure data it can

* cross process boundaries (the parallel executor ships specs to worker
  processes, which reconstruct the objects locally),
* be hashed canonically (the on-disk result cache keys entries by
  :meth:`RunSpec.spec_hash`), and
* be written down in experiment manifests and replayed bit-identically.

Algorithms are resolved through :mod:`repro.core.registry`; adversaries
through the registry defined here.  Schedule-aware adversaries (the
Theorem 6/9 lower-bound constructions) are registered with
``needs_schedule=True``: at execution time they receive the spec'd
algorithm's published oblivious schedule, so even those constructions are
expressible as plain data.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

from ..adversary import (
    DEFAULT_RNG_VERSION,
    AdaptiveStarvationAdversary,
    Adversary,
    AlternatingPairAdversary,
    BurstThenIdleAdversary,
    GroupLocalAdversary,
    HotspotAdversary,
    LeastOnPairAdversary,
    LeastOnStationAdversary,
    NoInjectionAdversary,
    RandomWalkAdversary,
    RoundRobinAdversary,
    SaturatingAdversary,
    SeededAdversary,
    SingleSourceSprayAdversary,
    SingleTargetAdversary,
    UniformRandomAdversary,
)
from ..core import available_algorithms, make_algorithm
from ..core.algorithm import RoutingAlgorithm
from .runner import ENGINE_KINDS, RunResult, run_simulation

__all__ = [
    "AdversaryEntry",
    "RunSpec",
    "available_adversaries",
    "execute_spec",
    "execute_spec_batch",
    "make_adversary",
    "rate_adversaries",
    "register_adversary",
    "spec_fragment",
]


# ---------------------------------------------------------------------------
# Adversary registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversaryEntry:
    """One registered adversary constructor.

    ``needs_schedule`` marks the schedule-aware lower-bound adversaries:
    their ``schedule`` argument cannot be spec'd as data and is instead
    derived from the algorithm under test at execution time.
    ``takes_rate`` marks constructors with the standard ``(rho, beta)``
    leading parameters (everything except :class:`NoInjectionAdversary`);
    the CLI only exposes those.
    """

    cls: type
    needs_schedule: bool = False
    takes_rate: bool = True


_ADVERSARIES: dict[str, AdversaryEntry] = {}


def register_adversary(
    name: str,
    cls: type | None = None,
    *,
    needs_schedule: bool = False,
    takes_rate: bool = True,
) -> Callable[[type], type] | type:
    """Register an :class:`Adversary` subclass under a canonical key.

    Usable directly (``register_adversary("spray", SprayAdversary)``) or as
    a class decorator (``@register_adversary("spray")``).
    """

    def _register(klass: type) -> type:
        key = name.lower()
        if key in _ADVERSARIES:
            raise ValueError(f"adversary name {name!r} already registered")
        _ADVERSARIES[key] = AdversaryEntry(
            cls=klass, needs_schedule=needs_schedule, takes_rate=takes_rate
        )
        return klass

    if cls is not None:
        return _register(cls)
    return _register


register_adversary("single-target", SingleTargetAdversary)
register_adversary("spray", SingleSourceSprayAdversary)
register_adversary("round-robin", RoundRobinAdversary)
register_adversary("alternating-pair", AlternatingPairAdversary)
register_adversary("saturating", SaturatingAdversary)
register_adversary("bursty", BurstThenIdleAdversary)
register_adversary("group-local", GroupLocalAdversary)
register_adversary("no-injection", NoInjectionAdversary, takes_rate=False)
register_adversary("random", UniformRandomAdversary)
register_adversary("hotspot", HotspotAdversary)
register_adversary("random-walk", RandomWalkAdversary)
register_adversary("adaptive-starvation", AdaptiveStarvationAdversary)
register_adversary("least-on-station", LeastOnStationAdversary, needs_schedule=True)
register_adversary("least-on-pair", LeastOnPairAdversary, needs_schedule=True)


def available_adversaries(*, include_schedule_aware: bool = True) -> list[str]:
    """Names of all registered adversaries, sorted."""
    return sorted(
        key
        for key, entry in _ADVERSARIES.items()
        if include_schedule_aware or not entry.needs_schedule
    )


def rate_adversaries() -> list[str]:
    """Registered adversaries with the standard ``(rho, beta)`` constructor."""
    return sorted(
        key
        for key, entry in _ADVERSARIES.items()
        if entry.takes_rate and not entry.needs_schedule
    )


def adversary_entry(name: str) -> AdversaryEntry:
    """Look up a registered adversary, with a helpful error."""
    if not isinstance(name, str):
        raise TypeError(f"adversary name must be a string, got {name!r}")
    key = name.lower()
    if key not in _ADVERSARIES:
        raise KeyError(
            f"unknown adversary {name!r}; available: {sorted(_ADVERSARIES)}"
        )
    return _ADVERSARIES[key]


def make_adversary(name: str, *, schedule=None, **params) -> Adversary:
    """Instantiate a registered adversary by name.

    ``schedule`` must be provided (and is only accepted) for adversaries
    registered with ``needs_schedule=True``.
    """
    entry = adversary_entry(name)
    if entry.needs_schedule:
        if schedule is None:
            raise ValueError(
                f"adversary {name!r} is schedule-aware and needs a schedule"
            )
        return entry.cls(schedule=schedule, **params)
    if schedule is not None:
        raise ValueError(f"adversary {name!r} does not take a schedule")
    return entry.cls(**params)


# ---------------------------------------------------------------------------
# Spec fragments
# ---------------------------------------------------------------------------

def spec_fragment(key: str, **params) -> dict:
    """A declarative piece of a :class:`RunSpec`: a registry key plus kwargs.

    Sweep and worst-case factories return fragments; the harness then
    assembles full :class:`RunSpec` objects and can execute them in
    parallel worker processes.
    """
    return {"key": key, "params": dict(params)}


def _as_fragment(obj: Any) -> tuple[str, dict] | None:
    """Interpret ``obj`` as a (key, params) fragment, else return None."""
    if isinstance(obj, Mapping) and set(obj) <= {"key", "params"} and "key" in obj:
        return str(obj["key"]), dict(obj.get("params") or {})
    return None


def _json_ready(params: Mapping[str, Any], what: str) -> dict:
    """Validate that ``params`` round-trips through JSON; return a plain dict."""
    plain = dict(params)
    try:
        encoded = json.dumps(plain, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{what} parameters must be JSON-serialisable scalars; got {plain!r}"
        ) from exc
    return json.loads(encoded)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RunSpec:
    """A declarative, hashable description of one simulation run.

    The fields :meth:`identity_dict` lists say what the run computes.
    ``engine`` and ``fault_plan`` say how it executes: results are
    bit-identical whichever engine runs them and however many attempts
    injected faults cost (both property-tested), so neither enters the
    spec's identity, hash or equality, and a cached result is valid for
    either.  Engine tuning that only tests and benchmarks vary
    (``plan_chunk``, ``quiescence_skip``, ``lowering``) is not spec data
    at all: it is passed to :func:`~repro.sim.runner.run_simulation`,
    which hands it to :class:`~repro.channel.engine.EngineConfig`.
    """

    algorithm: str
    adversary: str
    rounds: int
    algorithm_params: dict = field(default_factory=dict)
    adversary_params: dict = field(default_factory=dict)
    enforce_energy_cap: bool = True
    energy_cap: int | None = None
    record_trace: bool = False
    label: str | None = None
    #: Engine selector ("auto" / "block" / "kernel" / "reference").  It
    #: round-trips through :meth:`to_dict` but stays out of the identity.
    engine: str = "auto"
    #: Deterministic fault-injection stamp (a
    #: :meth:`repro.sim.faults.FaultPlan.stamp` dict, or None) that an
    #: executor puts on the specs it pickles to its own worker processes;
    #: :func:`execute_spec` replays it before the run.  It never enters
    #: :meth:`to_dict`, so a spec received as a dict carries none.
    fault_plan: dict | None = None

    def __post_init__(self) -> None:
        # Fail fast on mistyped fields, here rather than inside a worker:
        # integral fields take ints (numpy ints too, via operator.index)
        # but not bools, floats or strings, and flags take only bools.
        for name in ("rounds", "energy_cap"):
            value = getattr(self, name)
            if value is None and name != "rounds":
                continue
            if isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        for name in ("enforce_energy_cap", "record_trace"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.label is not None and not isinstance(self.label, str):
            raise TypeError(f"label must be a string or None, got {self.label!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_KINDS}"
            )
        if self.fault_plan is not None:
            if not isinstance(self.fault_plan, Mapping):
                raise TypeError("fault_plan must be a FaultPlan.stamp() dict or None")
            object.__setattr__(self, "fault_plan", dict(self.fault_plan))
        # Fail fast on unknown keys, at the construction site rather than
        # later inside a worker process.
        adversary_entry(self.adversary)
        if not isinstance(self.algorithm, str):
            raise TypeError(f"algorithm name must be a string, got {self.algorithm!r}")
        if self.algorithm.lower() not in available_algorithms():
            raise KeyError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {available_algorithms()}"
            )
        object.__setattr__(
            self, "algorithm_params", _json_ready(self.algorithm_params, "algorithm")
        )
        object.__setattr__(
            self, "adversary_params", _json_ready(self.adversary_params, "adversary")
        )
        # Seeded stochastic adversaries: pin the RNG protocol explicitly,
        # so every serialised dict names the stream it replays.
        if (
            issubclass(adversary_entry(self.adversary).cls, SeededAdversary)
            and "rng_version" not in self.adversary_params
        ):
            params = dict(self.adversary_params)
            params["rng_version"] = DEFAULT_RNG_VERSION
            object.__setattr__(self, "adversary_params", params)

    # -- serialisation -------------------------------------------------------
    def identity_dict(self) -> dict:
        """The fields that define *what* this run computes.

        This is the dict behind :meth:`canonical_json` and
        :meth:`spec_hash`; ``engine`` and ``fault_plan`` are deliberately
        absent, so specs differing only in how they execute share one
        hash (and one cache entry).
        """
        return {
            "algorithm": self.algorithm,
            "algorithm_params": self.algorithm_params,
            "adversary": self.adversary,
            "adversary_params": self.adversary_params,
            "rounds": self.rounds,
            "enforce_energy_cap": self.enforce_energy_cap,
            "energy_cap": self.energy_cap,
            "record_trace": self.record_trace,
            "label": self.label,
        }

    def to_dict(self) -> dict:
        """Serialisation: the identity fields plus ``engine``.

        ``RunSpec.from_dict(spec.to_dict())`` reconstructs every field
        but ``fault_plan``, which stays with the process that stamped it.
        Identity (hashing, caching, equality) comes from
        :meth:`identity_dict` instead.
        """
        data = self.identity_dict()
        data["engine"] = self.engine
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from a :meth:`to_dict` dict.

        Unknown keys are rejected by name, so a misspelt field fails here
        instead of running on its default.  A seeded adversary's params
        must name their ``rng_version``, as every :meth:`to_dict` does.
        """
        unknown = sorted(set(data) - _DICT_FIELDS, key=str)
        if unknown:
            raise TypeError(f"unknown RunSpec field(s) {unknown}")
        adversary = data["adversary"]
        adversary_params = dict(data.get("adversary_params") or {})
        if (
            issubclass(adversary_entry(adversary).cls, SeededAdversary)
            and "rng_version" not in adversary_params
        ):
            raise ValueError(
                f"adversary {adversary!r} is seeded, and its adversary_params "
                "name no rng_version"
            )
        return cls(
            algorithm=data["algorithm"],
            adversary=adversary,
            rounds=data["rounds"],
            algorithm_params=dict(data.get("algorithm_params") or {}),
            adversary_params=adversary_params,
            enforce_energy_cap=data.get("enforce_energy_cap", True),
            energy_cap=data.get("energy_cap"),
            record_trace=data.get("record_trace", False),
            label=data.get("label"),
            engine=data.get("engine", "auto"),
        )

    @classmethod
    def from_fragments(
        cls,
        algorithm: Mapping[str, Any],
        adversary: Mapping[str, Any],
        rounds: int,
        **kwargs,
    ) -> "RunSpec":
        """Assemble a spec from two :func:`spec_fragment` dicts."""
        algo = _as_fragment(algorithm)
        adv = _as_fragment(adversary)
        if algo is None or adv is None:
            raise TypeError(
                "expected {'key': ..., 'params': {...}} fragments, got "
                f"{algorithm!r} and {adversary!r}"
            )
        return cls(
            algorithm=algo[0],
            algorithm_params=algo[1],
            adversary=adv[0],
            adversary_params=adv[1],
            rounds=rounds,
            **kwargs,
        )

    def canonical_json(self) -> str:
        """Canonical JSON encoding: the identity of the run."""
        return json.dumps(self.identity_dict(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """SHA-256 of the canonical encoding — the cache key of the run."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.canonical_json() == other.canonical_json()

    def __hash__(self) -> int:
        return hash(self.canonical_json())

    # -- construction of live objects ---------------------------------------
    def build_algorithm(self) -> RoutingAlgorithm:
        return make_algorithm(self.algorithm, **self.algorithm_params)

    def build_adversary(self, algorithm: RoutingAlgorithm) -> Adversary:
        entry = adversary_entry(self.adversary)
        if entry.needs_schedule:
            schedule = algorithm.oblivious_schedule()
            if schedule is None:
                raise ValueError(
                    f"adversary {self.adversary!r} needs an oblivious schedule, "
                    f"but algorithm {self.algorithm!r} does not publish one"
                )
            return make_adversary(
                self.adversary, schedule=schedule, **self.adversary_params
            )
        return make_adversary(self.adversary, **self.adversary_params)


#: The keys :meth:`RunSpec.to_dict` writes and :meth:`RunSpec.from_dict`
#: accepts.
_DICT_FIELDS = frozenset(f.name for f in fields(RunSpec)) - {"fault_plan"}


def execute_spec(spec: RunSpec | Mapping[str, Any]) -> RunResult:
    """Execute one :class:`RunSpec` and return its :class:`RunResult`.

    This is the (picklable, module-level) unit of work shipped to parallel
    worker processes; executing a spec twice — in any process — yields
    bit-identical summaries because every piece of state is constructed
    fresh from the spec.
    """
    if not isinstance(spec, RunSpec):
        spec = RunSpec.from_dict(spec)
    if spec.fault_plan:
        # Replay the supervisor's fault stamp before any work happens:
        # the decision is a pure function of (seed, kind, hash, attempt),
        # so the executing process — worker or in-process — injects
        # exactly the fault the supervisor predicted.
        from .faults import FaultPlan

        FaultPlan.apply_stamp(spec.fault_plan, spec.spec_hash())
    algorithm = spec.build_algorithm()
    adversary = spec.build_adversary(algorithm)
    return run_simulation(
        algorithm,
        adversary,
        spec.rounds,
        enforce_energy_cap=spec.enforce_energy_cap,
        energy_cap=spec.energy_cap,
        record_trace=spec.record_trace,
        label=spec.label,
        engine=spec.engine,
    )


def execute_spec_batch(
    specs: "list[RunSpec | Mapping[str, Any]]",
) -> list[RunResult]:
    """Execute a chunk of specs in order (the per-dispatch worker unit).

    Shipping several small specs per process dispatch amortises the
    pickling/IPC overhead that dominates when individual runs are short;
    results come back in input order.
    """
    return [execute_spec(spec) for spec in specs]
