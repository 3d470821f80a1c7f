"""Per-layer attribution of profiler self time.

Layers are named after the package's modules.  Self time of functions
outside the ``repro`` package — builtins such as ``deque.remove``,
dataclass-generated code such as ``Packet.__eq__``, the stdlib and
numpy — is charged to the nearest calling ``repro`` module, split over
callers in proportion to the time each call site spent in it.  Without
that rule the queue scan reads as ``deque.remove`` plus ``Packet.__eq__``
instead of as ``core.queues``.
"""

from __future__ import annotations

import re
from collections import defaultdict

#: Layer names in report order; ``other`` collects time with no calling
#: ``repro`` module (interpreter start-up, the benchmark itself, the CLI).
LAYERS = (
    "adversary",
    "core.queues",
    "algorithms",
    "channel",
    "metrics",
    "sim.cache",
    "sim.executor",
    "sim.service",
    "sim.netclient",
    "other",
)

_RULES = (
    (r"adversary/", "adversary"),
    (r"core/queues\.py$", "core.queues"),
    (r"(algorithms|protocols)/", "algorithms"),
    (r"core/(controller|schedule|blocks|algorithm|registry)\.py$", "algorithms"),
    (r"(channel/|_accel\.py$)", "channel"),
    (r"metrics/", "metrics"),
    (r"sim/cache\.py$", "sim.cache"),
    (r"sim/(specs|runner|parallel|sweep|experiments|progress|manifest|faults|reporting)\.py$",
     "sim.executor"),
    (r"sim/(service|queue|worker)\.py$", "sim.service"),
    (r"sim/netclient\.py$", "sim.netclient"),
)
_REPRO = re.compile(r"^(.*/)?repro/(?P<rest>[^/].*)$")


def layer_of(filename: str) -> str | None:
    """Layer of a source file, ``other`` for the rest of ``repro`` and for
    the benchmark's own files (such as the calibration loop, which runs
    inside whatever function it interrupts), or None for code outside
    both (builtins, generated code, stdlib)."""
    path = filename.replace("\\", "/")
    if "/perfbench/" in path:
        return "other"
    match = _REPRO.search(path)
    if match is None:
        return None
    rest = match.group("rest")
    for pattern, layer in _RULES:
        if re.search(pattern, rest):
            return layer
    return "other"


def attribute(stats: dict) -> dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict."""
    memo: dict[tuple, dict[str, float]] = {}

    def caller_shares(key: tuple, seen: frozenset) -> dict[str, float]:
        """Fractions of ``key``'s self time owed to each layer."""
        layer = layer_of(key[0])
        if layer is not None:
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        callers = stats[key][4] if key in stats else {}
        weights = {c: v[2] for c, v in callers.items() if c not in seen}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items() if c not in seen}
            total = sum(weights.values())
        shares: dict[str, float] = defaultdict(float)
        if total <= 0:
            shares["other"] = 1.0
        else:
            for caller, weight in weights.items():
                for lay, frac in caller_shares(caller, seen | {key}).items():
                    shares[lay] += frac * weight / total
        memo[key] = dict(shares)
        return memo[key]

    busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, frac in caller_shares(key, frozenset()).items():
            busy[layer] += tt * frac
    return busy


def packet_compares(stats: dict) -> tuple[int, int]:
    """``(generated __eq__ calls made by deque methods, deque.remove calls
    made by core/queues.py)`` — the queue scan's comparison work."""
    compares = 0
    removes = 0
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if key[0] == "<string>" and key[2] == "__eq__":
            compares += sum(
                v[1] for c, v in callers.items()
                if c[0] == "~" and "of 'collections.deque' objects" in c[2]
            )
        elif key[0] == "~" and key[2] == "<method 'remove' of 'collections.deque' objects>":
            removes += sum(
                v[1] for c, v in callers.items() if layer_of(c[0]) == "core.queues"
            )
    return compares, removes
