"""Block-driver negotiation for token-withholding and beaconing protocols.

:class:`BlockEngine` is the kernel engine plus one more negotiation: a
shared :class:`~repro.core.blocks.RoundBlockDriver`.  The kernel already
negotiates away most per-round overhead, but it still drives every busy
round through the full generic protocol: ``act`` on every awake station,
feedback fan-out to every awake station, queue polls for every awake
station.  The token-withholding algorithms (k-Cycle, k-Clique, k-Subsets,
RRW/OF-RRW, MBTF) make almost all of that provably redundant:

* only the replica-agreed token holder may transmit, so collisions are
  impossible and the round's outcome is decided by **one** ``act`` call
  (skipped outright when the holder's queue is known empty — the silence
  invariant says an empty holder withholds);
* the feedback effects on every awake station are a pure function of the
  outcome, applied directly by the driver (one or two targeted mutations
  instead of ``n`` ``on_feedback`` dispatches);
* only driver-reported stations can have changed queue sizes, so heard
  rounds poll a handful of stations instead of the whole awake set.

Negotiation: the engine compiles blocks when the run is on the kernel's
static-schedule or ticked wake tier with planned injections, incremental
heard-only queue metrics, the silence invariant on every controller, and
one shared driver attached to all controllers.  Restricted drivers for
beaconing algorithms (Count-Hop, Orchestra) set
``relies_on_silence_invariant = False``, which waives the
silence-invariant conjunction: the loop then calls the named
transmitter's ``act`` unconditionally (beacons are sent with empty
queues) and the driver aligns chunk boundaries with its phase structure
via ``propose_stop``, declining the adaptive phases per chunk with a
reason string surfaced in the negotiation report.

The loop itself is :meth:`KernelEngine.run
<repro.channel.kernel.KernelEngine.run>`: each chunk the driver accepts
(a *compiled block*) runs the single-transmitter steps, and may lower
spans to arrays; every other chunk — a declined block, or any chunk of
a run missing a capability — runs the fan-out steps, never erroring.
Results are bit-identical to both other engines; the equivalence
property suites enforce it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .engine import EngineConfig
from .kernel import KernelEngine
from .station import StationController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..adversary.base import Adversary
    from ..core.schedule import ObliviousSchedule
    from ..metrics.collector import MetricsCollector

__all__ = ["BlockEngine"]


class BlockEngine(KernelEngine):
    """Kernel engine that negotiates compiled round blocks.

    Adds the block-eligibility negotiation (see the module docstring)
    and its counters; the loop is inherited from :class:`KernelEngine`.
    """

    compiles_blocks = True

    def __init__(
        self,
        controllers: Sequence[StationController],
        adversary: "Adversary",
        collector: "MetricsCollector | None" = None,
        config: EngineConfig | None = None,
        schedule: "ObliviousSchedule | None" = None,
    ) -> None:
        super().__init__(controllers, adversary, collector, config, schedule)
        driver = getattr(self.controllers[0], "block_driver", None)
        if driver is not None and not all(
            getattr(ctrl, "block_driver", None) is driver
            for ctrl in self.controllers
        ):
            driver = None
        # Restricted drivers for beaconing algorithms waive the
        # silence-invariant conjunction; the loop then may not skip
        # ``act`` for empty-queue transmitters (beacons carry no packet).
        self._act_unconditional = driver is not None and not getattr(
            driver, "relies_on_silence_invariant", True
        )
        if not (
            driver is not None
            and self._planned_injections
            and self._incremental_metrics
            and self._heard_only_polls
            and (self._period_awake is not None or self._wake_oracle is not None)
            and (
                self._act_unconditional
                or all(
                    getattr(ctrl, "silence_invariant", False)
                    for ctrl in self.controllers
                )
            )
        ):
            driver = None
        self._driver = driver
        # Static tier: awake membership as one bool matrix over the period
        # (schedule.awake_matrix batch export), so the per-delivery
        # "destination awake?" test is one cell lookup instead of a scan
        # of the awake tuple.
        self._period_member: np.ndarray | None = None
        if driver is not None and self._period_awake is not None:
            self._period_member = self._schedule.awake_matrix(
                0, len(self._period_awake)
            )
        #: Chunks run as compiled blocks (introspection).
        self.blocks_compiled = 0
        #: Chunks a driver declined, plus one per run() call of an
        #: ineligible run (introspection).
        self.blocks_fallback = 0
        #: Why blocks were declined: reason string -> count (introspection).
        self.block_decline_reasons: dict[str, int] = {}
        #: Segments executed through the array-lowered path (introspection).
        self.lowered_segments = 0
        #: Rounds executed through the array-lowered path (introspection).
        self.lowered_rounds = 0

    # -- negotiated capabilities ----------------------------------------------
    @property
    def uses_block_compilation(self) -> bool:
        """True when the run is eligible for compiled round blocks."""
        return self._driver is not None

    def negotiation(self) -> dict:
        data = super().negotiation()
        data["block_compilation"] = self.uses_block_compilation
        data["blocks_compiled"] = self.blocks_compiled
        data["blocks_fallback"] = self.blocks_fallback
        data["block_decline_reasons"] = dict(self.block_decline_reasons)
        data["segment_lowering"] = self.uses_block_compilation and self.config.lowering
        data["lowered_segments"] = self.lowered_segments
        data["lowered_rounds"] = self.lowered_rounds
        return data
