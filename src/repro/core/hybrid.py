"""The hybrid dispatcher: MPI-xCCL's runtime brain (§3.4).

A drop-in replacement for the communicator's default
:class:`~repro.mpi.coll.MPICollDispatcher`.  It defines no
per-collective methods: :meth:`HybridDispatcher.run` pushes each of the
twelve routed collectives' :class:`~repro.core.dispatch.CollectiveCall`
through the staged :class:`~repro.core.dispatch.CollectivePipeline`
(validate → capability-check → route → plan lookup → execute).  The
Fig. 2 decision chain, the plan caches, and the route table live in
:mod:`repro.core.dispatch`.

Scan/exscan and the barrier have no CCL mapping and always run on MPI
(the algorithm suite inherited from the base dispatcher, which is also
the pipeline's MPI route).
"""

from __future__ import annotations

from typing import Optional

from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import (REGISTRY, CollectiveCall, CollectivePipeline,
                                 DispatchMode)
from repro.core.fallback import RouteStats
from repro.core.tuning_table import TuningTable
from repro.mpi.coll import MPICollDispatcher

__all__ = ["DispatchMode", "HybridDispatcher"]


class HybridDispatcher(MPICollDispatcher):
    """Routes collectives between the MPI algorithms and the xCCL layer."""

    name = "mpi-xccl"

    def __init__(self, layer: XCCLAbstractionLayer,
                 mode: DispatchMode = DispatchMode.HYBRID,
                 table: Optional[TuningTable] = None) -> None:
        super().__init__()
        #: the staged dispatch pipeline (self supplies the MPI route —
        #: this class inherits the traditional algorithm suite).
        self.pipeline = CollectivePipeline(layer, mode, table, mpi=self)

    @property
    def layer(self) -> XCCLAbstractionLayer:
        """The rank's xCCL abstraction layer."""
        return self.pipeline.layer

    @property
    def mode(self) -> DispatchMode:
        """Routing policy (delegates to the pipeline's route stage)."""
        return self.pipeline.mode

    @mode.setter
    def mode(self, value: DispatchMode) -> None:
        self.pipeline.mode = value

    @property
    def stats(self) -> RouteStats:
        """Routing counters (inspected by tests/reports)."""
        return self.pipeline.stats

    def release(self, comm) -> None:
        """Drop everything cached for ``comm`` (MPI ``Comm_free``)."""
        self.pipeline.release(comm)

    def warm(self, call: CollectiveCall) -> None:
        """Compile a persistent collective's routing plan at init, so
        every ``Start`` replays a cache hit."""
        if call.coll in REGISTRY:
            self.pipeline.warm(call)

    def run(self, call: CollectiveCall) -> None:
        """Routed collectives go through the pipeline; the rest run the
        inherited MPI algorithms."""
        if call.coll in REGISTRY:
            self.pipeline.run(call)
        else:
            super().run(call)
