"""Collective algorithms and the default MPI dispatcher.

:class:`MPICollDispatcher` is the strategy object a
:class:`~repro.mpi.communicator.Communicator` calls into; it consults
the MPI-internal tuning table (:mod:`repro.mpi.coll.tuning`) and runs
the chosen algorithm.  The xCCL abstraction layer subclasses it
(:class:`repro.core.hybrid.HybridDispatcher`) — the "hook in the MPI
runtime" of §3.3.  Every collective arrives as one
:class:`~repro.mpi.communicator.CollectiveCall`; :meth:`MPICollDispatcher.run`
executes it with the method of the same name.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import MPIError
from repro.mpi.coll import tuning
from repro.mpi.coll.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
    allgatherv_ring,
)
from repro.mpi.coll.allreduce import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
)
from repro.mpi.coll.alltoall import (
    alltoall_bruck,
    alltoall_pairwise,
    alltoall_scattered,
    alltoallv_scattered,
)
from repro.mpi.coll.barrier import barrier_dissemination, exscan_linear, scan_linear
from repro.mpi.coll.bcast import bcast_binomial, bcast_scatter_ring_allgather
from repro.mpi.coll.hierarchical import (
    allreduce_hierarchical,
    bcast_hierarchical,
    reduce_hierarchical,
)
from repro.mpi.coll.gather import (
    gather_binomial,
    gather_linear,
    gatherv_linear,
    scatter_binomial,
    scatter_linear,
    scatterv_linear,
)
from repro.mpi.coll.reduce import (
    reduce_binomial,
    reduce_linear,
    reduce_scatter_gather,
)
from repro.mpi.coll.reduce_scatter import (
    reduce_scatter_pairwise,
    reduce_scatter_recursive_halving,
)

_ALGORITHMS = {
    ("bcast", "binomial"): bcast_binomial,
    ("bcast", "scatter_ring_allgather"): bcast_scatter_ring_allgather,
    ("reduce", "binomial"): reduce_binomial,
    ("reduce", "linear"): reduce_linear,
    ("reduce", "reduce_scatter_gather"): reduce_scatter_gather,
    ("allreduce", "recursive_doubling"): allreduce_recursive_doubling,
    ("allreduce", "ring"): allreduce_ring,
    ("allreduce", "rabenseifner"): allreduce_rabenseifner,
    ("allreduce", "hierarchical"): allreduce_hierarchical,
    ("bcast", "hierarchical"): bcast_hierarchical,
    ("reduce", "hierarchical"): reduce_hierarchical,
    ("allgather", "ring"): allgather_ring,
    ("allgather", "recursive_doubling"): allgather_recursive_doubling,
    ("allgather", "bruck"): allgather_bruck,
    ("alltoall", "scattered"): alltoall_scattered,
    ("alltoall", "pairwise"): alltoall_pairwise,
    ("alltoall", "bruck"): alltoall_bruck,
    ("reduce_scatter", "recursive_halving"): reduce_scatter_recursive_halving,
    ("reduce_scatter", "pairwise"): reduce_scatter_pairwise,
    ("gather", "binomial"): gather_binomial,
    ("gather", "linear"): gather_linear,
    ("scatter", "binomial"): scatter_binomial,
    ("scatter", "linear"): scatter_linear,
}


def algorithm(coll: str, name: str):
    """Look up one algorithm implementation by name."""
    try:
        return _ALGORITHMS[(coll, name)]
    except KeyError:
        raise MPIError(f"no {coll} algorithm named {name!r}") from None


class MPICollDispatcher:
    """Default dispatcher: pure-MPI algorithms per the internal table.

    ``force`` pins one algorithm name for every collective (used by
    benchmarks and the offline tuner to sweep algorithms).
    """

    name = "mpi"

    def __init__(self, force: Optional[str] = None) -> None:
        self.force = force
        self._algo_cache: Dict[Tuple, object] = {}

    def _pick(self, coll: str, c, commutative: bool = True):
        """The algorithm for ``call`` ``c`` under tuning-table row
        ``coll``."""
        nbytes, p = c.count * c.dt.itemsize, c.comm.size
        # self.force joins the key so mutating it cannot go stale
        key = (self.force, coll, nbytes, p, commutative)
        fn = self._algo_cache.get(key)
        if fn is None:
            name = self.force or tuning.select(coll, nbytes, p, commutative)
            fn = self._algo_cache[key] = algorithm(coll, name)
        return fn

    def release(self, comm) -> None:
        """Communicator-free hook; nothing to drop for the plain MPI
        dispatcher (subclasses release their plan caches here)."""

    def warm(self, call) -> None:
        """Persistent-collective init hook; the plain MPI dispatcher
        has no routing plan to compile."""

    def run(self, call) -> None:
        """Execute one :class:`~repro.mpi.communicator.CollectiveCall`
        with the algorithm method named by ``call.coll``."""
        getattr(self, call.coll)(call)

    # one method per collective, each taking the CollectiveCall ---------

    def barrier(self, c) -> None:
        barrier_dissemination(c.comm)

    def bcast(self, c) -> None:
        self._pick("bcast", c)(c.comm, c.recvbuf, c.count, c.dt, c.root)

    def reduce(self, c) -> None:
        self._pick("reduce", c, c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op, c.root)

    def allreduce(self, c) -> None:
        self._pick("allreduce", c, c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def allgather(self, c) -> None:
        self._pick("allgather", c)(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt)

    def allgatherv(self, c) -> None:
        allgatherv_ring(c.comm, c.sendbuf, c.recvbuf, c.recvcounts,
                        c.rdispls, c.dt)

    def alltoall(self, c) -> None:
        self._pick("alltoall", c)(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt)

    def alltoallv(self, c) -> None:
        alltoallv_scattered(c.comm, c.sendbuf, c.sendcounts, c.sdispls,
                            c.recvbuf, c.recvcounts, c.rdispls, c.dt)

    def gather(self, c) -> None:
        self._pick("gather", c)(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt,
                                c.root)

    def gatherv(self, c) -> None:
        gatherv_linear(c.comm, c.sendbuf, c.recvbuf, c.recvcounts, c.rdispls,
                       c.dt, c.root)

    def scatter(self, c) -> None:
        self._pick("scatter", c)(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt,
                                 c.root)

    def scatterv(self, c) -> None:
        scatterv_linear(c.comm, c.sendbuf, c.sendcounts, c.sdispls,
                        c.recvbuf, c.dt, c.root)

    def reduce_scatter_block(self, c) -> None:
        self._pick("reduce_scatter", c, c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def scan(self, c) -> None:
        scan_linear(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def exscan(self, c) -> None:
        exscan_linear(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)
