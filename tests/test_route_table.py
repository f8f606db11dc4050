"""The execute stage's degrade edges.

Each non-MPI route either runs its executor or degrades: a route with
no executor for the collective takes its fixed degrade target, and an
executor that raises :class:`~repro.errors.CCLError` hands the call to
the MPI algorithms with reason ``ccl_error``.  These tests pin the
edges that the happy-path suites never reach: the route that actually
ran (``coll.stats`` and the execute span label) and the payload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.core.fallback import FallbackReason
from repro.errors import CCLError
from repro.hw.systems import make_mixed_system, make_system
from repro.mpi.coll import bridge, hier_exec
from repro.mpi.ops import SUM

N = (2 << 20) // 4  # above the hierarchy threshold; engages island xCCL


@pytest.fixture
def restore_gates():
    prev = fastpath.gates()
    yield
    fastpath.configure(**prev)


def _raise_ccl_error(pipeline, call):
    raise CCLError("injected executor failure")


def _allreduce_body(mpx):
    comm = mpx.COMM_WORLD
    send = mpx.device_array(N, fill=float(comm.rank + 1))
    recv = mpx.device_array(N, fill=0.0)
    comm.Allreduce(send, recv, SUM)
    labels = [e.label for e in mpx.ctx.trace.of_kind("dispatch")
              if e.label.startswith("execute:")]
    stats = comm.coll.stats
    return (recv.array.tobytes(), labels, stats.mpi_calls,
            stats.hier_calls, stats.bridge_calls, dict(stats.fallbacks))


def _expected_allreduce(p):
    return np.full(N, float(sum(range(1, p + 1))),
                   dtype=np.float32).tobytes()


def test_hier_ccl_error_degrades_to_mpi(restore_gates, monkeypatch):
    """A pipelined-hierarchy executor that raises hands the call to the
    MPI algorithms with reason ``ccl_error`` (never to the flat xCCL
    route), and the payload is still right."""
    monkeypatch.setitem(hier_exec.EXECUTORS, "allreduce", _raise_ccl_error)
    fastpath.configure(hier_pipe=True, coop_sched=True)
    out = runtime.run(_allreduce_body, system=make_system("thetagpu", 2,
                                                          nics=4),
                      nranks=8, ranks_per_node=4, trace=True)
    for payload, labels, mpi, hier, bridged, fallbacks in out:
        assert payload == _expected_allreduce(8)
        assert labels == ["execute:allreduce:mpi:ccl_error"]
        assert (mpi, hier, bridged) == (1, 0, 0)
        assert fallbacks == {("allreduce", FallbackReason.CCL_ERROR): 1}


def test_bridge_ccl_error_degrades_to_mpi(restore_gates, monkeypatch):
    """A mixed-vendor bridge executor that raises hands the call to the
    MPI algorithms with reason ``ccl_error``."""
    monkeypatch.setitem(bridge.EXECUTORS, "allreduce", _raise_ccl_error)
    fastpath.configure(hetero=True, coop_sched=True)
    out = runtime.run(_allreduce_body,
                      system=make_mixed_system("nvidia:2,amd:2"),
                      nranks=8, ranks_per_node=2, trace=True)
    for payload, labels, mpi, hier, bridged, fallbacks in out:
        assert payload == _expected_allreduce(8)
        assert labels == ["execute:allreduce:mpi:ccl_error"]
        assert (mpi, hier, bridged) == (1, 0, 0)
        assert fallbacks == {("allreduce", FallbackReason.CCL_ERROR): 1}


def test_allgatherv_replaying_bridge_plan_degrades_to_mpi(restore_gates):
    """Allgatherv shares allgather's tuning key, so on a mixed-vendor
    communicator it replays the BRIDGE plan an equal-sized Allgather
    compiled.  The bridge has no allgatherv executor: the call degrades
    to the MPI algorithms with reason ``mixed_vendor``."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        p, rank = comm.size, comm.rank
        send = mpx.device_array(N, fill=float(rank))
        gathered = mpx.device_array(N * p, fill=0.0)
        comm.Allgather(send, gathered)
        recv = mpx.device_array(N * p, fill=0.0)
        comm.Allgatherv(send, recv, [N] * p)
        labels = [e.label for e in mpx.ctx.trace.of_kind("dispatch")
                  if e.label.startswith("execute:")]
        stats = comm.coll.stats
        return (gathered.array.tobytes(), recv.array.tobytes(), labels,
                stats.bridge_calls, stats.mpi_calls, dict(stats.fallbacks))

    fastpath.configure(hetero=True, coop_sched=True)
    out = runtime.run(body, system=make_mixed_system("nvidia:2,amd:2"),
                      nranks=8, ranks_per_node=2, trace=True)
    expect = np.repeat(np.arange(8, dtype=np.float32), N).tobytes()
    for gathered, recv, labels, bridged, mpi, fallbacks in out:
        assert gathered == expect
        assert recv == expect
        # island sub-communicators log their own nested spans
        assert "execute:allgather:bridge" in labels
        assert [lb for lb in labels if lb.startswith("execute:allgatherv")] \
            == ["execute:allgatherv:mpi:mixed_vendor"]
        assert (bridged, mpi) == (1, 1)
        assert fallbacks == {("allgather", FallbackReason.MIXED_VENDOR): 1}
