"""One buffer verdict on every route.

A uniform-count collective whose significant buffer is too short for
``count`` must raise :class:`~repro.errors.InvalidBufferError` on every
rank before any routing, so the verdict cannot depend on whether the
tuning table picks the MPI algorithms or the CCL.
"""

from __future__ import annotations

import pytest

from repro.core import runtime
from repro.core.dispatch import DispatchMode
from repro.errors import InvalidBufferError
from repro.mpi.ops import SUM

P = 4
E = 8  # elements in every buffer below

#: name -> call on 8-element device buffers that asks for more
CASES = {
    "allreduce": lambda c, a, b: c.Allreduce(a, b, SUM, count=16),
    "reduce": lambda c, a, b: c.Reduce(a, b, SUM, root=0, count=16),
    "bcast": lambda c, a, b: c.Bcast(a, root=0, count=16),
    "allgather": lambda c, a, b: c.Allgather(a, b, count=E),
    "alltoall": lambda c, a, b: c.Alltoall(a, b, count=E // 2),
    "gather": lambda c, a, b: c.Gather(a, b, root=0, count=16),
    "scatter": lambda c, a, b: c.Scatter(a, b, root=0, count=16),
    "reduce_scatter_block":
        lambda c, a, b: c.Reduce_scatter_block(a, b, SUM, count=E // 2),
}


def _verdicts(mpx):
    comm = mpx.COMM_WORLD
    out = {}
    for name, call in CASES.items():
        send = mpx.device_array(E, fill=1.0)
        recv = mpx.device_array(E, fill=0.0)
        try:
            call(comm, send, recv)
            out[name] = "ok"
        except InvalidBufferError:
            out[name] = "InvalidBufferError"
        except Exception as exc:  # any other verdict is the bug
            out[name] = type(exc).__name__
    # root-only buffers are not significant elsewhere: a short recvbuf
    # off the root is fine
    send = mpx.device_array(E, fill=1.0)
    recv = mpx.device_array(E * P if comm.rank == 0 else 1, fill=0.0)
    comm.Gather(send, recv, root=0)
    out["gather_short_off_root"] = "ok"
    return out


@pytest.mark.parametrize("mode", [DispatchMode.HYBRID,
                                  DispatchMode.PURE_XCCL,
                                  DispatchMode.PURE_MPI],
                         ids=lambda m: m.value)
def test_short_buffer_same_verdict_on_every_route(mode):
    out = runtime.run(_verdicts, system="thetagpu", nodes=1,
                      ranks_per_node=P, mode=mode)
    expect = dict.fromkeys(CASES, "InvalidBufferError")
    expect["gather_short_off_root"] = "ok"
    assert out == [expect] * P
