"""Fused group transport: golden parity, ordering, counters.

Batching a CCL group into bulk mailbox posts or one whole-group
rendezvous may only change how fast the simulator runs — never what it
computes.  These tests pin that contract for every send-recv
collective on every CCL stack: payload bytes AND virtual clocks match
the golden digests captured from per-message delivery
(``tests/golden_digests.json``), group flushes keep per-(src, tag)
FIFO order, and the fused paths actually engage (counters > 0) so a
silent fallback cannot masquerade as a pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from tests import golden
from tests.golden import STACK_IDS


@pytest.mark.parametrize("sid", STACK_IDS)
def test_bit_identical_fusion_on_vs_off(sid):
    """Fused delivery (now the only transport) against the golden
    digests of per-message delivery: identical payload bytes AND
    virtual times for every send-recv collective on every CCL stack."""
    golden.assert_golden(f"sendrecv/{sid}")
    stats = fastpath.STATS.snapshot()  # the run's engine reset them
    # the fused transport must actually have engaged
    assert stats["fusion_flushes"] > 0
    assert stats["fusion_exchanges"] > 0
    assert stats["fusion_msgs"] > 0


def test_group_flush_preserves_pair_fifo():
    """Several sends to the same peer inside one group arrive in
    program order: MPI non-overtaking survives the bulk post_many."""
    from repro.xccl.api import (
        xcclGroupEnd,
        xcclGroupStart,
        xcclRecv,
        xcclSend,
        xcclStreamSynchronize,
    )
    from repro.mpi.datatypes import FLOAT

    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        xc = comm.coll.layer.ccl_comm(comm)
        peer = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        outs = [ctx.device.zeros(4, dtype=np.float32) for _ in range(3)]
        ins_ = [ctx.device.zeros(4, dtype=np.float32) for _ in range(3)]
        for i, o in enumerate(outs):
            o.array[:] = 10 * comm.rank + i
        xcclGroupStart(xc)
        for i in range(3):
            xcclSend(outs[i], 4, FLOAT, peer, xc)
            xcclRecv(ins_[i], 4, FLOAT, src, xc)
        xcclGroupEnd()
        xcclStreamSynchronize(xc)
        return [float(b.array[0]) for b in ins_]

    got = runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4,
                      mode="pure_xccl")
    for rank, vals in enumerate(got):
        src = (rank - 1) % 4
        assert vals == [10.0 * src, 10.0 * src + 1, 10.0 * src + 2], \
            f"rank {rank} recvs out of order: {vals}"


def test_rooted_groups_do_not_rendezvous():
    """Gather uses the bulk path, not the whole-group rendezvous — leaf
    ranks must not be barriered behind the root's matching."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        s = ctx.device.zeros(4, dtype=np.float32)
        s.array[:] = comm.rank
        r = ctx.device.zeros(4 * comm.size, dtype=np.float32)
        comm.Gather(s, r, root=0, count=4)
        return True

    fastpath.STATS.reset()
    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4, mode="pure_xccl"))
    stats = fastpath.STATS.snapshot()
    assert stats["fusion_flushes"] > 0      # bulk transport engaged
    assert stats["fusion_exchanges"] == 0   # but no whole-group slot
