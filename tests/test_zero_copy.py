"""Zero-copy datapath: golden parity, leaks, gate combos, fault safety.

Borrowed-view handoff may only change how fast the simulator runs —
never what it computes.  These tests pin that contract on every CCL
stack: payload bytes AND virtual clocks match the golden digests
captured from the copying datapath (``tests/golden_digests.json``),
borrowed views are never retained after completion, randomized
collective sequences agree bit for bit under every gate combination,
and fault injection degrades the leased handoff to the copying path
without ever corrupting a sender's live buffer.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.errors import RankFailedError
from repro.mpi import SUM, Communicator
from repro.mpi.communicator import IN_PLACE
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from tests import golden
from tests.golden import RNDV, STACK_IDS


@pytest.mark.parametrize("sid", STACK_IDS)
def test_bit_identical_zero_copy_on_vs_off(sid):
    """Zero copy (now the only datapath) against the copying
    datapath's golden digests: identical payload bytes AND virtual
    times for the whole datapath on every CCL stack."""
    golden.assert_golden(f"datapath/{sid}")
    stats = fastpath.STATS.snapshot()  # the run's engine reset them
    # the leased paths must actually have engaged
    assert stats["copies_elided"] > 0
    assert stats["accumulator_reuses"] > 0


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_randomized_sequences_identical_under_all_gate_combos(seed):
    """All 64 combinations of the six gates reproduce the golden
    digests (payloads and virtual times) of randomized collective
    sequences."""
    for combo in itertools.product([False, True], repeat=6):
        golden.assert_golden(f"random/{seed}",
                             **dict(zip(fastpath.GATE_ENV, combo)))


def test_no_payload_refs_retained_after_completion():
    """After collectives, group flushes, and leased p2p complete, no
    CollectiveSlot, GroupExchangeSlot, or mailbox bucket may retain a
    reference to any payload array (borrowed views pin their base)."""
    refs = []

    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        send = ctx.device.zeros(256, dtype=np.float32)
        send.array[:] = r + 1
        out = ctx.device.zeros(256, dtype=np.float32)
        ag = ctx.device.zeros(256 * p, dtype=np.float32)
        comm.Allreduce(send, out, SUM)
        comm.Allgather(send, ag, count=256)
        a2a = ctx.device.zeros(64 * p, dtype=np.float32)
        a2a.array[:] = r
        a2a_r = ctx.device.zeros(64 * p, dtype=np.float32)
        comm.Alltoall(a2a, a2a_r, count=64)
        big_s = ctx.device.zeros(RNDV, dtype=np.float32)
        big_s.array[:] = r
        big_r = ctx.device.zeros(RNDV, dtype=np.float32)
        comm.Sendrecv(big_s, (r + 1) % p, big_r, (r - 1) % p)
        refs.extend(weakref.ref(a) for a in
                    (send.array, ag.array, a2a.array, big_s.array))
        return True

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4, mode="pure_xccl"))
    gc.collect()
    alive = [i for i, ref in enumerate(refs) if ref() is not None]
    assert not alive, f"payload arrays still referenced: {alive}"


def test_blocking_send_buffer_safe_to_reuse(thetagpu1):
    """A blocking rendezvous send with the lease active completes only
    after the receiver consumed the view: mutating the buffer right
    after Send returns must never corrupt the received data."""
    captured = {}

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            buf.fill(7.0)
            comm.Send(buf, 1)
            buf.fill(-1.0)   # reuse immediately: lease must be settled
        else:
            comm.Recv(buf, source=0)
            captured["got"] = buf.array.copy()

    engine = Engine(thetagpu1, nranks=2, progress_timeout_s=10.0)
    fastpath.STATS.reset()
    engine.run(body)
    stats = fastpath.STATS.snapshot()
    assert stats["copies_elided"] > 0
    assert (captured["got"] == 7.0).all()


def test_patched_mailbox_degrades_to_copying_path(thetagpu1):
    """Fault injection monkeypatches mailbox ``post``; the leased
    handoff must stand down (copies forced, not elided) and the
    delayed delivery must still see the original bytes even though the
    sender mutates its buffer right after Send returns."""
    captured = {}

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            buf.fill(3.0)
            comm.Send(buf, 1)
            buf.fill(-5.0)
        else:
            comm.Recv(buf, source=0)
            captured["got"] = buf.array.copy()

    engine = Engine(thetagpu1, nranks=2, progress_timeout_s=10.0)
    with_faults(engine, FaultPlan().delay(0, 1, 250.0))
    fastpath.STATS.reset()
    engine.run(body)
    stats = fastpath.STATS.snapshot()
    # exactly one degraded send -> exactly one forced copy: the escape
    # hatch must fire once per send, never double-count per handshake
    assert stats["copies_forced"] == 1
    assert stats["copies_elided"] == 0
    assert (captured["got"] == 3.0).all()


def test_fault_path_leaves_no_stale_lease(thetagpu1):
    """Degraded sends take the copying path up front: no PayloadLease
    may be created (let alone survive), and the sender's buffer must be
    released once the run completes."""
    from repro.sim.mailbox import PayloadLease
    refs = []

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            buf.fill(9.0)
            comm.Send(buf, 1)
            refs.append(weakref.ref(buf.array))
        else:
            comm.Recv(buf, source=0)

    engine = Engine(thetagpu1, nranks=2, progress_timeout_s=10.0)
    with_faults(engine, FaultPlan().delay(0, 1, 250.0))
    fastpath.STATS.reset()
    engine.run(body)
    stats = fastpath.STATS.snapshot()
    assert stats["copies_forced"] == 1
    gc.collect()
    leases = [o for o in gc.get_objects() if isinstance(o, PayloadLease)]
    assert not leases, f"{len(leases)} PayloadLease objects survived"
    assert all(ref() is None for ref in refs), \
        "sender payload array still referenced after the degraded send"


def test_rank_failure_leaves_live_buffers_intact(thetagpu1):
    """A dropped message deadlocks the receiver; the failure must not
    corrupt any sender's live buffer (borrowed views are read-only, so
    nothing downstream can scribble into caller memory)."""
    survivors = {}

    def body(ctx):
        comm = Communicator.world(ctx)
        if ctx.rank in (0, 1):
            peer = 1 - ctx.rank
            buf = ctx.device.zeros(RNDV)
            buf.fill(float(ctx.rank) + 1.0)
            out = ctx.device.zeros(RNDV)
            comm.Sendrecv(buf, peer, out, peer)
            assert (buf.array == ctx.rank + 1.0).all()
            survivors[ctx.rank] = out.array[0]
        elif ctx.rank == 2:
            comm.Send(ctx.device.zeros(RNDV), 3)
        else:
            comm.Recv(ctx.device.zeros(RNDV), source=2)

    engine = Engine(thetagpu1, nranks=4, progress_timeout_s=1.5)
    with_faults(engine, FaultPlan().drop(2, 3, nth=0))
    with pytest.raises(RankFailedError):
        engine.run(body)
    assert survivors == {0: 2.0, 1: 1.0}


def test_in_place_allgather_skips_own_segment_copy():
    """The in-place allgather's own segment is already in the receive
    buffer: zero-copy must leave it untouched and still produce the
    exact gathered message."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        n = 64
        out = ctx.device.zeros(n * p, dtype=np.float32)
        out.array[r * n:(r + 1) * n] = r + 1
        comm.Allgather(IN_PLACE, out, count=n)
        return out.array.copy()

    got = runtime.run(body, system="thetagpu", nodes=1,
                      ranks_per_node=4, mode="pure_xccl")
    expect = np.repeat(np.arange(1, 5, dtype=np.float32), 64)
    for rank, arr in enumerate(got):
        assert (arr == expect).all(), f"rank {rank} gathered wrong bytes"
