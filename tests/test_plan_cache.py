"""Plan-cache fast path: golden parity, cache hits, pooling, lifecycle.

Compiled-plan replay (``repro.core.plan``) may only change how fast the
simulator runs — never what it computes.  These tests pin that
contract: payloads and virtual clocks of repeated collectives match
the golden digests captured from per-call derivation
(``tests/golden_digests.json``) on every backend, and the caches
actually get hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.core.plan import BufferPool, CollectivePlan, PlanCache
from repro.core.tuning_table import cached_table
from repro.mpi.coll.hierarchical import node_comms
from repro.mpi.ops import SUM
from repro.xccl.datatypes import support_table
from tests import golden
from tests.golden import STACK_IDS


@pytest.mark.parametrize("sid", STACK_IDS)
def test_bit_identical_on_vs_off(sid):
    """Plan replay (now the only path) against the golden digests of
    per-call derivation: identical payload bytes AND virtual times for
    every tunable collective, twice per size, on every backend."""
    golden.assert_golden(f"repeat/{sid}")
    assert fastpath.STATS.snapshot()["hits"] > 0


def test_plan_cache_hits_in_omb_style_loop():
    """Repeated identical calls replay compiled plans (hits > 0) and
    reuse pooled staging buffers."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        s = ctx.device.zeros(256, dtype=np.float32)
        r = ctx.device.zeros(256, dtype=np.float32)
        for _ in range(10):
            comm.Allreduce(s, r, SUM)
        return True

    fastpath.STATS.reset()
    runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4)
    stats = fastpath.STATS.snapshot()
    assert stats["hits"] > 0
    assert stats["compiled"] == stats["misses"]
    assert stats["hits"] > stats["misses"]
    assert stats["pool_reuses"] > 0


def test_persistent_collective_matches_blocking():
    """Allreduce_init + Start/wait == plain Allreduce, restartable."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        s = ctx.device.zeros(64, dtype=np.float32)
        s.array[:] = comm.rank + 1
        r_plain = ctx.device.zeros(64, dtype=np.float32)
        r_pers = ctx.device.zeros(64, dtype=np.float32)
        comm.Allreduce(s, r_plain, SUM)
        req = comm.Allreduce_init(s, r_pers, SUM)
        assert not req.active
        for _ in range(3):
            req.Start().wait()
        assert req.coll == "allreduce"
        return bool(np.array_equal(r_plain.array, r_pers.array))

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4))


def test_persistent_all_variants_run():
    """Every *_init variant starts, completes, and restarts."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p = comm.size
        s = ctx.device.zeros(8 * p, dtype=np.float32)
        r = ctx.device.zeros(8 * p, dtype=np.float32)
        reqs = [
            comm.Allreduce_init(s.view(0, 8), r.view(0, 8), SUM),
            comm.Bcast_init(r.view(0, 8), root=0),
            comm.Reduce_init(s.view(0, 8), r.view(0, 8), SUM, 0),
            comm.Allgather_init(s.view(0, 8), r),
            comm.Alltoall_init(s, r),
            comm.Reduce_scatter_block_init(s, r.view(0, 8), SUM),
            comm.Barrier_init(),
        ]
        for req in reqs:
            req.Start().wait()
            req.Start().wait()  # restart after completion
            assert not req.active
        return True

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4))


def test_comm_free_releases_caches():
    """Comm_free drops compiled plans, tuning bindings, and cached
    hierarchical sub-communicators."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        sub = mpx.attach(comm.Split(color=0, key=comm.rank))
        ctx = comm.ctx
        s = ctx.device.zeros(64, dtype=np.float32)
        r = ctx.device.zeros(64, dtype=np.float32)
        sub.Allreduce(s, r, SUM)
        local, leaders = node_comms(sub)
        assert sub._hier_comms[0] is local
        pipeline = sub.coll.pipeline
        had_plans = sub.ctx_id in pipeline._plans
        sub.Free()
        assert sub.ctx_id not in pipeline._plans
        assert sub.ctx_id not in pipeline._tables
        assert not hasattr(sub, "_hier_comms")
        sub.Free()  # idempotent
        return had_plans

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4))


def test_support_table_identity():
    """Capability lookups are memoized down to the same object,
    case-insensitively."""
    assert support_table("nccl") is support_table("NCCL")
    assert support_table("rccl") is support_table("nccl")  # same family set
    assert support_table("hccl") is not None
    assert support_table("nosuch") is None


def test_cached_table_identity():
    """Equal (shape, ccl, config) inputs return the identical table."""
    from repro.hw.systems import make_system
    from repro.mpi.config import mvapich_gpu
    from repro.perfmodel.params import ccl_params
    from repro.perfmodel.shape import shape_of

    cluster = make_system("thetagpu", 2)
    shape = shape_of(cluster, tuple(range(16)), 8)
    ccl = ccl_params("nccl")
    cfg = mvapich_gpu()
    assert cached_table(shape, ccl, cfg) is cached_table(shape, ccl, cfg)


def test_buffer_pool_reuse_and_cap():
    pool = BufferPool()
    key = (True, "<f4", 64)
    assert pool.acquire(key) is None
    buf = np.zeros(64, dtype=np.float32)
    pool.release(key, buf)
    assert pool.acquire(key) is buf
    assert pool.acquire(key) is None  # drained
    for _ in range(64):
        pool.release(key, np.zeros(64, dtype=np.float32))
    from repro.core.plan import POOL_CAP_PER_KEY
    assert len(pool) <= POOL_CAP_PER_KEY


def test_plan_cache_counts():
    cache = PlanCache()
    key = ("hybrid", "allreduce", 1024, "MPI_FLOAT", "MPI_SUM", True)
    assert cache.lookup(key) is None
    plan = cache.store(key, CollectivePlan(key=key, decision=None))
    assert cache.lookup(key) is plan
    assert cache.hits == 1 and cache.misses == 1
    cache.clear()
    assert len(cache) == 0
