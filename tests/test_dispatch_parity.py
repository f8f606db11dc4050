"""Dispatch-pipeline parity: every collective, backend, and gate combo.

The staged pipeline (`repro.core.dispatch`) replaced the hand-written
per-collective method triplets; these tests pin the refactor's
contract:

* all 12 collectives × {NCCL, RCCL, HCCL, MSCCL} × {HYBRID, PURE_XCCL,
  PURE_MPI} reproduce the golden payload and virtual-time digests
  (``tests/golden_digests.json``) bit for bit, under every combination
  of the six gates;
* the cooperative rank scheduler (``MPIX_COOP_SCHED``) produces the
  same payloads and virtual times as the thread scheduler, on both
  routes;
* the §3.2 capability checks live in exactly one place
  (``CollectivePipeline.capability``) and still produce the paper's
  fallbacks: HCCL is float-only, no CCL does double-complex;
* the hierarchy gate (``MPIX_HIER_PIPE``) is provably inert on one
  node (payloads and times), changes only *times* across nodes, and
  is scheduler-independent to the bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.core.dispatch import REGISTRY, CollectivePipeline
from repro.core.fallback import FallbackReason, Route
from repro.mpi.coll import MPICollDispatcher
from repro.mpi.ops import SUM
from tests import golden
from tests.golden import STACK_IDS

#: the six gates, in GATE_ENV order: 2^6 = 64 combinations.
ALL_GATES = tuple(fastpath.GATE_ENV)


def _assert_golden_under(name, combos):
    for combo in combos:
        golden.assert_golden(name, **dict(zip(ALL_GATES, combo)))


def test_registry_covers_all_twelve():
    """The dispatch registry is exactly the 12 routed collectives."""
    assert sorted(REGISTRY) == sorted([
        "allgather", "allgatherv", "allreduce", "alltoall", "alltoallv",
        "bcast", "gather", "gatherv", "reduce", "reduce_scatter_block",
        "scatter", "scatterv"])
    for name, spec in REGISTRY.items():
        assert spec.name == name
        # the MPI route is the dispatcher method of the same name
        assert callable(spec.ccl) and callable(getattr(MPICollDispatcher, name))


@pytest.mark.parametrize("mode", golden.MODES)
@pytest.mark.parametrize("sid", STACK_IDS)
def test_all_collectives_match_golden(sid, mode):
    """12 collectives on every stack and routing mode: payloads and
    virtual times match the golden digests."""
    golden.assert_golden(f"twelve/{sid}/{mode}")


@pytest.mark.parametrize("sid", STACK_IDS)
def test_all_collectives_all_gates_bit_identical_ccl(sid):
    """12 collectives through the CCL route under all 64 combinations
    of the six gates: payloads and virtual times match the golden
    digests (every gate is observational, a scheduling swap, or inert
    off its trigger on a single-node, single-vendor job)."""
    _assert_golden_under(f"twelve/{sid}/pure_xccl",
                         itertools.product([False, True], repeat=6))


@pytest.mark.parametrize("sid", STACK_IDS)
def test_coop_scheduler_bit_identical_ccl(sid):
    """The cooperative scheduler (``MPIX_COOP_SCHED``) against the
    golden thread-scheduler digests: payloads and virtual times
    bit-identical for all 12 collectives in every routing mode.
    Scheduling may only change *when wall-clock work happens*, never
    what a collective computes or costs."""
    for mode in golden.MODES:
        golden.assert_golden(f"twelve/{sid}/{mode}", coop_sched=True)


def test_coop_scheduler_bit_identical_mpi_fallback():
    """The same thread-vs-fiber invariant on the MPI-algorithm route,
    whose point-to-point protocols block far more often per call."""
    for coop in (False, True):
        golden.assert_golden("twelve/thetagpu-native/pure_mpi",
                             coop_sched=coop)


def test_all_collectives_all_gates_bit_identical_mpi_fallback():
    """The same 64-combination invariant on the MPI-algorithm route."""
    _assert_golden_under("twelve/thetagpu-native/pure_mpi",
                         itertools.product([False, True], repeat=6))


def test_ccl_and_mpi_routes_agree_on_payloads():
    """Both execute routes compute the same collectives: payload bytes
    (not times) must agree between PURE_XCCL and PURE_MPI."""
    xccl = runtime.run(golden.twelve_collectives_body, system="thetagpu",
                       nodes=1, ranks_per_node=4, mode="pure_xccl")
    mpi = runtime.run(golden.twelve_collectives_body, system="thetagpu",
                      nodes=1, ranks_per_node=4, mode="pure_mpi")
    for rank, (a, b) in enumerate(zip(xccl, mpi)):
        for i, ((data_a, _), (data_b, _)) in enumerate(zip(a, b)):
            assert data_a == data_b, f"rank {rank} payload {i} differs"


class TestCapabilityChecksInOnePlace:
    """§3.2 regressions: the datatype/op gate is asserted once, in
    ``CollectivePipeline.capability``, for every backend."""

    @pytest.mark.parametrize("system,backend", [
        ("thetagpu", None),     # NCCL
        ("mri", None),          # RCCL
        ("voyager", None),      # HCCL
        ("thetagpu", "msccl"),  # MSCCL
    ], ids=["nccl", "rccl", "hccl", "msccl"])
    def test_double_complex_falls_back_everywhere(self, system, backend):
        """No CCL has complex support: DOUBLE_COMPLEX must fall back on
        every backend (heFFTe's case in the paper)."""
        from repro.mpi.datatypes import DOUBLE_COMPLEX

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(8, dtype=np.complex128)
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4 << 20, DOUBLE_COMPLEX, SUM, buf)
            return (d.route, d.reason)

        out = runtime.run(body, system=system, nodes=1, ranks_per_node=2,
                          backend=backend)[0]
        assert out == (Route.MPI, FallbackReason.DATATYPE)

    def test_hccl_is_float_only(self):
        """HCCL supports only float32 (paper §3.2): float64 falls back
        on HCCL but stays on the CCL route for the NCCL family."""
        from repro.mpi.datatypes import DOUBLE

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(8, dtype=np.float64)
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4 << 20, DOUBLE, SUM, buf)
            return (d.route, d.reason)

        hccl = runtime.run(body, system="voyager", nodes=1,
                           ranks_per_node=2)[0]
        assert hccl == (Route.MPI, FallbackReason.DATATYPE)
        nccl = runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=2)[0]
        assert nccl == (Route.XCCL, FallbackReason.NONE)

    def test_fallback_still_computes_correctly(self):
        """A capability fallback runs the MPI algorithms and produces
        the right numbers (silent fallback, §1.2 advantage 3)."""
        def body(mpx):
            comm = mpx.COMM_WORLD
            z = mpx.device_array(64, dtype=np.complex128, fill=1 + 1j)
            out = mpx.device_array(64, dtype=np.complex128)
            comm.Allreduce(z, out, SUM)
            return (out.array[0], mpx.route_stats.total_fallbacks)

        value, fallbacks = runtime.run(body, system="voyager", nodes=1,
                                       ranks_per_node=4)[0]
        assert value == 4 * (1 + 1j)
        assert fallbacks == 1

    def test_capability_is_the_single_choke_point(self):
        """Structural pin: neither adapter re-states the §3.2 chain —
        the only references to the capability tables on the routing
        path are in ``CollectivePipeline.capability``."""
        import inspect

        from repro.core import abstraction, hybrid
        cap = inspect.getsource(CollectivePipeline.capability)
        assert "supports_datatype" in cap and "supports_op" in cap
        for module in (hybrid,):
            src = inspect.getsource(module)
            assert "supports_datatype" not in src
            assert "supports_op" not in src
        # the layer only *defines* the delegating helpers the pipeline
        # calls; it never walks the chain itself
        src = inspect.getsource(abstraction)
        assert src.count("supports_datatype") == 2  # def + backend delegate
        assert src.count("supports_op") == 2


def test_dispatch_stage_counters():
    """The execute stage reports route decisions into fastpath.STATS."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        small = mpx.device_array(16)
        big = mpx.device_array(1 << 20)
        comm.Allreduce(small, mpx.device_array(16), SUM)     # mpi (tuning)
        comm.Allreduce(big, mpx.device_array(1 << 20), SUM)  # xccl
        z = mpx.device_array(16, dtype=np.complex128)
        comm.Allreduce(z, mpx.device_array(16, dtype=np.complex128),
                       SUM)                                  # mpi (datatype)
        return True

    fastpath.STATS.reset()
    runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4)
    snap = fastpath.snapshot()
    assert set(snap) == {"gates", "counters"}
    counters = snap["counters"]
    assert counters["dispatch_calls"] == 3 * 4
    assert counters["route_xccl"] == 4
    assert counters["route_mpi"] == 2 * 4
    assert counters["route_fallbacks"] == 4
    assert counters["ccl_errors"] == 0


#: the four uniform collectives the hierarchy executor covers, at a
#: payload at the reduction-collective routing crossover (2 MiB);
#: bcast's higher crossover keeps it on the flat route here, which the
#: parity pins cover too — the route stage must decline identically on
#: every rank
HIER_N = (2 << 20) // 4


def _hier_collectives_body(mpx):
    """The four hierarchy-eligible collectives at an inter-node payload
    size; returns (payload bytes, virtual clock) after each."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, rank = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    rng = np.random.default_rng(41 + rank)
    send = mpx.device_array(HIER_N)
    send.array[:] = rng.integers(0, 5, HIER_N)  # exact under reassociation
    recv = mpx.device_array(HIER_N, fill=0.0)
    comm.Allreduce(send, recv, SUM)
    snap(recv)
    buf = mpx.device_array(HIER_N, fill=0.0)
    if rank == 1:
        buf.array[:] = rng.integers(0, 5, HIER_N)
    comm.Bcast(buf, root=1)
    snap(buf)
    ag = mpx.device_array(HIER_N * p, fill=0.0)
    comm.Allgather(send, ag)
    snap(ag)
    rs_in = mpx.device_array(HIER_N * p)
    rs_in.array[:] = rng.integers(0, 5, HIER_N * p)
    rs_out = mpx.device_array(HIER_N, fill=0.0)
    comm.Reduce_scatter_block(rs_in, rs_out, SUM)
    snap(rs_out)
    return log


def _run_hier(hier, coop=False, trace=False):
    from repro.hw.systems import make_system
    prev = fastpath.configure(coop_sched=coop, hier_pipe=hier, trace=trace)
    fastpath.STATS.reset()
    try:
        cluster = make_system("thetagpu", 2, nics=4)
        out = runtime.run(_hier_collectives_body, system=cluster,
                          nranks=8, ranks_per_node=4)
        return out, fastpath.STATS.snapshot()
    finally:
        fastpath.configure(**prev)


def test_hier_gate_inert_single_node():
    """On one node ``MPIX_HIER_PIPE`` must be provably inert: payloads
    AND virtual times match the golden (gate-off) digests in every
    routing mode, under either scheduler."""
    for mode in golden.MODES:
        for coop in (False, True):
            golden.assert_golden(f"twelve/thetagpu-native/{mode}",
                                 hier_pipe=True, coop_sched=coop)
            assert fastpath.STATS.snapshot()["route_hier"] == 0


def test_hier_multi_node_payload_parity():
    """Across nodes the hierarchy route must change *times only*:
    payloads stay bit-identical to the flat route, and the route
    counters prove the hierarchy actually ran."""
    off, snap_off = _run_hier(hier=False)
    on, snap_on = _run_hier(hier=True)
    assert snap_off["route_hier"] == 0
    assert snap_on["route_hier"] > 0
    assert snap_on["hier_stripe_ops"] > 0
    for rank, (a, b) in enumerate(zip(off, on)):
        for i, ((data_a, _), (data_b, _)) in enumerate(zip(a, b)):
            assert data_a == data_b, \
                f"hier: rank {rank} payload {i} differs from flat"


def test_hier_multi_node_coop_bit_identical():
    """With the hierarchy gate on, the cooperative scheduler must agree
    with the thread scheduler to the bit — payloads and virtual
    times — with tracing off and on."""
    for trace in (False, True):
        thread, _ = _run_hier(hier=True, trace=trace)
        coop, _ = _run_hier(hier=True, coop=True, trace=trace)
        for rank, (a, b) in enumerate(zip(thread, coop)):
            for i, ((da, ta), (db, tb)) in enumerate(zip(a, b)):
                assert da == db, \
                    f"trace={trace}: rank {rank} payload {i} differs"
                assert ta == tb, \
                    f"trace={trace}: rank {rank} clock after op {i} differs"


def test_new_gates_inert_fast():
    """Fast CI leg of the full gate matrix on the hybrid route: the
    online tuner (below its warm-up — each collective runs once per
    size here) and the elastic error model (no faults injected) must be
    provably inert, alone and together, under either scheduler.
    Payloads AND virtual times."""
    _assert_golden_under(
        "twelve/thetagpu-native/hybrid",
        [(False, coop, False, False, tune, elastic)
         for tune in (False, True)
         for elastic in (False, True)
         for coop in (False, True)])


@pytest.mark.slow
def test_all_six_gates_bit_identical_full():
    """The full 2^6 = 64 gate matrix over every golden case: every
    combination of the six MPIX_* gates reproduces the golden payload
    and virtual-time digests.  Every gate is either observational
    (trace), an execution-model swap (coop scheduler), or inert off its
    trigger (hier: one node; hetero: one vendor; online tuner: below
    warm-up; elastic: no faults) — so the whole product is inert."""
    for name in golden.CASES:
        _assert_golden_under(name, itertools.product([False, True], repeat=6))


def test_configure_restores():
    """fastpath.configure returns the previous states and restores."""
    before = fastpath.gates()
    prev = fastpath.configure(trace=True, elastic=False)
    assert prev == before
    assert fastpath.gate_enabled("trace")
    assert not fastpath.gate_enabled("elastic")
    assert fastpath.gate_enabled("hetero") == before["hetero"]
    fastpath.configure(**prev)
    assert fastpath.gates() == before


@pytest.mark.parametrize("retired", ["plan_cache", "group_fusion",
                                     "zero_copy", "no_such_gate"])
def test_configure_rejects_unknown_gates(retired):
    """Retired and misspelled gate names are errors, and a rejected
    call changes nothing."""
    before = fastpath.gates()
    with pytest.raises(TypeError):
        fastpath.configure(trace=not before["trace"], **{retired: False})
    assert fastpath.gates() == before


def test_gate_registry_is_the_six_gates():
    assert fastpath.GATE_ENV == {
        "trace": "MPIX_TRACE", "coop_sched": "MPIX_COOP_SCHED",
        "hier_pipe": "MPIX_HIER_PIPE", "hetero": "MPIX_HETERO",
        "online_tune": "MPIX_ONLINE_TUNE", "elastic": "MPIX_ELASTIC"}


def test_stats_snapshot_declares_every_counter():
    """``STATS.snapshot()`` returns exactly the declared counter names,
    every one 0 after ``reset()`` — consumers index names directly."""
    fastpath.STATS.add("hits", 3)
    fastpath.STATS.reset()
    snap = fastpath.STATS.snapshot()
    assert list(snap) == list(fastpath.COUNTERS)
    assert set(snap.values()) == {0}
    fastpath.STATS.add("route_mpi")
    fastpath.STATS.add("hier_chunks", 5)
    snap = fastpath.STATS.snapshot()
    assert (snap["route_mpi"], snap["hier_chunks"]) == (1, 5)
    with pytest.raises(KeyError):
        fastpath.STATS.add("no_such_counter")
    fastpath.STATS.reset()
