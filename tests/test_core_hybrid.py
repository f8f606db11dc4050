"""The hybrid dispatcher: routing decisions, fallbacks, data paths."""

import numpy as np

from repro.core import DispatchMode, run
from repro.core.fallback import FallbackReason, Route
from repro.mpi import SUM
from repro.mpi.ops import user_op

KIB = 1024


class TestRouting:
    def test_small_goes_mpi_large_goes_ccl(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll
            small = d.pipeline.decide(comm, "allreduce", 64,
                                      None, SUM, mpx.device_array(16))
            large = d.pipeline.decide(comm, "allreduce", 4 << 20,
                                      None, SUM, mpx.device_array(16))
            return (small.route, small.reason, large.route)

        out = run(body, system=thetagpu1)[0]
        assert out[0] == Route.MPI
        assert out[1] == FallbackReason.TUNING
        assert out[2] == Route.XCCL

    def test_host_buffer_falls_back(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            host = np.zeros(1 << 20, dtype=np.float32)
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4 << 20, None, SUM, host)
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.HOST_BUFFER

    def test_datatype_fallback(self, thetagpu1):
        from repro.mpi.datatypes import DOUBLE_COMPLEX as DC

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(16, dtype=np.complex128)
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4 << 20, DC, SUM, buf)
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.DATATYPE

    def test_user_op_fallback(self, thetagpu1):
        op = user_op(lambda a, b: a + b)

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(1 << 20)
            from repro.mpi.datatypes import FLOAT
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4 << 20, FLOAT, op, buf)
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.REDUCE_OP

    def test_scan_always_mpi(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll.pipeline.decide(
                comm, "scan", 4 << 20, None, SUM, mpx.device_array(16))
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.UNSUPPORTED_COLL

    def test_pure_mpi_mode_pins(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4 << 20, None, SUM, mpx.device_array(16))
            return d.reason

        out = run(body, system=thetagpu1, mode=DispatchMode.PURE_MPI)[0]
        assert out == FallbackReason.MODE

    def test_pure_xccl_ignores_table(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll.pipeline.decide(
                comm, "allreduce", 4, None, SUM, mpx.device_array(16))
            return d.route

        out = run(body, system=thetagpu1, mode=DispatchMode.PURE_XCCL)[0]
        assert out == Route.XCCL


class TestEndToEnd:
    def test_results_identical_across_modes(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            outs = []
            for count in (64, 1 << 18):
                s = mpx.device_array(count, fill=float(mpx.rank + 1))
                r = mpx.device_array(count)
                comm.Allreduce(s, r, SUM)
                outs.append(float(r.array[0]))
            return outs

        expected = [sum(x + 1 for x in range(8))] * 2
        for mode in DispatchMode:
            out = run(body, system=thetagpu1, mode=mode)[0]
            assert out == expected, mode

    def test_fallback_produces_correct_result(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            z = mpx.device_array(1 << 18, dtype=np.complex128,
                                 fill=1 + 1j)
            out = mpx.device_array(1 << 18, dtype=np.complex128)
            comm.Allreduce(z, out, SUM)
            stats = mpx.route_stats
            return (out.array[0], stats.total_fallbacks)

        value, fallbacks = run(body, system=thetagpu1)[0]
        assert value == 8 * (1 + 1j)
        assert fallbacks == 1

    def test_stats_counting(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            small = mpx.device_array(16, fill=0.0)
            big = mpx.device_array(1 << 20, fill=0.0)
            comm.Allreduce(small, mpx.device_array(16), SUM)   # mpi
            comm.Allreduce(big, mpx.device_array(1 << 20), SUM)  # xccl
            comm.Bcast(big, root=0)                            # xccl
            s = mpx.route_stats
            return (s.mpi_calls, s.xccl_calls)

        assert run(body, system=thetagpu1)[0] == (1, 2)

    def test_hybrid_beats_or_matches_both_pures(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            times = []
            for count in (64, 1 << 20):
                s = mpx.device_array(count, fill=1.0)
                r = mpx.device_array(count)
                comm.Barrier()
                t0 = mpx.now
                comm.Allreduce(s, r, SUM)
                times.append(mpx.now - t0)
            return times

        hybrid = run(body, system=thetagpu1)[0]
        pure_mpi = run(body, system=thetagpu1, mode=DispatchMode.PURE_MPI)[0]
        pure_ccl = run(body, system=thetagpu1, mode=DispatchMode.PURE_XCCL)[0]
        # small: hybrid ~ MPI (beats CCL); large: hybrid ~ CCL (beats MPI)
        assert hybrid[0] <= pure_ccl[0]
        assert hybrid[1] <= pure_mpi[1] * 1.05

    def test_sendrecv_collectives_route_through_ccl(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            p = comm.size
            n = 1 << 16
            s = mpx.device_array(n * p)
            s.array[:] = np.repeat(mpx.rank * 100.0 + np.arange(p), n)
            r = mpx.device_array(n * p)
            comm.Alltoall(s, r)
            ok = np.array_equal(
                r.array, np.repeat(mpx.rank + np.arange(p) * 100.0, n))
            return ok and mpx.route_stats.xccl_calls == 1

        assert all(run(body, system=thetagpu1))

    def test_gather_scatter_ccl_route(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            p = comm.size
            n = 1 << 17
            s = mpx.device_array(n, fill=float(mpx.rank))
            r = mpx.device_array(n * p)
            comm.Gather(s, r, root=0)
            if mpx.rank == 0:
                assert np.array_equal(
                    r.array, np.repeat(np.arange(p, dtype=float), n))
            out = mpx.device_array(n)
            comm.Scatter(r, out, root=0)
            return float(out.array[0]) == float(mpx.rank)

        assert all(run(body, system=thetagpu1, mode=DispatchMode.PURE_XCCL))
