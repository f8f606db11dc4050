"""Engine scale benchmark: thread vs cooperative rank scheduler.

Sweeps allreduce, alltoallv and barrier over 64 -> 256 -> 1024 -> 4096
ranks (oversubscribed onto a 4-node ThetaGPU model) and measures
*wall-clock* scheduling throughput — ranks x iterations per second of
``Engine.run`` — under both schedulers.  Virtual time is asserted
bit-identical between the two wherever thread-mode execution is itself
deterministic (the rendezvous-only collectives); contended cross-node
wires are booked in arrival order, which under OS threads depends on
preemption, so alltoallv records both figures instead of asserting.

Thread-mode legs are capped where the poll/backoff loops make them
pointless to wait for (the measured gap at 1024 ranks is the point of
the exercise); skipped legs carry an explicit reason in the report.

Run with ``make bench-engine`` or::

    PYTHONPATH=src python benchmarks/bench_engine_scale.py

Writes ``BENCH_engine_scale.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

SYSTEM = "thetagpu"
NODES = 4
SCALES = (64, 256, 1024, 4096)
#: per-collective, per-scale iteration counts: enough loop work that
#: scheduling (not engine setup) dominates; alltoallv is O(P^2)
#: messages per iteration so it iterates least
ITERS = {
    "allreduce": {64: 20, 256: 10, 1024: 10, 4096: 2},
    "barrier": {64: 20, 256: 10, 1024: 10, 4096: 2},
    "alltoallv": {64: 2, 256: 1, 1024: 1},
}
#: thread-mode caps: beyond these the polling scheduler is the wrong
#: tool and the leg is skipped (with the measured smaller-scale ratio
#: as evidence); alltoallv is O(P^2) messages so it caps earlier.
THREAD_CAP = {"allreduce": 1024, "barrier": 1024, "alltoallv": 256}
COOP_CAP = {"allreduce": 4096, "barrier": 4096, "alltoallv": 1024}
COUNT = 4  # elements per rank: scheduling cost, not bandwidth, is under test


def _harness(ctx):
    from repro.baselines.pure_ccl import PureCCLHarness
    return PureCCLHarness(ctx, "nccl")


def _allreduce_body(iters):
    def body(ctx):
        h = _harness(ctx)
        buf = ctx.device.zeros(COUNT, dtype=np.float32)
        buf.array[:] = ctx.rank + 1
        for _ in range(iters):
            h.allreduce(buf, buf, COUNT)
        h.sync()
        return float(ctx.now), float(buf.array[0])
    return body


def _barrier_body(iters):
    def body(ctx):
        h = _harness(ctx)
        for _ in range(iters):
            h.sync()
        return float(ctx.now), 0.0
    return body


def _alltoallv_body(iters):
    def body(ctx):
        from repro.mpi.datatypes import FLOAT
        from repro.xccl import api as xapi
        h = _harness(ctx)
        p = h.size
        counts = [((h.rank + peer) % 4) + 1 for peer in range(p)]
        rcounts = [((peer + h.rank) % 4) + 1 for peer in range(p)]
        soff = [0] * p
        roff = [0] * p
        for i in range(1, p):
            soff[i] = soff[i - 1] + counts[i - 1]
            roff[i] = roff[i - 1] + rcounts[i - 1]
        send = ctx.device.zeros(soff[-1] + counts[-1], dtype=np.float32)
        recv = ctx.device.zeros(roff[-1] + rcounts[-1], dtype=np.float32)
        send.array[:] = ctx.rank
        for _ in range(iters):
            xapi.xcclGroupStart()
            for peer in range(p):
                xapi.xcclSend(send.view(soff[peer], counts[peer]),
                              counts[peer], FLOAT, peer, h.comm)
                xapi.xcclRecv(recv.view(roff[peer], rcounts[peer]),
                              rcounts[peer], FLOAT, peer, h.comm)
            xapi.xcclGroupEnd()
            xapi.xcclStreamSynchronize(h.comm)
        return float(ctx.now), float(recv.array[-1])
    return body


BODIES = {
    "allreduce": _allreduce_body,
    "barrier": _barrier_body,
    "alltoallv": _alltoallv_body,
}
#: virtual time must match between schedulers wherever thread-mode
#: execution is itself deterministic (no contended-wire booking order)
DETERMINISTIC = {"allreduce", "barrier"}


def _run_leg(name, nranks, coop):
    from repro import fastpath
    from repro.hw.systems import make_system
    from repro.sim.engine import Engine

    iters = ITERS[name][nranks]
    fastpath.configure(coop_sched=coop)
    cluster = make_system(SYSTEM, NODES)
    rpn = -(-nranks // cluster.node_count)
    t0 = time.perf_counter()
    engine = Engine(cluster, nranks=nranks, ranks_per_node=rpn,
                    progress_timeout_s=300.0)
    results = engine.run(BODIES[name](iters))
    wall_s = time.perf_counter() - t0
    t_end = {r[0] for r in results}
    if name in DETERMINISTIC:
        # these end on a job-wide rendezvous: all ranks must agree
        assert len(t_end) == 1, "ranks disagree on completion time"
    snap = fastpath.STATS.snapshot()
    return {
        "nranks": nranks,
        "iterations": iters,
        "wall_s": round(wall_s, 3),
        "ranks_per_sec": round(nranks * iters / wall_s, 1),
        "virtual_t_end_us": max(t_end),
        "payload_check": results[0][1],
        "coop_parks": snap.get("coop_parks", 0) if coop else None,
        "coop_switches": snap.get("coop_switches", 0) if coop else None,
    }


def main() -> None:
    from repro import fastpath

    report = {
        "config": {"system": SYSTEM, "nodes": NODES, "count": COUNT,
                   "scales": list(SCALES), "iterations": ITERS},
        "collectives": {},
    }
    prev = fastpath.gate_enabled("coop_sched")
    try:
        for name in BODIES:
            rows = []
            for nranks in SCALES:
                row = {"nranks": nranks, "coop": None, "thread": None}
                if nranks <= COOP_CAP[name]:
                    row["coop"] = _run_leg(name, nranks, coop=True)
                else:
                    row["coop_skipped"] = (
                        f"{name} is O(P^2) messages; {nranks} ranks "
                        f"exceeds the benchmark budget")
                if nranks <= THREAD_CAP[name]:
                    row["thread"] = _run_leg(name, nranks, coop=False)
                else:
                    row["thread_skipped"] = (
                        "thread scheduler poll/backoff is intractable at "
                        f"{nranks} ranks (see speedup at the largest "
                        "common scale)")
                if row["coop"] and row["thread"]:
                    row["coop_speedup"] = round(
                        row["thread"]["wall_s"] / row["coop"]["wall_s"], 2)
                    if name in DETERMINISTIC:
                        assert (row["coop"]["virtual_t_end_us"]
                                == row["thread"]["virtual_t_end_us"]), \
                            f"{name}@{nranks}: schedulers disagree on " \
                            f"virtual time"
                        assert (row["coop"]["payload_check"]
                                == row["thread"]["payload_check"])
                        row["bit_identical"] = True
                rows.append(row)
                print(f"{name:>10} P={nranks:>5}: "
                      + (f"coop {row['coop']['wall_s']:.2f}s "
                         f"({row['coop']['ranks_per_sec']:.0f} ranks/s)"
                         if row["coop"] else "coop skipped")
                      + "  "
                      + (f"thread {row['thread']['wall_s']:.2f}s "
                         f"({row['thread']['ranks_per_sec']:.0f} ranks/s)"
                         if row["thread"] else "thread skipped")
                      + (f"  speedup {row['coop_speedup']}x"
                         if "coop_speedup" in row else ""),
                      flush=True)
            report["collectives"][name] = rows
    finally:
        fastpath.configure(coop_sched=prev)

    out = Path(__file__).resolve().parent.parent / "BENCH_engine_scale.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
