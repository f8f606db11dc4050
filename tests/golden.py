"""Golden payload and virtual-time digests for the collective datapath.

The plan cache, group fusion and zero-copy handoff used to be
switchable, and their switched-off paths were the reference every
parity test compared against.  Those paths are gone; the reference is
now ``golden_digests.json``, captured from the code that still had
both paths, with all three optimisations on and off (the two agreed
bit for bit).

Each case runs one single-node SPMD program and digests, over every
rank in rank order, the payload bytes and the virtual clock logged
after each call.  Single-node runs are exactly reproducible, which is
what makes a digest comparison valid.

Print the current digests (compare by hand before replacing the
fixture)::

    PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import fastpath
from repro.core import runtime
from repro.mpi import SUM
from repro.mpi.communicator import IN_PLACE

FIXTURE = pathlib.Path(__file__).with_name("golden_digests.json")

#: (system, backend, ranks) — one per CCL the paper ports.
STACKS = [
    ("thetagpu", None, 4),      # NCCL
    ("mri", None, 2),           # RCCL
    ("voyager", None, 4),       # HCCL
    ("thetagpu", "msccl", 4),   # MSCCL
]
STACK_IDS = [f"{s}-{b or 'native'}" for s, b, _ in STACKS]

#: the routing modes the twelve-collective program is pinned under
MODES = ("hybrid", "pure_xccl", "pure_mpi")

N = 13  # odd per-rank count exercises uneven chunk geometry

#: large enough for the rendezvous protocol (eager threshold is 8 KiB)
RNDV = 1 << 12

#: seeds of the randomized collective sequences
SEEDS = (7, 23)


def _vec_geometry(p):
    counts = [r + 1 for r in range(p)]
    displs = [sum(counts[:r]) for r in range(p)]
    return counts, displs


def twelve_collectives_body(mpx):
    """Run all 12 registry collectives once; record payload bytes and
    the virtual clock after each."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, rank = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    base = np.arange(N * p, dtype=np.float32) + rank
    send = ctx.device.zeros(N * p, dtype=np.float32)
    send.array[:] = base
    recv = ctx.device.zeros(N * p, dtype=np.float32)

    comm.Allreduce(send.view(0, N), recv.view(0, N), SUM)
    snap(recv)
    comm.Bcast(recv.view(0, N), root=0)
    snap(recv)
    comm.Reduce(send.view(0, N), recv.view(0, N), SUM, 0)
    snap(recv)
    comm.Allgather(send.view(0, N), recv.view(0, N * p))
    snap(recv)
    comm.Alltoall(send, recv)
    snap(recv)
    comm.Reduce_scatter_block(send, recv.view(0, N), SUM)
    snap(recv)
    comm.Gather(send.view(0, N), recv.view(0, N * p), root=0)
    snap(recv)
    comm.Scatter(send, recv.view(0, N), root=0)
    snap(recv)

    counts, displs = _vec_geometry(p)
    total = sum(counts)
    vsend = ctx.device.zeros(counts[rank], dtype=np.float32)
    vsend.array[:] = rank * 10.0 + np.arange(counts[rank])
    vrecv = ctx.device.zeros(total, dtype=np.float32)
    comm.Allgatherv(vsend, vrecv, counts)
    snap(vrecv)
    comm.Gatherv(vsend, vrecv, counts, root=0)
    snap(vrecv)
    vroot = ctx.device.zeros(total, dtype=np.float32)
    vroot.array[:] = np.arange(total, dtype=np.float32)
    comm.Scatterv(vroot, counts, vrecv.view(0, counts[rank]), root=0)
    snap(vrecv)

    a2a_counts = [((rank + r) % 3) + 1 for r in range(p)]
    asend = ctx.device.zeros(sum(a2a_counts), dtype=np.float32)
    asend.array[:] = rank * 100.0 + np.arange(sum(a2a_counts))
    arecv = ctx.device.zeros(sum(a2a_counts), dtype=np.float32)
    comm.Alltoallv(asend, a2a_counts, arecv, a2a_counts)
    snap(arecv)

    return log


def datapath_body(mpx):
    """Exercise every leased path: the five CCL collectives (including
    in-place spellings), blocking rendezvous sends, deferred-eager
    sendrecv, and the fused group exchange; log payload bytes and the
    virtual clock after each call."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    n = 128
    send = ctx.device.zeros(n, dtype=np.float32)
    send.array[:] = np.arange(n, dtype=np.float32) * 0.5 + r
    recv = ctx.device.zeros(n, dtype=np.float32)

    comm.Allreduce(send, recv, SUM)
    snap(recv)
    comm.Reduce(send, recv, SUM, root=1 % p)
    snap(recv)
    comm.Bcast(recv, root=0)
    snap(recv)

    ag = ctx.device.zeros(n * p, dtype=np.float32)
    comm.Allgather(send, ag, count=n)
    snap(ag)
    ag2 = ctx.device.zeros(n * p, dtype=np.float32)
    ag2.array[r * n:(r + 1) * n] = send.array
    comm.Allgather(IN_PLACE, ag2, count=n)
    snap(ag2)

    rs_s = ctx.device.zeros(n * p, dtype=np.float32)
    rs_s.array[:] = np.arange(n * p, dtype=np.float32) - 3 * r
    rs_r = ctx.device.zeros(n, dtype=np.float32)
    comm.Reduce_scatter_block(rs_s, rs_r, SUM)
    snap(rs_r)

    # deferred-eager + rendezvous sendrecv around the ring
    big_s = ctx.device.zeros(RNDV, dtype=np.float32)
    big_s.array[:] = r + 1
    big_r = ctx.device.zeros(RNDV, dtype=np.float32)
    comm.Sendrecv(send, (r + 1) % p, recv, (r - 1) % p)
    snap(recv)
    comm.Sendrecv(big_s, (r + 1) % p, big_r, (r - 1) % p)
    snap(big_r)

    # blocking rendezvous send/recv pairs (even ranks send first)
    peer = r ^ 1
    if peer < p:
        if r % 2 == 0:
            comm.Send(big_s, peer)
            comm.Recv(big_r, source=peer)
        else:
            comm.Recv(big_r, source=peer)
            comm.Send(big_s, peer)
        snap(big_r)

    # fused group exchange (alltoall routes through grouped send/recv)
    a2a_s = ctx.device.zeros(4 * p, dtype=np.float32)
    a2a_s.array[:] = np.arange(4 * p, dtype=np.float32) + 10 * r
    a2a_r = ctx.device.zeros(4 * p, dtype=np.float32)
    comm.Alltoall(a2a_s, a2a_r, count=4)
    snap(a2a_r)
    return log


SIZES = (37, 1024)  # odd count exercises uneven chunk geometry


def repeated_collectives_body(mpx):
    """Run every tunable collective twice per size; record payload
    bytes and the virtual clock after each call."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p = comm.size
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    for count in SIZES:
        send = ctx.device.zeros(count * p, dtype=np.float32)
        recv = ctx.device.zeros(count * p, dtype=np.float32)
        send.array[:] = np.arange(count * p, dtype=np.float32) + comm.rank
        for _ in range(2):
            comm.Allreduce(send.view(0, count), recv.view(0, count), SUM)
            snap(recv)
            comm.Bcast(recv.view(0, count), root=0)
            snap(recv)
            comm.Reduce(send.view(0, count), recv.view(0, count), SUM, 0)
            snap(recv)
            comm.Allgather(send.view(0, count), recv.view(0, count * p))
            snap(recv)
            comm.Alltoall(send.view(0, count * p), recv.view(0, count * p))
            snap(recv)
            comm.Reduce_scatter_block(send.view(0, count * p),
                                      recv.view(0, count), SUM)
            snap(recv)
            comm.Gather(send.view(0, count), recv.view(0, count * p), root=0)
            snap(recv)
            comm.Scatter(send.view(0, count * p), recv.view(0, count),
                         root=0)
            snap(recv)
    return log


def sendrecv_collectives_body(mpx):
    """Run every send-recv collective of §3.3 (routed through the CCL
    grouped path by pure_xccl) with uneven counts including zeros;
    record payload bytes and the virtual clock after each call."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    # alltoallv, uneven with zero blocks: count(i -> j) = (i + j) % 3
    sc = [(r + j) % 3 for j in range(p)]
    rc = [(i + r) % 3 for i in range(p)]
    sd = [sum(sc[:j]) for j in range(p)]
    rd = [sum(rc[:j]) for j in range(p)]
    send = ctx.device.zeros(max(1, sum(sc)), dtype=np.float32)
    send.array[:] = np.arange(send.array.size, dtype=np.float32) + 100 * r
    recv = ctx.device.zeros(max(1, sum(rc)), dtype=np.float32)
    for _ in range(2):
        comm.Alltoallv(send, sc, recv, rc, sd, rd)
        snap(recv)

    # uniform alltoall (delegates to alltoallv)
    s2 = ctx.device.zeros(3 * p, dtype=np.float32)
    s2.array[:] = np.arange(3 * p, dtype=np.float32) + r
    r2 = ctx.device.zeros(3 * p, dtype=np.float32)
    comm.Alltoall(s2, r2, count=3)
    snap(r2)

    # allgatherv, uneven
    counts = [i % 3 + 1 for i in range(p)]
    displs = [sum(counts[:j]) for j in range(p)]
    s3 = ctx.device.zeros(counts[r], dtype=np.float32)
    s3.array[:] = r + 1
    r3 = ctx.device.zeros(sum(counts), dtype=np.float32)
    comm.Allgatherv(s3, r3, counts, displs)
    snap(r3)

    # rooted: gather / gatherv / scatter / scatterv
    s4 = ctx.device.zeros(2, dtype=np.float32)
    s4.array[:] = r + 1
    r4 = ctx.device.zeros(2 * p, dtype=np.float32)
    comm.Gather(s4, r4, root=0, count=2)
    snap(r4)
    r5 = ctx.device.zeros(sum(counts), dtype=np.float32)
    comm.Gatherv(s3, r5, counts, displs, root=1 % p)
    snap(r5)
    s6 = ctx.device.zeros(2 * p, dtype=np.float32)
    s6.array[:] = np.arange(2 * p, dtype=np.float32)
    r6 = ctx.device.zeros(2, dtype=np.float32)
    comm.Scatter(s6, r6, root=0, count=2)
    snap(r6)
    s7 = ctx.device.zeros(sum(counts), dtype=np.float32)
    s7.array[:] = np.arange(sum(counts), dtype=np.float32) - r
    r7 = ctx.device.zeros(counts[r], dtype=np.float32)
    comm.Scatterv(s7, counts, r7, displs, root=0)
    snap(r7)
    return log


_PROGRAM_OPS = ("allreduce", "allgather", "allgather_in_place",
                "reduce_scatter", "bcast", "alltoall", "sendrecv")


def random_program(seed, length=8):
    """A seeded sequence of ``(op, count, salt)`` collective calls."""
    rng = np.random.default_rng(seed)
    return [(str(rng.choice(_PROGRAM_OPS)),
             int(rng.integers(1, 6)) * 32,
             int(rng.integers(0, 1000)))
            for _ in range(length)]


def program_body(program):
    """An SPMD body running ``program`` and logging payload bytes and
    the virtual clock after each call."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        log = []
        for op, n, salt in program:
            send = ctx.device.zeros(n, dtype=np.float32)
            send.array[:] = (np.arange(n, dtype=np.float32) % 7) \
                + r * 0.25 + salt
            if op == "allreduce":
                out = ctx.device.zeros(n, dtype=np.float32)
                comm.Allreduce(send, out, SUM)
            elif op == "allgather":
                out = ctx.device.zeros(n * p, dtype=np.float32)
                comm.Allgather(send, out, count=n)
            elif op == "allgather_in_place":
                out = ctx.device.zeros(n * p, dtype=np.float32)
                out.array[r * n:(r + 1) * n] = send.array
                comm.Allgather(IN_PLACE, out, count=n)
            elif op == "reduce_scatter":
                big = ctx.device.zeros(n * p, dtype=np.float32)
                big.array[:] = np.arange(n * p, dtype=np.float32) + salt - r
                out = ctx.device.zeros(n, dtype=np.float32)
                comm.Reduce_scatter_block(big, out, SUM)
            elif op == "bcast":
                out = ctx.device.zeros(n, dtype=np.float32)
                if r == salt % p:
                    out.array[:] = send.array
                comm.Bcast(out, root=salt % p)
            elif op == "alltoall":
                big = ctx.device.zeros(n * p, dtype=np.float32)
                big.array[:] = np.arange(n * p, dtype=np.float32) + 10 * r
                out = ctx.device.zeros(n * p, dtype=np.float32)
                comm.Alltoall(big, out, count=n)
            else:  # sendrecv
                out = ctx.device.zeros(n, dtype=np.float32)
                comm.Sendrecv(send, (r + 1) % p, out, (r - 1) % p)
            log.append((out.array.tobytes(), ctx.now))
        return log
    return body


def _cases() -> Dict[str, Tuple[Callable, dict]]:
    """case name -> (body, ``runtime.run`` keyword arguments)."""
    cases = {}
    for sid, (system, backend, rpn) in zip(STACK_IDS, STACKS):
        for mode in MODES:
            cases[f"twelve/{sid}/{mode}"] = (
                twelve_collectives_body,
                dict(system=system, ranks_per_node=rpn, backend=backend,
                     mode=mode))
        cases[f"repeat/{sid}"] = (
            repeated_collectives_body,
            dict(system=system, ranks_per_node=rpn, backend=backend,
                 mode="hybrid"))
        cases[f"sendrecv/{sid}"] = (
            sendrecv_collectives_body,
            dict(system=system, ranks_per_node=rpn, backend=backend,
                 mode="pure_xccl"))
        cases[f"datapath/{sid}"] = (
            datapath_body,
            dict(system=system, ranks_per_node=rpn, backend=backend,
                 mode="pure_xccl"))
    for seed in SEEDS:
        cases[f"random/{seed}"] = (
            program_body(random_program(seed)),
            dict(system="thetagpu", ranks_per_node=4, mode="pure_xccl"))
    return cases


CASES = _cases()


def digest(per_rank_logs: List[List[Tuple[bytes, float]]]) -> Dict[str, object]:
    """Payload and virtual-time digests of per-rank ``(bytes, clock)``
    logs, in rank order."""
    payload, vtime = hashlib.sha256(), hashlib.sha256()
    for log in per_rank_logs:
        for data, clock in log:
            payload.update(data)
            vtime.update(float(clock).hex().encode() + b";")
        payload.update(b"|")
        vtime.update(b"|")
    return {"ranks": len(per_rank_logs),
            "calls": sum(len(log) for log in per_rank_logs),
            "payload": payload.hexdigest(), "vtime": vtime.hexdigest()}


def run_case(name: str, **gates: bool) -> Dict[str, object]:
    """Run one golden case with ``gates`` switched (restored after;
    the others keep their current states) and digest it."""
    body, kw = CASES[name]
    prev = fastpath.configure(**gates)
    try:
        return digest(runtime.run(body, nodes=1, **kw))
    finally:
        fastpath.configure(**prev)


def expected(name: str) -> Dict[str, object]:
    """The committed digests of one case."""
    return json.loads(FIXTURE.read_text())["cases"][name]


def assert_golden(name: str, **gates: bool) -> None:
    """Run ``name`` with ``gates`` switched and assert it matches the
    committed fixture bit for bit."""
    got, want = run_case(name, **gates), expected(name)
    assert got["payload"] == want["payload"], \
        f"{name}: payloads differ under {gates}"
    assert got["vtime"] == want["vtime"], \
        f"{name}: virtual times differ under {gates}"
    assert got == want, f"{name} under {gates}: {got} != {want}"


if __name__ == "__main__":
    print(json.dumps({name: run_case(name) for name in CASES}, indent=1))
