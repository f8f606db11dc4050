"""The benchmark's two closed-loop workloads.

Each workload builds its engine, then runs a rank program that the
worker (``worker.py``) drives: ``prepare`` allocates seeded buffers and
persistent requests and returns the rank's op list; one *round* runs
every op once.  Both run on one 8-GPU node on the hybrid stack
(tuning-table routing between the MPI algorithms and NCCL) on the
thetagpu calibration.

Send buffers hold small seeded integers stored as float32, so every sum
is exact in any reduction order and the references below compare bit
for bit.  References are computed with numpy in the main thread after
the run, outside every timed region.

Why these two (measured shares are in README.md):

* ``omb_1node`` — per-call overhead dominates: dispatch, plan replay,
  point-to-point, mailbox and scheduler parks.  Sizes straddle the
  16 KiB MPI/xCCL crossover, so both routes run.
* ``horovod_resnet50`` — the paper's Fig 7a step: two huge NCCL
  allreduces.  Reduction kernels, copies and memory dominate; dispatch
  is noise, so a dispatch change must predict no change here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.hw.systems import make_system
from repro.mpi.datatypes import FLOAT
from repro.mpi.ops import SUM
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine, RankContext

#: the Fig 7a paper anchor (ResNet-50, bs 32, 8x A100, MPI-xCCL).
FIG7A_PAPER_IMG_S = 4850.0


def block(seed: int, rank: int, tag: int, n: int) -> np.ndarray:
    """Rank ``rank``'s seeded send contents for op ``tag``: integers in
    [-4, 4] as float32."""
    rng = np.random.default_rng((seed, rank, tag))
    return rng.integers(-4, 5, n).astype(np.float32)


def device_buffer(ctx: RankContext, data: np.ndarray):
    buf = ctx.device.empty(data.size, dtype=np.float32)
    buf.array[...] = data
    return buf


@dataclass
class RankState:
    """One rank's ops and the buffers the check reads."""

    rank: int
    ops: List[Tuple[str, Callable[[], None]]]
    #: op label -> output arrays (checked, poisoned before timing)
    outputs: Dict[str, List[np.ndarray]]
    #: ops whose timed executions raised on this rank: (round, op index)
    errors: List[Tuple[int, int]] = field(default_factory=list)
    error_text: List[str] = field(default_factory=list)
    rounds: int = 0
    digest_clock_us: float = 0.0
    vt_us_per_op: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def poison(self) -> None:
        """Overwrite outputs so the post-loop check sees only values the
        timed loop wrote."""
        for arrays in self.outputs.values():
            for a in arrays:
                a[...] = np.nan


class Workload:
    """Shape of one workload; subclasses fill in the rank program."""

    name = ""
    system = "thetagpu"

    def engine(self) -> Engine:
        return Engine(make_system(self.system))

    def stack(self, ctx: RankContext):
        return make_stack(ctx, "hybrid", "nccl")

    def prepare(self, ctx: RankContext, comm, seed: int) -> RankState:
        raise NotImplementedError

    def after_digest_round(self, ctx: RankContext, state: RankState) -> None:
        """Hook run once after the (untimed) digest round."""

    def references(self, seed: int, states: Sequence[RankState]
                   ) -> Dict[str, List[List[np.ndarray]]]:
        """label -> per rank -> expected output arrays."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# omb_1node
# ---------------------------------------------------------------------------

OMB_COLLS = ("allreduce", "bcast", "allgather", "alltoall",
             "reduce_scatter", "alltoallv")
#: 4 B .. 64 KiB, x4 steps: straddles the 16 KiB MPI/xCCL crossover
OMB_SIZES = (4, 16, 64, 256, 1024, 4096, 16384, 65536)


def alltoallv_counts(seed: int, tag: int, n: int, p: int) -> np.ndarray:
    """``M[s][d]``: elements rank s sends rank d.  Every row is a seeded
    permutation of one fixed multiset around ``n`` (0.5n .. 1.5n), so the
    seed moves the per-peer skew but not the volume a rank sends."""
    weights = [max(1, int(round(n * (0.5 + k / max(p - 1, 1)))))
               for k in range(p)]
    rng = np.random.default_rng((seed, 10_000 + tag))
    return np.array([rng.permutation(weights) for _ in range(p)],
                    dtype=np.int64)


def _prefix(counts) -> List[int]:
    out, acc = [], 0
    for c in counts:
        out.append(acc)
        acc += int(c)
    return out


class OmbOneNode(Workload):
    """1 node x 8 ranks: the ``mpix-omb`` collective set as persistent
    ``*_init``/``Start`` requests, plus plain ``Alltoallv``."""

    name = "omb_1node"

    def _ops(self):
        return [(coll, size) for coll in OMB_COLLS for size in OMB_SIZES]

    def prepare(self, ctx: RankContext, comm, seed: int) -> RankState:
        p, me = ctx.size, ctx.rank
        ops: List[Tuple[str, Callable[[], None]]] = []
        outputs: Dict[str, List[np.ndarray]] = {}
        for tag, (coll, size) in enumerate(self._ops()):
            n = max(size // 4, 1)
            label = f"{coll}@{size}"
            if coll == "allreduce":
                send = device_buffer(ctx, block(seed, me, tag, n))
                recv = ctx.device.zeros(n)
                req = comm.Allreduce_init(send, recv, SUM, count=n,
                                          datatype=FLOAT)
            elif coll == "bcast":
                data = block(seed, 0, tag, n) if me == 0 \
                    else np.zeros(n, np.float32)
                recv = device_buffer(ctx, data)
                req = comm.Bcast_init(recv, 0, count=n, datatype=FLOAT)
            elif coll == "allgather":
                send = device_buffer(ctx, block(seed, me, tag, n))
                recv = ctx.device.zeros(n * p)
                req = comm.Allgather_init(send, recv, count=n,
                                          datatype=FLOAT)
            elif coll == "alltoall":
                send = device_buffer(ctx, block(seed, me, tag, n * p))
                recv = ctx.device.zeros(n * p)
                req = comm.Alltoall_init(send, recv, count=n,
                                         datatype=FLOAT)
            elif coll == "reduce_scatter":
                send = device_buffer(ctx, block(seed, me, tag, n * p))
                recv = ctx.device.zeros(n)
                req = comm.Reduce_scatter_block_init(send, recv, SUM,
                                                     count=n,
                                                     datatype=FLOAT)
            else:
                m = alltoallv_counts(seed, tag, n, p)
                sc = [int(c) for c in m[me]]
                rc = [int(c) for c in m[:, me]]
                send = device_buffer(ctx, block(seed, me, tag, sum(sc)))
                recv = ctx.device.zeros(sum(rc))
                ops.append((label, lambda s=send, sc=sc, r=recv, rc=rc:
                            comm.Alltoallv(s, sc, r, rc, datatype=FLOAT)))
                outputs[label] = [recv.array]
                continue
            ops.append((label, lambda req=req: req.Start().wait()))
            # the bcast root's buffer is its input: never poison it
            outputs[label] = [] if coll == "bcast" and me == 0 \
                else [recv.array]
        return RankState(me, ops, outputs)

    def references(self, seed, states):
        p = len(states)
        refs: Dict[str, List[List[np.ndarray]]] = {}
        for tag, (coll, size) in enumerate(self._ops()):
            n = max(size // 4, 1)
            label = f"{coll}@{size}"
            if coll == "alltoallv":
                m = alltoallv_counts(seed, tag, n, p)
                data = [block(seed, s, tag, int(m[s].sum())) for s in range(p)]
                disp = [_prefix(m[s]) for s in range(p)]
                refs[label] = [[np.concatenate(
                    [data[s][disp[s][d]:disp[s][d] + m[s][d]]
                     for s in range(p)])] for d in range(p)]
                continue
            width = n * p if coll in ("alltoall", "reduce_scatter") else n
            data = [block(seed, r, tag, width) for r in range(p)]
            if coll == "allreduce":
                total = np.sum(data, axis=0, dtype=np.float32)
                refs[label] = [[total] for _ in range(p)]
            elif coll == "bcast":
                refs[label] = [[]] + [[data[0]] for _ in range(p - 1)]
            elif coll == "allgather":
                refs[label] = [[np.concatenate(data)] for _ in range(p)]
            elif coll == "alltoall":
                refs[label] = [[np.concatenate(
                    [data[s][d * n:(d + 1) * n] for s in range(p)])]
                    for d in range(p)]
            else:
                total = np.sum(data, axis=0, dtype=np.float32)
                refs[label] = [[total[d * n:(d + 1) * n]] for d in range(p)]
        return refs


# ---------------------------------------------------------------------------
# horovod_resnet50
# ---------------------------------------------------------------------------

#: gradient contents repeat a seeded tile (filling 64 MiB per rank from
#: one RNG draw would dominate set-up)
GRAD_TILE = 4096


class HorovodResNet50(Workload):
    """1 node x 8 ranks: ResNet-50, batch 32 per device, 64 MiB fusion
    buckets on the hybrid stack (Fig 7a).  One op is one training
    step."""

    name = "horovod_resnet50"
    batch = 32

    def prepare(self, ctx: RankContext, comm, seed: int) -> RankState:
        from repro.dl import horovod_preset
        from repro.dl.compute import compute_model_for
        from repro.dl.horovod import DistributedOptimizer
        from repro.dl.models import resnet50

        model = resnet50()
        cfg = horovod_preset("hybrid", "nccl", multi_node=False)
        # one optimizer (fusion buffers) for the whole run, as train()
        # holds one; its send buffer is the only way to seed gradients
        opt = DistributedOptimizer(ctx, comm, model, cfg)
        send, recv = opt._send.array, opt._recv.array
        send[...] = np.resize(block(seed, ctx.rank, 0, GRAD_TILE), send.size)
        compute = compute_model_for(ctx.device)
        step_compute = compute.step_time_us(model, self.batch)
        backward = compute.backward_time_us(model, self.batch)

        def step() -> None:
            # repro.dl.trainer.train's step (test_perfbench pins the
            # equality of the virtual step time): gradient allreduces,
            # then the compute charge less what backward hides
            comm_us = opt.reduce_gradients()
            hidden = min(comm_us * cfg.overlap, backward)
            ctx.clock.advance(max(0.0, step_compute - hidden))

        return RankState(ctx.rank, [("step", step)], {"step": [recv]})

    def after_digest_round(self, ctx, state):
        state.extra["img_per_s_virtual"] = \
            self.batch * ctx.size / (state.vt_us_per_op / 1e6)

    def references(self, seed, states):
        size = states[0].outputs["step"][0].size
        tile = np.sum([block(seed, r, 0, GRAD_TILE)
                       for r in range(len(states))], axis=0, dtype=np.float32)
        total = np.resize(tile, size)
        return {"step": [[total] for _ in states]}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (OmbOneNode(), HorovodResNet50())}


# ---------------------------------------------------------------------------
# checks and digests
# ---------------------------------------------------------------------------

def mismatched_labels(workload: Workload, seed: int,
                      states: Sequence[RankState]) -> List[str]:
    """Op labels whose output differs from the reference on any rank."""
    refs = workload.references(seed, states)
    bad = []
    for label in refs:
        for state, want in zip(states, refs[label]):
            got = state.outputs[label]
            if len(got) != len(want) or not all(
                    np.array_equal(g, w) for g, w in zip(got, want)):
                bad.append(label)
                break
    return bad


def payload_digest(states: Sequence[RankState]) -> str:
    """sha256 over every rank's outputs, rank then label order."""
    h = hashlib.sha256()
    for state in states:
        for label in sorted(state.outputs):
            for a in state.outputs[label]:
                h.update(label.encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def vt_digest(states: Sequence[RankState]) -> str:
    """sha256 over every rank's virtual clock after the digest round."""
    h = hashlib.sha256()
    for state in states:
        h.update(float(state.digest_clock_us).hex().encode())
    return h.hexdigest()
