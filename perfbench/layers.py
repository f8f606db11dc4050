"""Per-layer wall-clock attribution for the traced benchmark run.

The traced run wraps public functions of each ``repro`` layer, from
outside the package, and charges host wall time to them.  Nothing here
is imported by the untraced run, so its numbers carry no wrapper cost.

Attribution relies on the cooperative rank scheduler
(``MPIX_COOP_SCHED=1``): exactly one rank fiber runs at a time, so the
traced window is a single timeline.  Every event (span enter or exit,
fiber park or resume) closes the interval since the previous event and
charges it to exactly one owner:

* the innermost open span of the running fiber (that layer's self
  time), or ``unattributed`` when the fiber has no span open;
* ``sim.sched.switch`` when no fiber holds the run token (the interval
  between one fiber parking and the next one resuming).

So the self times, the switch time and the unattributed time add up to
the traced wall by construction.  A parked fiber's own wait is charged
as *wait* (never busy time) to its innermost open span's layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> wrapped targets, ``module:attribute`` or
#: ``module:Class.method``.  A module-level function is listed once,
#: where it is defined; :meth:`LayerTracer.install` also patches every
#: ``from x import f`` binding of it in an imported module.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "dl.step": (
        "repro.dl.trainer:train",
        "repro.dl.horovod:DistributedOptimizer.reduce_gradients",
    ),
    "mpi.api": tuple(
        f"repro.mpi.communicator:Communicator.{m}" for m in (
            "Barrier", "Bcast", "Reduce", "Allreduce", "Allgather",
            "Allgatherv", "Alltoall", "Alltoallv", "Gather", "Scatter",
            "Reduce_scatter_block", "Send", "Recv", "Sendrecv",
            "Allreduce_init", "Bcast_init", "Allgather_init",
            "Alltoall_init", "Reduce_scatter_block_init")
    ) + (
        "repro.mpi.communicator:PersistentRequest.Start",
        "repro.mpi.communicator:PersistentRequest.wait",
    ),
    "core.dispatch": (
        "repro.core.dispatch:CollectivePipeline.run",
        "repro.core.dispatch:CollectivePipeline.decide",
        "repro.core.dispatch:CollectivePipeline.execute",
    ),
    "core.sendrecv": tuple(
        f"repro.core.sendrecv_collectives:{f}" for f in (
            "xccl_alltoallv", "xccl_alltoall", "xccl_gather",
            "xccl_gatherv", "xccl_scatter", "xccl_scatterv",
            "xccl_allgatherv")
    ),
    "xccl": tuple(
        f"repro.xccl.backend:CCLBackend.{m}" for m in (
            "all_reduce", "broadcast", "reduce", "all_gather",
            "reduce_scatter", "send", "recv", "group_end")
    ),
    "mpi.coll": tuple(
        f"repro.mpi.coll:MPICollDispatcher.{m}" for m in (
            "barrier", "bcast", "reduce", "allreduce", "allgather",
            "allgatherv", "alltoall", "alltoallv", "gather", "gatherv",
            "scatter", "scatterv", "reduce_scatter_block")
    ),
    "mpi.p2p": tuple(
        f"repro.mpi.p2p:P2PEndpoint.{m}" for m in (
            "isend", "send", "recv", "irecv", "sendrecv", "probe")
    ) + (
        # nonblocking receives complete (match + copy-out) in wait/test
        "repro.mpi.request:Request.wait",
        "repro.mpi.request:Request.test",
    ),
    "sim.mailbox": tuple(
        f"repro.sim.mailbox:Mailbox.{m}" for m in (
            "post", "post_many", "probe", "try_match", "match",
            "match_many")
    ),
    "sim.slot": (
        "repro.sim.engine:CollectiveSlot.exchange",
        "repro.sim.engine:GroupExchangeSlot.exchange_for",
    ),
    "sim.wire": (
        "repro.sim.wire:WireTracker.book",
        "repro.sim.wire:WireTracker.book_many",
    ),
    "hw.kernel": (
        "repro.mpi.ops:Op.reduce_into",
        "repro.mpi.compute:local_copy",
        "repro.hw.memory:Buffer.copy_from",
    ),
}

#: the scheduler hook: park time becomes wait, the handoff becomes
#: ``sim.sched.switch``.  Not a span.
PARK_TARGET = "repro.sim.sched:CoopScheduler.park"


def _nbytes(obj) -> int:
    n = getattr(obj, "nbytes", None)
    return int(n) if n is not None else 0


def _p2p_bytes(args, result) -> int:
    # send-side calls carry the payload buffer first; receive calls
    # are counted by the matching send
    return _nbytes(args[1]) if len(args) > 1 else 0


def _kernel_bytes(args, result) -> int:
    # Op.reduce_into(self, acc, operand); local_copy(ctx, dst, src);
    # Buffer.copy_from(self, other): the written operand
    if len(args) > 1:
        target = args[0] if hasattr(args[0], "copy_from") else args[1]
        return _nbytes(target)
    return 0


def _wire_queue_us(args, result) -> float:
    """Virtual queueing delay ``arrival - depart - alpha - bytes/beta``
    from ``book``'s arguments and return value (summed over
    ``book_many``)."""
    def queued(depart, nbytes, beta, alpha, arrival):
        # clamp the float residue of an unqueued transfer at 0
        return max(0.0, arrival - depart - alpha
                   - (nbytes / beta if beta else 0.0))

    if len(args) == 2 and isinstance(result, list):
        return sum(queued(depart, nbytes, beta, alpha, arrival)
                   for (_res, depart, nbytes, beta, alpha), arrival
                   in zip(args[1], result))
    _self, _res, depart, nbytes, beta, alpha = args[:6]
    return queued(depart, nbytes, beta, alpha, result)


#: layer -> meter over a call's ``(args, result)``: bytes, except
#: ``sim.wire``, whose meter is virtual queueing time.
METERS: Dict[str, Callable] = {
    "mpi.p2p": _p2p_bytes,
    "hw.kernel": _kernel_bytes,
    "sim.wire": _wire_queue_us,
}
_P2P_SEND = {"isend", "send", "sendrecv"}


def resolve(target: str):
    """``(owner, attr, original)`` for one target, or None if it no
    longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        # only wrap where the method is defined, never an inherited one
        # (wrapping both a base and a subclass would double count)
        if attr not in vars(owner):
            return None
        original = vars(owner)[attr]
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def bindings(fn) -> List[Tuple[ModuleType, str]]:
    """Every ``(module, name)`` of an imported module bound to the
    module-level function *fn*."""
    found = []
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is fn:
                found.append((module, attr))
    return found


class LayerTracer:
    """Wraps the :data:`LAYERS` targets and attributes wall time.

    ``install()`` patches every target it can resolve and records the
    rest as missing; ``start()``/``stop()`` (called on rank 0 around
    the timed loop) bound the accounting window.  Spans are tracked
    whether or not the window is open, so stacks stay balanced across
    its edges; only the window's intervals, calls and bytes are
    counted.
    """

    UNATTRIBUTED = "unattributed"

    def __init__(self,
                 layers: Optional[Dict[str, Tuple[str, ...]]] = None) -> None:
        self.layers = dict(LAYERS if layers is None else layers)
        names = list(self.layers) + [self.UNATTRIBUTED]
        self._index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.self_ns = [0] * n
        self.wait_ns = [0] * n
        self.calls = [0] * n
        self.meter = [0.0] * n
        self.switch_ns = 0
        self.switches = 0
        self.parks = 0
        self.park_ns = 0
        #: span events seen while another fiber held the timeline —
        #: must stay 0 for the attribution to be exact
        self.overlaps = 0
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._stacks: Dict[int, List[int]] = {}
        self._running: Optional[List[int]] = None
        self._t_last = 0
        self._t_start = 0
        self.wall_ns = 0
        self.active = False

    # -- patching ---------------------------------------------------------

    def install(self) -> "LayerTracer":
        for layer, targets in self.layers.items():
            idx = self._index[layer]
            meter = METERS.get(layer)
            for target in targets:
                found = resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, original = found
                count_bytes = meter
                if layer == "mpi.p2p" and attr not in _P2P_SEND:
                    count_bytes = None
                wrapper = self._span_wrapper(idx, original, count_bytes)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                else:
                    # the defining module and each module that imported
                    # the function by name
                    for module, name in bindings(original):
                        self._patch(module, name, original, wrapper)
        found = resolve(PARK_TARGET)
        if found is None:
            self.missing.append(PARK_TARGET)
        else:
            owner, attr, original = found
            self._patch(owner, attr, original, self._park_wrapper(original))
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def missing_layers(self) -> List[str]:
        """Layers none of whose targets resolved."""
        gone = set(self.missing)
        return [layer for layer, targets in self.layers.items()
                if targets and all(t in gone for t in targets)]

    # -- the timeline -----------------------------------------------------

    def _stack(self) -> List[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def _charge(self, now: int, stack: List[int]) -> None:
        """Close the interval since the last event (window open)."""
        dt = now - self._t_last
        self._t_last = now
        running = self._running
        if running is stack:
            self.self_ns[stack[-1] if stack else -1] += dt
        elif running is None:
            # nobody held the run token: fiber handoff
            self.switch_ns += dt
            self.switches += 1
            self._running = stack
        else:
            # another thread's span was open on the timeline; keep the
            # interval (closure holds) but flag the attribution as inexact
            self.overlaps += 1
            self.self_ns[running[-1] if running else -1] += dt
            self._running = stack

    def _span_wrapper(self, idx: int, fn, count_bytes):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            if tracer.active:
                tracer._charge(clock(), stack)
                if idx not in stack:
                    tracer.calls[idx] += 1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracer.active:
                    tracer._charge(clock(), stack)
                stack.pop()
            if count_bytes is not None and tracer.active:
                tracer.meter[idx] += count_bytes(args, result)
            return result

        return span

    def _park_wrapper(self, original):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def park(sched, fiber):
            if fiber.wake_pending:
                # a pending wake keeps the run token: no deschedule
                return original(sched, fiber)
            stack = tracer._stack()
            t0 = clock()
            if tracer.active:
                tracer._charge(t0, stack)
            tracer._running = None
            try:
                return original(sched, fiber)
            finally:
                if tracer.active:
                    now = clock()
                    tracer._charge(now, stack)
                    # a park that began before the window counts from it
                    waited = now - max(t0, tracer._t_start)
                    tracer.parks += 1
                    tracer.park_ns += waited
                    tracer.wait_ns[stack[-1] if stack else -1] += waited

        return park

    def start(self) -> None:
        """Open the window on the calling (running) fiber."""
        now = time.perf_counter_ns()
        self._running = self._stack()
        self._t_start = self._t_last = now
        self.active = True

    def leave(self) -> None:
        """The calling fiber's rank program is done with the timeline:
        its carrier ends and hands the run token on without a park."""
        if self.active:
            self._charge(time.perf_counter_ns(), self._stack())
            self._running = None

    def stop(self) -> None:
        """Close the window on the calling fiber."""
        now = time.perf_counter_ns()
        self._charge(now, self._stack())
        self.active = False
        self.wall_ns = now - self._t_start

    # -- report -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, self/wait ms and the layer's meter."""
        out = {}
        for name, i in self._index.items():
            out[name] = {"calls": self.calls[i],
                         "self_ms": self.self_ns[i] / 1e6,
                         "wait_ms": self.wait_ns[i] / 1e6,
                         "meter": self.meter[i]}
        return out
