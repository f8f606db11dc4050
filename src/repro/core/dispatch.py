"""The staged collective-dispatch pipeline: one descriptor, one seam.

Every MPI collective — the five with direct CCL mappings (§3.2), the
seven send-recv-composed ones (§3.3), and their MPI-algorithm fallbacks
— flows through the same five stages:

    CollectiveCall
        │ validate          (registry lookup: is this one of the 12?)
        │ capability-check  (§3.2: residency, datatype, reduce op —
        │                    the ONE place eligibility is decided)
        │ route             (mode pin or §3.4 tuning-table crossover)
        │ plan lookup       (compiled RouteDecision replayed per
        │                    communicator)
        ▼ execute           (the :data:`ROUTES` table: hierarchy,
                             bridge, xCCL or MPI executor, each with
                             its degrade target)

:class:`CollectiveCall` is the logical descriptor (HiCCL-style): name,
buffers, counts/displacements, datatype, op, root, communicator.  It
lives in the MPI layer, next to the
:class:`~repro.mpi.communicator.Communicator` that builds it once per
call, and is re-exported here.  :data:`REGISTRY` maps each collective
name to a :class:`CollectiveSpec` that derives the routing inputs (byte
count, significant buffers, tuning key) and holds the xCCL executor.
The MPI route runs the :class:`~repro.mpi.coll.MPICollDispatcher`
method named after the collective.  Adding a cross-cutting concern
(tracing, fault policy, new routing modes) is one pipeline stage —
nothing per-collective needs touching (MPI-Advance-style single seam).

:class:`CollectivePipeline` owns the per-communicator plan caches and
tuning-table bindings.  :class:`repro.core.hybrid.HybridDispatcher`
feeds it every routed call; direct callers of the xCCL route use
:func:`execute_ccl`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro import fastpath
from repro.errors import CCLError, MPIError, TuningTableError
from repro.core.fallback import FallbackReason, Route, RouteDecision, RouteStats
from repro.core.plan import CollectivePlan, PlanCache
from repro.core.tuning_table import TUNABLE_COLLECTIVES, TuningTable, cached_table
from repro.core import sendrecv_collectives as srcoll
from repro.mpi.coll import MPICollDispatcher, bridge, hier_exec
from repro.mpi.communicator import IN_PLACE, CollectiveCall
from repro.xccl import api as xapi


class DispatchMode(enum.Enum):
    """Routing policy."""

    HYBRID = "hybrid"        # tuning table decides (the paper's design)
    PURE_XCCL = "pure_xccl"  # always CCL when capable ("Proposed xCCL w/ Pure ...")
    PURE_MPI = "pure_mpi"    # never CCL (the traditional-MPI baseline)


@dataclass(frozen=True)
class CollectiveSpec:
    """Registry entry: everything the pipeline needs for one collective.

    Attributes:
        name: canonical collective name (the :class:`CollectiveCall`
            ``coll`` field).
        tuning_key: the §3.4 tuning-table row this collective prices
            against (vector forms share their uniform sibling's row).
        nbytes: routing byte count derived from the call.
        buffers: the residency-significant buffers for this rank.
        ccl: the xCCL-route executor ``(layer, call) -> None`` —
            direct CCL mapping or fused send-recv group.

    The MPI route needs no field: it runs the
    :class:`~repro.mpi.coll.MPICollDispatcher` method named ``name``.
    """

    name: str
    tuning_key: str
    nbytes: Callable[[CollectiveCall], int]
    buffers: Callable[[CollectiveCall], Tuple]
    ccl: Callable[[Any, CollectiveCall], None]


REGISTRY: Dict[str, CollectiveSpec] = {}


def register(spec: CollectiveSpec) -> CollectiveSpec:
    """Add one collective to the dispatch registry."""
    REGISTRY[spec.name] = spec
    return spec


def collective_spec(name: str) -> CollectiveSpec:
    """The registry entry for ``name`` (raises MPIError when unknown)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise MPIError(f"no collective named {name!r} in the dispatch "
                       f"registry") from None


# ---------------------------------------------------------------------------
# execute-stage helpers
# ---------------------------------------------------------------------------

def charged(fn):
    """Charge the abstraction layer's per-call overhead (Fig. 2 checks:
    buffer identify, datatype conversion, op mapping) around one mapped
    CCL call — the single wrapper every §3.2 direct mapping runs under.
    """
    @functools.wraps(fn)
    def wrapper(layer, call: CollectiveCall) -> None:
        ctx = layer.ctx
        ctx.clock.advance(layer.CALL_OVERHEAD_US)
        t0 = ctx.now
        fn(layer, call)
        ctx.clock.advance((ctx.now - t0) * layer.CALL_OVERHEAD_FRACTION)
    return wrapper


def execute_ccl(layer, call: CollectiveCall) -> None:
    """Run ``call`` on ``layer``'s xCCL route, with no routing (the
    execute stage's xCCL executor; also the way to drive an
    :class:`~repro.core.abstraction.XCCLAbstractionLayer` directly)."""
    collective_spec(call.coll).ccl(layer, call)


def _src(call: CollectiveCall):
    """The CCL source operand (None for MPI_IN_PLACE spellings)."""
    s = call.sendbuf
    return None if s is None or s is IN_PLACE else s


def _both(c: CollectiveCall) -> Tuple:
    return (c.sendbuf, c.recvbuf)


def _root_recv(c: CollectiveCall) -> Tuple:
    """Rooted gather-side residency: recvbuf only significant at root."""
    return (c.sendbuf, c.recvbuf) if c.comm.rank == c.root else (c.sendbuf,)


def _root_send(c: CollectiveCall) -> Tuple:
    """Rooted scatter-side residency: sendbuf only significant at root."""
    return (c.sendbuf, c.recvbuf) if c.comm.rank == c.root else (c.recvbuf,)


def _uniform_nbytes(c: CollectiveCall) -> int:
    return c.count * c.dt.itemsize


def _send_vec_nbytes(c: CollectiveCall) -> int:
    return max(c.sendcounts) * c.dt.itemsize if c.sendcounts else 0


def _recv_vec_nbytes(c: CollectiveCall) -> int:
    return max(c.recvcounts) * c.dt.itemsize if c.recvcounts else 0


# ---------------------------------------------------------------------------
# the 12 registry entries
# ---------------------------------------------------------------------------
# §3.2 direct 1:1 mappings (charged with the layer's call overhead):

@charged
def _ccl_bcast(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclBroadcast(c.recvbuf, c.count, c.dt, c.root, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_reduce(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclReduce(_src(c), c.recvbuf, c.count, c.dt, c.op, c.root, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_allreduce(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclAllReduce(_src(c), c.recvbuf, c.count, c.dt, c.op, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_allgather(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclAllGather(_src(c), c.recvbuf, c.count, c.dt, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_reduce_scatter_block(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclReduceScatter(_src(c), c.recvbuf, c.count, c.dt, c.op, comm)
    xapi.xcclStreamSynchronize(comm)


# §3.3 send-recv compositions (grouped p2p; transport prices the calls):

def _ccl_alltoall(layer, c):
    srcoll.xccl_alltoall(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                         c.count, c.dt)


def _ccl_alltoallv(layer, c):
    srcoll.xccl_alltoallv(layer.ccl_comm(c.comm), c.sendbuf, c.sendcounts,
                          c.sdispls, c.recvbuf, c.recvcounts, c.rdispls, c.dt)


def _ccl_gather(layer, c):
    srcoll.xccl_gather(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                       c.count, c.dt, c.root)


def _ccl_gatherv(layer, c):
    srcoll.xccl_gatherv(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                        c.recvcounts, c.rdispls, c.dt, c.root)


def _ccl_scatter(layer, c):
    srcoll.xccl_scatter(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                        c.count, c.dt, c.root)


def _ccl_scatterv(layer, c):
    srcoll.xccl_scatterv(layer.ccl_comm(c.comm), c.sendbuf, c.sendcounts,
                         c.sdispls, c.recvbuf, c.dt, c.root)


def _ccl_allgatherv(layer, c):
    srcoll.xccl_allgatherv(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                           c.recvcounts, c.rdispls, c.dt)


register(CollectiveSpec("bcast", "bcast", _uniform_nbytes,
                        lambda c: (c.recvbuf,), _ccl_bcast))
register(CollectiveSpec("reduce", "reduce", _uniform_nbytes, _root_recv,
                        _ccl_reduce))
register(CollectiveSpec("allreduce", "allreduce", _uniform_nbytes, _both,
                        _ccl_allreduce))
register(CollectiveSpec("allgather", "allgather", _uniform_nbytes, _both,
                        _ccl_allgather))
register(CollectiveSpec("allgatherv", "allgather", _recv_vec_nbytes, _both,
                        _ccl_allgatherv))
register(CollectiveSpec("alltoall", "alltoall", _uniform_nbytes, _both,
                        _ccl_alltoall))
register(CollectiveSpec("alltoallv", "alltoall", _send_vec_nbytes, _both,
                        _ccl_alltoallv))
register(CollectiveSpec("gather", "gather", _uniform_nbytes, _root_recv,
                        _ccl_gather))
register(CollectiveSpec("gatherv", "gather", _recv_vec_nbytes, _root_recv,
                        _ccl_gatherv))
register(CollectiveSpec("scatter", "scatter", _uniform_nbytes, _root_send,
                        _ccl_scatter))
register(CollectiveSpec("scatterv", "scatter", _send_vec_nbytes, _root_send,
                        _ccl_scatterv))
register(CollectiveSpec("reduce_scatter_block", "reduce_scatter",
                        _uniform_nbytes, _both, _ccl_reduce_scatter_block))


# ---------------------------------------------------------------------------
# the execute stage's route table
# ---------------------------------------------------------------------------

def _run_xccl(pipeline, call: CollectiveCall) -> None:
    execute_ccl(pipeline.layer, call)


def _run_mpi(pipeline, call: CollectiveCall) -> None:
    # looked up by name on every call, never bound at import, so a
    # patched MPICollDispatcher method is the one that runs
    getattr(pipeline.mpi, call.coll)(call)


class RouteRow(NamedTuple):
    """One route of the execute stage: ``executor`` maps a collective
    name to its ``(pipeline, call)`` body, or to None when the route
    has none and the call takes ``degrade_to``; ``label`` is the span
    label after ``execute:<coll>:`` (``{backend}`` and ``{reason}``
    filled in)."""

    executor: Callable[[str], Optional[Callable[[Any, CollectiveCall], None]]]
    degrade_to: Optional[RouteDecision]
    label: str


#: Route -> executor lookup, degrade target and span label.  Any
#: non-MPI executor that raises :class:`CCLError` hands the call to the
#: MPI route with reason ``ccl_error`` (§1.2 advantage 3).
ROUTES: Dict[Route, RouteRow] = {
    # a vector sibling replaying its uniform tuning key's cached HIER
    # plan degrades to the flat CCL route ...
    Route.HIER: RouteRow(lambda coll: hier_exec.EXECUTORS.get(coll),
                         RouteDecision(Route.XCCL), "hier"),
    # ... and a cached BRIDGE plan to the MPI route (never XCCL: no
    # single CCL spans the vendor islands)
    Route.BRIDGE: RouteRow(lambda coll: bridge.EXECUTORS.get(coll),
                           RouteDecision(Route.MPI,
                                         FallbackReason.MIXED_VENDOR),
                           "bridge"),
    Route.XCCL: RouteRow(lambda coll: _run_xccl, None, "xccl:{backend}"),
    Route.MPI: RouteRow(lambda coll: _run_mpi, None, "mpi:{reason}"),
}

_CCL_ERROR = RouteDecision(Route.MPI, FallbackReason.CCL_ERROR)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

class CollectivePipeline:
    """validate → capability-check → route → plan lookup → execute.

    One per hybrid dispatcher (per rank).  Owns the routing state the
    stages consult: the dispatch mode, the per-communicator tuning-table
    bindings and compiled-plan caches, and the route counters.

    ``mpi`` is the :class:`MPICollDispatcher` that runs the
    MPI-algorithm fallback route (the hybrid dispatcher itself — it
    inherits the algorithm suite).
    """

    def __init__(self, layer, mode: DispatchMode = DispatchMode.HYBRID,
                 table: Optional[TuningTable] = None,
                 mpi: Optional[MPICollDispatcher] = None) -> None:
        self.layer = layer
        self.mode = mode
        self._table = table
        self.mpi = mpi if mpi is not None else MPICollDispatcher()
        self.stats = RouteStats()
        #: per-communicator (ctx_id-keyed) compiled plans — the
        #: pipeline is per-rank, so these are thread-confined.
        self._plans: Dict[str, PlanCache] = {}
        self._tables: Dict[str, TuningTable] = {}
        #: online-tuner bookkeeping (MPIX_ONLINE_TUNE): this rank's own
        #: per-(comm, collective, size-bucket) call counters — identical
        #: across ranks by SPMD, which is what keeps tuned routes from
        #: diverging — and the key of the call currently in flight.
        self._tune_calls: Dict[Tuple[str, str, int], int] = {}
        self._observe_key: Optional[Tuple[str, str, int]] = None

    # -- stage tracing -------------------------------------------------------

    def _mark(self, label: str) -> None:
        """Record one zero-duration pipeline-stage marker on the rank's
        trace.  Markers never advance the clock, so tracing on/off
        leaves payloads and virtual times bit-identical."""
        trace = self.layer.ctx.trace
        if trace.enabled:
            now = self.layer.ctx.now
            trace.record("stage", now, now, label=label)

    # -- stage 1: validate --------------------------------------------------

    @staticmethod
    def validate(call: CollectiveCall) -> CollectiveSpec:
        """Resolve the registry entry for one descriptor."""
        return collective_spec(call.coll)

    # -- stage 2: capability check (the single §3.2 choke point) ------------

    def capability(self, coll: str, dt, op, significant,
                   on_device: bool) -> Optional[RouteDecision]:
        """The ONE place CCL eligibility is decided (§3.2 / Fig. 2):
        backend availability, collective mapping, buffer residency,
        datatype table (HCCL float-only, no complex anywhere), reduce-op
        table (the four NCCL ops).  Returns the MPI fallback decision,
        or None when the call is CCL-capable."""
        reason = None
        if not self.layer.available:
            reason = FallbackReason.NO_BACKEND
        elif coll not in TUNABLE_COLLECTIVES:
            reason = FallbackReason.UNSUPPORTED_COLL
        elif significant and not on_device:
            reason = FallbackReason.HOST_BUFFER
        elif dt is not None and not self.layer.supports_datatype(dt):
            reason = FallbackReason.DATATYPE
        elif op is not None and not self.layer.supports_op(op):
            reason = FallbackReason.REDUCE_OP
        return self._verdict(reason)

    def _verdict(self, reason: Optional[FallbackReason]
                 ) -> Optional[RouteDecision]:
        """Mark the capability stage (``capability:ok`` or
        ``capability:<reason>``); the MPI fallback for ``reason``, or
        None when the call is capable."""
        if reason is None:
            self._mark("capability:ok")
            return None
        self._mark(f"capability:{reason.value}")
        return RouteDecision(Route.MPI, reason)

    # -- stage 3: route (mode pin or tuning-table crossover) ----------------

    def _table_for(self, comm) -> TuningTable:
        if self._table is not None:
            return self._table
        table = self._tables.get(comm.ctx_id)
        if table is not None:
            return table
        from repro.perfmodel.shape import shape_of
        shape = shape_of(comm.ctx.cluster, comm.group,
                         comm.ctx.engine.ranks_per_node)
        assert self.layer.backend is not None
        table = self._tables[comm.ctx_id] = cached_table(
            shape, self.layer.backend.params, comm.config)
        return table

    def route(self, comm, coll: str, nbytes: int, dt, op, significant,
              on_device: bool) -> RouteDecision:
        """One uncached walk of the Fig. 2 decision chain."""
        decision = self._route(comm, coll, nbytes, dt, op, significant,
                               on_device)
        self._mark(f"route:mpi:{decision.reason.value}"
                   if decision.route == Route.MPI
                   else f"route:{decision.route.value}")
        return decision

    def _route(self, comm, coll: str, nbytes: int, dt, op, significant,
               on_device: bool) -> RouteDecision:
        if self.mode == DispatchMode.PURE_MPI:
            self._mark("capability:skipped")
            return RouteDecision(Route.MPI, FallbackReason.MODE)
        if bridge.is_hetero(comm):
            # mixed-vendor comm: the local backend's capability answers
            # (and the per-rank tuning table) would diverge across the
            # islands — route from the negotiated intersection instead,
            # before any per-backend stage can run
            return self._route_hetero(comm, coll, dt, op, significant,
                                      on_device)
        fallback = self.capability(coll, dt, op, significant, on_device)
        if fallback is not None:
            return fallback
        hier_ok = (self.mode == DispatchMode.HYBRID
                   and fastpath.gate_enabled("hier_pipe")
                   and coll in hier_exec.HIER_TUNING_KEYS
                   and nbytes >= hier_exec.hier_min_bytes(coll)
                   and (op is None or op.commutative)
                   and hier_exec.hier_eligible(comm))
        tuned = self._tuning_active(coll)
        if hier_ok and not tuned:
            return RouteDecision(Route.HIER)
        if self.mode == DispatchMode.PURE_XCCL:
            return RouteDecision(Route.XCCL)
        try:
            static = self._table_for(comm).choose(coll, nbytes)
        except TuningTableError:
            # a collective absent from the table degrades to the MPI
            # algorithms like a capability miss, instead of erroring
            self._mark(f"tuning:missing:{coll}")
            return RouteDecision(Route.MPI, FallbackReason.TUNING_MISS)
        if tuned:
            return self._route_online(comm, coll, nbytes,
                                      "hier" if hier_ok else static, hier_ok)
        if static == "xccl":
            return RouteDecision(Route.XCCL)
        return RouteDecision(Route.MPI, FallbackReason.TUNING)

    def _tuning_active(self, coll: str) -> bool:
        """Whether the online tuner steers this collective's route."""
        return (self.mode == DispatchMode.HYBRID
                and fastpath.gate_enabled("online_tune")
                and coll in TUNABLE_COLLECTIVES)

    def _route_online(self, comm, coll: str, nbytes: int, static: str,
                      hier_ok: bool) -> RouteDecision:
        """Consult the engine's measured-latency overlay before the
        static table (MPIX_ONLINE_TUNE).  ``static`` is the route the
        offline chain would have taken — followed verbatim through the
        observe warm-up, so short runs never deviate."""
        from repro.core import online_tune
        tuner = comm.ctx.engine.online_tuner
        bucket = online_tune.size_bucket(nbytes)
        key = (comm.ctx_id, coll, bucket)
        idx = self._tune_calls.get(key, 0)
        self._tune_calls[key] = idx + 1
        candidates = ["mpi", "xccl"] + (["hier"] if hier_ok else [])
        route, phase = tuner.advise(comm.ctx_id, coll, bucket, idx, static,
                                    candidates)
        self._mark(f"tune:{phase}:{route}")
        self._observe_key = key
        if route == "xccl":
            return RouteDecision(Route.XCCL)
        if route == "hier":
            return RouteDecision(Route.HIER)
        return RouteDecision(Route.MPI, FallbackReason.TUNING)

    def _route_hetero(self, comm, coll: str, dt, op, significant,
                      on_device: bool) -> RouteDecision:
        """Routing for communicators spanning several vendors.

        With the ``MPIX_HETERO`` gate off, every call takes the MPI
        algorithms (the only route with no per-backend state).  With it
        on, the per-call §3.2 chain collapses to set membership on the
        communicator's negotiated intersection descriptor — computed
        once (:func:`repro.mpi.coll.bridge.negotiated_descriptor`) from
        the same purely local facts on every rank, so the route can
        never diverge across islands.
        """
        if not fastpath.gate_enabled("hetero"):
            self._mark("capability:skipped")
            return RouteDecision(Route.MPI, FallbackReason.MIXED_VENDOR)
        desc = bridge.negotiated_descriptor(comm)
        reason = None
        if coll not in TUNABLE_COLLECTIVES:
            reason = FallbackReason.UNSUPPORTED_COLL
        elif significant and not on_device:
            reason = FallbackReason.HOST_BUFFER
        elif dt is not None and not desc.allows_datatype(dt):
            reason = FallbackReason.DATATYPE
        elif op is not None and not desc.allows_op(op):
            reason = FallbackReason.REDUCE_OP
        elif comm.size > desc.max_ranks:
            reason = FallbackReason.MIXED_VENDOR
        fallback = self._verdict(reason)
        if fallback is not None:
            return fallback
        if coll in bridge.BRIDGE_TUNING_KEYS \
                and (op is None or op.commutative):
            return RouteDecision(Route.BRIDGE)
        return RouteDecision(Route.MPI, FallbackReason.MIXED_VENDOR)

    # -- stage 4: plan lookup -----------------------------------------------

    def decide(self, comm, coll: str, nbytes: int, dt=None, op=None,
               *buffers) -> RouteDecision:
        """The routing decision for one call (exposed for tests and
        persistent-collective plan warming).

        The decision is a pure function of (mode, collective, byte
        count, datatype, reduce op, buffer residency), so it is
        compiled into a :class:`CollectivePlan` once and replayed from
        the communicator's plan cache.
        """
        significant = [b for b in buffers if b is not None and b is not IN_PLACE]
        on_device = not significant or \
            self.layer.identify_device_buffer(*significant)
        if self._tuning_active(coll):
            # the online tuner's phase is a function of the per-bucket
            # call index — a cached decision would freeze the warm-up
            # route, so tuned collectives always walk the route stage
            self._mark("plan:tune")
            return self.route(comm, coll, nbytes, dt, op, significant,
                              on_device)
        key = (self.mode, coll, nbytes, dt.name if dt is not None else None,
               op.name if op is not None else None, on_device)
        cache = self._plans.get(comm.ctx_id)
        if cache is None:
            cache = self._plans[comm.ctx_id] = PlanCache()
        plan = cache.lookup(key)
        if plan is None:
            self._mark("plan:miss")
            decision = self.route(comm, coll, nbytes, dt, op, significant,
                                  on_device)
            plan = cache.store(key, CollectivePlan(key=key, decision=decision))
        else:
            self._mark("plan:hit")
        return plan.decision

    # -- stage 5: execute ---------------------------------------------------

    def execute(self, call: CollectiveCall, spec: CollectiveSpec,
                decision: RouteDecision) -> RouteDecision:
        """Run the call on its decided route, walking :data:`ROUTES`: a
        route with no executor for the collective takes its degrade
        target, and a CCL runtime error on any non-MPI route falls back
        to the MPI algorithms.  Returns the decision the call actually
        executed under."""
        t0 = self.layer.ctx.now
        while True:
            row = ROUTES[decision.route]
            run = row.executor(call.coll)
            if run is None:
                decision = row.degrade_to
                continue
            try:
                run(self, call)
                break
            except CCLError:
                if decision.route == Route.MPI:
                    raise
                decision = _CCL_ERROR
        self._record(decision, spec)
        self._span(call, spec, decision, t0)
        return decision

    def _span(self, call: CollectiveCall, spec: CollectiveSpec,
              decision: RouteDecision, t0: float) -> None:
        """Record the execute-stage span (the whole collective) with the
        route the call actually took — ``execute:<coll>:xccl:<backend>``,
        ``execute:<coll>:hier``, ``execute:<coll>:bridge`` or
        ``execute:<coll>:mpi:<reason>``."""
        ctx = self.layer.ctx
        if not ctx.trace.enabled:
            return
        label = ROUTES[decision.route].label.format(
            backend=self.layer.backend_name, reason=decision.reason.value)
        ctx.trace.record("dispatch", t0, ctx.now, nbytes=spec.nbytes(call),
                         label=f"execute:{call.coll}:{label}")

    def _record(self, decision: RouteDecision, spec: CollectiveSpec) -> None:
        self.stats.record(decision, spec.tuning_key)
        add = fastpath.STATS.add
        add("dispatch_calls")
        add(f"route_{decision.route.value}")
        if decision.route == Route.MPI:
            if decision.is_fallback:
                add("route_fallbacks")
            if decision.reason == FallbackReason.CCL_ERROR:
                add("ccl_errors")

    # -- the whole pipe -----------------------------------------------------

    def warm(self, call: CollectiveCall) -> None:
        """Compile ``call``'s routing plan without running it (a
        persistent collective's init), so every ``Start`` replays a
        plan-cache hit."""
        spec = collective_spec(call.coll)
        self.decide(call.comm, spec.tuning_key, spec.nbytes(call), call.dt,
                    call.op, *spec.buffers(call))

    def run(self, call: CollectiveCall) -> None:
        """Push one descriptor through all five stages."""
        spec = self.validate(call)
        self._mark(f"validate:{call.coll}")
        self._observe_key = None
        t0 = self.layer.ctx.now
        decision = self.decide(call.comm, spec.tuning_key, spec.nbytes(call),
                               call.dt, call.op, *spec.buffers(call))
        final = self.execute(call, spec, decision)
        if self._observe_key is not None:
            # feed the measured latency (and the route that actually
            # ran, which differs on a rescued CCL error) back into the
            # online tuner's overlay
            ctx_id, coll, bucket = self._observe_key
            self._observe_key = None
            call.comm.ctx.engine.online_tuner.observe(
                ctx_id, coll, bucket, final.route.value,
                self.layer.ctx.now - t0)

    # -- lifecycle ----------------------------------------------------------

    def release(self, comm) -> None:
        """Drop everything cached for ``comm`` (MPI ``Comm_free``):
        compiled plans, the tuning table binding, the online-tuning
        overlay, and the abstraction layer's CCL communicator."""
        self._plans.pop(comm.ctx_id, None)
        self._tables.pop(comm.ctx_id, None)
        for key in [k for k in self._tune_calls if k[0] == comm.ctx_id]:
            del self._tune_calls[key]
        tuner = getattr(comm.ctx.engine, "online_tuner", None)
        if tuner is not None:
            tuner.release(comm.ctx_id)
        self.layer.invalidate(comm)
