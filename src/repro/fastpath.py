"""Process-wide gates and counters for the collective pipeline.

Six opt-in gates, all default **off**, each controlled by one
environment variable (falsy values: ``0``/``false``/``off``/``no``/
empty) and flipped at runtime through :func:`configure`:

* ``trace`` (``MPIX_TRACE``): per-rank event tracing for every engine,
  as if built with ``Engine(trace=True)``.  Observation only.
* ``coop_sched`` (``MPIX_COOP_SCHED``): ranks run as run-queue fibers
  (:mod:`repro.sim.sched`) instead of polling OS threads — the mode
  that makes 1k–4k-rank jobs tractable.  Wall-clock only.
* ``hier_pipe`` (``MPIX_HIER_PIPE``): the route stage may decompose
  large multi-node collectives into pipelined per-level plans
  (:mod:`repro.mpi.coll.hier_exec`).  Changes multi-node virtual times,
  never payloads; inert on one node.
* ``hetero`` (``MPIX_HETERO``): mixed-vendor communicators route to the
  cross-vendor bridge (:mod:`repro.mpi.coll.bridge`).  Changes virtual
  times, never payloads; inert on single-vendor communicators.
* ``online_tune`` (``MPIX_ONLINE_TUNE``): measured latencies re-fit a
  per-communicator overlay on the tuning table
  (:mod:`repro.core.online_tune`).  Inert below its warm-up.
* ``elastic`` (``MPIX_ELASTIC``): ULFM-style revoke/agree/shrink; rank
  deaths surface as ``CommRevokedError`` on the survivors.

:data:`STATS` is a name-keyed counter registry shared by every engine
run (each ``Engine()`` zeroes it); :func:`snapshot` returns gate states
plus counters — what ``mpix-omb --stats`` prints.

This module imports nothing from the rest of ``repro``, so every layer
can share it without import cycles.
"""

from __future__ import annotations

import os
import threading
from typing import Dict

_FALSY = {"0", "false", "off", "no", ""}

#: gate -> controlling environment variable.
GATE_ENV: Dict[str, str] = {
    "trace": "MPIX_TRACE",                 # per-rank event tracing
    "coop_sched": "MPIX_COOP_SCHED",       # cooperative rank scheduler
    "hier_pipe": "MPIX_HIER_PIPE",         # pipelined hierarchical route
    "hetero": "MPIX_HETERO",               # mixed-vendor bridge route
    "online_tune": "MPIX_ONLINE_TUNE",     # online tuning-table overlay
    "elastic": "MPIX_ELASTIC",             # ULFM revoke/shrink/agree
}


def _env_gate(var: str) -> bool:
    return os.environ.get(var, "0").strip().lower() not in _FALSY


_gates: Dict[str, bool] = {name: _env_gate(var)
                           for name, var in GATE_ENV.items()}


def gate_enabled(name: str) -> bool:
    """Whether the named gate is on."""
    return _gates[name]


def gates() -> Dict[str, bool]:
    """A copy of the current gate states."""
    return dict(_gates)


def configure(**flags) -> Dict[str, bool]:
    """Set any subset of the gates (``None`` leaves one unchanged).

    Returns the *previous* state of every gate, so a caller can restore
    with ``fastpath.configure(**prev)``.  Unknown names raise
    ``TypeError``.
    """
    unknown = sorted(set(flags) - set(GATE_ENV))
    if unknown:
        raise TypeError(f"configure() got unknown gates {unknown}")
    prev = gates()
    for name, flag in flags.items():
        if flag is not None:
            _gates[name] = bool(flag)
    return prev


def snapshot() -> Dict[str, Dict]:
    """Gate states plus counters (surfaced by ``mpix-omb --stats``)."""
    return {"gates": gates(), "counters": STATS.snapshot()}


#: every counter :data:`STATS` keeps, grouped by the layer that adds it.
COUNTERS = (
    # plan cache and staging pools (repro.core.plan)
    "hits", "misses", "compiled", "pool_reuses",
    # group transport (repro.xccl.backend)
    "fusion_flushes", "fusion_msgs", "fusion_exchanges", "fusion_fallbacks",
    # payload handoff: views elided vs copy-on-write escapes; pooled scratch
    "copies_elided", "copies_forced", "accumulator_reuses",
    # dispatch execute stage (repro.core.dispatch)
    "dispatch_calls", "route_xccl", "route_mpi", "route_fallbacks",
    "ccl_errors", "route_hier", "route_bridge",
    # hierarchical executor: pipelined chunks, inter-node stripe ops
    "hier_chunks", "hier_stripe_ops",
    # mixed-vendor bridge: per-comm negotiations, host-staged hops
    "negotiations", "bridge_hops",
    # cooperative scheduler, aggregated once per engine run
    "coop_runs", "coop_parks", "coop_switches",
    # online tuner: bucket re-fits, re-fits that changed the route
    "online_updates", "route_flips",
    # elastic: communicators revoked / shrunk (once per comm)
    "comm_revokes", "comm_shrinks",
)


class Counters:
    """Name-keyed integer counters, touched by every rank thread of an
    engine run, so each update holds one lock."""

    def __init__(self, names) -> None:
        self.names = tuple(names)
        self._lock = threading.Lock()
        self._values = dict.fromkeys(self.names, 0)

    def add(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (``KeyError`` if undeclared)."""
        with self._lock:
            self._values[name] += n

    def reset(self) -> None:
        """Zero every counter (test and run isolation)."""
        with self._lock:
            self._values = dict.fromkeys(self.names, 0)

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every declared counter."""
        with self._lock:
            return dict(self._values)


#: process-wide counters.
STATS = Counters(COUNTERS)
