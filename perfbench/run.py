"""The repository benchmark: one workload, one run, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload omb_1node --seed 1 --seconds 40 --trace 0

Every measurement runs in a fresh worker process (``worker.py``)
pinned to one CPU, on the cooperative rank scheduler.  ``--trace 0``
prints the end-to-end metrics: set-up is measured in
:data:`SETUP_RUNS` set-up-only processes plus the measured one and
reported as their median.  ``--trace 1`` runs the workload untraced,
then traced with the layer wrappers of ``layers.py``, and prints the
per-layer metrics.  The line before the result is a detail record:
host fingerprint, digests, virtual time, tail percentile and sample
count.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import cpu_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("omb_1node", "horovod_resnet50")
#: set-up-only worker processes per run, besides the measured one
SETUP_RUNS = 4
#: the workers of one run must all end within this many seconds of its
#: start; one still running then has hung and is killed
RUN_BUDGET_S = 170
DEADLINE = time.monotonic() + RUN_BUDGET_S


def worker(workload, seed, seconds, mode, cpu):
    """Run one worker process to completion; its JSON record."""
    # gates at their defaults; the worker selects the coop scheduler
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPIX_")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--cpu", str(cpu)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} {workload} failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, run):
    attempted = run["attempted"]
    return {
        "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": run["op_tail_ms"], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "ok_ops_frac": {"value": (attempted - run["failed"]) / attempted,
                        "unit": "fraction"},
        "cpu_busy_frac": {"value": run["cpu_busy_frac"], "unit": "fraction"},
    }


def per_layer(traced, untraced):
    """Per-layer metrics of one traced run.  Host times are shares of
    the traced wall (the ms totals are in the detail record): a layer a
    workload never crosses reads 0 on every run, which is a share, not
    a time.  Wait shares sum over fibers and can pass 100%.  Counts,
    bytes and queueing are per op the traced window completed, so they
    do not grow with throughput."""
    tr = traced["trace"]
    layers = tr["layers"]
    c = traced["counters"]
    wall_ms = tr["wall_ms"]
    ops = traced["attempted"]

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(ms):
        return (ratio(ms, wall_ms) * 100.0, "%")

    def per_op(total, unit="1/op"):
        return (total / ops, unit)

    def calls(layer):
        return per_op(layers[layer]["calls"])

    metrics = {
        "core.dispatch.calls_per_op": calls("core.dispatch"),
        "core.dispatch.self_pct": pct(layers["core.dispatch"]["self_ms"]),
        "core.plan.hit_ratio": (ratio(c["hits"], c["hits"] + c["misses"]),
                                "ratio"),
        "core.route.mpi_per_op": per_op(c["route_mpi"]),
        "core.route.xccl_per_op": per_op(c["route_xccl"]),
        "core.route.fallbacks_per_op": per_op(c["route_fallbacks"]),
        "core.sendrecv.self_pct": pct(layers["core.sendrecv"]["self_ms"]),
        "xccl.calls_per_op": calls("xccl"),
        "xccl.self_pct": pct(layers["xccl"]["self_ms"]),
        "xccl.fusion.msgs_per_exchange": (
            ratio(c["fusion_msgs"], c["fusion_exchanges"]), "count"),
        "mpi.api.calls_per_op": calls("mpi.api"),
        "mpi.api.self_pct": pct(layers["mpi.api"]["self_ms"]),
        "mpi.coll.self_pct": pct(layers["mpi.coll"]["self_ms"]),
        "mpi.p2p.calls_per_op": calls("mpi.p2p"),
        "mpi.p2p.self_pct": pct(layers["mpi.p2p"]["self_ms"]),
        "mpi.p2p.bytes_per_op": per_op(layers["mpi.p2p"]["meter"], "B/op"),
        "sim.mailbox.calls_per_op": calls("sim.mailbox"),
        "sim.mailbox.self_pct": pct(layers["sim.mailbox"]["self_ms"]),
        "sim.mailbox.wait_pct": pct(layers["sim.mailbox"]["wait_ms"]),
        "sim.sched.parks_per_op": per_op(tr["parks"]),
        "sim.sched.switches_per_op": per_op(tr["switches"]),
        "sim.sched.wait_pct": pct(tr["park_wait_ms"]),
        "sim.sched.switch_pct": pct(tr["switch_ms"]),
        "sim.slot.calls_per_op": calls("sim.slot"),
        "sim.slot.self_pct": pct(layers["sim.slot"]["self_ms"]),
        "sim.slot.wait_pct": pct(layers["sim.slot"]["wait_ms"]),
        "hw.kernel.self_pct": pct(layers["hw.kernel"]["self_ms"]),
        "hw.kernel.bytes_per_op": per_op(layers["hw.kernel"]["meter"],
                                         "B/op"),
        "hw.copy.elided_ratio": (
            ratio(c["copies_elided"], c["copies_elided"] + c["copies_forced"]),
            "ratio"),
        "sim.wire.bookings_per_op": calls("sim.wire"),
        "sim.wire.self_pct": pct(layers["sim.wire"]["self_ms"]),
        # virtual time (the model's output), summed over bookings
        "sim.wire.queue_vus_per_op": per_op(layers["sim.wire"]["meter"],
                                            "virtual_us/op"),
        "dl.step.self_pct": pct(layers["dl.step"]["self_ms"]),
        "unattributed_pct": pct(layers["unattributed"]["self_ms"]),
        # attribution closes by construction; an overlap is a span event
        # seen while another fiber held the timeline, an inexact charge
        "obs.overlaps": (tr["overlaps"], "count"),
        "obs.trace_overhead_pct": (
            (1.0 - traced["ops_per_s"] / untraced["ops_per_s"]) * 100.0, "%"),
        "obs.missing_targets": (len(tr["missing_targets"]), "count"),
        # from the untraced run: the tracer's own allocations stay out
        "mem.rss_growth_b_per_op": (untraced["rss_growth_b_per_op"], "B/op"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no repro sources under {ROOT / 'src'}; run from "
                         "a full checkout of the repository\n")
        return 2
    # one CPU of those this process may use; the worker pins itself to it
    cpu = max(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    stat_before = cpu_times(cpu)

    runs = []
    if args.trace:
        untraced = worker(args.workload, args.seed, args.seconds, "measure",
                          cpu)
        traced = worker(args.workload, args.seed, args.seconds, "trace", cpu)
        runs = [untraced, traced]
        metrics = per_layer(traced, untraced)
    else:
        setups = [worker(args.workload, args.seed, args.seconds, "setup", cpu)
                  for _ in range(SETUP_RUNS)]
        measured = worker(args.workload, args.seed, args.seconds, "measure",
                          cpu)
        runs = [measured]
        metrics = end_to_end([s["setup_s"] for s in setups]
                             + [measured["setup_s"]], measured)

    stat_after = cpu_times(cpu)
    delta = {k: stat_after[k] - stat_before.get(k, 0) for k in stat_after}
    total = sum(delta.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": dict(runs[0]["host"], nproc=os.cpu_count(),
                     loadavg_before=load_before, loadavg_after=os.getloadavg(),
                     cpu=cpu, steal_jiffies=delta.get("steal", 0),
                     steal_pct=(100.0 * delta.get("steal", 0) / total
                                if total else 0.0)),
        "runs": [{k: v for k, v in r.items()
                  if k not in ("host", "counters", "trace")} for r in runs],
    }
    if args.trace:
        detail["trace"] = runs[-1]["trace"]
    print(json.dumps(detail))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
