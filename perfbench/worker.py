"""One workload run in a fresh process; prints one JSON line.

Started by ``run.py`` (never imported): it pins itself to the CPU it is
given before importing anything heavy, so ``setup_s`` covers the
imports.  Modes:

* ``setup``   — set up, warm up, stop at the first timed op;
* ``measure`` — set up, run the closed loop for ``--seconds``, check;
* ``trace``   — ``measure`` with the layer wrappers of ``layers.py``.

Usage: python3 perfbench/worker.py --workload omb_1node --seed 1
       --seconds 10 --mode measure --cpu 0
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: warm-up rounds before timing; the first is the digest round
WARMUP_ROUNDS = 2
#: the tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10
#: throughput is the median over segments of whole rounds holding at
#: least this much CPU time each (a burst of host contention then
#: moves one segment, not the run)
SEGMENT_CPU_S = 0.5
#: peak RSS is read after this many timed rounds, a fixed amount of
#: work.  The simulator keeps per-call history (``Stream._ops``,
#: ``RankContext._slot_uses``), so RSS at the end of the window would grow
#: with the ops a faster program completes in it.
RSS_ROUNDS = 10


def cpu_times(cpu):
    """``/proc/stat`` jiffies of one CPU, by field name."""
    names = ("user", "nice", "system", "idle", "iowait", "irq",
             "softirq", "steal")
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    return {n: int(v)
                            for n, v in zip(names, line.split()[1:])}
    except OSError:
        pass
    return {}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_bytes():
    """Current resident set size."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def tail_percentile(samples):
    """``(pct, value)``: the highest integer percentile (nearest rank)
    with at least :data:`TAIL_BEYOND` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)          # ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 0, ordered[0]


def segment_rate(op_cpu, ops_per_round):
    """Median ops per CPU second over :data:`SEGMENT_CPU_S` segments."""
    rates, ops, spent = [], 0, 0.0
    for start in range(0, len(op_cpu), ops_per_round):
        spent += sum(op_cpu[start:start + ops_per_round])
        ops += len(op_cpu[start:start + ops_per_round])
        if spent >= SEGMENT_CPU_S:
            rates.append(ops / spent)
            ops, spent = 0, 0.0
    return statistics.median(rates) if rates else ops / spent


class Control:
    """Loop control shared by the rank fibers of one process.

    Rank 0 fixes the last round one round ahead: after finishing round
    ``k`` past the deadline it sets ``last_round = k + 1``.  Every round
    contains an op that needs rank 0's contribution, so no rank can
    finish round ``k + 1`` (and test the flag for ``k + 2``) before rank
    0 has set it; all ranks therefore run the same rounds.
    """

    def __init__(self) -> None:
        self.last_round = None
        self.setup_s = None
        self.setup_cpu_s = None
        self.t_start = self.t_end = 0.0
        self.cpu_start = self.cpu_end = 0.0
        self.stat_start = self.stat_end = {}
        self.op_wall = []
        self.op_cpu = []
        self.counters = {}
        self.peak_rss_mb = None
        #: (RSS bytes, ops timed) when ``peak_rss_mb`` was read
        self.rss_mark = (0, 0)
        self.rss_growth_b_per_op = 0.0


def rank_program(ctx, workload, seed, seconds, mode, ctl, tracer, pin):
    from repro import fastpath

    comm = workload.stack(ctx)
    state = workload.prepare(ctx, comm, seed)
    t0 = ctx.now
    for _label, op in state.ops:
        op()
    state.digest_clock_us = ctx.now
    state.vt_us_per_op = (ctx.now - t0) / len(state.ops)
    workload.after_digest_round(ctx, state)
    for _ in range(WARMUP_ROUNDS - 1):
        for _label, op in state.ops:
            op()
    state.poison()
    comm.Barrier()
    lead = ctx.rank == 0
    if lead:
        ctl.setup_s = time.perf_counter() - T_PROCESS
        ctl.setup_cpu_s = time.process_time()
    if mode == "setup":
        return state

    # ops are timed in process CPU time: the worker is pinned and runs
    # one fiber at a time, so this is the op's wall time on an unshared
    # CPU, without the slices a busy host steals (wall is kept too)
    clock = time.perf_counter
    cpu = time.process_time
    if lead:
        before = fastpath.STATS.snapshot()
        if tracer is not None:
            tracer.start()
        ctl.stat_start = cpu_times(pin)
        ctl.cpu_start = cpu()
        ctl.t_start = clock()
    m = 0
    while ctl.last_round is None or m <= ctl.last_round:
        for i, (_label, op) in enumerate(state.ops):
            t = clock()
            c = cpu()
            try:
                op()
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                state.errors.append((m, i))
                state.error_text.append(f"round {m} op {i}: {exc!r}")
            if lead:
                ctl.op_wall.append(clock() - t)
                ctl.op_cpu.append(cpu() - c)
        if lead and m + 1 == RSS_ROUNDS:
            ctl.peak_rss_mb = peak_rss_mb()
            ctl.rss_mark = (rss_bytes(), len(ctl.op_cpu))
        if lead and ctl.last_round is None and \
                clock() - ctl.t_start >= seconds:
            ctl.last_round = m + 1
        m += 1
    state.rounds = m
    if lead:
        ctl.t_end = clock()
        ctl.cpu_end = cpu()
        ctl.stat_end = cpu_times(pin)
        if ctl.peak_rss_mb is None:
            ctl.peak_rss_mb = peak_rss_mb()
        else:
            grown = rss_bytes() - ctl.rss_mark[0]
            ops = len(ctl.op_cpu) - ctl.rss_mark[1]
            ctl.rss_growth_b_per_op = grown / ops if ops else 0.0
        if tracer is not None:
            tracer.stop()
        after = fastpath.STATS.snapshot()
        ctl.counters = {k: after[k] - before[k] for k in after}
    elif tracer is not None:
        tracer.leave()
    return state


def run(workload_name, seed, seconds, mode, pin):
    os.environ["MPIX_COOP_SCHED"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from repro import fastpath
    from workloads import (WORKLOADS, mismatched_labels, payload_digest,
                           vt_digest, FIG7A_PAPER_IMG_S)

    tracer = None
    if mode == "trace":
        from layers import LayerTracer
        tracer = LayerTracer().install()
    workload = WORKLOADS[workload_name]
    ctl = Control()
    engine = workload.engine()
    states = engine.run(lambda ctx: rank_program(ctx, workload, seed,
                                                 seconds, mode, ctl, tracer,
                                                 pin))
    out = {"workload": workload_name, "seed": seed, "mode": mode,
           "setup_s": ctl.setup_cpu_s, "setup_wall_s": ctl.setup_s,
           "host": {"python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "affinity": sorted(os.sched_getaffinity(0)),
                    "gates": fastpath.snapshot()["gates"]}}
    if mode == "setup":
        return out

    rounds = {s.rounds for s in states}
    ops_per_round = len(states[0].ops)
    attempted = states[0].rounds * ops_per_round
    failed_at = {err for s in states for err in s.errors}
    bad = mismatched_labels(workload, seed, states)
    labels = [label for label, _ in states[0].ops]
    for i, label in enumerate(labels):
        if label in bad:
            failed_at.update((m, i) for m in range(states[0].rounds))
    problems = [t for s in states for t in s.error_text]
    if len(rounds) != 1:
        problems.append(f"ranks ran different round counts: {sorted(rounds)}")
    failed = len(failed_at)
    op_cpu = ctl.op_cpu
    wall = ctl.t_end - ctl.t_start
    stat = {k: ctl.stat_end[k] - ctl.stat_start.get(k, 0)
            for k in ctl.stat_end}
    jiffy_s = 1.0 / os.sysconf("SC_CLK_TCK")
    pct, tail = tail_percentile(op_cpu)
    lead = states[0]
    out.update({
        "attempted": attempted, "failed": failed,
        "failed_ops_frac": failed / attempted,
        "correct": not failed and not problems,
        "mismatched": bad, "problems": problems[:10],
        "rounds": lead.rounds, "ops_per_round": ops_per_round,
        "ops_per_s": segment_rate(op_cpu, ops_per_round),
        "op_p50_ms": statistics.median(op_cpu) * 1e3,
        "op_tail_ms": tail * 1e3, "op_tail_pct": pct,
        "op_samples": len(op_cpu),
        "wall_s": wall, "wall_ops_per_s": len(op_cpu) / wall,
        # the worker's CPU time plus the hypervisor's steal on its CPU,
        # over the loop's wall: what is left is time the worker idled
        "cpu_busy_frac": (ctl.cpu_end - ctl.cpu_start
                          + stat.get("steal", 0) * jiffy_s) / wall,
        "cpu_idle_s": (stat.get("idle", 0) + stat.get("iowait", 0))
        * jiffy_s,
        "wall_op_p50_ms": statistics.median(ctl.op_wall) * 1e3,
        "wall_op_tail_ms": tail_percentile(ctl.op_wall)[1] * 1e3,
        "peak_rss_mb": ctl.peak_rss_mb,
        "rss_growth_b_per_op": ctl.rss_growth_b_per_op,
        "vt_digest": vt_digest(states),
        "payload_digest": payload_digest(states),
        "vt_us_per_op": lead.vt_us_per_op,
        "counters": ctl.counters,
    })
    if "img_per_s_virtual" in lead.extra:
        img = lead.extra["img_per_s_virtual"]
        out["img_per_s_virtual"] = img
        out["fig7a_paper_img_per_s"] = FIG7A_PAPER_IMG_S
        out["fig7a_deviation_pct"] = (img / FIG7A_PAPER_IMG_S - 1.0) * 100.0
    if tracer is not None:
        out["trace"] = {"layers": tracer.totals(),
                        "wall_ms": tracer.wall_ns / 1e6,
                        "switch_ms": tracer.switch_ns / 1e6,
                        "switches": tracer.switches,
                        "parks": tracer.parks,
                        "park_wait_ms": tracer.park_ns / 1e6,
                        "overlaps": tracer.overlaps,
                        "missing_targets": tracer.missing,
                        "missing_layers": tracer.missing_layers()}
        tracer.uninstall()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    out = run(args.workload, args.seed, args.seconds, args.mode, args.cpu)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
