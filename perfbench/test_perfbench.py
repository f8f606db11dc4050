"""The benchmark's own checks (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

* digests repeat: two fresh runs of each workload agree on the
  virtual-time and payload digests, on two seeds, and every op passes
  its reference check;
* the ``horovod_resnet50`` step reproduces ``repro.dl.trainer.train``'s
  virtual step time;
* the traced run resolves every wrapper target, wraps every binding of
  a module-level target, reports a vanished target as missing instead
  of crashing, charges no interval inexactly and reaches the layers
  each workload is meant to exercise.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SECONDS = 0.3


def worker(workload, seed, mode="measure"):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPIX_")}
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--mode", mode,
         "--cpu", str(cpu)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """workload -> seed -> two independent measured runs."""
    from workloads import WORKLOADS
    return {w: {seed: [worker(w, seed), worker(w, seed)] for seed in (1, 2)}
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", ["omb_1node", "horovod_resnet50"])
def test_digests_repeat_and_payloads_check(runs, workload):
    for seed, (a, b) in runs[workload].items():
        for r in (a, b):
            assert r["correct"], r["problems"] or r["mismatched"]
            assert r["failed"] == 0 and r["attempted"] >= 1
        assert a["vt_digest"] == b["vt_digest"], seed
        assert a["payload_digest"] == b["payload_digest"], seed
    # the seed reaches the payloads
    assert runs[workload][1][0]["payload_digest"] != \
        runs[workload][2][0]["payload_digest"]


def test_horovod_step_matches_train(runs):
    from repro.dl import horovod_preset, train
    from repro.dl.models import resnet50
    from repro.omb.stacks import make_stack
    from workloads import WORKLOADS

    wl = WORKLOADS["horovod_resnet50"]
    cfg = horovod_preset("hybrid", "nccl", multi_node=False)
    result = wl.engine().run(
        lambda ctx: train(ctx, make_stack(ctx, "hybrid", "nccl"), resnet50(),
                          wl.batch, steps=1, config=cfg))[0]
    ours = runs["horovod_resnet50"][1][0]["vt_us_per_op"]
    assert ours == pytest.approx(result.step_time_us, rel=1e-12)


def test_missing_target_is_reported_not_fatal():
    from layers import LayerTracer
    tracer = LayerTracer({"gone": ("repro.core.dispatch:NoSuchClass.run",
                                   "repro.no_such_module:f"),
                          "kept": ("repro.sim.wire:WireTracker.book",)})
    tracer.install()
    try:
        assert tracer.missing == ["repro.core.dispatch:NoSuchClass.run",
                                  "repro.no_such_module:f"]
        assert tracer.missing_layers() == ["gone"]
        assert tracer.totals()["gone"]["calls"] == 0
    finally:
        tracer.uninstall()
    from repro.sim.wire import WireTracker
    assert not hasattr(WireTracker.book, "__wrapped__")


def test_every_binding_of_a_function_target_is_wrapped():
    import repro
    from layers import LAYERS, LayerTracer, bindings, resolve
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass
    functions = []
    for targets in LAYERS.values():
        for target in targets:
            owner, attr, original = resolve(target)
            if not isinstance(owner, type):
                functions.append((target, original))
    before = {target: bindings(fn) for target, fn in functions}
    # local_copy is imported by name into the MPI collective modules
    assert len(before["repro.mpi.compute:local_copy"]) > 2
    tracer = LayerTracer().install()
    try:
        for target, original in functions:
            assert bindings(original) == [], target
    finally:
        tracer.uninstall()
    for target, original in functions:
        assert bindings(original) == before[target], target


#: layers whose self time each workload is chosen to exercise
EXERCISED = {
    "omb_1node": ("core.dispatch", "core.sendrecv", "xccl", "mpi.api",
                  "mpi.coll", "mpi.p2p", "sim.mailbox", "sim.wire",
                  "hw.kernel"),
    "horovod_resnet50": ("dl.step", "sim.slot", "hw.kernel", "xccl"),
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_attributes(workload):
    r = worker(workload, 1, mode="trace")
    tr = r["trace"]
    assert r["correct"]
    assert tr["missing_targets"] == []
    assert tr["overlaps"] == 0
    layers = tr["layers"]
    for layer in EXERCISED[workload]:
        assert layers[layer]["calls"] > 0 and layers[layer]["self_ms"] > 0, \
            layer
    if workload == "omb_1node":
        # the only workload whose ranks park on each other per call
        assert tr["parks"] > 0 and tr["switch_ms"] > 0
    # the wrapped layers, not the gaps between them, hold the wall
    assert layers["unattributed"]["self_ms"] < 0.25 * tr["wall_ms"]
