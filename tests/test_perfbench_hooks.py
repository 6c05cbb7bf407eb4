"""The `drcplan` names the benchmark imports and patches still exist.

`perfbench/tracing.py` wraps `drcplan` functions and methods by attribute
name and `perfbench/workloads.py` imports more, so a rename in `src` would
break `--trace 1` or a workload without failing any test here. This imports
both and installs and removes every wrapper once, and trains under them: a
wrapper passes a fixed argument list through (`conv2d(x, w, b, stride,
padding)`), so a call the wrapper cannot pass on fails only when traced, and
a conv that bypasses the wrapped name drops out of the per-layer counts. A
toy evaluation workload saves, loads and copies a checkpoint the way the
benchmark does.
"""

import importlib
from pathlib import Path

import numpy as np

from drcplan.drc import DrcNetwork, preset_config
from drcplan.sources import source_factory
from drcplan.train import TrainConfig, Trainer

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_imports_and_wraps_every_name_it_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    assert importlib.import_module("perfbench.workloads").WORKLOADS
    tracing = importlib.import_module("perfbench.tracing")
    tick = DrcNetwork.tick
    with tracing.traced(tracing.Tracer()):
        assert DrcNetwork.tick is not tick
    assert DrcNetwork.tick is tick


def test_a_training_update_runs_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    net = DrcNetwork.create(preset_config("gridworld12", 1, 1), seed=0)
    trainer = Trainer(net, source_factory("gridworld12"), TrainConfig(num_actors=2, batch_size=2,
                                                                     unroll_length=3))
    with tracing.traced(tracing.Tracer()) as tracer:
        metrics = trainer.train_one_update()
    assert np.isfinite(metrics["loss"]) and metrics["mean_rho"] == 1.0
    assert {"drc.encode", "drc.tick", "autodiff.conv2d.fwd", "autodiff.conv2d.bwd",
            "train.learner_update"} <= set(tracer.names)
    # Every conv the model runs is counted: per forward, the encoder layers
    # and the depth's observation and boundary convs. The actors run one
    # forward per step; the learner backpropagates through those and runs
    # only the bootstrap forward.
    per_forward = len(net.config.encoder) + 2 * net.config.depth
    forwards = trainer.config.unroll_length + 1
    assert tracer.counts["autodiff.conv2d.calls"] == forwards * per_forward
    # Those forwards go through the wrapped `forward`, which counts their
    # rows; an actor or bootstrap step that bypassed it would drop out of
    # `drc.forward_rows`.
    assert tracer.counts["drc.forward_rows"] == forwards * trainer.config.num_actors


def test_the_benchmark_train_config_is_legal_and_checks_clean(monkeypatch):
    """The training workload's `TrainConfig` passes the config checks, so a
    check that rejects it fails here and not only in the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT))
    workload = importlib.import_module("perfbench.workloads").WORKLOADS["train_gridworld12"]()
    workload.prepare(1)
    try:
        workload.setup(1)
        assert workload.op().failed == 0
        assert workload.check() == []
    finally:
        workload.close()


def test_a_toy_eval_workload_runs_and_checks_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workload = importlib.import_module("perfbench.workloads").EvalWorkload(
        batch=2, k_max=0, limits=(2, 4), setup_reps=1)
    workload.prepare(1)
    try:
        workload.setup(1)
        assert workload.op().failed == 0
        assert workload.check() == []
    finally:
        workload.close()
