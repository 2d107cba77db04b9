"""What the benchmark's tracer pins of the program still resolves.

``bench/tracing.py`` wraps ``paeff`` functions by name and sweeps the
layers by calling them; a rename or a deletion under ``src/`` that breaks
``bench/run.py --trace 1`` fails here, and so does a change that stops a
command from calling a function whose spans a metric reads. The module is
loaded from its file and not changed.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

from paeff import cli, losses, model, trainer  # the tracer looks up every paeff module it wraps in sys.modules
from paeff.autodiff import Tensor

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def traced(qualname):
    """The object a TRACED name stands for, looked up in its home module."""
    module, _, rest = qualname.partition(".")
    owner = sys.modules["paeff." + module]
    for attr in rest.split("."):
        owner = getattr(owner, attr)
    return owner


def test_every_traced_name_resolves_and_is_restored():
    originals = {name: traced(name) for name in tracing.TRACED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [name for name in tracing.TRACED if traced(name).__wrapped__ is not originals[name]] == []
    finally:
        tracer.uninstall()
    assert {name: traced(name) for name in tracing.TRACED} == originals


def test_layer_sweep_at_a_tiny_batch():
    cfg = model.ModelConfig(face_dim=6, voice_dim=5, num_identities=3, proj_dim=4)
    rng = np.random.default_rng(0)
    params = model.init_params(cfg, seed=0)
    out = tracing.layer_sweep(rng.normal(size=(4, 6)), rng.normal(size=(4, 5)), np.array([0, 1, 2, 0]), params,
                              cfg, trainer.TrainConfig().loss_weights, reps=1)
    per_layer = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert out and set(out) <= per_layer
    assert all(math.isfinite(v) and v >= 0.0 for v in out.values())


def test_tape_stats_of_a_float32_training_step(monkeypatch):
    """``tape_stats`` walks the float32 graph ``trainer.train_step`` builds, every VJP closure included."""
    cfg = model.ModelConfig(face_dim=6, voice_dim=5, num_identities=3, proj_dim=4)
    rng = np.random.default_rng(0)
    stats, step_losses = [], trainer.step_losses

    def measuring(*args):
        step = step_losses(*args)
        stats.append(tracing.tape_stats(step.total))
        return step

    monkeypatch.setattr(trainer, "step_losses", measuring)
    trainer.train_step(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 5))), np.array([0, 1, 2, 0]),
                       trainer.float32_params(model.init_params(cfg, seed=0)), cfg, trainer.TrainConfig().loss_weights)
    (nodes, mb), = stats
    assert nodes == 24 and 0.0 < mb < 1.0


def test_traced_cli_flow_yields_every_span_metric(tmp_path):
    """A tiny synth, train and eval through the CLI under the tracer: each span metric is there and finite."""
    d = tmp_path / "data"
    splits = ["--split-train", str(d / "train.ids"), "--split-val", str(d / "val.ids"),
              "--split-test", str(d / "test.ids")]
    tracer = tracing.Tracer()
    tracer.phase = "setup"
    tracer.install()
    try:
        assert cli.main(["synth", "--out", str(d), "--identities", "10", "--samples-per-id", "3", "--face-dim", "6",
                         "--voice-dim", "5", "--latent-dim", "4", "--val-identities", "2",
                         "--test-identities", "3"]) == 0
        tracer.phase = "flow"
        assert cli.main(["train", "--data", str(d / "data.fve"), *splits, "--out", str(tmp_path / "run"),
                         "--epochs", "2", "--proj-dim", "4", "--lr0", "3e-3"]) == 0
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.paef"), "--data",
                         str(d / "data.fve"), *splits, "--out", str(tmp_path / "eval"), "--strata", "random,G",
                         "--max-trials", "20", "--matching-trials", "5", "--nc-list", "2,3"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    per_layer = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert metrics and set(metrics) <= per_layer
    assert {name: value for name, value in metrics.items() if not (math.isfinite(value) and value >= 0.0)} == {}
