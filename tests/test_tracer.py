"""The benchmark's span tracer (perfbench/tracer.py) still fits the source.

The tracer finds the functions it times by name, so a rename in volmin
would otherwise break only traced benchmark runs. This test loads the
tracer from its file, traces a tiny staged run and checks that the spans
nest, add up, and include the step, the optimizer and the forward pass."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CONFIG = """\
data.generator = simplex
data.classes = 3
data.n = 300
data.profile = edge-scattered
data.cap = 0.9
noise.kind = symmetric
noise.rate = 0.2
train.epochs = 2
train.batch_size = 64
train.hidden = 8
geometry.rays = 64
geometry.trials = 200
trials.seeds = 0
"""

# Names the benchmark's per-layer metrics read.
TRACED = (
    "trainer.OptimizerState.step",
    "trainer.loss_and_grads",
    "model._forward_cached",
    "noise.corrupt_labels",
    "data.read_csv",
    "data.write_csv",
    "data.gen_simplex_feature",
    "geometry.extreme_columns",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_staged_run(tmp_path, monkeypatch):
    monkeypatch.delenv("VOLMIN_THREADS", raising=False)
    tracing = load_tracer()
    modules = {name: importlib.import_module(f"volmin.{name}") for name in tracing.LAYERS}
    step = modules["trainer"].OptimizerState.step
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        for command in ("generate", "corrupt", "check-scattered", "train-volmin"):
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert tracer.span(f"cli.{command}", modules["cli"].main, argv) == 0
    finally:
        tracer.uninstall()
    assert modules["trainer"].OptimizerState.step is step

    selfs = tracing.self_times(tracer)
    tracing.check_accounting(tracer, selfs)
    metrics = tracing.layer_metrics(tracer, selfs)
    assert metrics["trainer.steps"] > 0
    assert metrics["trainer.optimizer_step_us"] > 0
    assert metrics["model.forward_us"] > 0
    assert set(TRACED) <= set(tracer.names)
