"""The benchmark in perfbench/ wraps and calls grngc functions by name. A
renamed or deleted name turns its traced runs into failed runs, so every
name it uses must resolve."""
import importlib.util
from pathlib import Path

import numpy as np

from grngc import core, datagen, diffengine, forecasters, kernels, splines

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_attribute_resolves():
    tracing = load_tracing()
    for module, attr, _ in tracing.light_hooks() + tracing.layer_hooks():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_called_names_resolve():
    for module, attr in [(core, "prediction_loss"), (core, "make_windows"),
                         (core, "set_param_arrays"), (core, "infer_gc_matrix"),
                         (diffengine, "backward"), (splines, "basis_values"),
                         (forecasters, "forward"), (kernels, "bspline_basis_kernel"),
                         (kernels, "lorenz96_trajectory")]:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert kernels.backend_name() == "numpy"
    rng = np.random.default_rng(0)
    batch = datagen.WindowedDataset(rng.normal(size=(4, 6)), rng.normal(size=(4, 3)), 2)
    graph = core.LossGraph(forecasters.init_backbone("kan", [6, 4, 3]), batch, 1e-3)
    for attr in ("loss", "params", "pred_loss", "sparsity"):
        assert hasattr(graph, attr), attr


def test_step_clock_counts_each_optimisation_step():
    """perfbench times a step from the LossGraph build to the parameter
    write-back, takes the outer backward as the one train() calls directly,
    and counts validation and scoring apart from the steps."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    series = datagen.TimeSeries(np.random.default_rng(0).normal(size=(150, 3)))
    # 148 windows, 14 of them for validation: 3 batches of at most 64 per epoch
    cfg = core.TrainConfig(lag=2, hidden=(4,), batch_size=64, epochs=3)
    with tracer.hooked(tracing.light_hooks() + tracing.layer_hooks()):
        with tracer.span("core.train"):
            report = core.train(series, cfg)
    assert report.epochs_run == 3
    spans = tracer.spans
    steps = tracing.steps(spans, lambda s: True)
    assert len(steps) == 3 * 3
    assert all(outer is not None for _, outer, _ in steps)
    names = [s[tracing.NAME] for s in spans]
    assert names.count("core.val") == 3
    (score,) = [s for s in spans if s[tracing.NAME] == "core.score"]
    assert spans[score[tracing.PARENT]][tracing.NAME] == "core.train"
