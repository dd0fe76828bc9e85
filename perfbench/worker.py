"""One isolated benchmark process.

Imports grngc from the checkout's src/, sets up one workload, runs its
pipeline until its share of the run's seconds is used, checks each output,
and prints one JSON line. run.py starts these one at a time, so an exception
or an OOM kill costs one process, and each process's peak RSS is its own.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import grngc  # noqa: E402
from grngc import core, datagen, diffengine, forecasters, kernels, metrics  # noqa: E402

from probes import kernel_probes, layer_probes  # noqa: E402
from tracing import (LAYERS, NAME, PARENT, REP, Tracer, duration,  # noqa: E402
                     layer_hooks, light_hooks, self_times, steps)
from workloads import WORKLOADS  # noqa: E402


def simulate(wl, seed):
    if wl.system == "var":
        a = datagen.random_sparse_var1(wl.p, 0.3, seed=seed)
        return datagen.simulate_var([a], T=wl.T, noise_sigma=0.1, seed=seed)
    return datagen.simulate_lorenz96(datagen.Lorenz96Config(p=wl.p, T=wl.T, seed=seed))


def train_config(wl, seed):
    # patience beyond the epoch budget: early stopping never fires
    return core.TrainConfig(lag=wl.lag, lam=wl.lam, lr=wl.lr, epochs=wl.epochs,
                            batch_size=wl.batch, seed=seed, backbone=wl.backbone,
                            hidden=(wl.hidden,), patience=wl.epochs + 1)


def train_throughput(tracer, cfg, T, rep):
    """Training windows x epochs / seconds in train() outside its final scoring."""
    mine = [s for s in tracer.spans if s[REP] == rep]
    train_s = sum(duration(s) for s in mine if s[NAME] == "core.train")
    train_s -= sum(duration(s) for s in mine if s[NAME] == "core.score"
                   and tracer.spans[s[PARENT]][NAME] == "core.train")
    n = T - cfg.lag
    n_train = n - int(n * cfg.val_fraction)
    return n_train * cfg.epochs / train_s


def warm_up(wl, seed):
    """One optimisation step on random windows of the workload's shape, run in
    set-up so that timed steps find the allocator and caches warm. Its cost
    counts in setup_s."""
    rng = np.random.default_rng(seed)
    batch = datagen.WindowedDataset(rng.normal(size=(wl.batch, wl.lag * wl.p)),
                                    rng.normal(size=(wl.batch, wl.p)), wl.lag)
    cfg = train_config(wl, seed)
    backbone = forecasters.init_backbone(wl.backbone, [wl.lag * wl.p, wl.hidden, wl.p],
                                         cfg.spline_spec(), seed)
    graph = core.LossGraph(backbone, batch, wl.lam)
    diffengine.backward(graph.loss, graph.params)


def fit_scoring_model(wl, seed, tracer):
    """Set-up of a score-only workload: simulate, then train on the first
    fit_T steps."""
    with tracer.span("datagen.simulate"):
        series, truth = simulate(wl, seed)
    fit = datagen.TimeSeries(series.data[:wl.fit_T])
    cfg = train_config(wl, seed)
    with tracer.span("core.train"):
        report = core.train(fit, cfg)
    return {"series": series, "truth": truth, "backbone": report.backbone,
            "train_sps": train_throughput(tracer, cfg, wl.fit_T, -1)}


def run_pipeline(wl, seed, tracer, state):
    """simulate -> train -> score -> evaluate, or, for a score-only workload,
    windows -> score -> evaluate on the set-up model."""
    start = time.perf_counter()
    out = {}
    if state is None:
        with tracer.span("datagen.simulate"):
            series, truth = simulate(wl, seed)
        cfg = train_config(wl, seed)
        with tracer.span("core.train"):
            report = core.train(series, cfg)
        gc, backbone = report.gc.scores, report.backbone
        out["train_sps"] = train_throughput(tracer, cfg, wl.T, tracer.rep)
    else:
        series, truth, backbone = state["series"], state["truth"], state["backbone"]
        with tracer.span("datagen.windows"):
            scaled, _, _ = datagen.standardize(series)
            windows = datagen.make_windows(scaled, wl.lag)
        gc = core.infer_gc_matrix(backbone, windows).scores
    with tracer.span("metrics.evaluate"):
        recovery = metrics.evaluate(gc, truth.matrix)
    out["pipeline_s"] = time.perf_counter() - start
    score = [s for s in tracer.spans if s[REP] == tracer.rep and s[NAME] == "core.score"]
    out["score_sps"] = (series.T - wl.lag) / duration(score[-1])
    out.update(check(wl, gc, recovery))
    return out, backbone, series


def check(wl, gc, recovery) -> dict:
    problems = []
    if gc.shape != (wl.p, wl.p):
        problems.append(f"gc_matrix shape {gc.shape}, expected {(wl.p, wl.p)}")
    if not np.all(np.isfinite(gc)) or np.any(gc < 0):
        problems.append("gc_matrix has non-finite or negative entries")
    if recovery["auroc"] < wl.auroc_floor:
        problems.append(f"auroc {recovery['auroc']:.4f} below floor {wl.auroc_floor}")
    if recovery["auprc"] < wl.auprc_floor:
        problems.append(f"auprc {recovery['auprc']:.4f} below floor {wl.auprc_floor}")
    return {"auroc": recovery["auroc"], "auprc": recovery["auprc"],
            "gc_sha256": hashlib.sha256(np.ascontiguousarray(gc).tobytes()).hexdigest(),
            "problems": problems}


def layer_metrics(tracer, traced_reps) -> dict:
    """Per-layer numbers from the spans of traced runs (and traced set-up)."""
    spans = tracer.spans
    keep = (lambda s: s[REP] == -1 or s[REP] in traced_reps)
    named = (lambda name: [s for s in spans if s[NAME] == name and keep(s)])
    med = (lambda xs: statistics.median(xs) if xs else 0.0)

    def per_parent(child, parent):
        parents = {i for i, s in enumerate(spans) if s[NAME] == parent and keep(s)}
        n = sum(1 for s in spans if s[NAME] == child and s[PARENT] in parents)
        return n / len(parents) if parents else 0.0

    step_list = steps(spans, keep)
    out = {
        "core.loss_graph_ms": 1e3 * med([duration(b) for b, _, _ in step_list]),
        "diffengine.backward_ms": 1e3 * med([duration(o) for _, o, _ in step_list if o]),
        "core.step_other_ms": 1e3 * med([t - duration(b) - duration(o)
                                         for b, o, t in step_list if o]),
        "core.val_ms": 1e3 * med([duration(s) for s in named("core.val")]),
        "core.score_ms": 1e3 * med([duration(s) for s in named("core.score")]),
        "core.score_replays": per_parent("diffengine.backward", "core.score"),
        "core.penalty_replays": per_parent("diffengine.backward", "core.loss_graph"),
        "datagen.simulate_ms": 1e3 * med([duration(s) for s in named("datagen.simulate")]),
        "datagen.windows_ms": 1e3 * med([duration(s) for s in named("datagen.windows")]),
        "metrics.evaluate_ms": 1e3 * med([duration(s) for s in named("metrics.evaluate")]),
    }
    own = self_times(spans)
    for layer in LAYERS:
        calls, busy = [], []
        for rep in traced_reps:
            mine = [i for i, s in enumerate(spans) if s[REP] == rep and s[NAME] == layer]
            calls.append(len(mine))
            busy.append(sum(own[i] for i in mine))
        out[f"{layer}.calls"] = med(calls)
        out[f"{layer}.busy_ms"] = 1e3 * med(busy)
    return out


def environment() -> dict:
    return {
        "machine": platform.machine(), "node": platform.node(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "backend": kernels.backend_name(), "grngc": grngc.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    trace = bool(args.trace)

    tracer = Tracer()
    reps, traced_reps = [], set()
    backbone = series = None
    state = None
    if not wl.score_only:
        warm_up(wl, args.seed)  # before the hooks: its step is not a timed step
    with tracer.hooked(light_hooks()):
        if wl.score_only:
            with tracer.hooked(layer_hooks()) if trace else nullcontext():
                state = fit_scoring_model(wl, args.seed, tracer)
        setup_s = time.perf_counter() - _START
        measure_start = time.perf_counter()
        while True:
            tracer.rep = len(reps)
            traced = trace and (args.index + tracer.rep) % 2 == 0
            rep_start = time.perf_counter()
            try:
                with tracer.hooked(layer_hooks()) if traced else nullcontext():
                    rep, backbone, series = run_pipeline(wl, args.seed, tracer, state)
            except Exception:  # one failed run is recorded, not fatal
                traceback.print_exc()
                rep = {"problems": ["raised: " + traceback.format_exc(limit=1)]}
            rep["traced"] = traced
            reps.append(rep)
            if traced:
                traced_reps.add(tracer.rep)
            last = time.perf_counter() - rep_start
            if time.perf_counter() - measure_start + last > args.seconds:
                break

    untraced = (lambda s: s[REP] not in traced_reps and not (trace and s[REP] == -1))
    result = {
        "index": args.index,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux; read before the probes below
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_train_sps": state["train_sps"] if state else None,
        "steps_ms": [1e3 * t for _, _, t in steps(tracer.spans, untraced)],
        "reps": reps,
        "env": environment(),
    }
    if trace:
        result["layers"] = layer_metrics(tracer, traced_reps)
        if args.index == 0 and backbone is not None:
            scaled, _, _ = datagen.standardize(series)
            windows = datagen.make_windows(scaled, wl.lag)
            batch = datagen.WindowedDataset(windows.inputs[:wl.batch],
                                            windows.targets[:wl.batch], wl.lag)
            result["layers"].update(layer_probes(backbone, batch, wl.lam))
            result["layers"].update(kernel_probes(args.seed))
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
