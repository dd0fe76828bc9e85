"""GRNGC itself: prediction loss, the L1 penalty on the forecaster's
per-sample input Jacobian (optimized by exact double backprop), Adam
training, and the causal scores read off the same Jacobian."""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffengine as de
from .datagen import TimeSeries, WindowedDataset, make_windows, standardize
from .forecasters import (KAN, MLP, Backbone, count_parameters, forward_graph,
                          init_backbone, layer_weights, make_param_nodes,
                          param_arrays, set_param_arrays)
from .kernels import keep_freed_memory, run_concurrently
from .splines import SplineSpec


class TrainError(Exception):
    pass


@dataclass
class GcMatrix:
    """scores[j, i] is the mean |d xhat_j / d x_i| over samples and lags, the
    score for edge i -> j."""

    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise TrainError("causal scores must be finite and non-negative")


@dataclass
class TrainConfig:
    lag: int = 5
    lam: float = 1e-3
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 256  # 0 = full batch
    seed: int = 0
    backbone: str = "kan"
    hidden: tuple = (128,)
    degree: int = 3
    grid_size: int = 5
    patience: int = 15
    val_fraction: float = 0.1

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        checks = [
            (self.lam >= 0, f"lambda must be >= 0, got {self.lam}"),
            (self.lr > 0, f"lr must be > 0, got {self.lr}"),
            (self.lag >= 1, f"lag must be >= 1, got {self.lag}"),
            (self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.backbone in (KAN, MLP), f"backbone must be kan or mlp, got {self.backbone!r}"),
            (self.batch_size >= 0, f"batch_size must be >= 0, got {self.batch_size}"),
            (all(h >= 1 for h in self.hidden),
             f"hidden sizes must be >= 1, got {list(self.hidden)}"),
            (self.degree >= 1, f"degree must be >= 1, got {self.degree}"),
            (self.grid_size >= 2, f"grid_size must be >= 2, got {self.grid_size}"),
            (self.patience >= 1, f"patience must be >= 1, got {self.patience}"),
            (0 <= self.val_fraction < 0.5,
             f"val_fraction must be in [0, 0.5), got {self.val_fraction}"),
        ]
        for ok, message in checks:
            if not ok:
                raise TrainError(message)

    def spline_spec(self) -> SplineSpec:
        return SplineSpec(degree=self.degree, grid_size=self.grid_size)


@dataclass
class TrainReport:
    pred_losses: list = field(default_factory=list)
    sparsity_losses: list = field(default_factory=list)
    gc: GcMatrix | None = None
    seconds: float = 0.0
    n_params: int = 0
    epochs_run: int = 0
    config: dict = field(default_factory=dict)
    backbone: Backbone | None = None


# windows per Jacobian block when scoring, fixed so that the block sums, and
# so the scores, are the same on any core count
SCORE_BLOCK = 128
# windows whose blocks are scored at once; bounds the memory of the layer factors
SCORE_CHUNK = 256


def _mse(pred: de.Node, targets: np.ndarray) -> de.Node:
    d = de.add(pred, de.constant(-targets))
    return de.einsum(",->", de.constant(1.0 / d.value.size), de.einsum("bo,bo->", d, d))


def prediction_loss(backbone: Backbone, dataset: WindowedDataset) -> de.Node:
    """Mean squared error of the one-step prediction over samples and outputs."""
    pred, _ = forward_graph(backbone, de.constant(dataset.inputs), make_param_nodes(backbone))
    return _mse(pred, dataset.targets)


class LossGraph:
    """Objective of one optimization step: prediction MSE plus
    lambda * sum over (target, source) of the mean |input Jacobian| over
    samples and lags. The Jacobian is built from the forward activations, so
    one backward of `loss` gives the exact second-order parameter gradients."""

    def __init__(self, backbone: Backbone, dataset: WindowedDataset, lam: float):
        self.params = make_param_nodes(backbone)
        pred, jac = forward_graph(backbone, de.constant(dataset.inputs), self.params, lam > 0)
        self.loss = self.pred_loss = _mse(pred, dataset.targets)
        self.sparsity = de.constant(0.0)
        if jac is not None:
            # sum |J| = J . sign(J), the sign frozen: subgradient 0 at 0, no 2nd-order term
            sign = de.constant(np.sign(jac.value))
            weight = de.constant(lam / (dataset.n_samples * dataset.lag))
            self.sparsity = de.einsum(",->", weight, de.einsum("boi,boi->", jac, sign))
            self.loss = de.add(self.pred_loss, self.sparsity)


def infer_gc_matrix(backbone: Backbone, dataset: WindowedDataset) -> GcMatrix:
    """Post-hoc causal scores: mean |input Jacobian| over samples and lags.
    Blocks of SCORE_BLOCK windows run concurrently, SCORE_CHUNK windows at
    most, and their sums are added in block order."""
    keep_freed_memory()
    weights = layer_weights(backbone, [de.constant(a) for a in param_arrays(backbone)])
    blocks = list(_batches(dataset, SCORE_BLOCK))
    sums = np.empty((len(blocks), backbone.output_dim, backbone.input_dim))

    def abs_sum(i):
        # only this block's Jacobian array outlives the call, not its graph
        jac = forward_graph(backbone, de.constant(blocks[i].inputs), _jacobian_only=True,
                            weights=weights)[1].value
        np.abs(jac, out=jac).sum(axis=0, out=sums[i])

    run_concurrently(abs_sum, len(blocks), SCORE_CHUNK // SCORE_BLOCK)
    total = np.zeros((backbone.output_dim, backbone.input_dim))
    for part in sums:
        total += part
    per_lag = total.reshape(backbone.output_dim, dataset.lag, -1).sum(axis=1)
    return GcMatrix(per_lag / (dataset.n_samples * dataset.lag))


def _adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        mhat = m[i] / (1 - b1 ** t)
        vhat = v[i] / (1 - b2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def _batches(dataset: WindowedDataset, batch_size: int):
    n = dataset.n_samples
    if batch_size <= 0 or batch_size >= n:
        yield dataset
        return
    for start in range(0, n, batch_size):
        yield WindowedDataset(dataset.inputs[start:start + batch_size],
                              dataset.targets[start:start + batch_size],
                              dataset.lag)


def train(series: TimeSeries, cfg: TrainConfig) -> TrainReport:
    """Standardize, window, fit by Adam on the combined loss, and score.

    Splits train/validation chronologically and stops early when validation
    prediction loss has not improved for `patience` epochs. Fully determined
    by the config and seed.
    """
    if series.T <= cfg.lag + 10:
        raise TrainError(f"need T > lag + 10, got T={series.T}, lag={cfg.lag}")
    start_time = time.perf_counter()
    keep_freed_memory()

    scaled, _, _ = standardize(series)
    full = make_windows(scaled, cfg.lag)
    n_val = int(full.n_samples * cfg.val_fraction)
    n_train = full.n_samples - n_val
    train_set = WindowedDataset(full.inputs[:n_train], full.targets[:n_train], cfg.lag)
    val_set = (WindowedDataset(full.inputs[n_train:], full.targets[n_train:], cfg.lag)
               if n_val > 0 else None)

    sizes = [cfg.lag * series.p, *cfg.hidden, series.p]
    backbone = init_backbone(cfg.backbone, sizes, cfg.spline_spec(), cfg.seed)
    params = param_arrays(backbone)
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]

    report = TrainReport(n_params=count_parameters(backbone),
                         config=dataclasses.asdict(cfg))
    best_val = np.inf
    stale = 0
    step = 0
    for epoch in range(cfg.epochs):
        ep_pred = ep_sparse = 0.0
        n_batches = 0
        for batch in _batches(train_set, cfg.batch_size):
            graph = LossGraph(backbone, batch, cfg.lam)
            if not np.isfinite(graph.loss.value):
                raise TrainError(f"non-finite loss at epoch {epoch}")
            grads = [g.value for g in de.backward(graph.loss, graph.params)]
            ep_pred += float(graph.pred_loss.value)
            ep_sparse += float(graph.sparsity.value)
            del graph  # free this step's graph before the next one is built
            step += 1
            _adam_step(params, grads, m, v, step, cfg.lr)
            set_param_arrays(backbone, params)
            n_batches += 1
        report.pred_losses.append(ep_pred / n_batches)
        report.sparsity_losses.append(ep_sparse / n_batches)
        report.epochs_run = epoch + 1

        if val_set is not None:
            val_loss = float(prediction_loss(backbone, val_set).value)
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    report.gc = infer_gc_matrix(backbone, full)
    report.seconds = time.perf_counter() - start_time
    report.backbone = backbone
    return report
