"""Per-series replay reference for the GRNGC penalty and scores.

The gradient of each summed output s_j = sum_t xhat_{t,j} with respect to the
input windows is taken by its own backward pass through the forward graph.
Those gradients are graph nodes, so the outer backward of the penalty
differentiates through them. This is the direct reading of the method and
costs p backward passes; the package builds the same quantities from one
per-sample input Jacobian. Test oracle only.
"""
import numpy as np

import grngc.diffengine as de
from grngc import forecasters as fc


def replay_rows(backbone, dataset):
    """Prediction node, parameter nodes, and one score row per output series:
    row_j[i] = mean over samples and lags of |d s_j / d x_(lag, i)|."""
    x = de.variable(dataset.inputs)
    params = fc.make_param_nodes(backbone)
    pred, _ = fc.forward_graph(backbone, x, params)
    n, p = pred.shape
    # window column l*p + i is series i at lag l; the mean over samples and lags
    lag_mean = de.constant(np.tile(np.eye(p), (dataset.lag, 1)) / (n * dataset.lag))
    rows = []
    for j in range(p):
        column_j = de.constant(np.outer(np.ones(n), np.eye(p)[j]))
        s_j = de.einsum("bo,bo->", pred, column_j)
        (g,) = de.backward(s_j, [x])
        abs_g = de.einsum("bm,bm->m", g, de.constant(np.sign(g.value)))
        rows.append(de.einsum("m,mi->i", abs_g, lag_mean))
    return pred, params, rows


def replay_loss(backbone, dataset, lam):
    """(loss, prediction loss, sparsity, parameter nodes) as graphs."""
    pred, params, rows = replay_rows(backbone, dataset)
    d = de.add(pred, de.constant(-dataset.targets))
    pred_loss = de.einsum(",->", de.constant(1.0 / d.value.size), de.einsum("bo,bo->", d, d))
    ones = de.constant(np.ones(pred.shape[1]))
    sparsity = de.einsum("i,i->", rows[0], ones)
    for row in rows[1:]:
        sparsity = de.add(sparsity, de.einsum("i,i->", row, ones))
    sparsity = de.einsum(",->", de.constant(lam), sparsity)
    return de.add(pred_loss, sparsity), pred_loss, sparsity, params


def replay_scores(backbone, dataset):
    _, _, rows = replay_rows(backbone, dataset)
    return np.stack([row.value for row in rows])
