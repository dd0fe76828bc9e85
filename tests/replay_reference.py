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
    pred = fc.forward_graph(backbone, x, params)
    n, width = dataset.inputs.shape
    rows = []
    for j in range(pred.shape[1]):
        one_hot = de.constant(np.eye(pred.shape[1])[j])
        s_j = de.reduce_sum(de.einsum("bo,o->b", pred, one_hot))
        (g,) = de.backward(s_j, [x])
        g = de.reshape(g, (n, dataset.lag, width // dataset.lag))
        rows.append(de.reduce_mean(de.reduce_mean(de.absval(g), axis=0), axis=0))
    return pred, params, rows


def replay_loss(backbone, dataset, lam):
    """(loss, prediction loss, sparsity, parameter nodes) as graphs."""
    pred, params, rows = replay_rows(backbone, dataset)
    pred_loss = de.reduce_mean(de.square(de.sub(pred, de.constant(dataset.targets))))
    sparsity = de.reduce_sum(rows[0])
    for row in rows[1:]:
        sparsity = de.add(sparsity, de.reduce_sum(row))
    sparsity = de.scale(sparsity, lam)
    return de.add(pred_loss, sparsity), pred_loss, sparsity, params


def replay_scores(backbone, dataset):
    _, _, rows = replay_rows(backbone, dataset)
    return np.stack([row.value for row in rows])
