"""Per-layer probes: single calls to grngc's public functions, timed from
outside on one batch, plus the two numeric kernels.

Operation counts and bytes are computed from array sizes, not measured:
bytes are the compulsory traffic (each input read once, each output written
once) and ignore cache misses.
"""
from __future__ import annotations

import statistics
import time

import numpy as np


def median_s(fn, repeats: int) -> float:
    """Median wall time of `repeats` calls after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def graph_nodes(root) -> list:
    """Every node reachable from `root` through Node.parents, once each."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.parents)
    return out


def layer_probes(backbone, batch, lam: float) -> dict:
    from grngc import core, forecasters, splines

    graph = core.LossGraph(backbone, batch, lam)
    nodes = graph_nodes(graph.loss)
    out = {
        "diffengine.nodes_per_step": len(nodes),
        "diffengine.graph_mb_per_step": sum(n.value.nbytes for n in nodes) / 1e6,
    }
    del graph, nodes
    with_penalty = median_s(lambda: core.LossGraph(backbone, batch, lam), 3)
    without = median_s(lambda: core.LossGraph(backbone, batch, 0.0), 3)
    out["core.penalty_ms"] = (with_penalty - without) * 1e3
    out["forecasters.forward_ms"] = 1e3 * median_s(
        lambda: forecasters.forward(backbone, batch.inputs), 5)

    # B-spline basis, deriv 0 and 1, on the input of every KAN layer
    out.update({"splines.basis_ms": 0.0, "splines.points_per_s": 0.0,
                "splines.basis_bytes": 0})
    if backbone.kind != "kan":
        return out
    spec = backbone.spec
    layer_inputs = [batch.inputs]
    for i in range(1, len(backbone.layers)):
        head = forecasters.Backbone(backbone.kind, backbone.sizes[:i + 1], spec,
                                    backbone.seed, backbone.layers[:i])
        layer_inputs.append(forecasters.forward(head, batch.inputs))

    def basis():
        for h in layer_inputs:
            for deriv in (0, 1):
                splines.basis_values(h, spec, deriv)

    seconds = median_s(basis, 5)
    points = 2 * sum(h.size for h in layer_inputs)
    out["splines.basis_ms"] = seconds * 1e3
    out["splines.points_per_s"] = points / seconds
    out["splines.basis_bytes"] = 8 * points * (1 + spec.n_basis)
    return out


# flops per element per RK4 step: 4 right-hand sides of 4 flops, three stage
# inputs of 2, and the 7-flop weighted update
L96_FLOPS_PER_STEP = 4 * 4 + 3 * 2 + 7


def kernel_probes(seed: int) -> dict:
    """B-spline basis on 100k points and 2000 Lorenz-96 RK4 steps at p=100."""
    from grngc.kernels import bspline_basis_kernel, lorenz96_trajectory
    from grngc.splines import SplineSpec

    rng = np.random.default_rng(seed)
    spec = SplineSpec()
    knots = spec.knots()
    n = 100_000
    x = rng.uniform(spec.lo, spec.hi, n)
    bspline_s = median_s(lambda: bspline_basis_kernel(x, knots, spec.degree, 0), 5)
    # the local de Boor triangle: level d updates d+1 nonzero entries at 7
    # flops each, the work any evaluation of the degree+1 live pieces needs
    triangle = sum(7 * (d + 1) for d in range(1, spec.degree + 1))

    p, n_steps = 100, 2000
    x0 = 10.0 + rng.normal(0.0, 0.01, p)
    l96_s = median_s(lambda: lorenz96_trajectory(x0, 10.0, 0.05, n_steps), 3)
    return {
        "kernels.bspline_ms": bspline_s * 1e3,
        "kernels.bspline_flops": n * triangle,
        "kernels.bspline_bytes": 8 * n * (1 + spec.n_basis),
        "kernels.lorenz96_ms": l96_s * 1e3,
        "kernels.lorenz96_flops": n_steps * p * L96_FLOPS_PER_STEP,
        "kernels.lorenz96_bytes": 8 * p * (n_steps + 2),
    }
