"""Forecasting backbones behind one interface: KAN (SiLU base + B-spline
edge functions) and a SiLU MLP. Both map a flattened lag window of k*p values
to a p-vector prediction as graphs of diffengine and splines ops, through one
layer body. The same layer loop can also build the per-sample input Jacobian
from the forward activations, as a graph that a single backward
differentiates."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffengine as de
from .splines import SplineSpec, feature_node

KAN = "kan"
MLP = "mlp"


class BackboneError(Exception):
    pass


@dataclass
class KanLayer:
    w_base: np.ndarray    # (n_out, n_in)
    w_spline: np.ndarray  # (n_out, n_in)
    coef: np.ndarray      # (n_out, n_in, n_basis)


@dataclass
class MlpLayer:
    weight: np.ndarray  # (n_out, n_in)
    bias: np.ndarray    # (n_out,)


@dataclass
class Backbone:
    kind: str
    sizes: list[int]
    spec: SplineSpec
    seed: int
    layers: list = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def output_dim(self) -> int:
        return self.sizes[-1]


def init_backbone(kind: str, sizes, spec: SplineSpec | None = None, seed: int = 0) -> Backbone:
    """Seed-determined initialization.

    KAN: base weights uniform +-1/sqrt(n_in), spline weights 1, coefficients
    small gaussian noise shrunk by the basis count. MLP: weights uniform
    +-1/sqrt(n_in), zero biases.
    """
    sizes = [int(s) for s in sizes]
    if kind not in (KAN, MLP):
        raise BackboneError(f"unknown backbone kind {kind!r}")
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise BackboneError(f"invalid layer sizes {sizes}")
    spec = spec or SplineSpec()
    rng = np.random.default_rng(seed)
    bb = Backbone(kind=kind, sizes=sizes, spec=spec, seed=seed)
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        if kind == KAN:
            bb.layers.append(KanLayer(
                w_base=rng.uniform(-1.0, 1.0, (n_out, n_in)) / np.sqrt(n_in),
                w_spline=np.ones((n_out, n_in)),
                coef=rng.normal(0.0, 0.1 / np.sqrt(spec.n_basis), (n_out, n_in, spec.n_basis)),
            ))
        else:
            bb.layers.append(MlpLayer(
                weight=rng.uniform(-1.0, 1.0, (n_out, n_in)) / np.sqrt(n_in),
                bias=np.zeros(n_out),
            ))
    return bb


def param_arrays(backbone: Backbone) -> list[np.ndarray]:
    """Trainable arrays in declaration order (the serialization order too):
    each layer's fields in dataclass order."""
    return [a for layer in backbone.layers for a in vars(layer).values()]


def set_param_arrays(backbone: Backbone, arrays) -> None:
    it = iter(arrays)
    for layer in backbone.layers:
        for name in vars(layer):
            setattr(layer, name, np.asarray(next(it), dtype=np.float64))


def make_param_nodes(backbone: Backbone) -> list[de.Node]:
    return [de.variable(a) for a in param_arrays(backbone)]


def layer_weights(backbone: Backbone, param_nodes: list[de.Node]) -> list[tuple]:
    """(weight, bias) of each layer as nodes over the parameter nodes: the
    MLP's own weight and bias, and the KAN's W = [w_base | w_spline * coef]
    over the feature axis, with no bias."""
    params = iter(param_nodes)
    if backbone.kind == MLP:
        return [(next(params), next(params)) for _ in backbone.layers]
    k = backbone.spec.n_basis
    weights = []
    for _ in backbone.layers:
        wb, ws, c = next(params), next(params), next(params)
        w = de.add(de.einsum("oi,k->oik", wb, de.constant(np.eye(1, 1 + k)[0])),
                   de.einsum("oij,jk->oik", de.einsum("oi,oij->oij", ws, c),
                             de.constant(np.eye(k, 1 + k, 1))))
        weights.append((w, None))
    return weights


def forward_graph(backbone: Backbone, x: de.Node, param_nodes: list[de.Node] | None = None,
                  jacobian: bool = False, _jacobian_only: bool = False,
                  weights: list[tuple] | None = None):
    """Prediction (batch, n_out) as a graph over the given input and parameter
    nodes, and with `jacobian` the per-sample input Jacobian
    J[b, o, i] = d pred[b, o] / d x[b, i] chained from the layer factors, as a
    differentiable graph too; else None. `weights`, from `layer_weights`,
    stand in for the parameter nodes where many calls share them.
    `_jacobian_only`, for scoring, builds the Jacobian alone: the last
    layer's features, output and bias go unbuilt, and the prediction
    returned is None."""
    if x.value.ndim != 2 or x.shape[1] != backbone.input_dim:
        raise BackboneError(f"forward: window shape {x.shape} incompatible with "
                            f"input_dim {backbone.input_dim}")
    if weights is None:
        weights = layer_weights(backbone, param_nodes)
    jacobian = jacobian or _jacobian_only
    ones = de.constant(np.ones(x.shape[0]))  # broadcasts over the batch
    h = x
    # (einsum spec, node) pairs that right-multiply the Jacobian from the output
    # side, each spec taking the factor first: contract lays a pair out as
    # batch labels, then the second operand's kept labels, then the first's
    # (kernels.result_order), so J comes out C-ordered for the
    # penalty and its sign
    factors = []
    # a layer is einsum(features of h, W) over the input and feature axes;
    # the KAN features are [silu | B_0 ... B_{K-1}] on axis k, the MLP's
    # silu alone, and the MLP's first layer takes the raw input
    spec, f = (backbone.spec, "k") if backbone.kind == KAN else (None, "")
    for li, (w, b) in enumerate(weights):
        raw = backbone.kind == MLP and li == 0
        dfeat = None
        if jacobian and raw:
            factors.append(("hi,boh->boi", w))
        elif jacobian:
            dfeat = feature_node(h, spec, 1)
            factors.append(("bhi,boh->boi", de.einsum(f"oi{f},bi{f}->boi", w, dfeat)))
        if _jacobian_only and li == len(weights) - 1:
            h = None
            break
        if not raw:
            h = feature_node(h, spec, dfeat=dfeat)
        h = de.einsum(f"bi{f},oi{f}->bo", h, w)
        if b is not None:
            h = de.add(h, de.einsum("b,o->bo", ones, b))
    if not jacobian:
        return h, None
    jac = factors.pop()[1]
    if jac.value.ndim == 2:
        jac = de.einsum("b,oi->boi", ones, jac)
    for chain, factor in reversed(factors):
        jac = de.einsum(chain, factor, jac)
    return h, jac


def forward(backbone: Backbone, windows: np.ndarray) -> np.ndarray:
    """Plain numeric prediction, shape (batch, p)."""
    x = de.constant(np.atleast_2d(np.asarray(windows, dtype=np.float64)))
    return forward_graph(backbone, x, [de.constant(a) for a in param_arrays(backbone)])[0].value


def count_parameters(backbone: Backbone) -> int:
    return sum(a.size for a in param_arrays(backbone))
