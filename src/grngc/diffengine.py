"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every backward rule is itself built out of the primitives in this module, so
gradients are ordinary graph nodes and can be differentiated again (double
backprop). There are two primitives: `add`, of operands of one shape, and
`einsum`, which carries every product, contraction, reduction and broadcast:
an elementwise product repeats every label, a scaling is a product with a
0-d constant, a sum a contraction to a 0-d output and a broadcast an outer
product with ones. There is no implicit broadcasting; any shape mixing is an
error.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .kernels import contract, result_order


class DiffError(Exception):
    """Base class for differentiation-engine errors."""


class ShapeMismatch(DiffError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {', '.join(map(str, shapes))}")
        self.op = op
        self.shapes = shapes


class NonScalarRoot(DiffError):
    def __init__(self, shape):
        super().__init__(f"backward root must be scalar, got shape {shape}")


class Node:
    """A value in the differentiation graph.

    `vjp`, when present, maps an upstream gradient node to one gradient node
    (or None) per parent. Rules are compositions of primitives, never opaque
    numeric closures, which is what makes second-order differentiation work.
    `batch_axes` are the axes that the node's own backward contractions
    batch over (an einsum's labels in both operands and the output), so its
    gradient is read best with them outermost in memory.
    """

    __slots__ = ("value", "parents", "vjp", "requires_grad", "op", "batch_axes")

    def __init__(self, value, parents=(), vjp=None, requires_grad=None, op="leaf",
                 batch_axes=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Node, ...] = tuple(parents)
        self.vjp: Callable | None = vjp
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self.parents)
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.batch_axes = batch_axes

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op}, shape={self.value.shape})"


def variable(value) -> Node:
    return Node(value, requires_grad=True, op="var")


def constant(value) -> Node:
    return Node(value, requires_grad=False, op="const")


def add(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeMismatch("add", a.shape, b.shape)
    return Node(a.value + b.value, (a, b), lambda g: (g, g), op="add")


def einsum(spec: str, a: Node, b: Node) -> Node:
    """Two-operand contraction in explicit `np.einsum` notation, e.g.
    "boh,bhi->boi". Labels may not repeat within one operand, and every
    label of an operand must also appear in the other operand or the output,
    so that each gradient is itself an einsum of the upstream gradient with
    the other operand."""
    inputs, out = spec.replace(" ", "").split("->")
    sa, sb = inputs.split(",")
    sizes: dict[str, int] = {}
    for labels, shape in ((sa, a.shape), (sb, b.shape)):
        if len(labels) != len(shape) or len(set(labels)) != len(labels):
            raise ShapeMismatch(f"einsum {spec}", a.shape, b.shape)
        for label, n in zip(labels, shape):
            if sizes.setdefault(label, n) != n:
                raise ShapeMismatch(f"einsum {spec}", a.shape, b.shape)
    if (len(set(out)) != len(out) or not set(out) <= set(sa + sb)
            or not set(sa) <= set(sb + out) or not set(sb) <= set(sa + out)):
        raise ShapeMismatch(f"einsum {spec}", a.shape, b.shape)
    return Node(
        contract(spec, a.value, b.value),
        (a, b),
        lambda g: (_gradient(g, out, b, sb, a, sa) if a.requires_grad else None,
                   _gradient(g, out, a, sa, b, sb) if b.requires_grad else None),
        op="einsum",
        batch_axes=tuple(i for i, ix in enumerate(out) if ix in sa and ix in sb),
    )


def _gradient(g: Node, out: str, other: Node, so: str, target: Node, st: str) -> Node:
    """The gradient of `target` (labels st) through its contraction with
    `other` (labels so), from the upstream gradient g (labels out):
    `einsum(out,so->st)(g, other)`, or `einsum(so,out->st)(other, g)`, which
    differs in rounding only. The second is taken where `contract` lays its
    result out in the order the gradient's readers want and the first's is
    not, or failing that, where only the second gives it their unit-stride
    axis. That order puts the target's batch axes outermost and then follows
    its value's memory order. For a spec `contract` has no lowering for, g
    stays first."""
    strides = target.value.strides
    want = "".join(st[k] for k in sorted(
        range(len(st)), key=lambda k: (k not in target.batch_axes, -abs(strides[k]))))
    first = result_order(f"{out},{so}->{st}", g.shape, other.shape)
    second = result_order(f"{so},{out}->{st}", other.shape, g.shape)  # None with first
    if first is not None and first != want and (
            second == want or second[-1] == want[-1] != first[-1]):
        return einsum(f"{so},{out}->{st}", other, g)
    return einsum(f"{out},{so}->{st}", g, other)


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Node, wrt: Sequence[Node]) -> list[Node]:
    """Gradients of a scalar root with respect to each node in `wrt`, as
    differentiable graph nodes (read `.value` for arrays). Nodes unreachable
    from the root get exact zero gradients.
    """
    if root.value.shape != ():
        raise NonScalarRoot(root.value.shape)

    order = _toposort(root)
    grads: dict[int, Node] = {id(root): constant(1.0)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node.vjp is None or not node.requires_grad:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            prev = grads.get(id(parent))
            grads[id(parent)] = pg if prev is None else add(prev, pg)
    return [grads.get(id(w)) or constant(np.zeros(w.shape)) for w in wrt]
