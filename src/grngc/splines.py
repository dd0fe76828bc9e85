"""B-spline specification and a differentiable basis-evaluation graph op."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .kernels import bspline_basis_kernel


class SplineError(Exception):
    pass


@dataclass(frozen=True)
class SplineSpec:
    """Uniform B-spline basis on [lo, hi] with `grid_size` interior intervals.

    The knot vector extends `degree` extra intervals past each end so every
    interior point has a full set of active basis functions.
    """

    degree: int = 3
    grid_size: int = 5
    lo: float = -2.0
    hi: float = 2.0

    def __post_init__(self):
        if self.degree < 1:
            raise SplineError(f"degree must be >= 1, got {self.degree}")
        if self.grid_size < 2:
            raise SplineError(f"grid_size must be >= 2, got {self.grid_size}")
        if not self.lo < self.hi:
            raise SplineError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.degree

    def knots(self) -> np.ndarray:
        h = (self.hi - self.lo) / self.grid_size
        start = self.lo - self.degree * h
        return start + h * np.arange(self.grid_size + 2 * self.degree + 1)


def basis_values(x: np.ndarray, spec: SplineSpec, deriv: int = 0) -> np.ndarray:
    """Basis (or derivative) values for an arbitrary-shape array of points.

    Inputs are clamped to [lo, hi]; output gains a trailing axis of length
    spec.n_basis.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = np.clip(x.reshape(-1), spec.lo, spec.hi)
    out = bspline_basis_kernel(flat, spec.knots(), spec.degree, deriv)
    return out.reshape(x.shape + (spec.n_basis,))


def basis_node(x: de.Node, spec: SplineSpec, deriv: int = 0,
               dbasis: de.Node | None = None) -> de.Node:
    """Graph op: B-spline basis (or its deriv-th derivative) of every element
    of x, trailing basis axis.

    Inputs are clamped to [lo, hi], so derivatives are zero outside. The
    backward rule contracts the upstream gradient with the next-order
    derivative node, so any order of differentiation works: `dbasis` when the
    caller has already built that node, otherwise one built on demand.
    """
    values = basis_values(x.value, spec, deriv)
    if deriv > 0:
        values = values * ((x.value >= spec.lo) & (x.value <= spec.hi))[..., None]

    def vjp(g):
        d = dbasis if dbasis is not None else basis_node(x, spec, deriv + 1)
        return (de.reduce_sum(de.mul(g, d), axis=x.value.ndim),)

    return de.Node(values, (x,), vjp, op="bspline")
