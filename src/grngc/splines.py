"""B-spline specification and the one differentiable activation op: SiLU of
any order, alone (MLP) or with the B-spline basis of every input on one
trailing feature axis (KAN)."""
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

    Inputs are clamped to [lo, hi], so derivatives are zero outside; output
    gains a trailing axis of length spec.n_basis.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = bspline_basis_kernel(np.clip(flat, spec.lo, spec.hi), spec.knots(), spec.degree, deriv)
    if deriv > 0:
        out *= ((flat >= spec.lo) & (flat <= spec.hi))[:, None]
    return out.reshape(x.shape + (spec.n_basis,))


def _silu_deriv(a: np.ndarray, n: int) -> np.ndarray:
    """n-th derivative of silu(a) = a*s(a): a*s^(n) + n*s^(n-1), where the
    sigmoid's s^(n) = P_n(s), P_0(s) = s and P_{n+1} = P_n' * (s - s^2)."""
    s = 1.0 / (1.0 + np.exp(-a))
    polys = [np.array([1.0, 0.0])]
    for _ in range(n):
        polys.append(np.polymul(np.polyder(polys[-1]), [-1.0, 1.0, 0.0]))
    return a * np.polyval(polys[n], s) + (n * np.polyval(polys[n - 1], s) if n else 0.0)


def feature_node(x: de.Node, spec: SplineSpec | None = None, deriv: int = 0,
                 dfeat: de.Node | None = None) -> de.Node:
    """Graph op: the activation features of every element a of x, or their
    deriv-th derivative. With a spec these are the KAN features
    [silu(a), B_0(a) ... B_{K-1}(a)] on a trailing axis of length
    1 + spec.n_basis; without one, silu(a) alone and no feature axis. The
    backward rule contracts the upstream gradient with the next-order node,
    `dfeat` or one built on demand, so any order of differentiation works.
    """
    a = x.value
    values = _silu_deriv(a, deriv)
    if spec is not None:
        values = np.concatenate([values[..., None], basis_values(a, spec, deriv)], -1)

    def vjp(g):
        d = dfeat if dfeat is not None else feature_node(x, spec, deriv + 1)
        lead, f = "abcdefgh"[:a.ndim], "k" if spec is not None else ""
        return (de.einsum(f"{lead}{f},{lead}{f}->{lead}", g, d),)

    return de.Node(values, (x,), vjp, op="features")
