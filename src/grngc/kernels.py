"""Hot numeric kernels, in numpy: B-spline basis evaluation and Lorenz-96
integration."""
from __future__ import annotations

import ctypes
import functools
import math

import numpy as np

# looked up once: each ctypes.CDLL() builds a function-pointer class that sits
# in a reference cycle until the cyclic collector runs
try:
    _MALLOPT = ctypes.CDLL(None).mallopt
    _MALLOPT.argtypes, _MALLOPT.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
except (AttributeError, OSError, TypeError):  # no mallopt; Windows has no CDLL(None)
    _MALLOPT = None


def backend_name() -> str:
    """Name of the numeric backend the kernels run on."""
    return "numpy"


def keep_freed_memory() -> None:
    """Keep memory freed by glibc malloc in the process: each training step or
    scoring block frees arrays the next allocates again, and pages handed back
    to the kernel fault in anew at a machine-dependent cost. A block of 32 MiB
    or more that no free heap chunk holds gets a mapping of its own and goes
    back to the kernel when freed, so the largest arrays do not grow the heap
    by a run-dependent amount. No-op off glibc."""
    if _MALLOPT is not None:
        _MALLOPT(-3, 32 << 20)  # M_MMAP_THRESHOLD: fixed, not raised by frees
        _MALLOPT(-1, 1 << 30)   # M_TRIM_THRESHOLD: keep up to 1 GiB of free heap


class NonUniformKnots(ValueError):
    pass


@functools.lru_cache(maxsize=128)
def _piece_matrix(degree: int, deriv: int, h: float) -> np.ndarray:
    """(degree - deriv + 1, degree + 1) matrix M such that
    [1, u, ..., u^(degree - deriv)] @ M holds the deriv-th derivatives of
    the degree + 1 B-spline pieces live on one interval of uniform knots
    spaced h, at the local coordinate u in [0, 1]; column r is
    B_{j-degree+r} on interval j. Read-only, as every call with the same
    arguments gets the same array."""
    # the de Boor recurrence on exact integer coefficients of degree! times
    # each piece: c[m, r] multiplies u^m in piece r
    c = np.ones((1, 1), dtype=object)
    for d in range(1, degree + 1):
        r = np.arange(d, dtype=object)
        grown = np.zeros((d + 1, d + 1), dtype=object)
        # piece r + 1 gains (u + d - 1 - r) * c_r, piece r gains (r + 1 - u) * c_r
        grown[:-1, 1:] += c * (d - 1 - r)
        grown[1:, 1:] += c
        grown[:-1, :-1] += c * (r + 1)
        grown[1:, :-1] -= c
        c = grown
    for _ in range(deriv):  # d/dx = (1/h) d/du
        c = c[1:] * np.arange(1, c.shape[0], dtype=object)[:, None]
    m = c.astype(np.float64) / (math.factorial(degree) * h ** deriv)
    m.flags.writeable = False
    return m


def bspline_basis_kernel(x: np.ndarray, knots: np.ndarray, degree: int, deriv: int = 0) -> np.ndarray:
    """B-spline basis values (or their deriv-th derivative) as an
    (n, len(knots) - degree - 1) array for n points already clamped to the
    knot domain; knots not equally spaced raise NonUniformKnots. A point's
    knot interval j and local coordinate u in [0, 1] come by arithmetic; its
    degree+1 live pieces are the powers of u times the cached piece matrix,
    written into the zero output by one scatter. Intervals are half-open and
    clipped to the domain: x at its right edge takes the left limit."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    knots = np.ascontiguousarray(knots, dtype=np.float64)
    n, n_basis = x.shape[0], knots.shape[0] - degree - 1
    h = (knots[-1] - knots[0]) / (knots.shape[0] - 1)
    if not h > 0 or np.max(np.abs(np.diff(knots) - h)) > 1e-6 * h:
        raise NonUniformKnots(f"B-spline knots must be equally spaced, got {knots}")
    out = np.zeros((n, n_basis))
    if deriv > degree:
        return out
    s = (x - knots[0]) / h
    # fmax/fmin, unlike clip, send NaN to a valid interval: NaN points give
    # NaN values, not an out-of-range index
    j = np.fmin(np.fmax(np.floor(s), degree), n_basis - 1)
    u = np.clip(s - j, 0.0, 1.0)
    m = _piece_matrix(degree, deriv, float(h))
    powers = np.empty((m.shape[0], n))
    powers[0] = 1.0
    for k in range(1, m.shape[0]):
        np.multiply(powers[k - 1], u, out=powers[k])
    pieces = powers.T @ m  # one row per point, as in the output
    if deriv == 0:  # a piece that is 0 at an end of the interval can round below 0 there
        np.maximum(pieces, 0.0, out=pieces)
    # flat output index of each piece, filled one column at a time: numpy
    # runs a broadcast add over the short piece axis several times slower
    flat = np.empty((n, degree + 1), dtype=np.intp)
    flat[:, 0] = np.arange(-degree, n * n_basis - degree, n_basis) + j.astype(np.intp)
    for r in range(1, degree + 1):
        np.add(flat[:, 0], r, out=flat[:, r])
    out.reshape(-1)[flat] = pieces
    return out


# ---------------------------------------------------------------------------
# Lorenz-96: dx_i/dt = -x_{i-1}(x_{i-2} - x_{i+1}) - x_i + F, cyclic indices.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _l96_neighbours(p: int) -> np.ndarray:
    """(3, p) indices of x_{i-1}, x_{i+1} and x_{i-2}, cyclic."""
    idx = (np.arange(p) + np.array([[-1], [1], [-2]])) % p
    idx.flags.writeable = False
    return idx


def lorenz96_rhs(x: np.ndarray, forcing: float) -> np.ndarray:
    # one gather for all three neighbours: at p ~ 20 the cost of an RK4 step
    # is numpy call overhead, not arithmetic
    near = x[_l96_neighbours(x.shape[0])]
    return near[0] * (near[1] - near[2]) - x + forcing


def lorenz96_trajectory(x0: np.ndarray, forcing: float, dt: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 trajectory, shape (n_steps + 1, p) including the start."""
    x = np.array(x0, dtype=np.float64)
    forcing, dt = float(forcing), float(dt)
    traj = np.empty((int(n_steps) + 1, x.shape[0]))
    traj[0] = x
    for s in range(int(n_steps)):
        k1 = lorenz96_rhs(x, forcing)
        k2 = lorenz96_rhs(x + 0.5 * dt * k1, forcing)
        k3 = lorenz96_rhs(x + 0.5 * dt * k2, forcing)
        k4 = lorenz96_rhs(x + dt * k3, forcing)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[s + 1] = x
    return traj
