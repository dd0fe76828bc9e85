"""Hot numeric kernels, in numpy: B-spline basis evaluation and Lorenz-96
integration."""
from __future__ import annotations

import ctypes
import functools

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


def bspline_basis_kernel(x: np.ndarray, knots: np.ndarray, degree: int, deriv: int = 0) -> np.ndarray:
    """B-spline basis values (or their deriv-th derivative) as an
    (n, len(knots) - degree - 1) array for n points already clamped to the
    knot domain; knots not equally spaced raise NonUniformKnots. Only the
    degree+1 pieces live on a point's knot interval are evaluated, by the de
    Boor triangle in the local coordinate u in [0, 1]. Intervals are
    half-open and clipped to the domain: x at its right edge takes the left
    limit."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    knots = np.ascontiguousarray(knots, dtype=np.float64)
    n_basis = knots.shape[0] - degree - 1
    h = (knots[-1] - knots[0]) / (knots.shape[0] - 1)
    if not h > 0 or np.max(np.abs(np.diff(knots) - h)) > 1e-6 * h:
        raise NonUniformKnots(f"B-spline knots must be equally spaced, got {knots}")
    out = np.zeros((x.shape[0], n_basis))
    if deriv > degree:
        return out
    j = np.clip(np.searchsorted(knots, x, "right") - 1, degree, n_basis - 1)
    u = np.clip((x - knots[j]) / h, 0.0, 1.0)
    # b[r] is the piece of B_{j-d+r} of degree d on interval j; one row per
    # piece keeps every update a contiguous pass over the points
    b = np.ones((1, x.shape[0]))
    for d in range(1, degree - deriv + 1):
        r = np.arange(d)[:, None]
        grown = np.zeros((d + 1, x.shape[0]))
        grown[1:] = (u + (d - 1 - r)) * b
        grown[:-1] += (r + 1 - u) * b
        b = grown / d
    # uniform knots: B'_{i,d} = (B_{i,d-1} - B_{i+1,d-1}) / h
    for _ in range(deriv):
        b = np.diff(np.pad(b, ((1, 1), (0, 0))), axis=0) / -h
    np.put_along_axis(out, (j - degree)[:, None] + np.arange(degree + 1), b.T, axis=1)
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
