"""Hot numeric kernels, in numpy: B-spline basis evaluation and Lorenz-96
integration."""
from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the numeric backend the kernels run on."""
    return "numpy"


# ---------------------------------------------------------------------------
# B-spline basis (Cox-de Boor), optionally differentiated `deriv` times.
#
# Degree-0 indicators use half-open intervals; x exactly at the right domain
# edge is assigned to the last interior interval so the basis is the left
# limit there and partition of unity holds on the closed domain.
# ---------------------------------------------------------------------------

def bspline_basis_kernel(x: np.ndarray, knots: np.ndarray, degree: int, deriv: int = 0) -> np.ndarray:
    """Basis values (or their deriv-th derivative) for a flat batch of points.

    Returns an (n, n_basis) array with n_basis = len(knots) - degree - 1.
    Points are assumed already clamped to the knot domain.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    knots = np.ascontiguousarray(knots, dtype=np.float64)
    hi = knots[-(degree + 1)]
    last_interior = knots.shape[0] - degree - 2
    n = x.shape[0]
    m = knots.shape[0]
    d0 = degree - deriv
    if d0 < 0:
        return np.zeros((n, m - degree - 1))
    b = ((x[:, None] >= knots[None, :-1]) & (x[:, None] < knots[None, 1:])).astype(np.float64)
    at_hi = x == hi
    if np.any(at_hi):
        b[at_hi, :] = 0.0
        b[at_hi, last_interior] = 1.0
    for d in range(1, d0 + 1):
        left = (x[:, None] - knots[None, :-(d + 1)]) / (knots[d:-1] - knots[:-(d + 1)])[None, :]
        right = (knots[None, d + 1:] - x[:, None]) / (knots[d + 1:] - knots[1:-d])[None, :]
        b = left * b[:, :-1] + right * b[:, 1:]
    # raising the degree and the derivative order together
    for j in range(d0 + 1, degree + 1):
        den1 = (knots[j:-1] - knots[:-(j + 1)])[None, :]
        den2 = (knots[j + 1:] - knots[1:-j])[None, :]
        b = j * (b[:, :-1] / den1 - b[:, 1:] / den2)
    return b


# ---------------------------------------------------------------------------
# Lorenz-96: dx_i/dt = -x_{i-1}(x_{i-2} - x_{i+1}) - x_i + F, cyclic indices.
# ---------------------------------------------------------------------------

def lorenz96_rhs(x: np.ndarray, forcing: float) -> np.ndarray:
    return np.roll(x, 1) * (np.roll(x, -1) - np.roll(x, 2)) - x + forcing


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
