"""Lorenz-96 RK4 with the neighbours read by np.roll, three calls per
right-hand side. The package gathers them with one cached fancy index; the
arithmetic and its order are the same, so trajectories agree bitwise. Test
oracle only.
"""
import numpy as np


def roll_rhs(x, forcing):
    return np.roll(x, 1) * (np.roll(x, -1) - np.roll(x, 2)) - x + forcing


def roll_trajectory(x0, forcing, dt, n_steps):
    """Fixed-step RK4 trajectory, shape (n_steps + 1, p) including the start."""
    x = np.array(x0, dtype=np.float64)
    forcing, dt = float(forcing), float(dt)
    traj = np.empty((int(n_steps) + 1, x.shape[0]))
    traj[0] = x
    for s in range(int(n_steps)):
        k1 = roll_rhs(x, forcing)
        k2 = roll_rhs(x + 0.5 * dt * k1, forcing)
        k3 = roll_rhs(x + 0.5 * dt * k2, forcing)
        k4 = roll_rhs(x + dt * k3, forcing)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[s + 1] = x
    return traj
