"""Full Cox-de Boor table for the B-spline basis, on any non-decreasing knot
vector. Every basis function is evaluated at every point, O(n * knots *
degree); the package evaluates only the degree+1 live pieces of uniform
knots. Test oracle only.

Degree-0 indicators use half-open intervals; x exactly at the right domain
edge knots[-(degree + 1)] is assigned to the last interior interval, so the
basis is the left limit there and partition of unity holds on the closed
domain.
"""
import numpy as np


def bspline_table(x, knots, degree, deriv=0):
    """(n, len(knots) - degree - 1) basis values, or their deriv-th
    derivative, at a flat batch of points inside the knot domain."""
    x = np.asarray(x, dtype=np.float64)
    knots = np.asarray(knots, dtype=np.float64)
    hi = knots[-(degree + 1)]
    last_interior = knots.shape[0] - degree - 2
    d0 = degree - deriv
    if d0 < 0:
        return np.zeros((x.shape[0], knots.shape[0] - degree - 1))
    b = ((x[:, None] >= knots[None, :-1]) & (x[:, None] < knots[None, 1:])).astype(np.float64)
    at_hi = x == hi
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
