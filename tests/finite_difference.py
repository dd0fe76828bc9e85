"""Five-point central-difference gradients of a scalar function of an
array. The package differentiates by reverse mode through its own engine;
this is the independent check of first and second derivatives. Test oracle
only.
"""
import numpy as np


class NonFiniteValue(ValueError):
    pass


def finite_difference(f, at, step=1e-5):
    """Gradient estimate of f at `at`, of the same shape. Its truncation error
    is O(step**4), so it is exact up to rounding on polynomials of degree four
    or less: the three-point rule's O(step**2) term swamps a gradient near a
    multiple root, such as that of a**4 at small a."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    at = np.asarray(at, dtype=np.float64)
    grad = np.zeros_like(at)
    flat = at.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        vals = []
        for k in (2, 1, -1, -2):
            flat[i] = orig + k * step
            vals.append(float(f(at)))
        flat[i] = orig
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue(f"non-finite function value at coordinate {i}")
        hi2, hi, lo, lo2 = vals
        gflat[i] = (8.0 * (hi - lo) - (hi2 - lo2)) / (12.0 * step)
    return grad
