import numpy as np
import pytest

import grngc.diffengine as de
from grngc.splines import SplineSpec, SplineError, basis_node, basis_values


def random_spec(rng):
    degree = int(rng.integers(1, 5))
    grid = int(rng.integers(2, 12))
    lo = float(rng.uniform(-3, 0))
    hi = lo + float(rng.uniform(0.5, 4))
    return SplineSpec(degree, grid, lo, hi)


class TestSpec:
    def test_knot_count(self):
        spec = SplineSpec(degree=3, grid_size=5)
        assert spec.knots().size == 5 + 2 * 3 + 1
        assert spec.n_basis == 8

    @pytest.mark.parametrize("kwargs", [
        {"degree": 0}, {"grid_size": 1}, {"lo": 1.0, "hi": 1.0}, {"lo": 2.0, "hi": -2.0},
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(SplineError):
            SplineSpec(**kwargs)


class TestBasis:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            spec = random_spec(rng)
            x = rng.uniform(spec.lo, spec.hi, 1000)
            total = basis_values(x, spec).sum(axis=-1)
            assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_partition_of_unity_at_edges(self):
        spec = SplineSpec()
        total = basis_values(np.array([spec.lo, spec.hi]), spec).sum(axis=-1)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_cubic_center_two_thirds(self):
        # cardinal cubic B-spline at its central knot
        spec = SplineSpec(degree=3, grid_size=4, lo=-2.0, hi=2.0)
        vals = basis_values(np.array([0.0]), spec)[0]
        assert abs(np.max(vals) - 2.0 / 3.0) < 1e-12

    def test_clamp_below_lo(self):
        spec = SplineSpec()
        below = basis_values(np.array([spec.lo - 5.0]), spec)
        at_lo = basis_values(np.array([spec.lo]), spec)
        assert np.array_equal(below, at_lo)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        spec = SplineSpec()
        b = basis_values(rng.uniform(-3, 3, 500), spec)
        assert np.all(b >= 0.0) and np.all(b <= 1.0)

    @pytest.mark.parametrize("deriv", [1, 2])
    def test_derivatives_vs_finite_differences(self, deriv):
        spec = SplineSpec()
        x = np.linspace(-1.9, 1.9, 41)
        h = 1e-6
        got = basis_values(x, spec, deriv)
        fd = (basis_values(x + h, spec, deriv - 1) - basis_values(x - h, spec, deriv - 1)) / (2 * h)
        assert np.max(np.abs(got - fd)) < 1e-6


class TestBasisNode:
    def test_gradient_vs_finite_differences(self):
        spec = SplineSpec()
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1.8, 1.8, (4, 3))
        w = rng.normal(size=spec.n_basis)

        x = de.variable(x0)
        y = de.reduce_sum(de.mul(basis_node(x, spec), de.constant(np.broadcast_to(w, (4, 3, spec.n_basis)).copy())))
        (g,) = de.backward(y, [x])

        def f(v):
            return float((basis_values(v, spec) * w).sum())

        fd = de.finite_difference(f, x0.copy(), step=1e-6)
        assert np.max(np.abs(g.value - fd)) < 1e-6

    def test_second_order_gradient(self):
        spec = SplineSpec()
        x0 = np.array([0.37])
        x = de.variable(x0)
        y = de.reduce_sum(de.square(basis_node(x, spec)))
        (g1,) = de.backward(y, [x])
        (g2,) = de.backward(de.reduce_sum(g1), [x])

        h = 1e-5

        def grad_at(v):
            return (np.square(basis_values(v + h, spec)).sum()
                    - np.square(basis_values(v - h, spec)).sum()) / (2 * h)

        fd2 = (grad_at(x0 + h) - grad_at(x0 - h)) / (2 * h)
        assert abs(g2.value[0] - fd2) < 1e-4

    def test_clamped_region_zero_gradient(self):
        spec = SplineSpec()
        x = de.variable(np.array([-3.0, 0.5, 3.0]))
        y = de.reduce_sum(basis_node(x, spec))
        (g,) = de.backward(y, [x])
        assert g.value[0] == 0.0 and g.value[2] == 0.0
