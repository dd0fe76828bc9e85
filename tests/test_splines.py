import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grngc.diffengine as de
from bspline_reference import bspline_table
from finite_difference import finite_difference
from grngc.kernels import NonUniformKnots, _piece_matrix, bspline_basis_kernel
from grngc.splines import SplineSpec, SplineError, basis_values, feature_node


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

    @pytest.mark.parametrize("deriv", [1, 2])
    def test_derivatives_zero_outside_grid(self, deriv):
        # the clamped basis is constant outside [lo, hi]
        spec = SplineSpec()
        outside = np.array([spec.lo - 3.0, spec.lo - 1e-9, spec.hi + 1e-9, spec.hi + 3.0])
        assert not np.any(basis_values(outside, spec, deriv))
        assert np.any(basis_values(np.array([spec.lo, spec.hi]), spec, deriv))


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(degree=st.integers(1, 5), grid=st.integers(2, 9),
           lo=st.floats(-4.0, 4.0), width=st.floats(0.25, 8.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_cox_de_boor_table(self, degree, grid, lo, width, seed):
        spec = SplineSpec(degree, grid, lo, lo + width)
        knots = spec.knots()
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.uniform(spec.lo, spec.hi, 64),
                            knots[degree:degree + grid + 1], [spec.lo, spec.hi]])
        x = np.clip(x, spec.lo, spec.hi)
        off_knots = np.min(np.abs(x[:, None] - knots), axis=1) > 1e-9 * width
        for deriv in range(degree + 2):
            got = bspline_basis_kernel(x, knots, degree, deriv)
            ref = bspline_table(x, knots, degree, deriv)
            if deriv == degree:
                # piecewise constant: at a knot the kernels take different
                # one-sided limits
                got, ref = got[off_knots], ref[off_knots]
            # derivatives grow like (grid / width) ** deriv
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, deriv

    def test_non_uniform_knots_named_error(self):
        knots = SplineSpec().knots()
        knots[4] += 0.1
        with pytest.raises(NonUniformKnots):
            bspline_basis_kernel(np.array([0.0]), knots, 3)

    def test_nan_point_gives_nan_values(self):
        # a diverged activation reaches the loss check, not an index error
        spec = SplineSpec()
        out = bspline_basis_kernel(np.array([np.nan, 0.0]), spec.knots(), spec.degree, 1)
        assert np.isnan(out[0]).any() and np.all(np.isfinite(out[1]))

    def test_cached_piece_matrix_read_only(self):
        # every kernel call with these arguments shares the one array
        cached = _piece_matrix(3, 1, 0.8)
        assert _piece_matrix(3, 1, 0.8) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0


def spline_slots(node, spec):
    """The feature node with its SiLU slot 0 zeroed, leaving slots 1:."""
    mask = np.broadcast_to(np.r_[0.0, np.ones(spec.n_basis)], node.shape).copy()
    labels = "abc"[:node.value.ndim]
    return de.einsum(f"{labels},{labels}->{labels}", node, de.constant(mask))


class TestBasisNode:
    def test_gradient_vs_finite_differences(self):
        spec = SplineSpec()
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1.8, 1.8, (4, 3))
        w = rng.normal(size=spec.n_basis)

        x = de.variable(x0)
        y = de.einsum("bik,bik->", spline_slots(feature_node(x, spec), spec),
                      de.constant(np.broadcast_to(np.r_[0.0, w], (4, 3, 1 + spec.n_basis)).copy()))
        (g,) = de.backward(y, [x])

        def f(v):
            return float((basis_values(v, spec) * w).sum())

        fd = finite_difference(f, x0.copy(), step=1e-6)
        assert np.max(np.abs(g.value - fd)) < 1e-6

    def test_second_order_gradient(self):
        spec = SplineSpec()
        x0 = np.array([0.37])
        x = de.variable(x0)
        s = spline_slots(feature_node(x, spec), spec)
        (g1,) = de.backward(de.einsum("ik,ik->", s, s), [x])
        (g2,) = de.backward(de.einsum("i,i->", g1, de.constant(np.ones(1))), [x])

        h = 1e-5

        def grad_at(v):
            return (np.square(basis_values(v + h, spec)).sum()
                    - np.square(basis_values(v - h, spec)).sum()) / (2 * h)

        fd2 = (grad_at(x0 + h) - grad_at(x0 - h)) / (2 * h)
        assert abs(g2.value[0] - fd2) < 1e-4

    def test_clamped_region_zero_gradient(self):
        spec = SplineSpec()
        x = de.variable(np.array([-3.0, 0.5, 3.0]))
        s = spline_slots(feature_node(x, spec), spec)
        y = de.einsum("ik,ik->", s, de.constant(np.ones(s.shape)))
        (g,) = de.backward(y, [x])
        assert g.value[0] == 0.0 and g.value[2] == 0.0


class TestFeatureNode:
    def test_silu_slot_values(self):
        a = np.array([-2.0, 0.0, 1.0])
        got = feature_node(de.constant(a), SplineSpec()).value[:, 0]
        assert np.allclose(got, a / (1.0 + np.exp(-a)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("deriv", [1, 2])
    def test_silu_slot_vs_finite_differences(self, deriv):
        # wide enough to cover the clamped spline region, where silu still bends
        spec = SplineSpec()
        x0 = np.linspace(-4.0, 4.0, 17)
        got = feature_node(de.constant(x0), spec, deriv).value[:, 0]

        def lower(v):
            return float(feature_node(de.constant(v), spec, deriv - 1).value[:, 0].sum())

        fd = finite_difference(lower, x0.copy(), step=1e-6)
        assert np.max(np.abs(got - fd)) < 1e-7

    def test_second_order_gradient(self):
        # every slot at once, inside and outside the spline grid
        spec = SplineSpec()
        rng = np.random.default_rng(5)
        x0 = np.array([-2.6, -0.9, 0.37, 1.4, 2.5])
        w = rng.normal(size=(5, 1 + spec.n_basis))

        def grad(v):
            x = de.variable(v)
            m = de.einsum("ik,ik->ik", feature_node(x, spec), de.constant(w))
            (g1,) = de.backward(de.einsum("ik,ik->", m, m), [x])
            return x, g1

        x, g1 = grad(x0)
        (g2,) = de.backward(de.einsum("i,i->", g1, g1), [x])

        def f(v):
            return float(np.square(grad(v)[1].value).sum())

        fd = finite_difference(f, x0.copy(), step=1e-6)
        assert np.max(np.abs(g2.value - fd)) / np.max(np.abs(fd)) < 1e-6
