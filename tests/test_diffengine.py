import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grngc.diffengine as de
from grngc.splines import silu_node


def relerr(a, b):
    return np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-12)


class TestPrimitives:
    def test_matmul_hand(self):
        a = de.constant([[1.0, 2.0], [3.0, 4.0]])
        b = de.constant([[1.0], [1.0]])
        assert np.array_equal(de.einsum("ij,jk->ik", a, b).value, [[3.0], [7.0]])

    def test_abs_subgradient(self):
        x = de.variable(-2.5)
        y = de.absval(x)
        assert y.value == 2.5
        (g,) = de.backward(y, [x])
        assert g.value == -1.0

    def test_abs_at_zero_sign_zero(self):
        x = de.variable(0.0)
        (g,) = de.backward(de.absval(x), [x])
        assert g.value == 0.0

    def test_sum_mean_hand(self):
        x = de.constant([[1.0, 2.0], [3.0, 4.0]])
        assert de.reduce_sum(de.reduce_mean(x, axis=0)).value == 5.0

    def test_shape_mismatch_named(self):
        with pytest.raises(de.ShapeMismatch, match="einsum"):
            de.einsum("ij,jk->ik", de.constant(np.ones((2, 3))), de.constant(np.ones((2, 3))))
        with pytest.raises(de.ShapeMismatch, match="add"):
            de.add(de.constant(np.ones(3)), de.constant(np.ones(4)))

    def test_scalar_broadcast(self):
        x = de.variable(np.array([1.0, 2.0, 3.0]))
        y = de.reduce_sum(de.mul(x, de.constant(2.0)))
        (g,) = de.backward(y, [x])
        assert np.array_equal(g.value, [2.0, 2.0, 2.0])


class TestSilu:
    def test_at_zero(self):
        assert silu_node(de.constant(0.0)).value == 0.0

    def test_at_one(self):
        assert silu_node(de.constant(1.0)).value == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_derivative_at_zero(self):
        x = de.variable(0.0)
        (g,) = de.backward(silu_node(x), [x])
        assert g.value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("order", range(3))
    def test_orders_vs_finite_differences(self, order):
        # the order n+1 values are the differences of order n; the first and
        # second derivatives of order n, with order n+1 built on demand or
        # passed in, match finite differences
        rng = np.random.default_rng(order)
        x0 = rng.uniform(-4, 4, (2, 3))
        fd = de.finite_difference(
            lambda v: float(silu_node(de.constant(v), order).value.sum()), x0.copy())
        assert relerr(silu_node(de.constant(x0), order + 1).value, fd) < 1e-6
        for op in (lambda a, b: silu_node(a, order),
                   lambda a, b: silu_node(a, order, dnext=silu_node(a, order + 1))):
            check_first_and_second_derivatives(op, x0, np.zeros(()), rng)


class TestBackward:
    def test_square_gradient(self):
        x = de.variable(3.0)
        (g,) = de.backward(de.mul(x, x), [x])
        assert g.value == 6.0

    def test_second_derivative(self):
        x = de.variable(2.0)
        y = de.mul(de.mul(x, x), x)
        (g1,) = de.backward(y, [x])
        (g2,) = de.backward(g1, [x])
        assert g2.value == pytest.approx(12.0, abs=1e-10)

    def test_non_scalar_root(self):
        x = de.variable(np.ones(3))
        with pytest.raises(de.NonScalarRoot):
            de.backward(x, [x])

    def test_unreachable_gradient_zero(self):
        x = de.variable(2.0)
        z = de.variable(np.ones((2, 2)))
        (g,) = de.backward(de.mul(x, x), [z])
        assert g.shape == (2, 2)
        assert np.all(g.value == 0.0)

    def test_double_backward_with_retention_ok(self):
        x = de.variable(3.0)
        y = de.mul(x, x)
        (g1,) = de.backward(y, [x])
        (g2,) = de.backward(y, [x])
        assert g1.value == g2.value == 6.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_abs_vs_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w0 = rng.uniform(-2, 2, (3, 4))
        xv = rng.uniform(-2, 2, (4, 2))

        wn = de.variable(w0)
        y = de.reduce_sum(de.absval(de.einsum("ij,jk->ik", wn, de.constant(xv))))
        (g,) = de.backward(y, [wn])

        def f(w):
            return float(np.abs(w @ xv).sum())

        fd = de.finite_difference(f, w0.copy(), step=1e-5)
        assert relerr(g.value, fd) < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_all_primitives_vs_finite_differences(self, seed):
        # one composite graph touching every differentiable primitive
        rng = np.random.default_rng(100 + seed)
        x0 = rng.uniform(-2, 2, (3, 4))

        def build(xv):
            x = de.variable(xv)
            a = de.square(de.scale(x, 0.7))
            d = de.einsum("bi,oi->bo", a, de.constant(rng_w))
            e = de.add(de.square(d), de.absval(de.sub(d, de.constant(0.1))))
            f = de.sub(de.mul(e, e), de.mul(e, d))
            g = de.reduce_mean(f, axis=0)
            h = de.reduce_mean(de.reduce_sum(de.expand(g, 0, 2), axis=1))
            r = de.reduce_sum(de.mul(de.reshape(de.square(x), (2, 6)), de.constant(rng_r)))
            return x, de.add(h, r)

        rng_w = rng.uniform(-1, 1, (5, 4))
        rng_r = rng.uniform(-1, 1, (2, 6))
        x, y = build(x0)
        (g,) = de.backward(y, [x])

        def f(v):
            _, yy = build(v)
            return float(yy.value)

        fd = de.finite_difference(f, x0.copy(), step=1e-5)
        assert relerr(g.value, fd) < 1e-6


# the contraction patterns the forecasters use, plus a plain matrix product
EINSUM_SPECS = ["ij,jk->ik", "oi,bi->boi", "oik,bik->boi", "boh,bhi->boi",
                "boh,hi->boi", "boh,bh->boh"]


class TestEinsum:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(5, 4, 2))
        got = de.einsum("oik,bik->boi", de.constant(a), de.constant(b)).value
        assert np.allclose(got, np.einsum("oik,bik->boi", a, b), atol=1e-14)

    @pytest.mark.parametrize("spec,shapes", [
        ("ij,jk->ik", ((2, 3), (4, 5))),   # contracted sizes differ
        ("ij,jk->il", ((2, 3), (3, 5))),   # output label in no operand
        ("ii,ij->j", ((2, 2), (2, 3))),    # repeated label
        ("ij,jk->k", ((2, 3), (3, 5))),    # label i only in one operand
        ("ijk,jk->i", ((2, 3), (3, 4))),   # rank differs from labels
    ])
    def test_bad_spec_named(self, spec, shapes):
        a, b = (de.constant(np.ones(s)) for s in shapes)
        with pytest.raises(de.ShapeMismatch, match="einsum"):
            de.einsum(spec, a, b)

    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from(EINSUM_SPECS),
           dims=st.lists(st.integers(1, 3), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 16))
    def test_first_and_second_derivatives_vs_finite_differences(self, spec, dims, seed):
        inputs, _ = spec.split("->")
        sa, sb = inputs.split(",")
        size = dict(zip(sorted(set(sa + sb)), dims))
        rng = np.random.default_rng(seed)
        a0 = rng.uniform(-1, 1, [size[c] for c in sa])
        b0 = rng.uniform(-1, 1, [size[c] for c in sb])
        check_first_and_second_derivatives(
            lambda a, b: de.einsum(spec, a, b), a0, b0, rng)


def check_first_and_second_derivatives(op, a0, b0, rng):
    """f = sum(weight * op(a, b)**2) and its directional derivative
    h = <df/da, va> + <df/db, vb>: the gradients of f and of h (first and
    second derivatives of f) against finite differences."""
    weight = de.constant(rng.uniform(-1, 1, op(de.constant(a0), de.constant(b0)).shape))
    va = de.constant(rng.uniform(-1, 1, a0.shape))
    vb = de.constant(rng.uniform(-1, 1, b0.shape))

    def graph(av, bv):
        a, b = de.variable(av), de.variable(bv)
        return a, b, de.reduce_sum(de.mul(weight, de.square(op(a, b))))

    def directional(av, bv):
        a, b, f = graph(av, bv)
        ga, gb = de.backward(f, [a, b])
        return a, b, de.add(de.reduce_sum(de.mul(ga, va)), de.reduce_sum(de.mul(gb, vb)))

    for build in (graph, directional):
        a, b, y = build(a0, b0)
        ga, gb = de.backward(y, [a, b])
        fd_a = de.finite_difference(lambda v: float(build(v, b0)[2].value), a0.copy())
        fd_b = de.finite_difference(lambda v: float(build(a0, v)[2].value), b0.copy())
        assert relerr(ga.value, fd_a) < 1e-6 and relerr(gb.value, fd_b) < 1e-6


# every primitive but einsum (tested above), as op(a, b); `scalar_b` gives b
# shape () so add, sub and mul also take their scalar-broadcast path
PRIMITIVES = {
    "add": lambda a, b: de.add(a, b),
    "sub": lambda a, b: de.sub(a, b),
    "mul": lambda a, b: de.mul(a, b),
    "scale": lambda a, b: de.scale(a, -1.7),
    "square": lambda a, b: de.square(a),
    "absval": lambda a, b: de.absval(a),
    "expand": lambda a, b: de.expand(a, 1, 3),
    "reshape": lambda a, b: de.reshape(a, (a.value.size,)),
    "reduce_sum": lambda a, b: de.reduce_sum(a),
    "reduce_sum_axis": lambda a, b: de.reduce_sum(a, axis=0),
    "reduce_mean": lambda a, b: de.reduce_mean(a),
    "reduce_mean_axis": lambda a, b: de.reduce_mean(a, axis=1),
}


class TestPrimitiveDerivatives:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    @settings(max_examples=15, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=2),
           scalar_b=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_first_and_second_derivatives_vs_finite_differences(self, name, dims,
                                                                  scalar_b, seed):
        rng = np.random.default_rng(seed)
        a0 = rng.uniform(-1, 1, dims)
        b0 = rng.uniform(-1, 1, () if scalar_b else dims)
        check_first_and_second_derivatives(PRIMITIVES[name], a0, b0, rng)


class TestFiniteDifference:
    def test_quadratic(self):
        fd = de.finite_difference(lambda v: float(v[0] * v[0]), np.array([3.0]))
        assert fd[0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        fd = de.finite_difference(lambda v: 1.0, np.zeros(4))
        assert np.all(fd == 0.0)

    def test_silu_sum(self):
        def f(v):
            return float(np.sum(v / (1 + np.exp(-v))))

        fd = de.finite_difference(f, np.array([0.0, 1.0]))
        assert fd == pytest.approx([0.5, 0.9276705118714867], abs=1e-8)

    def test_nonfinite_raises(self):
        with pytest.raises(de.NonFiniteValue):
            de.finite_difference(lambda v: float(np.log(v[0])), np.array([0.0]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            de.finite_difference(lambda v: 0.0, np.zeros(1), step=0.0)
