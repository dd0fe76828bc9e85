import numpy as np
import pytest

import grngc.diffengine as de
from finite_difference import finite_difference
from grngc import forecasters as fc
from grngc.forecasters import BackboneError
from grngc.splines import SplineSpec, basis_values


def naive_kan_layer(x, w_base, w_spline, coef, spec):
    """Per-edge scalar loop, the independent reference for kan layers."""
    batch, n_in = x.shape
    n_out = w_base.shape[0]
    out = np.zeros((batch, n_out))
    for b in range(batch):
        for o in range(n_out):
            acc = 0.0
            for i in range(n_in):
                xv = x[b, i]
                silu = xv / (1.0 + np.exp(-xv))
                basis = basis_values(np.array([xv]), spec)[0]
                acc += w_base[o, i] * silu + w_spline[o, i] * float(coef[o, i] @ basis)
            out[b, o] = acc
    return out


class TestKanLayer:
    def test_zero_input_zero_spline(self):
        spec = SplineSpec()
        bb = fc.init_backbone("kan", [3, 3], spec, seed=0)
        layer = bb.layers[0]
        layer.w_spline[:] = 0.0
        layer.coef[:] = 0.0
        layer.w_base[:] = np.eye(3)
        assert np.all(fc.forward(bb, np.zeros((1, 3))) == 0.0)

    def test_constant_coefficients_partition_of_unity(self):
        spec = SplineSpec()
        kappa = 0.7
        bb = fc.init_backbone("kan", [4, 2], spec, seed=0)
        layer = bb.layers[0]
        layer.w_base[:] = 0.0
        layer.coef[:] = kappa
        rng = np.random.default_rng(3)
        layer.w_spline[:] = rng.normal(size=layer.w_spline.shape)
        x = rng.uniform(-1.5, 1.5, (5, 4))
        expected = np.tile(layer.w_spline.sum(axis=1) * kappa, (5, 1))
        assert np.max(np.abs(fc.forward(bb, x) - expected)) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_loop(self, seed):
        spec = SplineSpec()
        rng = np.random.default_rng(seed)
        bb = fc.init_backbone("kan", [4, 3], spec, seed=seed)
        x = rng.uniform(-1.8, 1.8, (6, 4))
        layer = bb.layers[0]
        ref = naive_kan_layer(x, layer.w_base, layer.w_spline, layer.coef, spec)
        assert np.max(np.abs(fc.forward(bb, x) - ref)) < 1e-12


class TestForward:
    def test_zero_weights_zero_output(self):
        bb = fc.init_backbone("kan", [4, 2], seed=0)
        layer = bb.layers[0]
        layer.w_base[:] = 0.0
        layer.w_spline[:] = 0.0
        assert np.all(fc.forward(bb, np.zeros((1, 4))) == 0.0)

    def test_deterministic(self):
        bb = fc.init_backbone("kan", [6, 8, 2], seed=5)
        x = np.random.default_rng(1).uniform(-1, 1, (3, 6))
        a = fc.forward(bb, x)
        b = fc.forward(bb, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        bb = fc.init_backbone("mlp", [4, 2], seed=0)
        with pytest.raises(BackboneError, match="input_dim"):
            fc.forward(bb, np.zeros((1, 5)))

    def test_batch_dim_preserved(self):
        bb = fc.init_backbone("mlp", [4, 8, 3], seed=0)
        out = fc.forward(bb, np.random.default_rng(0).normal(size=(7, 4)))
        assert out.shape == (7, 3)

    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_input_gradient_vs_finite_differences(self, kind):
        rng = np.random.default_rng(4)
        bb = fc.init_backbone(kind, [4, 5, 2], seed=4)
        x0 = rng.uniform(-1.5, 1.5, (3, 4))

        x = de.variable(x0)
        out, _ = fc.forward_graph(bb, x, fc.make_param_nodes(bb))
        (g,) = de.backward(de.einsum("bo,bo->", out, de.constant(np.ones(out.shape))), [x])

        def f(v):
            return float(fc.forward(bb, v).sum())

        fd = finite_difference(f, x0.copy(), step=1e-5)
        assert np.max(np.abs(g.value - fd)) / (np.max(np.abs(fd)) + 1e-12) < 1e-5


class TestInit:
    def test_same_seed_identical(self):
        a = fc.init_backbone("kan", [4, 8, 2], seed=9)
        b = fc.init_backbone("kan", [4, 8, 2], seed=9)
        for pa, pb in zip(fc.param_arrays(a), fc.param_arrays(b)):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = fc.init_backbone("mlp", [4, 8, 2], seed=0)
        b = fc.init_backbone("mlp", [4, 8, 2], seed=1)
        assert any(not np.array_equal(pa, pb)
                   for pa, pb in zip(fc.param_arrays(a), fc.param_arrays(b)))

    def test_coefficient_shapes(self):
        bb = fc.init_backbone("kan", [4, 8, 2], SplineSpec(degree=3, grid_size=5), seed=0)
        assert bb.layers[0].coef.shape == (8, 4, 8)
        assert bb.layers[1].coef.shape == (2, 8, 8)

    def test_invalid_kind(self):
        with pytest.raises(BackboneError):
            fc.init_backbone("lstm", [4, 2])


class TestCountParameters:
    def test_mlp_formula(self):
        assert fc.count_parameters(fc.init_backbone("mlp", [4, 8, 2])) == 58

    def test_kan_formula(self):
        bb = fc.init_backbone("kan", [4, 2], SplineSpec(degree=3, grid_size=5))
        assert fc.count_parameters(bb) == 80

    def test_kan_exceeds_mlp(self):
        sizes = [10, 16, 5]
        kan = fc.count_parameters(fc.init_backbone("kan", sizes))
        mlp = fc.count_parameters(fc.init_backbone("mlp", sizes))
        assert kan > mlp

    def test_count_matches_array_sizes(self):
        for kind in ("kan", "mlp"):
            bb = fc.init_backbone(kind, [5, 7, 3])
            total = sum(a.size for a in fc.param_arrays(bb))
            assert fc.count_parameters(bb) == total
