import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grngc
import grngc.diffengine as de
from finite_difference import finite_difference
from grngc import forecasters as fc
from grngc import kernels
from grngc.cli import write_outputs
from grngc.core import (SCORE_CHUNK, LossGraph, TrainConfig,
                        TrainError, infer_gc_matrix, prediction_loss, train)
from grngc.datagen import (TimeSeries, WindowedDataset, random_sparse_var1,
                           simulate_var)
from grngc.kernels import keep_freed_memory
from replay_reference import replay_loss, replay_scores


def identity_backbone(p):
    """Single linear layer copying the (lag-1) input to the output."""
    bb = fc.init_backbone("mlp", [p, p], seed=0)
    fc.set_param_arrays(bb, [np.eye(p), np.zeros(p)])
    return bb


def linear_backbone(a):
    bb = fc.init_backbone("mlp", [a.shape[1], a.shape[0]], seed=0)
    fc.set_param_arrays(bb, [a, np.zeros(a.shape[0])])
    return bb


def zero_backbone(n_in, n_out):
    bb = fc.init_backbone("mlp", [n_in, n_out], seed=0)
    fc.set_param_arrays(bb, [np.zeros((n_out, n_in)), np.zeros(n_out)])
    return bb


class TestPredictionLoss:
    def test_perfect_predictor(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        ds = WindowedDataset(x, x, lag=1)
        assert prediction_loss(identity_backbone(3), ds).value == 0.0

    def test_constant_zero_on_targets_two(self):
        ds = WindowedDataset(np.zeros((4, 3)), np.full((4, 3), 2.0), lag=1)
        assert prediction_loss(zero_backbone(3, 3), ds).value == 4.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        bb = fc.init_backbone("kan", [4, 3, 2], seed=1)
        ds = WindowedDataset(rng.uniform(-1, 1, (6, 4)), rng.normal(size=(6, 2)), lag=2)
        pred = fc.forward(bb, ds.inputs)
        ref = 0.0
        for n in range(6):
            for j in range(2):
                ref += (pred[n, j] - ds.targets[n, j]) ** 2
        ref /= 12
        assert abs(prediction_loss(bb, ds).value - ref) < 1e-12


def jacobian(bb, inputs):
    """Prediction (n, n_out) and per-sample input Jacobian (n, n_out, n_in)."""
    params = [de.constant(a) for a in fc.param_arrays(bb)]
    pred, jac = fc.forward_graph(bb, de.constant(np.asarray(inputs, dtype=float)), params,
                                 jacobian=True)
    return pred.value, jac.value


class TestSummedOutputs:
    """Scores differentiate the summed outputs s_j = sum_t xhat_{t,j}; the
    Jacobian pass yields the prediction those sums are taken over."""

    def test_zero_predictor(self):
        pred, jac = jacobian(zero_backbone(3, 3), np.ones((4, 3)))
        assert np.all(pred == 0.0) and np.all(jac == 0.0)

    def test_column_sums(self):
        inputs = np.array([[1.0, 2.0], [3.0, 4.0]])
        pred, _ = jacobian(identity_backbone(2), inputs)
        assert list(pred.sum(axis=0)) == [4.0, 6.0]

    def test_copy_variable_sum(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(7, 3))
        pred, jac = jacobian(identity_backbone(3), inputs)
        for j in range(3):
            assert pred[:, j].sum() == pytest.approx(inputs[:, j].sum(), abs=1e-12)
        assert np.array_equal(jac, np.broadcast_to(np.eye(3), (7, 3, 3)))


class TestInputGradientMatrix:
    """The per-sample input Jacobian built from the layer factors."""

    def test_linear_coefficient(self):
        # predictor for series j is a * (variable i at the last lag)
        p, k = 3, 2
        a = 1.7
        w = np.zeros((p, k * p))
        w[1, (k - 1) * p + 2] = a  # output 1 reads variable 2 at the last lag
        rng = np.random.default_rng(0)
        _, jac = jacobian(linear_backbone(w), rng.normal(size=(5, k * p)))
        assert jac.shape == (5, p, k * p)
        expected = np.zeros((5, p, k * p))
        expected[:, 1, (k - 1) * p + 2] = a
        assert np.array_equal(jac, expected)

    def test_constant_predictor_zero(self):
        bb = zero_backbone(2, 2)
        bb.layers[0].bias[:] = 3.0
        _, jac = jacobian(bb, np.ones((4, 2)))
        assert np.all(jac == 0.0)

    def test_kan_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        bb = fc.init_backbone("kan", [4, 5, 2], seed=3)
        inputs = rng.uniform(-1.5, 1.5, (3, 4))
        _, jac = jacobian(bb, inputs)

        def f(v):
            return float(fc.forward(bb, v).sum(axis=0)[0])

        fd = finite_difference(f, inputs.copy(), step=1e-5)
        assert np.max(np.abs(jac[:, 0, :] - fd)) / (np.max(np.abs(fd)) + 1e-12) < 1e-5

    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_two_hidden_layers_vs_finite_differences(self, kind):
        # inputs reach past the spline grid [-2, 2], where B' is zero
        rng = np.random.default_rng(12)
        bb = fc.init_backbone(kind, [4, 5, 3, 2], seed=12)
        inputs = rng.uniform(-3.0, 3.0, (3, 4))
        _, jac = jacobian(bb, inputs)
        for o in range(2):
            fd = finite_difference(lambda v: float(fc.forward(bb, v)[:, o].sum()),
                                   inputs.copy(), step=1e-6)
            assert np.max(np.abs(jac[:, o, :] - fd)) / (np.max(np.abs(fd)) + 1e-12) < 1e-5


class TestGcAverage:
    """Scores average |Jacobian| over samples and lags, abs first."""

    def test_zero(self):
        ds = WindowedDataset(np.ones((4, 6)), np.ones((4, 3)), lag=2)
        assert np.all(infer_gc_matrix(zero_backbone(6, 3), ds).scores == 0.0)

    def test_constant_negative(self):
        w = np.zeros((4, 8))
        w[0, [3, 7]] = -2.0  # output 0 reads variable 3 at both lags
        ds = WindowedDataset(np.ones((5, 8)), np.ones((5, 4)), lag=2)
        scores = infer_gc_matrix(linear_backbone(w), ds).scores
        assert np.array_equal(scores[0], [0.0, 0.0, 0.0, 2.0])

    def test_abs_before_mean(self):
        w = np.zeros((2, 4))
        w[0, 0], w[0, 2] = 1.0, -1.0  # opposite signs at the two lags
        ds = WindowedDataset(np.ones((4, 4)), np.ones((4, 2)), lag=2)
        assert infer_gc_matrix(linear_backbone(w), ds).scores[0, 0] == 1.0


class TestSparsityLoss:
    """LossGraph.sparsity: lambda * sum of the score-matrix entries."""

    def test_lambda_zero(self):
        ds = WindowedDataset(np.ones((3, 2)), np.ones((3, 2)), lag=1)
        assert LossGraph(identity_backbone(2), ds, 0.0).sparsity.value == 0.0

    def test_hand_value(self):
        ds = WindowedDataset(np.ones((3, 2)), np.ones((3, 2)), lag=1)
        graph = LossGraph(linear_backbone(np.array([[1.0, 2.0], [3.0, -4.0]])), ds, 0.1)
        assert graph.sparsity.value == pytest.approx(1.0, abs=1e-12)

    def test_weight_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        bb = fc.init_backbone("mlp", [3, 4, 2], seed=4)
        ds = WindowedDataset(rng.uniform(-1, 1, (5, 3)), rng.normal(size=(5, 2)), lag=1)
        lam = 0.05

        graph = LossGraph(bb, ds, lam)
        grads = de.backward(graph.sparsity, graph.params)
        got = np.concatenate([g.value.reshape(-1) for g in grads])

        shapes = [a.shape for a in fc.param_arrays(bb)]

        def f(theta):
            bb2 = fc.init_backbone("mlp", [3, 4, 2], seed=4)
            fc.set_param_arrays(bb2, unflatten(theta, shapes))
            return float(LossGraph(bb2, ds, lam).sparsity.value)

        theta0 = np.concatenate([a.reshape(-1) for a in fc.param_arrays(bb)])
        fd = finite_difference(f, theta0.copy(), step=1e-5)
        assert np.max(np.abs(got - fd)) / (np.max(np.abs(fd)) + 1e-12) < 1e-4


def unflatten(theta, shapes):
    parts = []
    off = 0
    for s in shapes:
        size = int(np.prod(s))
        parts.append(theta[off:off + size].reshape(s))
        off += size
    return parts


class TestTotalLoss:
    """LossGraph.loss: prediction loss plus the sparsity penalty."""

    def test_lambda_zero_equals_prediction(self):
        rng = np.random.default_rng(5)
        bb = fc.init_backbone("kan", [4, 3, 2], seed=5)
        ds = WindowedDataset(rng.uniform(-1, 1, (5, 4)), rng.normal(size=(5, 2)), lag=2)
        assert LossGraph(bb, ds, 0.0).loss.value == prediction_loss(bb, ds).value

    def test_perfect_predictor_zero_gradients(self):
        x = np.random.default_rng(6).normal(size=(5, 2))
        bb = zero_backbone(2, 2)
        ds = WindowedDataset(x, np.zeros((5, 2)), lag=1)
        graph = LossGraph(bb, ds, 1.0)
        assert graph.loss.value == 0.0
        # J = 0 everywhere, so the frozen sign(J) is 0 and so is the subgradient
        assert all(np.all(g.value == 0.0) for g in de.backward(graph.loss, graph.params))

    def test_additivity(self):
        rng = np.random.default_rng(7)
        bb = fc.init_backbone("kan", [4, 3, 2], seed=7)
        ds = WindowedDataset(rng.uniform(-1, 1, (5, 4)), rng.normal(size=(5, 2)), lag=2)
        graph = LossGraph(bb, ds, 1e-2)
        assert abs(graph.loss.value - (graph.pred_loss.value + graph.sparsity.value)) < 1e-9

    def test_no_backward_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LossGraph called backward")

        monkeypatch.setattr(de, "backward", refuse)
        rng = np.random.default_rng(8)
        bb = fc.init_backbone("kan", [4, 3, 2], seed=8)
        ds = WindowedDataset(rng.uniform(-1, 1, (5, 4)), rng.normal(size=(5, 2)), lag=2)
        LossGraph(bb, ds, 1e-2)


BACKBONES = [(kind, hidden) for kind in ("kan", "mlp") for hidden in ([], [4], [5, 3])]


def max_err(got, ref):
    return np.max(np.abs(np.asarray(got) - np.asarray(ref))) / max(1.0, np.max(np.abs(ref)))


def reachable(roots):
    """Every node reachable from `roots` through Node.parents, once each."""
    stack, seen = list(roots), {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


class TestGraphLifetime:
    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_freed_without_cycle_collector(self, kind):
        # a graph with a reference cycle would outlive `del` until gc.collect()
        rng = np.random.default_rng(0)
        bb = fc.init_backbone(kind, [6, 4, 3], seed=0)
        ds = WindowedDataset(rng.normal(size=(5, 6)), rng.normal(size=(5, 3)), 2)

        def live_nodes():
            return sum(isinstance(o, de.Node) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_nodes()
            graph = LossGraph(bb, ds, 1e-2)
            grads = de.backward(graph.loss, graph.params)
            del graph, grads
            after = live_nodes()
        finally:
            gc.enable()
        assert after == before

    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_penalty_holds_three_jacobian_sized_arrays(self, kind):
        # J, sign(J) and the gradient of J; no |J|, no ones, no products with them
        rng = np.random.default_rng(0)
        bb = fc.init_backbone(kind, [6, 4, 3], seed=0)
        ds = WindowedDataset(rng.normal(size=(5, 6)), rng.normal(size=(5, 3)), 2)
        graph = LossGraph(bb, ds, 1e-2)
        nodes = reachable([graph.loss, *de.backward(graph.loss, graph.params)])
        arrays = {id(n.value) for n in nodes if n.shape == (5, 3, 6)}
        assert len(arrays) == 3

    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_nodes_are_add_einsum_and_features(self, kind):
        # the loss and its backward use two engine primitives and the one
        # activation op; two hidden layers give the MLP its silu features
        rng = np.random.default_rng(0)
        bb = fc.init_backbone(kind, [6, 4, 4, 3], seed=0)
        ds = WindowedDataset(rng.normal(size=(5, 6)), rng.normal(size=(5, 3)), 2)
        graph = LossGraph(bb, ds, 1e-2)
        ops = {n.op for n in reachable([graph.loss, *de.backward(graph.loss, graph.params)])}
        assert ops == {"var", "const", "add", "einsum", "features"}


class TestKeepFreedMemory:
    def test_leaves_no_garbage(self):
        # train() and infer_gc_matrix() call it; a reference cycle per call
        # would wait for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            keep_freed_memory()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("libc", [
        # Windows: CDLL(None) evaluates '/' in None
        "def CDLL(name):\n    raise TypeError('argument of type NoneType is not iterable')",
        # macOS, musl: a C library without mallopt
        "def CDLL(name):\n    return object()",
    ], ids=["no-handle", "no-mallopt"])
    def test_imports_and_no_op_off_glibc(self, libc):
        code = "\n".join(["import ctypes", libc, "ctypes.CDLL = CDLL", "import grngc",
                          "from grngc.kernels import keep_freed_memory", "keep_freed_memory()"])
        env = {**os.environ, "PYTHONPATH": str(Path(grngc.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestReplayExactness:
    """Single-pass Jacobian against one backward replay per output series."""

    def case(self, kind, hidden, n):
        rng = np.random.default_rng(len(hidden) + 10 * (kind == "kan"))
        lag, p = 2, 3
        bb = fc.init_backbone(kind, [lag * p, *hidden, p], seed=int(rng.integers(100)))
        # half the inputs fall outside the spline grid [-2, 2]
        ds = WindowedDataset(rng.uniform(-4, 4, (n, lag * p)), rng.normal(size=(n, p)), lag)
        return bb, ds

    @pytest.mark.parametrize("kind,hidden", BACKBONES)
    def test_loss_and_gradients(self, kind, hidden):
        bb, ds = self.case(kind, hidden, 6)
        lam = 0.03
        graph = LossGraph(bb, ds, lam)
        loss, pred_loss, sparsity, params = replay_loss(bb, ds, lam)
        assert max_err(graph.loss.value, loss.value) < 1e-10
        assert max_err(graph.sparsity.value, sparsity.value) < 1e-10
        for root in ("loss", "sparsity"):
            graph = LossGraph(bb, ds, lam)
            ref = replay_loss(bb, ds, lam)
            got = de.backward(getattr(graph, root), graph.params)
            want = de.backward(ref[0] if root == "loss" else ref[2], ref[3])
            for g, w in zip(got, want):
                assert max_err(g.value, w.value) < 1e-10

    @pytest.mark.parametrize("kind,hidden", BACKBONES)
    def test_scores_across_chunks(self, kind, hidden):
        bb, ds = self.case(kind, hidden, SCORE_CHUNK + 5)
        assert max_err(infer_gc_matrix(bb, ds).scores, replay_scores(bb, ds)) < 1e-10


class TestInferGcMatrix:
    def test_zero_backbone_zero_matrix(self):
        ds = WindowedDataset(np.ones((4, 3)), np.ones((4, 3)), lag=1)
        gc = infer_gc_matrix(zero_backbone(3, 3), ds)
        assert np.all(gc.scores == 0.0)

    def test_linear_backbone_absolute_coefficients(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))
        bb = linear_backbone(a)
        ds = WindowedDataset(rng.normal(size=(30, 4)), rng.normal(size=(30, 4)), lag=1)
        gc = infer_gc_matrix(bb, ds)
        assert np.max(np.abs(gc.scores - np.abs(a))) < 1e-12

    def test_kan_scoring_builds_only_the_jacobian(self, monkeypatch):
        # one block: deriv 1 and 0 on the input, deriv 1 on the hidden layer,
        # and no order-0 features of the hidden layer for the unused prediction
        from grngc import splines
        calls = []
        basis_values = splines.basis_values

        def recording(x, spec, deriv=0):
            calls.append(deriv)
            return basis_values(x, spec, deriv)

        monkeypatch.setattr(splines, "basis_values", recording)
        rng = np.random.default_rng(13)
        bb = fc.init_backbone("kan", [4, 5, 2], seed=13)
        infer_gc_matrix(bb, WindowedDataset(rng.uniform(-1, 1, (6, 4)),
                                            rng.normal(size=(6, 2)), lag=2))
        assert calls == [1, 0, 1]

    def test_mlp_scoring_builds_no_output(self, monkeypatch):
        # the hidden layer's einsum and bias make its activations; the output
        # layer's einsum and bias, shaped (batch, 2), are never built
        shapes = []
        einsum = de.einsum

        def recording(spec, *operands):
            node = einsum(spec, *operands)
            if spec.endswith("->bo"):
                shapes.append(node.shape)
            return node

        monkeypatch.setattr(de, "einsum", recording)
        rng = np.random.default_rng(14)
        bb = fc.init_backbone("mlp", [4, 5, 2], seed=14)
        infer_gc_matrix(bb, WindowedDataset(rng.normal(size=(6, 4)),
                                            rng.normal(size=(6, 2)), lag=2))
        assert shapes == [(6, 5), (6, 5)]

    def test_recomputation_identical(self):
        rng = np.random.default_rng(9)
        bb = fc.init_backbone("kan", [4, 5, 2], seed=9)
        ds = WindowedDataset(rng.uniform(-1, 1, (6, 4)), rng.normal(size=(6, 2)), lag=2)
        a = infer_gc_matrix(bb, ds).scores
        b = infer_gc_matrix(bb, ds).scores
        assert np.array_equal(a, b)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(10)
        bb = fc.init_backbone("kan", [4, 5, 2], seed=10)
        inputs = rng.uniform(-1, 1, (8, 4))
        targets = rng.normal(size=(8, 2))
        perm = rng.permutation(8)
        a = infer_gc_matrix(bb, WindowedDataset(inputs, targets, 2)).scores
        b = infer_gc_matrix(bb, WindowedDataset(inputs[perm], targets[perm], 2)).scores
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_repeat_scoring_faults_in_no_pages(self):
        # freed blocks stay in the process, so scoring the same windows again
        # reuses that memory instead of faulting fresh pages in
        rng = np.random.default_rng(12)
        bb = fc.init_backbone("kan", [25, 128, 5], seed=12)
        n = 4 * SCORE_CHUNK
        ds = WindowedDataset(rng.normal(size=(n, 25)), rng.normal(size=(n, 5)), lag=5)
        infer_gc_matrix(bb, ds)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        infer_gc_matrix(bb, ds)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_nonnegative_finite(self):
        rng = np.random.default_rng(11)
        bb = fc.init_backbone("mlp", [6, 8, 3], seed=11)
        ds = WindowedDataset(rng.normal(size=(10, 6)), rng.normal(size=(10, 3)), lag=2)
        gc = infer_gc_matrix(bb, ds)
        assert np.all(gc.scores >= 0.0) and np.all(np.isfinite(gc.scores))


class TestTrain:
    def test_determinism(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=(150, 3)))
        cfg = TrainConfig(lag=2, lam=1e-3, epochs=5, hidden=(8,), seed=3)
        a = train(series, cfg)
        b = train(series, cfg)
        assert np.array_equal(a.gc.scores, b.gc.scores)
        assert a.pred_losses == b.pred_losses

    def test_same_on_any_core_count(self, monkeypatch):
        # lag 6, p=8, hidden 128: J = F2.F1 of a 256-window batch is three
        # floors of multiply-adds, so three usable CPUs split it in three
        rng = np.random.default_rng(4)
        series = TimeSeries(rng.normal(size=(300, 8)))
        cfg = TrainConfig(lag=6, epochs=1, hidden=(128,), seed=4)
        chunks = []
        lowered = kernels._lowered

        def recording(lowering, a, b, n):
            chunks.append(n)
            return lowered(lowering, a, b, n)

        monkeypatch.setattr(kernels, "_lowered", recording)
        reports = {}
        for cpus in (1, 3):
            monkeypatch.setattr(kernels, "_CPUS", cpus)
            reports[cpus] = train(series, cfg)
            split = cpus if kernels._LOWERS_TO_MATMUL else 1  # else np.einsum runs all
            assert (max(chunks) if chunks else 1) == split
        assert np.array_equal(reports[1].gc.scores, reports[3].gc.scores)
        for p1, p3 in zip(fc.param_arrays(reports[1].backbone),
                          fc.param_arrays(reports[3].backbone)):
            assert np.array_equal(p1, p3)

    def test_noise_floor(self):
        rng = np.random.default_rng(1)
        series = TimeSeries(rng.normal(size=(400, 3)))
        rep = train(series, TrainConfig(lag=2, lam=0.0, epochs=40, hidden=(16,), seed=0))
        # unpredictable standardized series: loss floor is the unit variance
        assert 0.7 < rep.pred_losses[-1] < 1.3

    def test_var_diagonal_dominance(self):
        series, _ = simulate_var([0.5 * np.eye(3)], T=400, noise_sigma=0.3, seed=1)
        rep = train(series, TrainConfig(lag=2, lam=1e-3, epochs=40, hidden=(16,), seed=0))
        s = rep.gc.scores
        offdiag = s[~np.eye(3, dtype=bool)]
        assert np.min(np.diag(s)) > np.max(offdiag)

    def test_monotone_sparsity_response(self):
        a = random_sparse_var1(4, 0.3, seed=2)
        series, truth = simulate_var([a], T=400, noise_sigma=0.2, seed=2)
        off_support = ~truth.matrix
        means = {}
        for lam in (0.0, 1e-2):
            rep = train(series, TrainConfig(lag=2, lam=lam, epochs=40, hidden=(16,), seed=0))
            means[lam] = rep.gc.scores[off_support].mean()
        assert means[1e-2] <= means[0.0]

    def test_too_short_series(self):
        with pytest.raises(TrainError):
            train(TimeSeries(np.random.default_rng(0).normal(size=(12, 2))),
                  TrainConfig(lag=5))

    def test_config_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(lam=-1.0)
        with pytest.raises(TrainError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainError):
            TrainConfig(val_fraction=0.7)
        for bad in ({"lr": 0.0}, {"lr": -1.0}, {"lag": 0}, {"batch_size": -1},
                    {"hidden": (8, 0)}, {"patience": 0}, {"degree": 0},
                    {"grid_size": 1}):
            with pytest.raises(TrainError):
                TrainConfig(**bad)
        TrainConfig(hidden=(), batch_size=0)  # no hidden layer, full batch

    def test_report_serializes(self, tmp_path):
        rng = np.random.default_rng(3)
        series = TimeSeries(rng.normal(size=(120, 2)))
        rep = train(series, TrainConfig(lag=2, epochs=2, hidden=(8,), seed=0))
        write_outputs(tmp_path, report=rep)
        loaded = np.loadtxt(tmp_path / "gc_matrix.csv", delimiter=",", ndmin=2)
        assert np.array_equal(loaded, rep.gc.scores)
        assert rep.config == dataclasses.asdict(TrainConfig(lag=2, epochs=2, hidden=(8,), seed=0))
        doc = json.loads((tmp_path / "train_report.json").read_text())
        assert list(doc) == ["pred_losses", "sparsity_losses", "seconds", "n_params",
                             "epochs_run", "config"]
        assert doc["config"] == json.loads(json.dumps(rep.config))
