import numpy as np
import pytest

from finite_difference import finite_difference
from grngc import datagen as dg
from grngc.datagen import (DataError, Lorenz96Config, SimulationError, TimeSeries,
                           lorenz96_truth, make_windows, random_sparse_var1,
                           simulate_lorenz96, simulate_var, standardize)
from grngc.kernels import lorenz96_rhs, lorenz96_trajectory
from lorenz96_reference import roll_rhs, roll_trajectory


class TestLorenz96:
    def test_fixed_point_constant_trajectory(self):
        F = 8.0
        x0 = np.full(6, F)
        assert np.all(lorenz96_rhs(x0, F) == 0.0)
        traj = lorenz96_trajectory(x0, F, 0.05, 20)
        assert np.max(np.abs(traj - F)) == 0.0

    def test_truth_stencil_p6(self):
        truth = lorenz96_truth(6)
        assert set(np.flatnonzero(truth.matrix[0])) == {4, 5, 0, 1}

    @pytest.mark.parametrize("p", [4, 5, 7, 30])
    def test_truth_is_rhs_jacobian_pattern(self, p):
        x = np.random.default_rng(p).normal(0.0, 3.0, p)
        jac = np.array([finite_difference(lambda z: lorenz96_rhs(z, 8.0)[j], x.copy())
                        for j in range(p)])
        assert np.array_equal(lorenz96_truth(p).matrix, np.abs(jac) > 1e-6)

    def test_truth_four_parents_per_row(self):
        for p in (5, 7, 10, 23):
            truth = lorenz96_truth(p)
            assert np.all(truth.matrix.sum(axis=1) == 4)

    def test_bounded_trajectory(self):
        series, _ = simulate_lorenz96(Lorenz96Config(p=10, forcing=10.0, T=1000, seed=0))
        assert series.data.shape == (1000, 10)
        assert np.all(np.isfinite(series.data))
        assert np.max(np.abs(series.data)) < 30.0

    def test_rk4_fourth_order_convergence(self):
        # halving the step should shrink the endpoint error by about 2^4
        rng = np.random.default_rng(0)
        x0 = 10.0 + rng.normal(0, 0.01, 10)
        dt = 0.05
        coarse = lorenz96_trajectory(x0, 10.0, dt, 2)[-1]
        fine = lorenz96_trajectory(x0, 10.0, dt / 2, 4)[-1]
        finest = lorenz96_trajectory(x0, 10.0, dt / 4, 8)[-1]
        e_coarse = np.max(np.abs(coarse - fine))
        e_fine = np.max(np.abs(fine - finest))
        assert 8.0 < e_coarse / e_fine < 32.0

    def test_seed_reproducible(self):
        cfg = Lorenz96Config(p=6, forcing=10.0, T=50, seed=11)
        a, _ = simulate_lorenz96(cfg)
        b, _ = simulate_lorenz96(cfg)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("p", [4, 5, 7, 30])
    @pytest.mark.parametrize("dt", [0.01, 0.05], ids=["burn-in", "sample"])
    def test_trajectory_bitwise_equal_to_roll_oracle(self, p, dt):
        # 0.01 is the burn-in sub-step of the default dt=0.05
        x0 = 10.0 + np.random.default_rng(p).normal(0.0, 0.01, p)
        assert np.array_equal(lorenz96_rhs(x0, 10.0), roll_rhs(x0, 10.0))
        assert np.array_equal(lorenz96_trajectory(x0, 10.0, dt, 500),
                              roll_trajectory(x0, 10.0, dt, 500))

    def test_simulation_bitwise_equal_to_roll_oracle(self, monkeypatch):
        cfg = Lorenz96Config(p=20, T=300, burn_in=100, seed=3)
        series, _ = simulate_lorenz96(cfg)
        monkeypatch.setattr(dg, "lorenz96_trajectory", roll_trajectory)
        expected, _ = simulate_lorenz96(cfg)
        assert np.array_equal(series.data, expected.data)

    def test_small_p_rejected(self):
        with pytest.raises(DataError):
            Lorenz96Config(p=3)


class TestVar:
    def test_diagonal_truth(self):
        _, truth = simulate_var([0.5 * np.eye(3)], T=50, noise_sigma=0.1, seed=0)
        assert np.array_equal(truth.matrix, np.eye(3, dtype=bool))

    def test_geometric_decay_no_noise(self):
        series, _ = simulate_var([0.5 * np.eye(3)], T=6, noise_sigma=0.0, seed=0)
        x0 = series.data[0]
        assert np.all(x0 != 0.0)
        for t in range(6):
            assert np.max(np.abs(series.data[t] - 0.5 ** t * x0)) < 1e-15 * np.max(np.abs(x0))

    def test_unstable_rejected(self):
        with pytest.raises(SimulationError, match="spectral radius"):
            simulate_var([1.1 * np.eye(2)], T=10)

    def test_ols_refit_recovers_coefficients(self):
        a = random_sparse_var1(5, 0.3, seed=7)
        series, _ = simulate_var([a], T=2000, noise_sigma=0.1, seed=7)
        x_past = series.data[:-1]
        x_next = series.data[1:]
        a_hat, *_ = np.linalg.lstsq(x_past, x_next, rcond=None)
        assert np.max(np.abs(a_hat.T - a)) < 0.05

    def test_seed_reproducible(self):
        a = random_sparse_var1(4, 0.5, seed=3)
        s1, _ = simulate_var([a], T=100, seed=5)
        s2, _ = simulate_var([a], T=100, seed=5)
        assert np.array_equal(s1.data, s2.data)


class TestStandardize:
    def test_two_point_column(self):
        scaled, mean, std = standardize(TimeSeries(np.array([[1.0], [3.0]])))
        assert np.array_equal(scaled.data, [[-1.0], [1.0]])
        assert mean[0] == 2.0 and std[0] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=(100, 4)))
        once, _, _ = standardize(series)
        twice, _, _ = standardize(once)
        assert np.max(np.abs(once.data - twice.data)) < 1e-12

    def test_constant_column_rejected(self):
        data = np.column_stack([np.arange(10.0), np.full(10, 2.0)])
        with pytest.raises(DataError, match="column 1"):
            standardize(TimeSeries(data))


class TestWindows:
    def test_minimal_case(self):
        ds = make_windows(TimeSeries(np.array([[1.0], [2.0], [3.0]])), k=2)
        assert ds.n_samples == 1
        assert np.array_equal(ds.inputs, [[1.0, 2.0]])
        assert np.array_equal(ds.targets, [[3.0]])

    def test_dimensions(self):
        ds = make_windows(TimeSeries(np.arange(8.0).reshape(4, 2)), k=1)
        assert ds.n_samples == 3 and ds.inputs.shape[1] == 2

    def test_lag_major_reconstruction(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=(10, 3)))
        ds = make_windows(series, k=4)
        for n in range(ds.n_samples):
            block = ds.inputs[n].reshape(4, 3)
            assert np.array_equal(block, series.data[n:n + 4])

    def test_too_short(self):
        with pytest.raises(DataError):
            make_windows(TimeSeries(np.zeros((3, 2)) + np.arange(3)[:, None]), k=3)


class TestTypes:
    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            TimeSeries(np.array([[1.0], [np.nan]]))

    def test_nonsquare_adjacency_rejected(self):
        with pytest.raises(DataError):
            dg.AdjacencyTruth(np.zeros((2, 3), dtype=bool))
