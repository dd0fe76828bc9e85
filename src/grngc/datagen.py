"""Synthetic generators (Lorenz-96, linear VAR), standardization, and
sliding-window construction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import _l96_neighbours, lorenz96_trajectory


class DataError(Exception):
    pass


class SimulationError(Exception):
    pass


@dataclass
class TimeSeries:
    data: np.ndarray  # (T, p)
    names: list[str] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 2:
            raise DataError(f"time series must be (T>=2, p), got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise DataError("time series contains non-finite values")

    @property
    def T(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass
class AdjacencyTruth:
    """matrix[j, i] is True iff series i causes series j."""

    matrix: np.ndarray  # (p, p) bool

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=bool)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DataError(f"adjacency must be square, got {self.matrix.shape}")


@dataclass
class WindowedDataset:
    """Lag-major flattening: inputs[n] = series rows t-k..t-1 flattened with
    all p variables at lag t-k first; targets[n] = row t."""

    inputs: np.ndarray   # (N, k*p)
    targets: np.ndarray  # (N, p)
    lag: int

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.targets.shape[1]


# largest RK4 step that survives the transient from the x0 ~ F start at
# strong forcing (F=40); on-attractor dynamics tolerate coarser steps
_BURN_IN_MAX_STEP = 0.01


@dataclass
class Lorenz96Config:
    p: int = 10
    forcing: float = 10.0
    T: int = 1000
    dt: float = 0.05
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.p < 4:
            raise DataError(f"Lorenz-96 stencil needs p >= 4, got {self.p}")
        if self.dt <= 0 or self.forcing <= 0 or self.T < 2 or self.burn_in < 0:
            raise DataError("need dt > 0, forcing > 0, T >= 2, burn_in >= 0")
        if not np.isfinite(self.dt / _BURN_IN_MAX_STEP):
            raise DataError(f"dt={self.dt} overflows the burn-in sub-step count "
                            f"dt / {_BURN_IN_MAX_STEP}")


def lorenz96_truth(p: int) -> AdjacencyTruth:
    """Variable i is driven by itself and by the neighbours that
    lorenz96_rhs reads: i-1, i+1 and i-2 (cyclic)."""
    m = np.eye(p, dtype=bool)
    m[np.arange(p), _l96_neighbours(p)] = True
    return AdjacencyTruth(m)


def simulate_lorenz96(cfg: Lorenz96Config) -> tuple[TimeSeries, AdjacencyTruth]:
    """Fixed-step RK4 integration, one sample per step after burn-in.

    Initial state is the fixed point F plus small gaussian perturbation; the
    unperturbed fixed point would yield a constant trajectory. The burn-in
    phase is integrated with sub-steps of at most _BURN_IN_MAX_STEP so the
    stiff transient away from the fixed point stays stable at large forcing.
    """
    rng = np.random.default_rng(cfg.seed)
    x0 = cfg.forcing + rng.normal(0.0, 0.01, cfg.p)
    n_sub = max(1, int(np.ceil(cfg.dt / _BURN_IN_MAX_STEP)))
    warm = lorenz96_trajectory(x0, cfg.forcing, cfg.dt / n_sub, cfg.burn_in * n_sub)
    traj = lorenz96_trajectory(warm[-1], cfg.forcing, cfg.dt, cfg.T - 1)
    if not np.all(np.isfinite(warm)) or not np.all(np.isfinite(traj)):
        bad = int(np.argmax(~np.all(np.isfinite(np.vstack([warm, traj])), axis=1)))
        raise SimulationError(f"Lorenz-96 state became non-finite at step {bad}")
    return TimeSeries(traj), lorenz96_truth(cfg.p)


def _companion_spectral_radius(coeffs: list[np.ndarray]) -> float:
    p = coeffs[0].shape[0]
    L = len(coeffs)
    comp = np.zeros((p * L, p * L))
    comp[:p] = np.hstack(coeffs)
    if L > 1:
        comp[p:, :p * (L - 1)] = np.eye(p * (L - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def simulate_var(coeffs, T: int, noise_sigma: float = 0.1,
                 seed: int = 0) -> tuple[TimeSeries, AdjacencyTruth]:
    """Linear VAR: x_t = sum_l A_l x_{t-l} + eps.

    Truth edge (j, i) is set iff any lag coefficient A_l[j, i] is nonzero.
    Coefficients must be stationary (companion spectral radius < 1).
    """
    coeffs = [np.asarray(a, dtype=np.float64) for a in coeffs]
    p = coeffs[0].shape[0]
    for a in coeffs:
        if a.shape != (p, p):
            raise DataError(f"VAR coefficient shapes differ: {a.shape} vs ({p}, {p})")
    radius = _companion_spectral_radius(coeffs)
    if radius >= 1.0:
        raise SimulationError(f"unstable VAR coefficients, spectral radius {radius:.4f}")
    L = len(coeffs)
    if T <= L:
        raise DataError(f"VAR({L}) needs T > {L}, got T={T}")
    if noise_sigma < 0:
        raise DataError(f"VAR needs noise_sigma >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    data = np.zeros((T, p))
    data[:L] = rng.normal(0.0, max(noise_sigma, 1e-8), (L, p))
    for t in range(L, T):
        acc = np.zeros(p)
        for l, a in enumerate(coeffs, start=1):
            acc += a @ data[t - l]
        if noise_sigma > 0:
            acc += rng.normal(0.0, noise_sigma, p)
        data[t] = acc
    truth = np.zeros((p, p), dtype=bool)
    for a in coeffs:
        truth |= a != 0.0
    return TimeSeries(data), AdjacencyTruth(truth)


def random_sparse_var1(p: int, density: float, seed: int,
                       radius: float = 0.45) -> np.ndarray:
    """Sparse stable VAR(1) coefficient matrix with a nonzero diagonal,
    rescaled to the requested spectral radius."""
    if p < 1:
        raise DataError(f"VAR needs p >= 1, got {p}")
    rng = np.random.default_rng(seed)
    a = np.zeros((p, p))
    mask = rng.random((p, p)) < density
    np.fill_diagonal(mask, True)
    a[mask] = rng.uniform(0.3, 1.0, int(mask.sum())) * rng.choice([-1.0, 1.0], int(mask.sum()))
    return a * (radius / _companion_spectral_radius([a]))


def standardize(series: TimeSeries) -> tuple[TimeSeries, np.ndarray, np.ndarray]:
    """Z-score each column (population std); returns (scaled, mean, std)."""
    mean = series.data.mean(axis=0)
    std = series.data.std(axis=0)
    zero = np.flatnonzero(std == 0.0)
    if zero.size:
        raise DataError(f"zero-variance column {int(zero[0])}")
    return TimeSeries((series.data - mean) / std, series.names), mean, std


def make_windows(series: TimeSeries, k: int) -> WindowedDataset:
    if k < 1:
        raise DataError(f"lag must be >= 1, got {k}")
    if series.T <= k:
        raise DataError(f"need T > k, got T={series.T}, k={k}")
    n = series.T - k
    # (n, p, k) windows -> lag-major (n, k*p), copied so the result owns its
    # memory instead of viewing the series
    inputs = sliding_window_view(series.data[:-1], k, axis=0)
    inputs = inputs.transpose(0, 2, 1).reshape(n, k * series.p).copy()
    targets = series.data[k:].copy()
    return WindowedDataset(inputs, targets, k)
