"""Hot numeric kernels, in numpy: B-spline basis evaluation, Lorenz-96
integration and pairwise contractions split across cores."""
from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

# looked up once: each ctypes.CDLL() builds a function-pointer class that sits
# in a reference cycle until the cyclic collector runs
try:
    _MALLOPT = ctypes.CDLL(None).mallopt
    _MALLOPT.argtypes, _MALLOPT.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
except (AttributeError, OSError, TypeError):  # no mallopt; Windows has no CDLL(None)
    _MALLOPT = None


def backend_name() -> str:
    """Name of the numeric backend the kernels run on."""
    return "numpy"


def keep_freed_memory() -> None:
    """Keep memory freed by glibc malloc in the process: each training step or
    scoring block frees arrays the next allocates again, and pages handed back
    to the kernel fault in anew at a machine-dependent cost. A block of 32 MiB
    or more that no free heap chunk holds gets a mapping of its own and goes
    back to the kernel when freed, so the largest arrays do not grow the heap
    by a run-dependent amount. No-op off glibc."""
    if _MALLOPT is not None:
        _MALLOPT(-3, 32 << 20)  # M_MMAP_THRESHOLD: fixed, not raised by frees
        _MALLOPT(-1, 1 << 30)   # M_TRIM_THRESHOLD: keep up to 1 GiB of free heap


class NonUniformKnots(ValueError):
    pass


@functools.lru_cache(maxsize=128)
def _piece_matrix(degree: int, deriv: int, h: float) -> np.ndarray:
    """(degree - deriv + 1, degree + 1) matrix M such that
    [1, u, ..., u^(degree - deriv)] @ M holds the deriv-th derivatives of
    the degree + 1 B-spline pieces live on one interval of uniform knots
    spaced h, at the local coordinate u in [0, 1]; column r is
    B_{j-degree+r} on interval j. Read-only, as every call with the same
    arguments gets the same array."""
    # the de Boor recurrence on exact integer coefficients of degree! times
    # each piece: c[m, r] multiplies u^m in piece r
    c = np.ones((1, 1), dtype=object)
    for d in range(1, degree + 1):
        r = np.arange(d, dtype=object)
        grown = np.zeros((d + 1, d + 1), dtype=object)
        # piece r + 1 gains (u + d - 1 - r) * c_r, piece r gains (r + 1 - u) * c_r
        grown[:-1, 1:] += c * (d - 1 - r)
        grown[1:, 1:] += c
        grown[:-1, :-1] += c * (r + 1)
        grown[1:, :-1] -= c
        c = grown
    for _ in range(deriv):  # d/dx = (1/h) d/du
        c = c[1:] * np.arange(1, c.shape[0], dtype=object)[:, None]
    m = c.astype(np.float64) / (math.factorial(degree) * h ** deriv)
    m.flags.writeable = False
    return m


def bspline_basis_kernel(x: np.ndarray, knots: np.ndarray, degree: int, deriv: int = 0) -> np.ndarray:
    """B-spline basis values (or their deriv-th derivative) as an
    (n, len(knots) - degree - 1) array for n points already clamped to the
    knot domain; knots not equally spaced raise NonUniformKnots. A point's
    knot interval j and local coordinate u in [0, 1] come by arithmetic; its
    degree+1 live pieces are the powers of u times the cached piece matrix,
    written into the zero output by one scatter. Intervals are half-open and
    clipped to the domain: x at its right edge takes the left limit."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    knots = np.ascontiguousarray(knots, dtype=np.float64)
    n, n_basis = x.shape[0], knots.shape[0] - degree - 1
    h = (knots[-1] - knots[0]) / (knots.shape[0] - 1)
    if not h > 0 or np.max(np.abs(np.diff(knots) - h)) > 1e-6 * h:
        raise NonUniformKnots(f"B-spline knots must be equally spaced, got {knots}")
    out = np.zeros((n, n_basis))
    if deriv > degree:
        return out
    s = (x - knots[0]) / h
    # fmax/fmin, unlike clip, send NaN to a valid interval: NaN points give
    # NaN values, not an out-of-range index
    j = np.fmin(np.fmax(np.floor(s), degree), n_basis - 1)
    u = np.clip(s - j, 0.0, 1.0)
    m = _piece_matrix(degree, deriv, float(h))
    powers = np.empty((m.shape[0], n))
    powers[0] = 1.0
    for k in range(1, m.shape[0]):
        np.multiply(powers[k - 1], u, out=powers[k])
    pieces = powers.T @ m  # one row per point, as in the output
    if deriv == 0:  # a piece that is 0 at an end of the interval can round below 0 there
        np.maximum(pieces, 0.0, out=pieces)
    # flat output index of each piece, filled one column at a time: numpy
    # runs a broadcast add over the short piece axis several times slower
    flat = np.empty((n, degree + 1), dtype=np.intp)
    flat[:, 0] = np.arange(-degree, n * n_basis - degree, n_basis) + j.astype(np.intp)
    for r in range(1, degree + 1):
        np.add(flat[:, 0], r, out=flat[:, r])
    out.reshape(-1)[flat] = pieces
    return out


# ---------------------------------------------------------------------------
# Lorenz-96: dx_i/dt = -x_{i-1}(x_{i-2} - x_{i+1}) - x_i + F, cyclic indices.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _l96_neighbours(p: int) -> np.ndarray:
    """(3, p) indices of x_{i-1}, x_{i+1} and x_{i-2}, cyclic."""
    idx = (np.arange(p) + np.array([[-1], [1], [-2]])) % p
    idx.flags.writeable = False
    return idx


def lorenz96_rhs(x: np.ndarray, forcing: float) -> np.ndarray:
    # one gather for all three neighbours: at p ~ 20 the cost of an RK4 step
    # is numpy call overhead, not arithmetic
    near = x[_l96_neighbours(x.shape[0])]
    return near[0] * (near[1] - near[2]) - x + forcing


def lorenz96_trajectory(x0: np.ndarray, forcing: float, dt: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 trajectory, shape (n_steps + 1, p) including the start."""
    x = np.array(x0, dtype=np.float64)
    forcing, dt = float(forcing), float(dt)
    traj = np.empty((int(n_steps) + 1, x.shape[0]))
    traj[0] = x
    for s in range(int(n_steps)):
        k1 = lorenz96_rhs(x, forcing)
        k2 = lorenz96_rhs(x + 0.5 * dt * k1, forcing)
        k3 = lorenz96_rhs(x + 0.5 * dt * k2, forcing)
        k4 = lorenz96_rhs(x + dt * k3, forcing)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[s + 1] = x
    return traj


# ---------------------------------------------------------------------------
# Pairwise contractions: numpy's own matmul lowering, split across cores.
# ---------------------------------------------------------------------------

# multiply-adds below which one more chunk costs more in thread hand-off than
# it saves
CONTRACT_FLOOR = 1 << 22

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _new_pool() -> None:
    """Make the pool of split contractions; its threads start at the first
    split. A forked child makes its own: it inherits the pool's thread
    objects but none of its threads, so work submitted there never runs."""
    global _POOL
    _POOL = ThreadPoolExecutor(max(_CPUS - 1, 1), thread_name_prefix="grngc-contract")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


class _Lowering(NamedTuple):
    """`np.einsum(spec, a, b, optimize=True)` as numpy 2 runs it: the pair
    taken as (b, a), each operand permuted by a one-operand einsum and
    reshaped, one matmul, and its result reshaped and transposed."""
    eq_left: str | None      # applied to b
    shape_left: tuple | None
    eq_right: str | None     # applied to a
    shape_right: tuple | None
    matmul_shape: tuple      # (batch, M, N)
    shape_out: tuple | None
    perm_out: tuple | None
    work: int                # multiply-adds


@functools.lru_cache(maxsize=1024)
def _lowering(spec: str, a_shape: tuple, b_shape: tuple) -> _Lowering | None:
    """The batched-matmul lowering of an explicit two-operand spec, or None
    where `contract` leaves the spec to np.einsum: no batch label (a row
    split changes the result of a multi-threaded BLAS), no contracted label,
    a size-1 axis (numpy's singletons), or a spec np.einsum must judge."""
    spec = spec.replace(" ", "")
    if "." in spec or spec.count("->") != 1 or spec.count(",") != 1:
        return None
    inputs, out = spec.split("->")
    right, left = inputs.split(",")  # numpy contracts the pair as (b, a)
    sizes: dict[str, int] = {}
    for term, shape in ((left, b_shape), (right, a_shape)):
        if len(term) != len(shape) or 1 in shape:
            return None
        for ix, n in zip(term, shape):
            if sizes.setdefault(ix, n) != n:
                return None
    if len(set(out)) != len(out) or not set(out) <= set(sizes):
        return None
    # unique labels, each in the order of its first term
    batch = [ix for ix in dict.fromkeys(left) if ix in right and ix in out]
    summed = [ix for ix in dict.fromkeys(left) if ix in right and ix not in out]
    keep_left = [ix for ix in dict.fromkeys(left) if ix not in right and ix in out]
    keep_right = [ix for ix in dict.fromkeys(right) if ix not in left and ix in out]
    if not batch or not summed:
        return None

    def size(group):
        return math.prod(sizes[ix] for ix in group)

    def prepare(term, labels):
        return None if term == "".join(labels) else f"{term}->{''.join(labels)}"

    groups = [batch, keep_left, summed]
    groups_right = [batch, summed, keep_right]
    groups_out = [batch, keep_left, keep_right]
    produced = "".join(batch + keep_left + keep_right)
    return _Lowering(
        prepare(left, batch + keep_left + summed),
        tuple(map(size, groups)) if any(len(g) != 1 for g in groups) else None,
        prepare(right, batch + summed + keep_right),
        tuple(map(size, groups_right)) if any(len(g) != 1 for g in groups_right) else None,
        tuple(map(size, groups_out)),
        (tuple(sizes[ix] for ix in produced)
         if any(len(g) != 1 for g in groups_out) else None),
        tuple(produced.index(ix) for ix in out) if produced != out else None,
        size(produced) * size(summed),
    )


def _lowered(lowering: _Lowering, a: np.ndarray, b: np.ndarray, chunks: int) -> np.ndarray:
    """Run the lowering, its matmul split into `chunks` along the batch axis:
    the caller computes the first chunk and the pool the rest. Each chunk
    makes the same per-matrix BLAS calls as the whole matmul."""
    x, y = b, a
    if lowering.eq_left is not None:
        x = np.einsum(lowering.eq_left, x)
    if lowering.shape_left is not None:
        x = x.reshape(lowering.shape_left)
    if lowering.eq_right is not None:
        y = np.einsum(lowering.eq_right, y)
    if lowering.shape_right is not None:
        y = y.reshape(lowering.shape_right)
    ab = np.empty(lowering.matmul_shape, dtype=np.result_type(x, y))
    edges = [ab.shape[0] * c // chunks for c in range(chunks + 1)]
    parts = [(x[lo:hi], y[lo:hi], ab[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    # np.matmul releases the GIL
    pending = [_POOL.submit(np.matmul, xs, ys, out=out) for xs, ys, out in parts[1:]]
    xs, ys, out = parts[0]
    np.matmul(xs, ys, out=out)
    for job in pending:
        job.result()
    if lowering.shape_out is not None:
        ab = ab.reshape(lowering.shape_out)
    if lowering.perm_out is not None:
        ab = ab.transpose(lowering.perm_out)
    return ab


def _numpy_lowers_to_matmul() -> bool:
    """Whether np.einsum(..., optimize=True) runs a pair as `_Lowering` says,
    judged on a probe whose result numpy lays out transposed."""
    spec = "oik,bik->boi"
    a = np.linspace(-1.0, 1.0, 2 * 3 * 37).reshape(2, 3, 37)
    b = np.cos(np.arange(5 * 3 * 37.0)).reshape(5, 3, 37)
    want = np.einsum(spec, a, b, optimize=True)
    got = _lowered(_lowering(spec, a.shape, b.shape), a, b, 1)
    return got.strides == want.strides and np.array_equal(got, want)


_LOWERS_TO_MATMUL = _numpy_lowers_to_matmul()


def contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.einsum(spec, a, b, optimize=True)`, equal to it in values, shape
    and strides, with its batched matmul split into one chunk per usable CPU
    along the batch axis. Each chunk holds at least CONTRACT_FLOOR
    multiply-adds. np.einsum runs the pair whole where fewer than two such
    chunks fit, where `_lowering` gives none, or where numpy does not lower
    a pair to one matmul."""
    lowering = _lowering(spec, a.shape, b.shape) if _LOWERS_TO_MATMUL else None
    if lowering is not None:
        chunks = min(_CPUS, lowering.matmul_shape[0], lowering.work // CONTRACT_FLOOR)
        if chunks >= 2:
            return _lowered(lowering, a, b, chunks)
    return np.einsum(spec, a, b, optimize=True)
