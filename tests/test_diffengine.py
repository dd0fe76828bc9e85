import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grngc.diffengine as de
from finite_difference import NonFiniteValue, finite_difference
from grngc import forecasters as fc
from grngc import kernels
from grngc.core import LossGraph, infer_gc_matrix
from grngc.datagen import WindowedDataset
from grngc.splines import feature_node


def relerr(a, b):
    return np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-12)


def total(x, w=None):
    """sum(w * x) over every element, as an einsum; w defaults to ones."""
    labels = "abcdefgh"[:x.value.ndim]
    w = de.constant(np.ones(x.shape)) if w is None else w
    return de.einsum(f"{labels},{labels}->", x, w)


def times(a, b):
    """Elementwise product of equal shapes, as an einsum that repeats every label."""
    labels = "abcdefgh"[:a.value.ndim]
    return de.einsum(f"{labels},{labels}->{labels}", a, b)


def scaled(x, s):
    """x times the number s, as an einsum with a 0-d constant."""
    labels = "abcdefgh"[:x.value.ndim]
    return de.einsum(f",{labels}->{labels}", de.constant(s), x)


class TestPrimitives:
    def test_matmul_hand(self):
        a = de.constant([[1.0, 2.0], [3.0, 4.0]])
        b = de.constant([[1.0], [1.0]])
        assert np.array_equal(de.einsum("ij,jk->ik", a, b).value, [[3.0], [7.0]])

    def test_shape_mismatch_named(self):
        with pytest.raises(de.ShapeMismatch, match="einsum"):
            de.einsum("ij,jk->ik", de.constant(np.ones((2, 3))), de.constant(np.ones((2, 3))))
        with pytest.raises(de.ShapeMismatch, match="add"):
            de.add(de.constant(np.ones(3)), de.constant(np.ones(4)))

    def test_abs_subgradient(self):
        # |x| as the penalty writes it, x . sign(x) with the sign frozen
        x = de.variable(-2.5)
        y = total(x, de.constant(np.sign(x.value)))
        assert y.value == 2.5
        (g,) = de.backward(y, [x])
        assert g.value == -1.0

    def test_abs_at_zero_sign_zero(self):
        x = de.variable(0.0)
        (g,) = de.backward(total(x, de.constant(np.sign(x.value))), [x])
        assert g.value == 0.0

    def test_sum_mean_hand(self):
        x = de.constant([[1.0, 2.0], [3.0, 4.0]])
        mean0 = scaled(de.einsum("ij,i->j", x, de.constant(np.ones(2))), 1 / 2)
        assert np.array_equal(mean0.value, [2.0, 3.0])
        assert total(mean0).value == 5.0

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_no_scalar_broadcast(self, op):
        # neither the sum nor the elementwise product (an einsum) broadcasts
        fn, name = (de.add, "add") if op == "add" else (times, "einsum")
        x, s = de.constant(np.ones(3)), de.constant(2.0)
        for a, b in ((x, s), (s, x)):
            with pytest.raises(de.ShapeMismatch, match=name):
                fn(a, b)


class TestSilu:
    """feature_node without a spline spec: silu alone, no feature axis."""

    def test_at_zero(self):
        assert feature_node(de.constant(0.0)).value == 0.0

    def test_at_one(self):
        assert feature_node(de.constant(1.0)).value == pytest.approx(0.7310585786300049,
                                                                     abs=1e-12)

    def test_derivative_at_zero(self):
        x = de.variable(0.0)
        (g,) = de.backward(feature_node(x), [x])
        assert g.value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("order", range(3))
    def test_orders_vs_finite_differences(self, order):
        # the order n+1 values are the differences of order n; the first and
        # second derivatives of order n, with order n+1 built on demand or
        # passed in, match finite differences
        rng = np.random.default_rng(order)
        x0 = rng.uniform(-4, 4, (2, 3))
        fd = finite_difference(
            lambda v: float(feature_node(de.constant(v), deriv=order).value.sum()), x0.copy())
        assert relerr(feature_node(de.constant(x0), deriv=order + 1).value, fd) < 1e-6
        for op in (lambda a, b: feature_node(a, deriv=order),
                   lambda a, b: feature_node(a, deriv=order,
                                             dfeat=feature_node(a, deriv=order + 1))):
            check_first_and_second_derivatives(op, x0, np.zeros(()), rng)


class TestBackward:
    def test_square_gradient(self):
        x = de.variable(3.0)
        (g,) = de.backward(times(x, x), [x])
        assert g.value == 6.0

    def test_second_derivative(self):
        x = de.variable(2.0)
        y = times(times(x, x), x)
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
        (g,) = de.backward(times(x, x), [z])
        assert g.shape == (2, 2)
        assert np.all(g.value == 0.0)

    def test_double_backward_with_retention_ok(self):
        x = de.variable(3.0)
        y = times(x, x)
        (g1,) = de.backward(y, [x])
        (g2,) = de.backward(y, [x])
        assert g1.value == g2.value == 6.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_abs_vs_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w0 = rng.uniform(-2, 2, (3, 4))
        xv = rng.uniform(-2, 2, (4, 2))

        wn = de.variable(w0)
        m = de.einsum("ij,jk->ik", wn, de.constant(xv))
        y = total(m, de.constant(np.sign(m.value)))  # sum |m|, the sign frozen
        (g,) = de.backward(y, [wn])

        def f(w):
            return float(np.abs(w @ xv).sum())

        fd = finite_difference(f, w0.copy(), step=1e-5)
        assert relerr(g.value, fd) < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_all_primitives_vs_finite_differences(self, seed):
        # one composite graph touching every differentiable primitive
        rng = np.random.default_rng(100 + seed)
        x0 = rng.uniform(-2, 2, (3, 4))

        def build(xv):
            x = de.variable(xv)
            a = times(scaled(x, 0.7), scaled(x, 0.7))
            d = de.einsum("bi,oi->bo", a, de.constant(rng_w))
            c = de.add(d, de.constant(np.full(d.shape, -0.1)))
            e = de.add(times(d, d), times(c, de.constant(np.sign(c.value))))
            f = de.add(times(e, e), scaled(times(e, d), -1.0))
            g = scaled(de.einsum("bo,b->o", f, de.constant(np.ones(3))), 1 / 3)
            h = de.einsum("ro,o->r", de.einsum("o,r->ro", g, de.constant(np.ones(2))),
                          de.constant(np.ones(5)))
            r = total(times(x, x), de.constant(rng_r.reshape(3, 4)))
            return x, de.add(scaled(total(h), 1 / 2), r)

        rng_w = rng.uniform(-1, 1, (5, 4))
        rng_r = rng.uniform(-1, 1, (2, 6))
        x, y = build(x0)
        (g,) = de.backward(y, [x])

        def f(v):
            _, yy = build(v)
            return float(yy.value)

        fd = finite_difference(f, x0.copy(), step=1e-5)
        assert relerr(g.value, fd) < 1e-6


# every contraction pattern of the package (KAN weights, layers and factors,
# the Jacobian chain, loss, penalty, scalings and the feature rules), plus a
# plain matrix product
EINSUM_SPECS = ["ij,jk->ik", "oi,k->oik", "oij,jk->oik", "oi,oij->oij", "bik,oik->bo",
                "bi,oi->bo", "oik,bik->boi", "oi,bi->boi", "boh,bhi->boi", "boh,hi->boi",
                "bo,bo->", "boi,boi->", ",->", "b,o->bo", "b,oi->boi", "bik,bik->bi",
                "bi,bi->bi", "bhi,boh->boi", "hi,boh->boi"]


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

    @settings(max_examples=60, deadline=None)
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


def same_array(got, want):
    return (got.shape == want.shape and got.strides == want.strides
            and np.array_equal(got, want))


def memory_order(labels, x):
    """The labels of x's axes, its outermost axis in memory first."""
    return "".join(sorted(labels, key=lambda ix: -x.strides[labels.index(ix)]))


def numpy_lowers_like_contract():
    """Whether np.einsum(..., optimize=True) runs a pair as kernels.contract
    does, as numpy 2 does and numpy 1.24 does not; judged on a pair whose
    result comes out transposed."""
    spec = "oik,bik->boi"
    a = np.linspace(-1.0, 1.0, 2 * 3 * 37).reshape(2, 3, 37)
    b = np.cos(np.arange(5 * 3 * 37.0)).reshape(5, 3, 37)
    return same_array(kernels.contract(spec, a, b), np.einsum(spec, a, b, optimize=True))


LOWERS_LIKE_NUMPY = numpy_lowers_like_contract()
like_numpy = pytest.mark.skipif(not LOWERS_LIKE_NUMPY,
                                reason="this numpy's einsum does not lower a pair as contract does")


@pytest.fixture(scope="module")
def recorded():
    """Every (spec, a, b) that de.einsum contracts in a p=30 KAN training
    step, a p=20 KAN scoring block and a p=20 MLP training step (batch 256,
    hidden 128, lag 5)."""
    calls = []
    contract = de.contract

    def recording(spec, a, b):
        calls.append((spec, a, b))
        return contract(spec, a, b)

    rng = np.random.default_rng(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(de, "contract", recording)
        for kind, p, train in (("kan", 30, True), ("kan", 20, False), ("mlp", 20, True)):
            bb = fc.init_backbone(kind, [5 * p, 128, p], seed=p)
            ds = WindowedDataset(rng.uniform(-2, 2, (256, 5 * p)), rng.normal(size=(256, p)), 5)
            if train:
                graph = LossGraph(bb, ds, 1e-3)
                de.backward(graph.loss, graph.params)
            else:
                infer_gc_matrix(bb, ds)
    return calls


@pytest.fixture
def splits(monkeypatch):
    """Chunk counts of the contractions that were split."""
    chunks = []
    lowered = kernels._lowered

    def recording(lowering, a, b, n):
        if n >= 2:
            chunks.append(n)
        return lowered(lowering, a, b, n)

    monkeypatch.setattr(kernels, "_lowered", recording)
    return chunks


# labels of each role in a random contraction: in both operands and the
# output, in a and the output, in b and the output, in both operands only
ROLES =("batch", "keep_a", "keep_b", "summed")


@st.composite
def contractions(draw):
    """A spec over random label sets, operands of sizes 1-5 that are
    transposed views where the draw permutes their axes, and an output in
    random label order."""
    pool = iter("abcdefgh")
    labels = {role: [next(pool) for _ in range(draw(st.integers(0, 2)))] for role in ROLES}
    labels["summed"] = labels["summed"] or [next(pool)]
    sizes = {ix: draw(st.integers(1, 5)) for group in labels.values() for ix in group}
    sa = draw(st.permutations(labels["batch"] + labels["keep_a"] + labels["summed"]))
    sb = draw(st.permutations(labels["batch"] + labels["keep_b"] + labels["summed"]))
    out = draw(st.permutations(labels["batch"] + labels["keep_a"] + labels["keep_b"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))

    def operand(term):
        stored = draw(st.permutations(term))  # memory order of the axes
        x = rng.normal(size=[sizes[ix] for ix in stored])
        return x.transpose([stored.index(ix) for ix in term])

    return f"{''.join(sa)},{''.join(sb)}->{''.join(out)}", operand(sa), operand(sb)


def check_contract(spec, a, b, want=None):
    """kernels.contract(spec, a, b) against np.einsum(..., optimize=False),
    or against `want`, to 1e-12 relative, laid out as result_order says."""
    got = kernels.contract(spec, a, b)
    want = np.einsum(spec, a, b, optimize=False) if want is None else want
    assert got.shape == want.shape and relerr(got, want) <= 1e-12, spec
    order = kernels.result_order(spec, a.shape, b.shape)
    if order is not None:
        assert memory_order(spec.split("->")[1], got) == order, spec
    return got


class TestContract:
    """kernels.contract on any numpy: np.einsum's values to rounding, laid
    out as kernels.result_order says, on any number of chunks."""

    def test_model_contractions_match_einsum(self, recorded, splits, monkeypatch):
        wants = [np.einsum(spec, a, b, optimize=False) for spec, a, b in recorded]
        for cpus in (1, 2, 3):
            monkeypatch.setattr(kernels, "_CPUS", cpus)
            splits.clear()
            for (spec, a, b), want in zip(recorded, wants):
                check_contract(spec, a, b, want)
            # at least the first-layer factor, J = F2.F1 and their gradients at p=30
            assert len(splits) >= (5 if cpus > 1 else 0) and max(splits, default=1) == cpus

    @settings(max_examples=200, deadline=None)
    @given(case=contractions(), cpus=st.integers(1, 3), floor=st.sampled_from([1, 64, 4096]))
    def test_random_contractions_match_einsum(self, case, cpus, floor):
        # a low floor puts small operands on both sides of it
        spec, a, b = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CPUS", cpus)
            mp.setattr(kernels, "CONTRACT_FLOOR", floor)
            check_contract(spec, a, b)
        order = kernels.result_order(spec, a.shape, b.shape)
        assert (order is None) == (1 in a.shape + b.shape)  # the only specs without a lowering

    @pytest.mark.parametrize("spec,shapes,chunks", [
        ("bij,bjk->bik", ((4, 128, 128), (4, 128, 128)), [2]),   # 2 floors of work
        ("bij,bjk->bik", ((4, 128, 127), (4, 127, 128)), []),    # just under 2 floors
        ("bij,bjk->bik", ((3, 256, 128), (3, 128, 128)), [3]),   # 3 floors
        ("ij,jk->ik", ((512, 128), (128, 192)), []),             # no batch label
        ("bij,bjk->bik", ((2, 1024, 128), (2, 128, 128)), [2]),  # a batch of 2 bounds it
        ("bij,bjk->bik", ((4, 128, 1), (4, 1, 8192)), []),       # a size-1 axis: np.einsum
        ("bi,bk->bik", ((4, 2048), (4, 2048)), []),              # no label summed: np.einsum
    ])
    def test_chunks_at_the_floor(self, spec, shapes, chunks, splits, monkeypatch):
        monkeypatch.setattr(kernels, "_CPUS", 3)
        rng = np.random.default_rng(1)
        check_contract(spec, rng.normal(size=shapes[0]), rng.normal(size=shapes[1]))
        assert splits == chunks

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork only")
    def test_contracts_after_fork(self, monkeypatch):
        # the child must get a working pool, not the parent's thread objects
        monkeypatch.setattr(kernels, "_CPUS", 2)
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 128, 128)), rng.normal(size=(4, 128, 128))
        want = check_contract("bij,bjk->bik", a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 1
            try:
                code = 0 if same_array(kernels.contract("bij,bjk->bik", a, b), want) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's contraction did not finish in 30 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0


@like_numpy
class TestContractEqualsNumpy:
    """Where numpy's einsum lowers a pair as contract does, kernels.contract
    equals np.einsum(..., optimize=True) in values, shape and strides on any
    number of chunks."""

    def test_model_contractions_equal_numpy(self, recorded, monkeypatch):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(kernels, "_CPUS", cpus)
            for spec, a, b in recorded:
                assert same_array(kernels.contract(spec, a, b),
                                  np.einsum(spec, a, b, optimize=True)), spec

    @settings(max_examples=200, deadline=None)
    @given(case=contractions(), cpus=st.integers(1, 3), floor=st.sampled_from([1, 64, 4096]))
    def test_random_contractions_equal_numpy(self, case, cpus, floor):
        spec, a, b = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CPUS", cpus)
            mp.setattr(kernels, "CONTRACT_FLOOR", floor)
            assert same_array(kernels.contract(spec, a, b),
                              np.einsum(spec, a, b, optimize=True))


def relaid(x, rng):
    """An array of x's shape and strides holding other values; x is a
    permutation of a dense array."""
    return np.ndarray(x.shape, x.dtype, rng.normal(size=x.size), strides=x.strides)


def gradient_specs(y, g):
    """y's vjp of the upstream gradient g: the specs it contracted and the
    gradient values."""
    specs = []
    contract = de.contract

    def recording(spec, a, b):
        specs.append(spec)
        return contract(spec, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(de, "contract", recording)
        grads = y.vjp(de.constant(g))
    return specs, [grad.value for grad in grads]


class TestGradientOperandOrder:
    """The backward rule of de.einsum contracts the upstream gradient g with
    the other operand in either order, `out,so->st` (g first) or
    `so,out->st`, whichever contract lays out for the gradient's readers."""

    @like_numpy
    @settings(max_examples=200, deadline=None)
    @given(case=contractions())
    def test_result_order_is_numpy_layout(self, case):
        spec, a, b = case
        order = kernels.result_order(spec, a.shape, b.shape)
        if order is not None:
            assert memory_order(spec.split("->")[1], np.einsum(spec, a, b, optimize=True)) == order

    @settings(max_examples=200, deadline=None)
    @given(case=contractions(), seed=st.integers(0, 2 ** 16))
    def test_either_order_same_gradient(self, case, seed):
        spec, a0, b0 = case
        (sa, sb), out = spec.split("->")[0].split(","), spec.split("->")[1]
        rng = np.random.default_rng(seed)
        g0 = rng.normal(size=np.einsum(spec, a0, b0).shape)
        y = de.einsum(spec, de.variable(a0), de.variable(b0))
        specs, grads = gradient_specs(y, g0)
        # the same shapes and strides, other values: the same orders
        y2 = de.einsum(spec, de.variable(relaid(a0, rng)), de.variable(relaid(b0, rng)))
        assert gradient_specs(y2, relaid(g0, rng))[0] == specs
        assert set(specs) <= {f"{out},{sb}->{sa}", f"{sb},{out}->{sa}",
                              f"{out},{sa}->{sb}", f"{sa},{out}->{sb}"}
        for grad, so, st_, other in zip(grads, (sb, sa), (sa, sb), (b0, a0)):
            first = np.einsum(f"{out},{so}->{st_}", g0, other, optimize=True)
            second = np.einsum(f"{so},{out}->{st_}", other, g0, optimize=True)
            # a sum's rounding is bounded by the magnitudes of its terms, not
            # by its value, which cancellation can make small
            terms = np.einsum(f"{out},{so}->{st_}", np.abs(g0), np.abs(other))
            assert np.all(np.abs(second - first) <= 1e-14 * terms)
            assert np.all(np.abs(grad - first) <= 1e-14 * terms)
        if kernels.result_order(spec, a0.shape, b0.shape) is None:
            # a size-1 axis: contract has no lowering for the gradients either
            # and g stays first
            assert specs == [f"{out},{sb}->{sa}", f"{out},{sa}->{sb}"]


def check_first_and_second_derivatives(op, a0, b0, rng):
    """f = sum(weight * op(a, b)**2) and its directional derivative
    h = <df/da, va> + <df/db, vb>: the gradients of f and of h (first and
    second derivatives of f) against finite differences."""
    weight = de.constant(rng.uniform(-1, 1, op(de.constant(a0), de.constant(b0)).shape))
    va = de.constant(rng.uniform(-1, 1, a0.shape))
    vb = de.constant(rng.uniform(-1, 1, b0.shape))

    def graph(av, bv):
        a, b = de.variable(av), de.variable(bv)
        y = op(a, b)
        return a, b, total(times(weight, y), y)

    def directional(av, bv):
        a, b, f = graph(av, bv)
        ga, gb = de.backward(f, [a, b])
        return a, b, de.add(total(ga, va), total(gb, vb))

    for build in (graph, directional):
        a, b, y = build(a0, b0)
        ga, gb = de.backward(y, [a, b])
        fd_a = finite_difference(lambda v: float(build(v, b0)[2].value), a0.copy())
        fd_b = finite_difference(lambda v: float(build(a0, v)[2].value), b0.copy())
        assert relerr(ga.value, fd_a) < 1e-6 and relerr(gb.value, fd_b) < 1e-6


def _ones(n):
    return de.constant(np.ones(n))


def _labels(x):
    return "ij"[:x.value.ndim]


# add, the elementwise product and scaling (einsums), then the difference,
# square, |x|, broadcast and reductions that the package composes from
# primitives, as op(a, b); `scalar` gives a and b shape (), as in the sum of
# the two loss terms, except for the reductions over one axis
PRIMITIVES = {
    "add": lambda a, b: de.add(a, b),
    "mul": lambda a, b: times(a, b),
    "scale": lambda a, b: scaled(a, -1.7),
    "sub": lambda a, b: de.add(a, scaled(b, -1.0)),
    "square": lambda a, b: times(a, a),
    "absval": lambda a, b: times(a, de.constant(np.sign(a.value))),
    "expand": lambda a, b: de.einsum(
        f"{_labels(a)},k->{_labels(a)[:1]}k{_labels(a)[1:]}", a, _ones(3)),
    "reduce_sum": lambda a, b: total(a),
    "reduce_sum_axis": lambda a, b: de.einsum("ij,i->j", a, _ones(a.shape[0])),
    "reduce_mean": lambda a, b: scaled(total(a), 1 / a.value.size),
    "reduce_mean_axis": lambda a, b: scaled(
        de.einsum("ij,j->i", a, _ones(a.shape[1])), 1 / a.shape[1]),
}


class TestPrimitiveDerivatives:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    @settings(max_examples=15, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=2),
           scalar=st.booleans(), seed=st.integers(0, 2 ** 16))
    # a = -0.0022: for square, f = w*a**4 has a gradient of 3.5e-8
    @example(dims=[1, 1], scalar=False, seed=235)
    def test_first_and_second_derivatives_vs_finite_differences(self, name, dims,
                                                                  scalar, seed):
        rng = np.random.default_rng(seed)
        scalar = scalar and not name.endswith("_axis")
        a0 = rng.uniform(-1, 1, () if scalar else dims)
        b0 = rng.uniform(-1, 1, () if scalar else dims)
        check_first_and_second_derivatives(PRIMITIVES[name], a0, b0, rng)


class TestFiniteDifference:
    def test_quadratic(self):
        fd = finite_difference(lambda v: float(v[0] * v[0]), np.array([3.0]))
        assert fd[0] == pytest.approx(6.0, abs=1e-8)

    def test_quartic_near_root(self):
        # the three-point rule's error here, 4*a*step**2, is 2e-5 of the gradient
        a = np.array([-0.0022])
        fd = finite_difference(lambda v: float(v[0] ** 4), a.copy())
        assert fd[0] == pytest.approx(4 * a[0] ** 3, rel=1e-9)

    def test_constant(self):
        fd = finite_difference(lambda v: 1.0, np.zeros(4))
        assert np.all(fd == 0.0)

    def test_silu_sum(self):
        def f(v):
            return float(np.sum(v / (1 + np.exp(-v))))

        fd = finite_difference(f, np.array([0.0, 1.0]))
        assert fd == pytest.approx([0.5, 0.9276705118714867], abs=1e-8)

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteValue):
            finite_difference(lambda v: float(np.log(v[0])), np.array([0.0]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference(lambda v: 0.0, np.zeros(1), step=0.0)
