"""Backward-pass correctness: analytic cases, fan-out, finite differences."""

import numpy as np
import pytest

from ecglearn.errors import AutodiffError
from ecglearn.tensor import (Tensor, functional as F, gradcheck, no_grad)
from oracles import (oracle_avgpool1d_grad, oracle_avgpool2d_grad,
                     oracle_conv1d_grads, oracle_conv2d_grads,
                     oracle_depthwise_conv2d_grads, oracle_maxpool1d_grad)


def T64(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


class TestAnalyticGradients:
    def test_sum_of_squares(self):
        x = T64([1.0, 2.0, 3.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_sigmoid_slope_at_zero(self):
        # d sigmoid(w*x)/dw at w=0, x=1 is sigma'(0) = 0.25
        w = T64(0.0, requires_grad=True)
        x = T64(1.0)
        loss = (w * x).sigmoid()
        loss.backward()
        assert abs(float(w.grad) - 0.25) < 1e-12

    def test_fanout_accumulates_contributions(self):
        # y = x*x + x*x + x*x: three uses, gradient is exactly 3 * 2x
        x = T64([1.5, -2.0], requires_grad=True)
        sq = x * x
        loss = (sq + sq + sq).sum()
        loss.backward()
        assert np.allclose(x.grad, 6.0 * x.data, atol=1e-15)

    def test_repeated_backward_accumulates(self):
        x = T64([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        assert np.array_equal(x.grad, 2.0 * first)

    def test_unreachable_leaf_keeps_grad_none(self):
        x = T64([1.0], requires_grad=True)
        other = T64([5.0], requires_grad=True)
        (x * x).sum().backward()
        assert other.grad is None

    def test_scalar_requirement(self):
        x = T64([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutodiffError, match="scalar"):
            (x * x).backward()

    def test_no_grad_suppresses_graph(self):
        x = T64([1.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad


class TestGradcheckPrimitives:
    """Every primitive against central finite differences, three seeds each."""

    SEEDS = (0, 1, 2)

    def _check(self, f, shape, seed, tol=1e-4):
        rng = np.random.default_rng(seed)
        x = T64(rng.normal(size=shape))
        report = gradcheck(f, x, tol=tol)
        assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_index}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_elementwise_chain(self, seed):
        self._check(lambda x: (x.sigmoid() * x.tanh() + x.exp() * 0.01).sum(),
                    (4, 5), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu_elu(self, seed):
        # keep inputs away from the kink at 0
        rng = np.random.default_rng(seed)
        x = T64(np.sign(rng.normal(size=(6, 4))) * (0.1 + np.abs(rng.normal(size=(6, 4)))))
        mix = rng.normal(size=(6, 4))
        for act in (F.relu, F.elu):
            report = gradcheck(lambda t: (act(t) * mix).sum(), x)
            assert report.passed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(3, 7))
        self._check(lambda x: (F.softmax(x, axis=-1) * w).sum(), (3, 7), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_logsigmoid_pow(self, seed):
        self._check(lambda x: (F.logsigmoid(x) * x.sigmoid().pow(2.0)).sum(), (5,), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul_batched(self, seed):
        rng = np.random.default_rng(seed)
        b = T64(rng.normal(size=(4, 5)))
        mix = rng.normal(size=(2, 3, 5))
        self._check(lambda x: ((x @ b) * mix).sum(), (2, 3, 4), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv1d(self, seed):
        rng = np.random.default_rng(seed + 100)
        w = T64(rng.normal(size=(4, 3, 3)), requires_grad=True)
        bias = T64(rng.normal(size=4), requires_grad=True)
        mix = rng.normal(size=(2, 4, 6))

        def f(x):
            return (F.conv1d(x, w, bias, stride=2, padding=1) * mix).sum()

        self._check(f, (2, 3, 11), seed)
        # and through the weights
        x0 = T64(rng.normal(size=(2, 3, 11)))
        gw = gradcheck(lambda wt: (F.conv1d(x0, wt, bias, stride=2, padding=1) * mix).sum(), w)
        assert gw.passed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d_and_depthwise(self, seed):
        rng = np.random.default_rng(seed + 7)
        w = T64(rng.normal(size=(3, 2, 2, 3)))
        mix = rng.normal(size=(2, 3, 3, 3))
        self._check(lambda x: (F.conv2d(x, w, stride=(1, 2), padding=(1, 1)) * mix).sum(),
                    (2, 2, 2, 5), seed)
        wd = T64(rng.normal(size=(2, 2, 2, 1)))
        mixd = rng.normal(size=(2, 4, 2, 5))
        self._check(lambda x: (F.depthwise_conv2d(x, wd, padding=(1, 0)) * mixd).sum(),
                    (2, 2, 1, 5), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pools(self, seed):
        rng = np.random.default_rng(seed + 13)
        mix = rng.normal(size=(2, 3, 5))
        self._check(lambda x: (F.maxpool1d(x, 3, 2, padding=1) * mix).sum(), (2, 3, 9), seed)
        mix2 = rng.normal(size=(2, 3, 4))
        self._check(lambda x: (F.avgpool1d(x, 2, 2) * mix2).sum(), (2, 3, 8), seed)
        self._check(lambda x: F.global_avg_pool1d(x).sum(), (2, 3, 8), seed)
        mix3 = rng.normal(size=(2, 2, 1, 4))
        self._check(lambda x: (F.avgpool2d(x, (2, 2)) * mix3).sum(), (2, 2, 2, 8), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batchnorm_train_and_eval(self, seed):
        rng = np.random.default_rng(seed + 23)
        gamma = T64(rng.normal(size=3) + 1.5, requires_grad=True)
        beta = T64(rng.normal(size=3), requires_grad=True)
        mix = rng.normal(size=(4, 3, 6))

        def f_train(x):
            rm, rv = np.zeros(3), np.zeros(3)
            return (F.batchnorm(x, gamma, beta, rm, rv, training=True) * mix).sum()

        self._check(f_train, (4, 3, 6), seed)

        rm = rng.normal(size=3)
        rv = np.abs(rng.normal(size=3)) + 0.5

        def f_eval(x):
            return (F.batchnorm(x, gamma, beta, rm, rv, training=False) * mix).sum()

        self._check(f_eval, (4, 3, 6), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layernorm(self, seed):
        rng = np.random.default_rng(seed + 31)
        gamma = T64(rng.normal(size=6) + 1.0)
        beta = T64(rng.normal(size=6))
        mix = rng.normal(size=(2, 4, 6))
        self._check(lambda x: (F.layernorm(x, gamma, beta) * mix).sum(), (2, 4, 6), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_structural_ops(self, seed):
        rng = np.random.default_rng(seed + 41)
        mix = rng.normal(size=(2, 5))

        def f(x):
            a = x[:, :2]
            b = x[:, 2:]
            return (F.concat([b, a], axis=1).reshape(2, 5) * mix).sum()

        self._check(f, (2, 5), seed)
        mixt = rng.normal(size=(3, 2, 4))
        self._check(lambda x: (x.transpose(1, 0, 2) * mixt).sum(), (2, 3, 4), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_composite_conv_relu_linear(self, seed):
        rng = np.random.default_rng(seed + 99)
        w1 = T64(rng.normal(size=(4, 3, 3)) * 0.6)
        w2 = T64(rng.normal(size=(4, 2)) * 0.6)
        b2 = T64(rng.normal(size=2))

        def f(x):
            h = F.relu(F.conv1d(x, w1, padding=1))
            pooled = F.global_avg_pool1d(h)
            return F.linear(pooled, w2, b2).sum()

        self._check(f, (2, 3, 12), seed)


class TestGradcheckGuards:
    def test_plain_sum_within_roundoff(self):
        # the finite-difference quotient itself carries ~1e-11 roundoff, so
        # "exact" means indistinguishable from the analytic 1.0 at that level
        report = gradcheck(lambda x: x.sum(), T64(np.arange(5.0)))
        assert report.max_rel_err < 1e-9

    def test_rejects_float32(self):
        x = Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(AutodiffError, match="float64"):
            gradcheck(lambda t: t.sum(), x)

    def test_rejects_stochastic_function(self):
        rng = np.random.default_rng(0)

        def f(x):
            return F.dropout(x, 0.5, rng, training=True).sum()

        # distinct magnitudes so different masks cannot alias to equal sums
        with pytest.raises(AutodiffError, match="stochastic"):
            gradcheck(f, T64(2.0 ** np.arange(8)))

    def test_rejects_nonscalar_output(self):
        with pytest.raises(AutodiffError, match="reduce"):
            gradcheck(lambda x: x * 2.0, T64(np.ones(3)))

    def test_dropout_train_scales_and_eval_is_identity(self):
        x = T64(np.ones((4, 100)))
        rng = np.random.default_rng(5)
        out = F.dropout(x, 0.25, rng, training=True)
        kept = out.data != 0
        assert np.allclose(out.data[kept], 1.0 / 0.75)
        assert F.dropout(x, 0.25, rng, training=False) is x


def window_op_grads(op, arrays, rng, **kw):
    """Gradients of every array input of ``op`` under a random upstream
    gradient g, plus g itself."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves, **kw)
    g = rng.normal(size=out.shape).astype(out.dtype)
    (out * Tensor(g)).sum().backward()
    return [t.grad for t in leaves], g


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


DTYPES = (np.float32, np.float64)
PADS_2D = [((1, 1), (0, 0), (3, 3)),
           ((2, 1), ((1, 2), (0, 1)), (2, 3)),
           ((1, 3), (1, (2, 0)), (3, 2))]


class TestWindowBackwardMatchesOracle:
    """Bit-identity of the window ops' backward passes with their frozen
    per-op scatter loops."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("K, stride, padding",
                             [(3, 1, 0), (5, 2, 1), (4, 3, 2), (1, 2, 0)])
    def test_conv1d(self, dtype, K, stride, padding):
        rng = np.random.default_rng(K)
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 17), (4, 3, K), (4,)))
        got, g = window_op_grads(F.conv1d, (x, w, b), rng,
                                  stride=stride, padding=padding)
        assert_bitwise(got, oracle_conv1d_grads(x, w, b, g, stride, padding))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel, stride, padding",
                             [(3, 2, 1), (2, 2, 0), (3, 1, 1), (4, 3, 2)])
    def test_maxpool1d_ties_and_padding(self, dtype, kernel, stride, padding):
        rng = np.random.default_rng(kernel)
        x = rng.integers(-2, 3, size=(2, 3, 19)).astype(dtype)   # many ties
        got, g = window_op_grads(F.maxpool1d, (x,), rng, kernel=kernel,
                                  stride=stride, padding=padding)
        assert_bitwise(got, [oracle_maxpool1d_grad(x, g, kernel, stride, padding)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 1), (4, 3)])
    def test_avgpool1d(self, dtype, kernel, stride):
        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(2, 3, 17)).astype(dtype)
        got, g = window_op_grads(F.avgpool1d, (x,), rng, kernel=kernel,
                                  stride=stride)
        assert_bitwise(got, [oracle_avgpool1d_grad(x, g, kernel, stride)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride, padding, kshape", PADS_2D)
    def test_conv2d(self, dtype, stride, padding, kshape):
        rng = np.random.default_rng(sum(kshape))
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 6, 9), (4, 3) + kshape, (4,)))
        got, g = window_op_grads(F.conv2d, (x, w, b), rng,
                                  stride=stride, padding=padding)
        assert_bitwise(got, oracle_conv2d_grads(x, w, b, g, stride, padding))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride, padding, kshape", PADS_2D)
    def test_depthwise_conv2d(self, dtype, stride, padding, kshape):
        rng = np.random.default_rng(sum(kshape))
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 6, 9), (3, 2) + kshape, (6,)))
        got, g = window_op_grads(F.depthwise_conv2d, (x, w, b), rng,
                                  stride=stride, padding=padding)
        assert_bitwise(got, oracle_depthwise_conv2d_grads(x, w, b, g, stride,
                                                          padding))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel, stride",
                             [((2, 2), (2, 2)), ((1, 4), (1, 2)), ((3, 2), (2, 3))])
    def test_avgpool2d(self, dtype, kernel, stride):
        rng = np.random.default_rng(sum(kernel))
        x = rng.normal(size=(2, 3, 6, 9)).astype(dtype)
        got, g = window_op_grads(F.avgpool2d, (x,), rng, kernel=kernel,
                                  stride=stride)
        assert_bitwise(got, [oracle_avgpool2d_grad(x, g, kernel, stride)])
