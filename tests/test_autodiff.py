"""Backward-pass correctness: analytic cases, fan-out, finite differences."""

import numpy as np
import pytest

from ecglearn.dataio import TaskKind, TaskSpec
from ecglearn.errors import AutodiffError
from ecglearn.learn import focal_loss
from ecglearn.models import ModelSpec, build
from ecglearn.tensor import (Tensor, functional as F, gradcheck, no_grad,
                             param_gradcheck)
from oracles import (oracle_avgpool1d, oracle_avgpool1d_grad,
                     oracle_avgpool2d, oracle_avgpool2d_grad, oracle_batchnorm,
                     oracle_conv1d, oracle_conv1d_grads, oracle_conv2d,
                     oracle_conv2d_grads, oracle_depthwise_conv2d,
                     oracle_depthwise_conv2d_grads, oracle_gradcheck,
                     oracle_layernorm, oracle_maxpool1d, oracle_maxpool1d_grad,
                     oracle_relu)
from test_acceptance import ARCH_GRADCHECK_HP, _primitive_cases
from test_models import fused_oracle


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

    @pytest.mark.parametrize("op, shapes, kw", [
        (F.conv1d, ((2, 3, 11), (4, 3, 3), (4,)), {"stride": 2, "padding": 1}),
        (F.conv1d, ((2, 3, 15), (4, 3, 7), (4,)), {"stride": 2, "padding": 3}),
        (F.conv2d, ((2, 2, 3, 6), (3, 2, 2, 3), (3,)),
         {"stride": (1, 2), "padding": (1, 1)}),
        (F.depthwise_conv2d, ((2, 2, 2, 5), (2, 2, 2, 3), (4,)),
         {"stride": (1, 2), "padding": (1, 1)})])
    def test_padded_window_ops_every_parameter(self, op, shapes, kw):
        # backward rebuilds the windows from the input; every coordinate of
        # the input, weight and bias must still match finite differences
        rng = np.random.default_rng(sum(map(len, shapes)) + shapes[1][-1])
        params = {n: T64(rng.normal(size=s), requires_grad=True)
                  for n, s in zip(("x", "w", "b"), shapes)}
        mix = rng.normal(size=op(*params.values(), **kw).shape)
        report = param_gradcheck(lambda: (op(*params.values(), **kw) * mix).sum(),
                                 params, samples_per_param=None)
        assert report.passed, report.per_param

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

    @pytest.mark.parametrize("shape", [(4, 3, 6), (3, 2, 3, 4)])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_residual_relu(self, shape, training):
        rng = np.random.default_rng(len(shape) + training)
        C = shape[1]
        params = {"x": T64(rng.normal(size=shape), requires_grad=True),
                  "gamma": T64(rng.normal(size=C) + 1.5, requires_grad=True),
                  "beta": T64(rng.normal(size=C), requires_grad=True),
                  "residual": T64(rng.normal(size=shape), requires_grad=True)}
        rm, rv = rng.normal(size=C), np.abs(rng.normal(size=C)) + 0.5
        mix = rng.normal(size=shape)

        def bn(relu):
            return F.batchnorm(params["x"], params["gamma"], params["beta"],
                               rm.copy(), rv.copy(), training=training,
                               residual=params["residual"], relu=relu)

        # keep every relu input clear of the kink the finite steps could cross
        near = np.abs(bn(False).data) < 0.05
        params["residual"].data[near] += 0.1
        report = param_gradcheck(lambda: (bn(True) * mix).sum(), params,
                                 samples_per_param=None)
        assert report.passed, report.per_param

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

    def test_size_one_output_passes(self):
        # backward() takes any size-1 output, so the loss reads must too
        x = T64(np.linspace(-1.0, 1.0, 5))
        report = gradcheck(lambda t: (t * t).sum(axis=0, keepdims=True), x)
        assert report.passed and report.n_checked == 5

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


def norm_outputs(op, x, gamma, beta, *buffers, residual=None, **kw):
    """Output and x, gamma, beta (and residual) gradients of a normalization
    op under a fixed random upstream gradient, then the (possibly updated)
    running buffers."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
    if residual is not None:
        kw["residual"] = Tensor(residual.copy(), requires_grad=True)
    out = op(*leaves, *buffers, **kw)
    g = np.random.default_rng(1).normal(size=out.shape).astype(out.dtype)
    (out * Tensor(g)).sum().backward()
    if residual is not None:
        leaves.append(kw["residual"])
    return [out.data] + [t.grad for t in leaves] + list(buffers)


class TestNormalizationMatchesOracle:
    """Bit-identity of batchnorm and layernorm (forward, every gradient and
    the running buffers) with their frozen pre-merge nodes."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(4, 6, 33), (3, 5, 4, 7), (1, 3, 1)])
    @pytest.mark.parametrize("mode", ["train", "eval", "frozen_stats"])
    def test_batchnorm(self, dtype, shape, mode):
        rng = np.random.default_rng(sum(shape))
        C = shape[1]
        x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
        gamma, beta = (rng.normal(size=C).astype(dtype) for _ in range(2))
        mean0 = rng.normal(size=C).astype(dtype)
        var0 = rng.uniform(0.5, 2.0, size=C).astype(dtype)
        kw = {"training": mode != "eval", "update_stats": mode == "train",
              "momentum": 0.3}
        got = norm_outputs(F.batchnorm, x, gamma, beta, mean0.copy(),
                           var0.copy(), **kw)
        want = norm_outputs(oracle_batchnorm, x, gamma, beta, mean0.copy(),
                            var0.copy(), **kw)
        assert_bitwise(got, want)
        stats_moved = not np.array_equal(got[4], mean0)
        assert stats_moved == (mode == "train")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(4, 6, 33), (3, 5, 4, 7)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_batchnorm_residual_relu(self, dtype, shape, training, relu):
        """The fused node against oracle_batchnorm, ``+ residual`` and
        oracle_relu: output, the four gradients and the running buffers."""
        rng = np.random.default_rng(sum(shape) + 1)
        C = shape[1]
        x, gamma, beta, residual = ((rng.normal(size=s) * 3 + 1).astype(dtype)
                                    for s in (shape, (C,), (C,), shape))
        mean0 = rng.normal(size=C).astype(dtype)
        var0 = rng.uniform(0.5, 2.0, size=C).astype(dtype)
        kw = {"training": training, "momentum": 0.3, "residual": residual,
              "relu": relu}
        got = norm_outputs(F.batchnorm, x, gamma, beta, mean0.copy(),
                           var0.copy(), **kw)
        want = norm_outputs(fused_oracle(lambda: oracle_relu), x, gamma, beta,
                            mean0.copy(), var0.copy(), **kw)
        assert_bitwise(got, want)

    def test_eval_backward_ignores_a_later_stats_update(self):
        """An eval-mode node keeps its own running mean: a training forward
        that moves the buffers before backward changes no gradient bit."""
        rng = np.random.default_rng(5)
        x, residual = (Tensor(rng.normal(size=(4, 3, 10)), requires_grad=True)
                       for _ in range(2))
        gamma = Tensor(rng.normal(size=3) + 1.5, requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        mix = Tensor(rng.normal(size=(4, 3, 10)))
        loss = (F.batchnorm(x, gamma, beta, rm, rv, training=False,
                            residual=residual, relu=True) * mix).sum()
        leaves = (x, gamma, beta, residual)
        loss.backward()
        before = [t.grad.copy() for t in leaves]
        rm0 = rm.copy()
        F.batchnorm(Tensor(rng.normal(size=(4, 3, 10)) + 5), gamma, beta, rm, rv,
                    training=True, momentum=0.5)
        assert not np.array_equal(rm, rm0)
        for t in leaves:
            t.grad = None
        loss.backward()
        assert_bitwise([t.grad for t in leaves], before)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(9,), (5, 8), (2, 7, 16), (2, 3, 4, 6)])
    def test_layernorm(self, dtype, shape):
        rng = np.random.default_rng(len(shape))
        x = (rng.normal(size=shape) * 2 - 1).astype(dtype)
        gamma, beta = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
        got = norm_outputs(F.layernorm, x, gamma, beta, eps=1e-4)
        want = norm_outputs(oracle_layernorm, x, gamma, beta, eps=1e-4)
        assert_bitwise(got, want)


class TestWindowBackwardMatchesOracle:
    """Bit-identity of the window ops' backward passes with their frozen
    per-op scatter loops, and of their outputs with their frozen forward
    passes; and one graph node per window op call."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("K, stride, padding",
                             [(3, 1, 0), (5, 2, 1), (4, 3, 2), (1, 2, 0)])
    def test_conv1d(self, dtype, K, stride, padding):
        rng = np.random.default_rng(K)
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 17), (4, 3, K), (4,)))
        out = F.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding)
        assert_bitwise([out.data], [oracle_conv1d(x, w, b, stride, padding)])
        got, g = window_op_grads(F.conv1d, (x, w, b), rng,
                                  stride=stride, padding=padding)
        assert_bitwise(got, oracle_conv1d_grads(x, w, b, g, stride, padding))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel, stride, padding",
                             [(3, 2, 1), (2, 2, 0), (3, 1, 1), (4, 3, 2)])
    def test_maxpool1d_ties_and_padding(self, dtype, kernel, stride, padding):
        rng = np.random.default_rng(kernel)
        x = rng.integers(-2, 3, size=(2, 3, 19)).astype(dtype)   # many ties
        out = F.maxpool1d(Tensor(x), kernel=kernel, stride=stride, padding=padding)
        assert_bitwise([out.data], [oracle_maxpool1d(x, kernel, stride, padding)])
        got, g = window_op_grads(F.maxpool1d, (x,), rng, kernel=kernel,
                                  stride=stride, padding=padding)
        assert_bitwise(got, [oracle_maxpool1d_grad(x, g, kernel, stride, padding)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel, stride, padding", [(3, 2, 1), (3, 1, 1), (4, 3, 2)])
    def test_maxpool1d_nan_and_signed_zeros(self, dtype, kernel, stride, padding):
        # argmax picks a window's first NaN, else its first maximum, and
        # -0.0 == 0.0 ties; the forward must pick the same element
        rng = np.random.default_rng(kernel + stride)
        values = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, 1.0, -1.0], dtype)
        x = rng.choice(values, size=(2, 3, 19))
        out = F.maxpool1d(Tensor(x), kernel=kernel, stride=stride, padding=padding)
        assert_bitwise([out.data], [oracle_maxpool1d(x, kernel, stride, padding)])
        with np.errstate(invalid="ignore"):                      # inf * 0
            got, g = window_op_grads(F.maxpool1d, (x,), rng, kernel=kernel,
                                      stride=stride, padding=padding)
            want = oracle_maxpool1d_grad(x, g, kernel, stride, padding)
        assert_bitwise(got, [want])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 1), (4, 3)])
    def test_avgpool1d(self, dtype, kernel, stride):
        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(2, 3, 17)).astype(dtype)
        out = F.avgpool1d(Tensor(x), kernel=kernel, stride=stride)
        assert_bitwise([out.data], [oracle_avgpool1d(x, kernel, stride)])
        got, g = window_op_grads(F.avgpool1d, (x,), rng, kernel=kernel,
                                  stride=stride)
        assert_bitwise(got, [oracle_avgpool1d_grad(x, g, kernel, stride)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride, padding, kshape", PADS_2D)
    def test_conv2d(self, dtype, stride, padding, kshape):
        rng = np.random.default_rng(sum(kshape))
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 6, 9), (4, 3) + kshape, (4,)))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding)
        assert_bitwise([out.data], [oracle_conv2d(x, w, b, stride, padding)])
        got, g = window_op_grads(F.conv2d, (x, w, b), rng,
                                  stride=stride, padding=padding)
        assert_bitwise(got, oracle_conv2d_grads(x, w, b, g, stride, padding))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride, padding, kshape", PADS_2D)
    def test_depthwise_conv2d(self, dtype, stride, padding, kshape):
        rng = np.random.default_rng(sum(kshape))
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 6, 9), (3, 2) + kshape, (6,)))
        out = F.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                                 padding=padding)
        assert_bitwise([out.data],
                       [oracle_depthwise_conv2d(x, w, b, stride, padding)])
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
        out = F.avgpool2d(Tensor(x), kernel=kernel, stride=stride)
        assert_bitwise([out.data], [oracle_avgpool2d(x, kernel, stride)])
        got, g = window_op_grads(F.avgpool2d, (x,), rng, kernel=kernel,
                                  stride=stride)
        assert_bitwise(got, [oracle_avgpool2d_grad(x, g, kernel, stride)])

    def test_one_graph_node_per_call(self):
        cases = [(F.conv1d, ((2, 3, 17), (4, 3, 5), (4,)), {"stride": 2, "padding": 1}),
                 (F.maxpool1d, ((2, 3, 17),), {"kernel": 3, "padding": 1}),
                 (F.avgpool1d, ((2, 3, 17),), {"kernel": 2}),
                 (F.conv2d, ((2, 3, 6, 9), (4, 3, 3, 2), (4,)), {"padding": (1, 0)}),
                 (F.depthwise_conv2d, ((2, 3, 6, 9), (3, 2, 1, 4), (6,)), {}),
                 (F.avgpool2d, ((2, 3, 6, 9),), {"kernel": (2, 3)})]
        for op, shapes, kw in cases:
            leaves = [Tensor(np.ones(s), requires_grad=True) for s in shapes]
            out = op(*leaves, **kw)
            assert len(out._toposort()) == 1 + len(leaves), op.__name__


def _primitive_inputs(seed):
    """Criterion 1's primitive cases, each with the input it checks them at."""
    rng = np.random.default_rng(seed + 1000)
    for name, f, shape in _primitive_cases(seed):
        if shape is None:  # relu: keep inputs away from the kink
            x = T64(np.sign(rng.normal(size=(6, 4)))
                    * (0.1 + np.abs(rng.normal(size=(6, 4)))))
        else:
            x = T64(rng.normal(size=shape))
        yield name, f, x


def assert_same_report(new, old, what):
    assert new.max_rel_err == old.max_rel_err, what
    assert new.worst_index == old.worst_index, what
    assert new.n_checked == old.n_checked, what
    assert new.tol == old.tol, what
    assert new.per_param == {}, what


class TestGradcheckMatchesOracle:
    """gradcheck through param_gradcheck reports exactly what its own
    per-input loop reported."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primitives(self, seed):
        for name, f, x in _primitive_inputs(seed):
            assert_same_report(gradcheck(f, x), oracle_gradcheck(f, x), name)

    @pytest.mark.parametrize("arch", ARCH_GRADCHECK_HP)
    def test_architecture_inputs(self, arch):
        task = TaskSpec(TaskKind.MULTILABEL, ("a", "b", "c"))
        for seed in (0, 1):
            model = build(ModelSpec(arch, task, ARCH_GRADCHECK_HP[arch]),
                          seed=seed, dtype=np.float64)
            model.train_mode()
            rng = np.random.default_rng(seed + 40)
            x = T64(rng.normal(size=(2, 12, 64)))
            targets = (rng.random((2, 3)) < 0.5).astype(np.float64)

            def f(t):
                return focal_loss(model.forward(t), targets)

            new = gradcheck(f, x, max_elements=16,
                            rng=np.random.default_rng(seed))
            old = oracle_gradcheck(f, x, max_elements=16,
                                   rng=np.random.default_rng(seed))
            assert_same_report(new, old, f"{arch} seed {seed}")

    def test_sampled_without_rng(self):
        # max_elements without a generator: both sample from default_rng(0)
        for name, f, x in _primitive_inputs(0):
            if x.size > 20:
                assert_same_report(gradcheck(f, x, max_elements=7),
                                   oracle_gradcheck(f, x, max_elements=7), name)
