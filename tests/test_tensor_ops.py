"""Forward semantics and shape algebra of the tensor primitives."""

import numpy as np
import pytest

from ecglearn.dataio import TaskKind
from ecglearn.errors import ShapeError
from ecglearn.learn.train import _scores_from_logits
from ecglearn.tensor import Tensor, functional as F, gru_cell, lstm_cell
from ecglearn.tensor import tensor as tensor_module
from oracles import oracle_relu, oracle_sigmoid


def T(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


class TestElementwise:
    def test_relu_definition(self):
        out = F.relu(T([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_oracle_bitwise(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([-0.0, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny,
                            -tiny, 3 * tiny, -3 * tiny, np.finfo(dtype).max,
                            -np.finfo(dtype).max, 1.0, -1.0], dtype=dtype)
        rng = np.random.default_rng(11)
        x = np.concatenate([special, rng.normal(size=64).astype(dtype), special])
        g = np.concatenate([special[::-1], rng.normal(size=64).astype(dtype), special])
        # short prefixes put each special value in a vectorized loop's tail,
        # which takes its own path
        for n in [*range(1, 17), len(x)]:
            outs = []
            with np.errstate(invalid="ignore", over="ignore"):   # inf * 0, inf sums
                for op in (F.relu, oracle_relu):
                    leaf = Tensor(x[:n].copy(), requires_grad=True)
                    out = op(leaf)
                    (out * Tensor(g[:n])).sum().backward()
                    outs.append((out.data, leaf.grad))
            (got, dgot), (want, dwant) = outs
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), n
            assert dgot.tobytes() == dwant.tobytes(), n
            assert not np.signbit(got).any(), n

    def test_elu_negative_branch(self):
        out = F.elu(T([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [np.expm1(-1.0), 0.0, 2.0])

    def test_sigmoid_extremes_stable(self):
        out = T([-800.0, 0.0, 800.0]).sigmoid()
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == 0.5
        # evaluation scores: the same sigmoid of float32 logits taken in float64
        logits = np.array([[-800.0, 0.0, 800.0]], dtype=np.float32)
        scores = _scores_from_logits(logits, TaskKind.MULTILABEL)
        assert scores.dtype == np.float64
        assert np.array_equal(scores[0], out.data)
        # multiclass scores: softmax over classes in float64, byte-equal to
        # the inline evaluation used before it shared F.softmax
        for dtype in (np.float32, np.float64):
            logits = (np.random.default_rng(3).normal(size=(6, 4)) * 40).astype(dtype)
            z = logits.astype(np.float64)
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            expected = e / e.sum(axis=1, keepdims=True)
            scores = _scores_from_logits(logits, TaskKind.MULTICLASS)
            assert scores.dtype == np.float64
            assert scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_oracle_bitwise(self, dtype, monkeypatch):
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1),
                            tiny, -tiny, 3 * tiny, -3 * tiny, info.max, -info.max,
                            88.7, -88.7, 709.8, -709.8], dtype=dtype)
        rng = np.random.default_rng(12)
        x = np.concatenate([special, (rng.normal(size=64) * 30).astype(dtype), special])
        g = np.concatenate([special[::-1], rng.normal(size=64).astype(dtype), special])

        def run(n):
            # the logistic's output and the gradients of the two ops built on it
            out = []
            with np.errstate(invalid="ignore", over="ignore"):   # inf * 0, inf sums
                for op in (Tensor.sigmoid, F.logsigmoid):
                    leaf = Tensor(x[:n].copy(), requires_grad=True)
                    (op(leaf) * Tensor(g[:n])).sum().backward()
                    out.append(leaf.grad)
                return [tensor_module.stable_sigmoid(x[:n]), *out]

        # short prefixes put each special value in a vectorized loop's tail,
        # which takes its own path
        prefixes = [*range(1, 17), len(x)]
        got = [run(n) for n in prefixes]
        monkeypatch.setattr(tensor_module, "stable_sigmoid", oracle_sigmoid)
        monkeypatch.setattr(F, "stable_sigmoid", oracle_sigmoid)
        for n, arrays in zip(prefixes, got):
            for a, b in zip(arrays, run(n)):
                assert a.dtype == b.dtype == dtype
                assert a.tobytes() == b.tobytes(), n

    def test_logsigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-20, 20, 41)
        out = F.logsigmoid(T(x))
        assert np.allclose(out.data, np.log(1.0 / (1.0 + np.exp(-x))), atol=1e-12)

    def test_add_broadcasting(self):
        out = T(np.ones((2, 3, 4))) + T(np.arange(4.0))
        assert out.shape == (2, 3, 4)
        assert np.allclose(out.data[0, 0], 1.0 + np.arange(4.0))


class TestItem:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_size_one_reads_as_python_float(self, shape):
        value = T(np.full(shape, 2.5)).item()
        assert type(value) is float and value == 2.5


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = F.softmax(T([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = T(rng.normal(size=(16, 9)) * 30)
        out = F.softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


class TestConvShapes:
    def test_documented_shape_arithmetic(self):
        rng = np.random.default_rng(0)
        x = T(rng.normal(size=(2, 12, 2048)))
        w = T(rng.normal(size=(64, 12, 7)))
        b = T(np.zeros(64))
        out = F.conv1d(x, w, b, stride=2, padding=3)
        assert out.shape == (2, 64, 1024)

    def test_channel_mismatch_names_dims(self):
        x = T(np.zeros((1, 3, 16)))
        w = T(np.zeros((4, 5, 3)))
        with pytest.raises(ShapeError, match="channels 3 != weight channels 5"):
            F.conv1d(x, w)

    def test_kernel_larger_than_padded_input(self):
        x = T(np.zeros((1, 2, 4)))
        w = T(np.zeros((3, 2, 9)))
        with pytest.raises(ShapeError, match="kernel 9 larger"):
            F.conv1d(x, w, padding=1)

    def test_conv_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 3))
        out = F.conv1d(T(x), T(w), stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        expect = np.zeros((2, 4, 6))
        for bi in range(2):
            for o in range(4):
                for i in range(6):
                    expect[bi, o, i] = (xp[bi, :, 2 * i:2 * i + 3] * w[o]).sum()
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_conv2d_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 5, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(T(x), T(w), stride=(1, 2), padding=(1, 1))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expect = np.zeros((2, 3, 5, 4))
        for bi in range(2):
            for o in range(3):
                for i in range(5):
                    for j in range(4):
                        expect[bi, o, i, j] = (
                            xp[bi, :, i:i + 3, 2 * j:2 * j + 3] * w[o]).sum()
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_depthwise_conv2d_channels(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4, 10))
        w = rng.normal(size=(3, 2, 4, 1))
        out = F.depthwise_conv2d(T(x), T(w))
        assert out.shape == (2, 6, 1, 10)
        # output channel 2*c+m depends only on input channel c
        direct = (x[0, 1] * w[1, 0][:, 0][:, None]).sum(axis=0)
        assert np.allclose(out.data[0, 2, 0], direct, atol=1e-12)


class TestWindowArguments:
    """Kernel sizes and strides below 1 and negative padding are ShapeErrors
    naming the op, for every window op; only None selects a default stride."""

    X1, X2 = np.zeros((1, 2, 8)), np.zeros((1, 2, 6, 8))
    W1, W2, WD = np.zeros((3, 2, 3)), np.zeros((3, 2, 2, 3)), np.zeros((2, 1, 2, 3))

    @pytest.mark.parametrize("call, message", [
        (lambda s: F.conv1d(T(s.X1), T(s.W1), stride=0), "conv1d: stride must be >= 1, got 0"),
        (lambda s: F.conv1d(T(s.X1), T(s.W1), padding=-1),
         "conv1d: padding must be >= 0, got -1"),
        (lambda s: F.conv1d(T(s.X1), T(np.zeros((3, 2, 0)))),
         "conv1d: kernel size must be >= 1, got 0"),
        (lambda s: F.conv2d(T(s.X2), T(s.W2), stride=(0, 1)),
         "conv2d: stride must be >= 1, got 0"),
        (lambda s: F.conv2d(T(s.X2), T(s.W2), padding=((0, -2), 1)),
         "conv2d: padding must be >= 0, got -2"),
        (lambda s: F.depthwise_conv2d(T(s.X2), T(s.WD), stride=(1, -1)),
         "depthwise_conv2d: stride must be >= 1, got -1"),
        (lambda s: F.maxpool1d(T(s.X1), 0), "maxpool1d: kernel size must be >= 1, got 0"),
        (lambda s: F.maxpool1d(T(s.X1), 2, stride=0), "maxpool1d: stride must be >= 1, got 0"),
        (lambda s: F.maxpool1d(T(s.X1), 2, padding=-1),
         "maxpool1d: padding must be >= 0, got -1"),
        (lambda s: F.avgpool1d(T(s.X1), 0), "avgpool1d: kernel size must be >= 1, got 0"),
        (lambda s: F.avgpool1d(T(s.X1), 2, stride=0), "avgpool1d: stride must be >= 1, got 0"),
        (lambda s: F.avgpool2d(T(s.X2), (2, 0)), "avgpool2d: kernel size must be >= 1, got 0"),
        (lambda s: F.avgpool2d(T(s.X2), (2, 2), stride=(1, 0)),
         "avgpool2d: stride must be >= 1, got 0"),
    ])
    def test_bad_argument_is_shape_error(self, call, message):
        with pytest.raises(ShapeError) as err:
            call(self)
        assert str(err.value) == message

    def test_none_selects_the_default_stride(self):
        x = T(np.arange(8.0).reshape(1, 1, 8))
        assert F.maxpool1d(x, 2).shape == F.maxpool1d(x, 2, stride=2).shape == (1, 1, 4)
        assert F.avgpool1d(x, 2).shape == (1, 1, 4)
        assert F.maxpool1d(x, 2, stride=1).shape == (1, 1, 7)


class TestBiasShapes:
    """A bias that is not one value per output channel is a ShapeError naming
    the op, raised before the op computes (a recurrent cell's through linear)."""

    X1, X2, H = np.zeros((1, 2, 8)), np.zeros((1, 2, 6, 8)), np.zeros((2, 4))

    @pytest.mark.parametrize("call, message", [
        (lambda s: F.linear(T(s.H), T(np.zeros((4, 3))), T(np.zeros(4))),
         "linear: bias shape (4,) != (3,)"),
        (lambda s: F.linear(T(s.H), T(np.zeros((4, 3))), T(np.zeros((2, 3)))),
         "linear: bias shape (2, 3) != (3,)"),
        (lambda s: F.conv1d(T(s.X1), T(np.zeros((4, 2, 3))), T(np.zeros(1))),
         "conv1d: bias shape (1,) != (4,)"),
        (lambda s: F.conv2d(T(s.X2), T(np.zeros((3, 2, 2, 3))), T(np.zeros((3, 1)))),
         "conv2d: bias shape (3, 1) != (3,)"),
        (lambda s: F.depthwise_conv2d(T(s.X2), T(np.zeros((2, 3, 2, 3))),
                                      T(np.zeros(3))),
         "depthwise_conv2d: bias shape (3,) != (6,)"),
        (lambda s: gru_cell(T(s.H), T(s.H), T(np.zeros((4, 12))),
                            T(np.zeros((4, 12))), T(np.zeros(4)), T(np.zeros(12))),
         "linear: bias shape (4,) != (12,)"),
        (lambda s: lstm_cell(T(s.H), (T(s.H), T(s.H)), T(np.zeros((4, 16))),
                             T(np.zeros((4, 16))), T(np.zeros(16)), T(np.zeros(1))),
         "linear: bias shape (1,) != (16,)"),
    ], ids=["linear", "linear-2d", "conv1d", "conv2d", "depthwise_conv2d",
            "gru_cell", "lstm_cell"])
    def test_bad_bias_is_shape_error(self, call, message):
        with pytest.raises(ShapeError) as err:
            call(self)
        assert str(err.value) == message


class TestPooling:
    def test_maxpool_values(self):
        x = T([[[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]]])
        out = F.maxpool1d(x, kernel=2, stride=2)
        assert np.array_equal(out.data, [[[3.0, 5.0, 4.0]]])

    def test_maxpool_padding_uses_neg_inf(self):
        x = T([[[-5.0, -7.0]]])
        out = F.maxpool1d(x, kernel=3, stride=2, padding=1)
        assert np.array_equal(out.data, [[[-5.0]]])

    def test_avgpool_values(self):
        x = T([[[1.0, 3.0, 2.0, 6.0]]])
        out = F.avgpool1d(x, kernel=2)
        assert np.array_equal(out.data, [[[2.0, 4.0]]])

    def test_global_avg_pool(self):
        x = T(np.arange(12.0).reshape(2, 2, 3))
        out = F.global_avg_pool1d(x)
        assert np.allclose(out.data, x.data.mean(axis=2))


class TestBatchnorm:
    def test_train_mode_normalizes_per_channel(self):
        rng = np.random.default_rng(11)
        x = T(rng.normal(loc=3.0, scale=2.5, size=(8, 4, 500)))
        gamma, beta = T(np.ones(4)), T(np.zeros(4))
        rm, rv = np.zeros(4), np.zeros(4)
        out = F.batchnorm(x, gamma, beta, rm, rv, training=True)
        mu = out.data.mean(axis=(0, 2))
        var = out.data.var(axis=(0, 2))
        assert np.all(np.abs(mu) < 1e-5)
        assert np.all(np.abs(var - 1.0) < 1e-4)

    def test_eval_requires_populated_stats(self):
        x = T(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError, match="running stats"):
            F.batchnorm(x, T(np.ones(3)), T(np.zeros(3)),
                        np.zeros(3), np.zeros(3), training=False)

    def test_residual_must_match_input_shape(self):
        x = T(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError, match=r"residual shape \(2, 3, 1\)"):
            F.batchnorm(x, T(np.ones(3)), T(np.zeros(3)), np.zeros(3),
                        np.zeros(3), training=True, residual=T(np.zeros((2, 3, 1))))

    def test_running_stats_converge_to_batch_stats(self):
        rng = np.random.default_rng(2)
        x = T(rng.normal(loc=1.0, scale=2.0, size=(16, 3, 200)))
        gamma, beta = T(np.ones(3)), T(np.zeros(3))
        rm, rv = np.zeros(3), np.zeros(3)
        for _ in range(200):
            F.batchnorm(x, gamma, beta, rm, rv, training=True, momentum=0.1)
        assert np.allclose(rm, x.data.mean(axis=(0, 2)), atol=1e-6)
        assert np.allclose(rv, x.data.var(axis=(0, 2)), atol=1e-6)


class TestStructural:
    def test_concat_and_slice_roundtrip(self):
        a, b = T(np.arange(6.0).reshape(2, 3)), T(np.arange(4.0).reshape(2, 2))
        cat = F.concat([a, b], axis=1)
        assert cat.shape == (2, 5)
        assert np.array_equal(cat[:, 3:].data, b.data)

    def test_transpose_reshape(self):
        x = T(np.arange(24.0).reshape(2, 3, 4))
        y = x.transpose(0, 2, 1).reshape(2, 12)
        assert y.shape == (2, 12)
        assert y.data[0, 0] == 0.0 and y.data[0, 1] == 4.0

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError, match="inner dims"):
            T(np.zeros((2, 3))) @ T(np.zeros((4, 2)))
