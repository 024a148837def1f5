"""Forward semantics and shape algebra of the tensor primitives."""

import numpy as np
import pytest

from ecglearn.dataio import TaskKind
from ecglearn.errors import ShapeError
from ecglearn.learn.train import _scores_from_logits
from ecglearn.tensor import Tensor, functional as F


def T(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


class TestElementwise:
    def test_relu_definition(self):
        out = F.relu(T([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

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

    def test_logsigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-20, 20, 41)
        out = F.logsigmoid(T(x))
        assert np.allclose(out.data, np.log(1.0 / (1.0 + np.exp(-x))), atol=1e-12)

    def test_add_broadcasting(self):
        out = T(np.ones((2, 3, 4))) + T(np.arange(4.0))
        assert out.shape == (2, 3, 4)
        assert np.allclose(out.data[0, 0], 1.0 + np.arange(4.0))


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
