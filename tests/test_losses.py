"""Losses and optimizer against hand-computed values and identities."""

import math

import numpy as np
import pytest

from ecglearn.config import LossConfig, config_from_dict
from ecglearn.errors import ConfigError, DataError, OptimizerError
from ecglearn.learn import (Adam, OptimizerConfig, class_weights_from_counts,
                            focal_loss, weighted_bce)
from ecglearn.tensor import Parameter, Tensor, gradcheck


def T64(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


def bce_reference(logits, targets):
    """Independent numpy BCE (log-sum-exp form)."""
    z, t = np.asarray(logits, dtype=np.float64), np.asarray(targets, np.float64)
    return float(np.mean(np.logaddexp(0.0, z) - t * z))


class TestFocalLoss:
    def test_gamma0_alpha_half_is_half_bce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(16, 5)) * 3
        targets = (rng.random((16, 5)) < 0.4).astype(np.float64)
        focal = focal_loss(T64(logits), targets, gamma=0.0, alpha=0.5)
        assert abs(float(focal.data) - 0.5 * bce_reference(logits, targets)) < 1e-9

    def test_worked_value(self):
        # target 1 at p = 0.5 (logit 0), gamma=2, alpha=0.7:
        # 0.7 * 0.25 * ln 2 = 0.121301...
        loss = focal_loss(T64([[0.0]]), np.array([[1.0]]), gamma=2.0, alpha=0.7)
        expected = 0.7 * 0.25 * math.log(2.0)
        assert abs(float(loss.data) - expected) < 1e-6
        assert abs(expected - 0.121301) < 1e-6

    def test_monotone_decreasing_in_pt(self):
        # for target 1, increasing logits increase p_t; loss must fall strictly
        logits = np.linspace(-6, 6, 49)[:, None]
        targets = np.ones((49, 1))
        per_point = [float(focal_loss(T64([[z]]), np.array([[1.0]])).data)
                     for z in logits[:, 0]]
        assert all(a > b for a, b in zip(per_point, per_point[1:]))
        assert per_point[-1] < 1e-2  # p_t -> 1 drives the loss toward 0

    def test_saturated_logits_finite(self):
        loss = focal_loss(T64([[500.0, -500.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(float(loss.data))

    def test_nonbinary_targets_rejected(self):
        with pytest.raises(DataError, match="binary"):
            focal_loss(T64([[0.0]]), np.array([[0.5]]))

    @pytest.mark.parametrize("gamma, alpha, message", [
        (-1.0, 0.7, "gamma must be >= 0"), (math.nan, 0.7, "gamma must be >= 0"),
        (2.0, 0.0, "alpha must be in"), (2.0, 1.5, "alpha must be in"),
        (2.0, math.nan, "alpha must be in"),
    ])
    def test_bad_parameters_refused_by_loss_and_config(self, gamma, alpha, message):
        with pytest.raises(DataError, match=message):
            focal_loss(T64([[0.0]]), np.array([[1.0]]), gamma=gamma, alpha=alpha)
        with pytest.raises(DataError, match=message):
            LossConfig(gamma=gamma, alpha=alpha)
        with pytest.raises(ConfigError, match="loss: " + message):
            config_from_dict(LossConfig, {"gamma": gamma, "alpha": alpha}, "loss")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        targets = (rng.random((4, 3)) < 0.5).astype(np.float64)
        report = gradcheck(lambda z: focal_loss(z, targets, gamma=2.0, alpha=0.7),
                           T64(rng.normal(size=(4, 3))), tol=1e-6)
        assert report.passed, f"rel err {report.max_rel_err}"


class TestWeightedBce:
    def test_unit_weights_are_plain_bce(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(8, 4))
        targets = (rng.random((8, 4)) < 0.5).astype(np.float64)
        loss = weighted_bce(T64(logits), targets, np.ones(4))
        assert abs(float(loss.data) - bce_reference(logits, targets)) < 1e-12

    def test_logit_zero_target_one_is_ln2(self):
        loss = weighted_bce(T64([[0.0]]), np.array([[1.0]]), np.ones(1))
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_doubling_one_weight_doubles_its_positive_term(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 2))
        targets = np.zeros((6, 2))
        targets[:3, 0] = 1.0  # positives only in class 0
        base = float(weighted_bce(T64(logits), targets, np.array([1.0, 1.0])).data)
        boosted = float(weighted_bce(T64(logits), targets, np.array([2.0, 1.0])).data)
        # the increase equals exactly one extra copy of class 0's positive term
        pos_term = np.mean(
            np.where(targets == 1, np.logaddexp(0.0, -logits), 0.0)
            * np.array([1.0, 0.0]))
        assert abs((boosted - base) - pos_term) < 1e-12

    def test_auto_weights(self):
        labels = np.zeros((10, 2), dtype=np.int8)
        labels[:2, 0] = 1
        labels[:8, 1] = 1
        w = class_weights_from_counts(labels)
        assert abs(w.mean() - 1.0) < 1e-12
        assert w[0] > w[1]

    def test_auto_weights_zero_positive_class(self):
        labels = np.zeros((10, 2), dtype=np.int8)
        labels[:, 1] = 1
        with pytest.raises(DataError, match="classes \\[0\\]"):
            class_weights_from_counts(labels)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Parameter(np.array([1.0, -2.0], dtype=np.float32), name="w")
        opt = Adam({"w": p}, lr=0.1)
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))

    def test_first_step_is_bias_corrected_unit_direction(self):
        p = Parameter(np.array([0.0]), name="w")
        opt = Adam({"w": p}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # mhat = 1, vhat = 1 after bias correction: update = -lr/(1 + eps)
        assert abs(float(p.data[0]) + 0.1) < 1e-8

    def test_quadratic_bowl_convergence(self):
        p = Parameter(np.array([1.0]), name="w")
        opt = Adam({"w": p}, lr=0.05)
        for _ in range(200):
            p.grad = 2.0 * p.data  # d(w^2)/dw
            opt.step()
        assert abs(float(p.data[0])) < 1e-3

    def test_nan_gradient_names_parameter(self):
        p = Parameter(np.array([0.0]), name="w")
        opt = Adam({"layer.weight": p}, lr=0.1)
        p.grad = np.array([np.nan])
        with pytest.raises(OptimizerError, match="layer.weight"):
            opt.step()

    def test_deterministic_sequence(self):
        def run():
            p = Parameter(np.array([1.0, 2.0], dtype=np.float32), name="w")
            opt = Adam({"w": p}, lr=0.01)
            rng = np.random.default_rng(0)
            for _ in range(50):
                p.grad = rng.normal(size=2).astype(np.float32)
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_config_validation(self):
        with pytest.raises(OptimizerError, match="learning rate"):
            OptimizerConfig(lr=0.0)

    @pytest.mark.parametrize("field", ["lr", "eps", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(OptimizerError, match=f"{field} must be finite"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("betas", [(0.9,), (0.9, 0.99, 0.999), 0.9, ()])
    def test_betas_must_be_a_pair(self, betas):
        with pytest.raises(OptimizerError, match="betas must be a pair"):
            OptimizerConfig(betas=betas)

    @pytest.mark.parametrize("field, value, message", [
        ("eps", 0.0, "eps must be positive"), ("eps", -1e-8, "eps must be positive"),
        ("weight_decay", -1.0, "weight_decay must be >= 0")])
    def test_eps_and_weight_decay_ranges(self, field, value, message):
        with pytest.raises(OptimizerError, match=message):
            OptimizerConfig(**{field: value})
        p = Parameter(np.ones(3, dtype=np.float32), name="w")
        with pytest.raises(OptimizerError, match=message):
            Adam({"w": p}, lr=2e-4, **{field: value})

    def test_zero_gradient_entries_stay_finite(self):
        # with eps = 0 this step left [nan, 0.9998, nan]: 0/0 where g == 0
        cfg = OptimizerConfig()
        p = Parameter(np.ones(3, dtype=np.float32), name="w")
        opt = Adam({"w": p}, lr=cfg.lr, betas=cfg.betas, eps=cfg.eps,
                   weight_decay=cfg.weight_decay)
        p.grad = np.array([0.0, 1.0, 0.0], dtype=np.float32)
        opt.step()
        assert np.isfinite(p.data).all()
        assert p.data[0] == p.data[2] == 1.0
        assert abs(float(p.data[1]) - 0.9998) < 1e-6
