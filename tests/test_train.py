"""Training loop: overfit harness, early stopping, determinism, divergence."""

import numpy as np
import pytest

from ecglearn.dataio import BatchLoader, TaskKind, generate_synthetic_dataset
from ecglearn.errors import NonFiniteLogitsError, TrainingDivergedError
from ecglearn.learn import OptimizerConfig, evaluate, focal_loss, train_model
from ecglearn.models import ModelSpec, build
from ecglearn.tensor import Tensor


def small_dataset(seed=21, n_per_class=16):
    return generate_synthetic_dataset(2, n_per_class, TaskKind.MULTICLASS,
                                      seed=seed, length=600, n_folds=4)


def loaders(manifest, records, seed=0, batch=16, l=128):
    train = BatchLoader(records, manifest.task, batch_size=batch, segment_len=l,
                        seed=seed, training=True)
    train_eval = BatchLoader(records, manifest.task, batch_size=batch,
                             segment_len=l, seed=seed, training=False)
    return train, train_eval


class TestOverfitHarness:
    def test_small_resnet_reaches_high_train_accuracy(self):
        manifest, records = small_dataset()
        train, train_eval = loaders(manifest, records)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 8}),
                      seed=1)
        cfg = OptimizerConfig(lr=1e-3, batch_size=16, epochs=60, patience=60)
        result = train_model(model, train, train_eval, focal_loss, cfg)
        accs = [row["val_accuracy"] for row in result.history]
        assert max(accs) >= 0.95, f"best train accuracy {max(accs)}"

    def test_best_state_restored(self):
        manifest, records = small_dataset()
        train, train_eval = loaders(manifest, records)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=2)
        cfg = OptimizerConfig(lr=1e-3, batch_size=16, epochs=8, patience=8)
        result = train_model(model, train, train_eval, focal_loss, cfg)
        report = evaluate(model, train_eval)
        best = max(row["val_f1"] for row in result.history)
        assert report.f1 == pytest.approx(best, abs=1e-9)


class TestEarlyStopping:
    def test_frozen_val_f1_stops_after_patience(self):
        # lr too small to change float32 weights: val F1 is frozen, so the
        # first epoch is the only improvement and patience=5 stops at epoch 6
        manifest, records = small_dataset(n_per_class=8)
        train, train_eval = loaders(manifest, records, batch=8)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=3)
        cfg = OptimizerConfig(lr=1e-30, batch_size=8, epochs=20, patience=5)
        result = train_model(model, train, train_eval, focal_loss, cfg)
        assert result.stopped_early
        assert len(result.history) == 6
        assert result.best_epoch == 1


class TestDeterminism:
    def run_once(self):
        manifest, records = small_dataset(n_per_class=8)
        train, train_eval = loaders(manifest, records, seed=9, batch=8)
        model = build(ModelSpec("CRNN_GRU", manifest.task,
                                {"base_width": 4, "hidden_size": 8,
                                 "num_layers": 1}), seed=4)
        cfg = OptimizerConfig(lr=5e-4, batch_size=8, epochs=3, patience=10)
        result = train_model(model, train, train_eval, focal_loss, cfg)
        return result.history, model.state_dict()

    def test_same_seed_bitwise_identical(self):
        hist_a, state_a = self.run_once()
        hist_b, state_b = self.run_once()
        assert hist_a == hist_b
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name


class TestDivergenceAbort:
    def test_nan_loss_reports_coordinates(self):
        manifest, records = small_dataset(n_per_class=8)
        train, train_eval = loaders(manifest, records, batch=8)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=5)

        def poisoned_loss(logits, targets):
            return logits.sum() * float("nan")

        cfg = OptimizerConfig(lr=1e-3, batch_size=8, epochs=2, patience=5)
        with pytest.raises(TrainingDivergedError) as err:
            train_model(model, train, train_eval, poisoned_loss, cfg)
        assert err.value.epoch == 1 and err.value.batch == 0


def nan_in_eval_mode(model):
    """Make every eval-mode forward return NaN logits; training is untouched."""
    forward = model.forward

    def poisoned(x):
        out = forward(x)
        if not model.training:
            out.data[...] = np.nan
        return out

    model.forward = poisoned


class TestNonFiniteLogits:
    def test_evaluate_names_the_batch(self):
        manifest, records = small_dataset(n_per_class=8)
        _, train_eval = loaders(manifest, records, batch=8)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=5)
        model.train_mode()          # populate batchnorm running stats
        for xb, _ in train_eval.batches():
            model.forward(Tensor(xb))
        nan_in_eval_mode(model)
        with pytest.raises(NonFiniteLogitsError, match="evaluation batch 0$") as err:
            evaluate(model, train_eval)
        assert err.value.epoch is None and err.value.batch == 0

    def test_train_reports_validation_divergence(self):
        manifest, records = small_dataset(n_per_class=8)
        train, train_eval = loaders(manifest, records, batch=8)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=5)
        nan_in_eval_mode(model)
        cfg = OptimizerConfig(lr=1e-3, batch_size=8, epochs=2, patience=5)
        with pytest.raises(TrainingDivergedError,
                           match="evaluation batch 0 after epoch 1$") as err:
            train_model(model, train, train_eval, focal_loss, cfg)
        assert err.value.epoch == 1 and err.value.batch == 0


class TestSizeOneLoss:
    def run_once(self, loss_fn):
        manifest, records = small_dataset(n_per_class=8)
        train, train_eval = loaders(manifest, records, seed=2, batch=8)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=7)
        cfg = OptimizerConfig(lr=1e-3, batch_size=8, epochs=1, patience=5)
        return train_model(model, train, train_eval, loss_fn, cfg).history

    def test_shape_one_loss_trains_like_scalar(self):
        # backward() takes a (1,) loss, so the loop's loss read must too
        shaped = self.run_once(lambda z, y: focal_loss(z, y).reshape(1))
        assert shaped == self.run_once(focal_loss)


class TestEvaluate:
    def test_two_sweeps_identical(self):
        manifest, records = small_dataset(n_per_class=8)
        _, train_eval = loaders(manifest, records, batch=8)
        model = build(ModelSpec("ResNet18_1D", manifest.task, {"base_width": 4}),
                      seed=6)
        # populate batchnorm running stats before eval
        model.train_mode()
        for xb, _ in train_eval.batches():
            model.forward(Tensor(xb))
        a = evaluate(model, train_eval)
        b = evaluate(model, train_eval)
        assert a.to_dict() == b.to_dict()
