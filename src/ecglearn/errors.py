"""Exception hierarchy shared across the package."""


class EcglearnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EcglearnError):
    """Tensor/array shapes do not conform to an operation's shape algebra."""


class AutodiffError(EcglearnError):
    """Misuse of the autodiff graph (non-scalar backward, stochastic gradcheck, ...)."""


class SignalError(EcglearnError):
    """Invalid signal, filter specification, or segmentation request."""


class AugmentError(EcglearnError):
    """Invalid augmentation configuration or parameters."""


class DataError(EcglearnError):
    """Dataset files, manifests, or label vectors are malformed."""


class SplitError(EcglearnError):
    """A split protocol cannot be satisfied by the given manifest."""


class ModelError(EcglearnError):
    """Unknown architecture, invalid hyperparameters, or bad model input."""


class OptimizerError(EcglearnError):
    """Optimizer state mismatch or non-finite gradients."""


class TrainingDivergedError(EcglearnError):
    """Training went non-finite; carries the epoch/batch where it happened.

    Raised as is for a training loss, and as ``NonFiniteLogitsError`` for a
    validation logit."""

    def __init__(self, epoch: int, batch: int, value: float):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, batch {batch}")


class NonFiniteLogitsError(TrainingDivergedError):
    """An evaluation batch gave a NaN or Inf logit. ``epoch`` is the training
    epoch whose validation it was, or None outside training."""

    def __init__(self, epoch: int | None, batch: int, value: float):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        after = "" if epoch is None else f" after epoch {epoch}"
        EcglearnError.__init__(
            self, f"non-finite logit {value!r} in evaluation batch {batch}{after}")


class CheckpointError(EcglearnError):
    """Checkpoint file is unreadable, truncated, or inconsistent."""


class ConfigError(EcglearnError):
    """Run configuration is invalid or contains unknown keys."""
