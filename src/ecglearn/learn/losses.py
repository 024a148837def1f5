"""Classification losses over raw logits.

Both losses take multi-hot {0,1} targets and reduce by the mean over all
elements. Probabilities never appear outside log-space: log(sigmoid) is
computed stably in both tails, so saturated logits cannot produce NaNs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..tensor import Tensor
from ..tensor import functional as F

__all__ = ["focal_loss", "weighted_bce", "class_weights_from_counts"]


def _binary_targets(targets, logits: Tensor) -> np.ndarray:
    t = np.asarray(targets, dtype=logits.dtype)
    if t.shape != logits.shape:
        raise DataError(f"targets shape {t.shape} != logits shape {logits.shape}")
    if not np.all((t == 0) | (t == 1)):
        raise DataError("targets must be binary (0/1)")
    return t


def _check_focal_params(gamma: float, alpha: float):
    """gamma >= 0 and alpha in (0, 1); NaN fails both."""
    if not gamma >= 0:
        raise DataError(f"gamma must be >= 0, got {gamma}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


def focal_loss(logits: Tensor, targets, gamma: float = 2.0,
               alpha: float = 0.7) -> Tensor:
    """Mean of -alpha_t * (1 - p_t)^gamma * log(p_t).

    p_t is the predicted probability of the true label (sigmoid per element);
    alpha weights positives, (1 - alpha) negatives. gamma=0, alpha=0.5
    reduces to 0.5 * binary cross-entropy.
    """
    _check_focal_params(gamma, alpha)
    t = _binary_targets(targets, logits)
    log_p1 = F.logsigmoid(logits)        # log p for target 1
    log_p0 = F.logsigmoid(-logits)       # log p for target 0
    p1 = log_p1.exp()
    p0 = log_p0.exp()
    pos = p0.pow(gamma) * log_p1         # (1 - p_t)^gamma log p_t, t=1
    neg = p1.pow(gamma) * log_p0         # same for t=0
    weighted = (alpha * t) * pos + ((1.0 - alpha) * (1.0 - t)) * neg
    return -weighted.mean()


def weighted_bce(logits: Tensor, targets, class_weights) -> Tensor:
    """Binary cross-entropy with positive terms scaled per class."""
    t = _binary_targets(targets, logits)
    w = np.asarray(class_weights, dtype=logits.dtype)
    if w.ndim != 1 or w.shape[0] != logits.shape[-1]:
        raise DataError(
            f"need one positive weight per class ({logits.shape[-1]}), "
            f"got shape {w.shape}")
    if np.any(w <= 0):
        raise DataError("class weights must be positive")
    log_p1 = F.logsigmoid(logits)
    log_p0 = F.logsigmoid(-logits)
    weighted = (w * t) * log_p1 + (1.0 - t) * log_p0
    return -weighted.mean()


def class_weights_from_counts(label_matrix: np.ndarray) -> np.ndarray:
    """(n_total / n_positive) per class, normalized to mean 1."""
    labels = np.asarray(label_matrix)
    n = labels.shape[0]
    pos = labels.sum(axis=0).astype(np.float64)
    if np.any(pos == 0):
        missing = np.flatnonzero(pos == 0).tolist()
        raise DataError(
            f"cannot derive weights: classes {missing} have no positive examples")
    w = n / pos
    return w / w.mean()
