"""Training and evaluation loops.

The loop is epoch-based with early stopping on validation F1: training stops
after ``patience`` consecutive epochs without improvement, and the parameters
from the best-validation-F1 epoch are restored into the model. Given seeded
loaders and a seeded model, two runs are bit-identical (history and final
parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..dataio.batches import BatchLoader
from ..dataio.labels import TaskKind
from ..errors import NonFiniteLogitsError, TrainingDivergedError
from ..models.architectures import Model
from ..tensor import Tensor, functional as F, no_grad
from .metrics import METRIC_NAMES, MetricsReport, compute_metrics
from .optim import Adam, OptimizerConfig

__all__ = ["TrainResult", "train_model", "evaluate", "history_row_names"]

LossFn = Callable[[Tensor, np.ndarray], Tensor]


def history_row_names() -> list[str]:
    return ["epoch", "train_loss"] + [f"val_{m}" for m in METRIC_NAMES]


@dataclass
class TrainResult:
    model: Model
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_f1: float = float("-inf")
    stopped_early: bool = False


def _scores_from_logits(logits: np.ndarray, kind: TaskKind) -> np.ndarray:
    z = Tensor(logits.astype(np.float64))
    if kind is TaskKind.MULTICLASS:
        return F.softmax(z, axis=1).data
    return z.sigmoid().data


def evaluate(model: Model, loader: BatchLoader,
             threshold: float = 0.5) -> MetricsReport:
    """Eval-mode sweep over a loader; returns the macro metric suite.

    A batch whose logits hold NaN or Inf raises ``NonFiniteLogitsError``.
    """
    model.eval_mode()
    chunks, targets = [], []
    with no_grad():
        for bi, (xb, yb) in enumerate(loader.batches()):
            logits = model.forward(xb).data.copy()
            bad = logits[~np.isfinite(logits)]
            if bad.size:
                raise NonFiniteLogitsError(None, bi, float(bad[0]))
            chunks.append(logits)
            targets.append(yb)
    logits = np.concatenate(chunks, axis=0)
    y = np.concatenate(targets, axis=0).astype(np.int8)
    scores = _scores_from_logits(logits, loader.task.kind)
    return compute_metrics(scores, y, loader.task.kind, threshold=threshold,
                           class_names=loader.task.classes)


def _step(model: Model, loss_fn: LossFn, opt: Adam, xb: np.ndarray,
          yb: np.ndarray, epoch: int, bi: int) -> float:
    """One optimizer step; returns the batch loss.

    The step's graph dies with this call's locals, so the next forward and
    the epoch-end evaluation never run beside it.
    """
    logits = model.forward(xb)
    loss = loss_fn(logits, yb)
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDivergedError(epoch, bi, value)
    model.zero_grad()
    loss.backward()
    opt.step()
    return value


def train_model(model: Model, train_loader: BatchLoader,
                val_loader: BatchLoader, loss_fn: LossFn,
                cfg: OptimizerConfig,
                log: Callable[[str], None] | None = None) -> TrainResult:
    """Optimize the model's trainable parameters; keep the best-val-F1 state."""
    opt = Adam(model.trainable_parameters(), lr=cfg.lr, betas=cfg.betas,
               eps=cfg.eps, weight_decay=cfg.weight_decay)
    result = TrainResult(model=model)
    best_state: dict | None = None
    wait = 0

    for epoch in range(1, cfg.epochs + 1):
        model.train_mode()
        losses = []
        for bi, (xb, yb) in enumerate(train_loader.batches(epoch)):
            losses.append(_step(model, loss_fn, opt, xb, yb, epoch, bi))

        try:
            report = evaluate(model, val_loader)
        except NonFiniteLogitsError as e:
            raise NonFiniteLogitsError(epoch, e.batch, e.value) from None
        row = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        for m in METRIC_NAMES:
            row[f"val_{m}"] = getattr(report, m)
        result.history.append(row)
        if log:
            log(f"epoch {epoch:3d}  loss {row['train_loss']:.4f}  "
                f"val_f1 {report.f1:.4f}")

        if report.f1 > result.best_val_f1:
            result.best_val_f1 = report.f1
            result.best_epoch = epoch
            best_state = model.state_dict()
            wait = 0
        else:
            wait += 1
            if wait >= cfg.patience:
                result.stopped_early = True
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    return result
