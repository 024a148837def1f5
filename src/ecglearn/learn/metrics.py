"""Multi-label / multi-class / binary metric suite.

Every metric is computed per class and macro-averaged (unweighted mean over
classes), matching imbalance-aware reporting. Conventions, which the
brute-force test oracles share:

- binarized metrics (accuracy, F1, sensitivity, specificity, PPV, G-mean) use
  the 0-convention for empty denominators (0/0 -> 0);
- average precision uses the precision-at-each-positive formulation over the
  stable descending score order (ties keep input order), and is undefined for
  classes with no positive example;
- AUC is the Mann-Whitney statistic (ties count 1/2), undefined when either
  class is absent;
- undefined AP/AUC values are excluded from their macro mean, with a warning
  recorded in the report.

Multi-label predictions binarize each score at the threshold; multi-class
predictions one-hot the argmax; binary is the k=1 special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from ..dataio.labels import TaskKind

__all__ = ["MetricsReport", "compute_metrics", "average_precision", "auc_score"]

METRIC_NAMES = ("accuracy", "f1", "map", "gmean", "auc",
                "sensitivity", "specificity", "ppv")


@dataclass
class MetricsReport:
    accuracy: float
    f1: float
    map: float
    gmean: float
    auc: float
    sensitivity: float
    specificity: float
    ppv: float
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    n_samples: int = 0

    def to_dict(self) -> dict:
        return {
            **{m: getattr(self, m) for m in METRIC_NAMES},
            "per_class": self.per_class,
            "warnings": list(self.warnings),
            "n_samples": self.n_samples,
        }

    @staticmethod
    def from_dict(d: dict) -> "MetricsReport":
        return MetricsReport(
            **{m: d[m] for m in METRIC_NAMES},
            per_class=d.get("per_class", {}),
            warnings=list(d.get("warnings", [])),
            n_samples=d.get("n_samples", 0))


def average_precision(scores: np.ndarray, targets: np.ndarray) -> float | None:
    """AP over a single class; None when the class has no positives."""
    targets = np.asarray(targets)
    n_pos = int(targets.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    ranked = targets[order]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    mask = ranked == 1
    return float(np.sum(hits[mask] / ranks[mask]) / n_pos)


def auc_score(scores: np.ndarray, targets: np.ndarray) -> float | None:
    """Mann-Whitney AUC with average ranks; None when a class is absent."""
    targets = np.asarray(targets)
    n = len(targets)
    n_pos = int(targets.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    svals = scores[order]
    ranks = np.empty(n, dtype=np.float64)
    # tie groups [i, j) end where the sorted value changes; NaN differs from
    # everything, itself included, so each NaN is a group of its own
    edges = [0, *(np.flatnonzero(svals[1:] != svals[:-1]) + 1).tolist(), n]
    for i, j in zip(edges[:-1], edges[1:]):
        ranks[order[i:j]] = (i + 1 + j) / 2.0  # mean of 1-based ranks i+1..j
    rank_sum = float(ranks[targets == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _binary_class_metrics(pred: np.ndarray, target: np.ndarray) -> dict[str, float]:
    tp = int(np.sum((pred == 1) & (target == 1)))
    fp = int(np.sum((pred == 1) & (target == 0)))
    tn = int(np.sum((pred == 0) & (target == 0)))
    fn = int(np.sum((pred == 0) & (target == 1)))
    sens = tp / (tp + fn) if tp + fn else 0.0
    spec = tn / (tn + fp) if tn + fp else 0.0
    ppv = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return {
        "accuracy": (tp + tn) / len(pred),
        "f1": f1,
        "sensitivity": sens,
        "specificity": spec,
        "ppv": ppv,
        "gmean": math.sqrt(sens * spec),
    }


def _predictions(scores: np.ndarray, kind: TaskKind, threshold: float) -> np.ndarray:
    if kind is TaskKind.MULTICLASS:
        pred = np.zeros_like(scores, dtype=np.int8)
        pred[np.arange(scores.shape[0]), scores.argmax(axis=1)] = 1
        return pred
    return (scores >= threshold).astype(np.int8)


def compute_metrics(scores: np.ndarray, targets: np.ndarray,
                    kind: TaskKind, threshold: float = 0.5,
                    class_names: tuple[str, ...] | None = None) -> MetricsReport:
    """Macro-averaged metric suite from a score matrix and binary targets."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.ndim != 2 or scores.shape != targets.shape:
        raise DataError(
            f"scores {scores.shape} and targets {targets.shape} must be "
            "matching 2-d arrays")
    if not np.all((targets == 0) | (targets == 1)):
        raise DataError("targets must be binary (0/1)")
    kind = TaskKind(kind)
    n, k = scores.shape
    names = class_names or tuple(f"class{c}" for c in range(k))
    pred = _predictions(scores, kind, threshold)

    per_class: dict[str, dict[str, float]] = {}
    warnings: list[str] = []
    binarized_sums = {m: 0.0 for m in
                      ("accuracy", "f1", "sensitivity", "specificity", "ppv",
                       "gmean")}
    ap_values, auc_values = [], []
    for c in range(k):
        stats = _binary_class_metrics(pred[:, c], targets[:, c])
        ap = average_precision(scores[:, c], targets[:, c])
        auc = auc_score(scores[:, c], targets[:, c])
        if ap is None:
            warnings.append(f"{names[c]}: AP undefined (no positive examples); "
                            "excluded from MAP")
        else:
            ap_values.append(ap)
        if auc is None:
            warnings.append(f"{names[c]}: AUC undefined (single-class ground "
                            "truth); excluded from macro AUC")
        else:
            auc_values.append(auc)
        stats["ap"] = float("nan") if ap is None else ap
        stats["auc"] = float("nan") if auc is None else auc
        per_class[names[c]] = stats
        for m in binarized_sums:
            binarized_sums[m] += stats[m]

    macro = {m: binarized_sums[m] / k for m in binarized_sums}
    return MetricsReport(
        **macro,
        map=float(np.mean(ap_values)) if ap_values else float("nan"),
        auc=float(np.mean(auc_values)) if auc_values else float("nan"),
        per_class=per_class, warnings=warnings, n_samples=n)
