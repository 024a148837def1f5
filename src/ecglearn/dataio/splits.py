"""Split protocols: fixed fold conventions and stratified k-fold assignment."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import SplitError
from ..seeding import substream
from .manifest import DatasetManifest

__all__ = ["SplitPlan", "ptbxl_split", "split_indices", "stratified_kfold"]


@dataclass(frozen=True)
class SplitPlan:
    """Fold ids per split, by default 1-8 train, 9 val, 10 test; overlapping
    or empty fold sets are refused, so a config's split is checked on read."""

    train_folds: frozenset[int] = frozenset(range(1, 9))
    val_folds: frozenset[int] = frozenset({9})
    test_folds: frozenset[int] = frozenset({10})

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, frozenset(getattr(self, f.name)))
        groups = [self.train_folds, self.val_folds, self.test_folds]
        if len(self.all_folds()) != sum(len(g) for g in groups):
            raise SplitError("train/val/test folds must be disjoint")
        if not all(groups):
            raise SplitError("every split needs at least one fold")

    def all_folds(self) -> frozenset[int]:
        return self.train_folds | self.val_folds | self.test_folds


def ptbxl_split(manifest: DatasetManifest) -> SplitPlan:
    """The default SplitPlan, once every record's fold id is in 1..10."""
    folds = set(int(f) for f in manifest.folds())
    if not folds:
        raise SplitError("manifest has no records")
    bad = folds - set(range(1, 11))
    if bad:
        raise SplitError(f"fold ids outside 1..10: {sorted(bad)}")
    return SplitPlan()


def split_indices(manifest: DatasetManifest, plan: SplitPlan) -> dict[str, list[int]]:
    """Row indices per split; every record must land in exactly one split,
    and every split must select at least one record."""
    folds = manifest.folds()
    unassigned = set(int(f) for f in folds) - set(plan.all_folds())
    if unassigned:
        raise SplitError(f"records carry folds not covered by the plan: "
                         f"{sorted(unassigned)}")
    out = {"train": [], "val": [], "test": []}
    split_of = {f: split for split in out for f in getattr(plan, f"{split}_folds")}
    for i, f in enumerate(folds):
        out[split_of[int(f)]].append(i)
    for split, idx in out.items():
        if not idx:
            folds = sorted(getattr(plan, f"{split}_folds"))
            raise SplitError(f"split {split!r} (folds {folds}) selects no records")
    return out


def stratified_kfold(label_matrix: np.ndarray, k: int = 10, seed: int = 0,
                     class_names: tuple[str, ...] | None = None) -> np.ndarray:
    """Assign fold ids 1..k so every class is represented in every fold.

    Greedy iterative stratification: classes are processed rarest first, and
    each record goes to the fold with the fewest examples of that class
    (ties broken by smallest fold total, then by seeded randomness). For
    disjoint single-label data this yields per-class fold counts that differ
    by at most one. Requires >= k positives per class.
    """
    if k < 1:
        raise SplitError(f"stratified k-fold needs k >= 1 folds, got {k}")
    labels = np.asarray(label_matrix)
    n, n_classes = labels.shape
    counts = labels.sum(axis=0)
    for c in range(n_classes):
        if counts[c] < k:
            name = class_names[c] if class_names else f"class {c}"
            raise SplitError(
                f"{name} has only {int(counts[c])} positive examples; "
                f"stratified {k}-fold needs at least {k}")

    rng = substream(seed, "stratified_kfold")
    assignment = np.zeros(n, dtype=np.int64)  # 0 = unassigned
    per_class = np.zeros((k, n_classes), dtype=np.int64)
    totals = np.zeros(k, dtype=np.int64)

    def assign(idx: int, fold: int):
        assignment[idx] = fold + 1
        per_class[fold] += labels[idx]
        totals[fold] += 1

    order = np.argsort(counts, kind="stable")  # rarest class first
    for c in order:
        members = [i for i in np.flatnonzero(labels[:, c]) if assignment[i] == 0]
        members = [members[j] for j in rng.permutation(len(members))]
        for idx in members:
            jitter = rng.random(k)
            fold = min(range(k), key=lambda f: (per_class[f, c], totals[f], jitter[f]))
            assign(idx, fold)
    # records with no active labels balance fold totals
    for idx in np.flatnonzero(assignment == 0):
        jitter = rng.random(k)
        fold = min(range(k), key=lambda f: (totals[f], jitter[f]))
        assign(idx, fold)

    for c in range(n_classes):
        fold_counts = np.array([
            labels[assignment == f + 1, c].sum() for f in range(k)])
        if fold_counts.min() < 1:
            name = class_names[c] if class_names else f"class {c}"
            raise SplitError(
                f"could not place {name} in every fold (label overlap is too "
                "adversarial); counts per fold: " + str(fold_counts.tolist()))
    return assignment
