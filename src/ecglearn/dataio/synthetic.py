"""Synthetic 12-lead datasets for desk-scale verification.

Every record is a pseudo-ECG: a periodic spike train around 1.2 Hz (QRS-like
gaussian bumps plus a smaller T-wave bump) scaled by a fixed per-lead profile,
plus white noise. Class membership adds a sinusoidal signature at a
class-specific frequency, so labels are correct by construction and
recoverable by projecting onto the signature frequency (a matched filter) -
which also makes the classification task learnable by construction.

Generation is fully determined by the seed: each record draws from its own
substream, so datasets are bit-identical across runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..seeding import substream
from ..signal import N_LEADS, EcgRecord
from .labels import TaskKind, TaskSpec
from .manifest import DatasetManifest, ManifestRow
from .labels import LabelVector
from .splits import stratified_kfold

__all__ = ["class_frequency", "signature_amplitude_estimate",
           "generate_synthetic_dataset", "generate_imbalanced_binary"]

_LEAD_PROFILE = 0.5 + 0.5 * np.abs(np.sin(np.pi * (np.arange(N_LEADS) + 1) / 13.0))


def class_frequency(class_index: int) -> float:
    """Signature frequency (Hz) injected for a given class index."""
    return 4.0 + 3.0 * class_index


def _base_ecg(rng: np.random.Generator, n: int, fs: float) -> np.ndarray:
    t = np.arange(n) / fs
    rate = rng.uniform(1.05, 1.35)
    start = rng.uniform(0.0, 1.0 / rate)
    beat_times = np.arange(start, t[-1] + 1.0 / fs, 1.0 / rate)
    wave = np.zeros(n)
    for tb in beat_times:
        wave += np.exp(-0.5 * ((t - tb) / 0.012) ** 2)            # QRS-like
        wave += 0.25 * np.exp(-0.5 * ((t - tb - 0.18) / 0.05) ** 2)  # T-wave-ish
    return _LEAD_PROFILE[:, None] * wave[None, :]


def _make_record(index: int, row: ManifestRow, seed: int, fs: float, n: int,
                 noise: float, signature_amp: float) -> EcgRecord:
    rng = substream(seed, "synthetic", index)
    sig = _base_ecg(rng, n, fs)
    t = np.arange(n) / fs
    for j in np.flatnonzero(row.labels.values):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig = sig + signature_amp * np.sin(
            2.0 * np.pi * class_frequency(int(j)) * t + phase)[None, :]
    sig = sig + rng.normal(0.0, noise, size=(N_LEADS, n))
    return EcgRecord(signal=sig, fs=fs, id=row.id, labels=row.labels)


def signature_amplitude_estimate(record: EcgRecord, class_index: int) -> float:
    """Matched-filter estimate of the signature amplitude at a class frequency."""
    n = record.n_samples
    t = np.arange(n) / record.fs
    probe = np.exp(-2j * np.pi * class_frequency(class_index) * t)
    z = record.signal @ probe
    return float(np.mean(2.0 * np.abs(z) / n))


def _label_rows(class_of_record: np.ndarray, task: TaskSpec, seed: int,
                extra_label_p: float) -> np.ndarray:
    n = len(class_of_record)
    labels = np.zeros((n, task.k), dtype=np.int8)
    if task.kind is TaskKind.BINARY:
        labels[:, 0] = (class_of_record == 1).astype(np.int8)
        return labels
    labels[np.arange(n), class_of_record] = 1
    if task.kind is TaskKind.MULTILABEL and extra_label_p > 0:
        rng = substream(seed, "extra_labels")
        extras = rng.random((n, task.k)) < extra_label_p
        labels = np.maximum(labels, extras.astype(np.int8))
    return labels


def _assemble(name: str, task: TaskSpec, labels: np.ndarray, folds: np.ndarray,
              seed: int, fs: float, length: int, noise: float,
              signature_amp: float, id_prefix: str,
              ) -> tuple[DatasetManifest, list[EcgRecord]]:
    """One manifest row per label row, and per row a record from its own
    substream that carries the row's LabelVector."""
    rows = [ManifestRow(id=f"{id_prefix}{i:05d}", labels=LabelVector(task, labels[i]),
                        fold=int(folds[i]))
            for i in range(len(labels))]
    records = [_make_record(i, row, seed, fs, length, noise, signature_amp)
               for i, row in enumerate(rows)]
    manifest = DatasetManifest(name=name, fs=fs, task=task, rows=rows)
    return manifest, records


def generate_synthetic_dataset(
    n_classes: int, n_per_class, task_kind: TaskKind, seed: int, *,
    fs: float = 500.0, length: int = 2500, noise: float = 0.05,
    signature_amp: float = 0.35, extra_label_p: float = 0.0,
    n_folds: int = 10, name: str | None = None, id_prefix: str = "syn",
) -> tuple[DatasetManifest, list[EcgRecord]]:
    """Build an in-memory labeled dataset with stratified fold assignment.

    ``n_per_class`` is an int or a per-class sequence. Binary tasks must use
    n_classes=2 (class 0 negative, class 1 positive); only positives carry a
    signature.
    """
    task_kind = TaskKind(task_kind)
    counts = ([int(n_per_class)] * n_classes
              if np.isscalar(n_per_class) else [int(c) for c in n_per_class])
    if len(counts) != n_classes:
        raise DataError(f"n_per_class has {len(counts)} entries for "
                        f"{n_classes} classes")
    if min(counts, default=0) < 0:
        raise DataError(f"n_per_class must be >= 0, got {counts}")
    if task_kind is TaskKind.BINARY:
        if n_classes != 2:
            raise DataError("binary generation uses 2 classes (negative, positive)")
        task = TaskSpec(kind=task_kind, classes=("positive",))
    else:
        task = TaskSpec(kind=task_kind,
                        classes=tuple(f"c{j}" for j in range(n_classes)))

    class_of_record = np.repeat(np.arange(n_classes), counts)
    labels = _label_rows(class_of_record, task, seed, extra_label_p)
    folds = stratified_kfold(labels, k=n_folds, seed=seed,
                             class_names=task.classes)
    name = name or f"synthetic:{n_classes}x{'-'.join(map(str, counts))}"
    return _assemble(name, task, labels, folds, seed, fs, length, noise,
                     signature_amp, id_prefix)


def generate_imbalanced_binary(
    train_pos: int, train_neg: int, test_pos: int, test_neg: int, seed: int, *,
    fs: float = 500.0, length: int = 2500, noise: float = 0.05,
    signature_amp: float = 0.35, name: str = "synthetic:pe-shaped",
) -> tuple[DatasetManifest, list[EcgRecord]]:
    """Binary dataset with a fixed held-out test partition.

    Training records are stratified over folds 1..9 (so fold 9 can serve as
    validation); all test records carry fold 10.
    """
    for arg, count in (("train_pos", train_pos), ("train_neg", train_neg),
                       ("test_pos", test_pos), ("test_neg", test_neg)):
        if count < 0:
            raise DataError(f"{arg} must be >= 0, got {count}")
    task = TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
    all_classes = np.repeat([0, 1, 0, 1], [train_neg, train_pos, test_neg, test_pos])
    labels = _label_rows(all_classes, task, seed, 0.0)
    n_train = train_neg + train_pos
    train_folds = stratified_kfold(labels[:n_train], k=9, seed=seed,
                                   class_names=task.classes)
    folds = np.concatenate([train_folds,
                            np.full(test_neg + test_pos, 10, dtype=np.int64)])
    return _assemble(name, task, labels, folds, seed, fs, length, noise,
                     signature_amp, "pe")
