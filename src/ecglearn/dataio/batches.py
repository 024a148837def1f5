"""Batch iteration: preprocessing pipeline wiring and reproducible order.

Per record the pipeline runs in the fixed order
filter -> length regularization -> segment extraction -> normalization ->
augmentation. Filtering and length capping are record-level and deterministic,
so they are cached once at loader construction. The whole split goes through
one stacked bandpass call, which filters records of equal length in one pass
instead of one record at a time. Training iterations shuffle, draw a fresh
random segment start per record, and augment; validation/test iterations use
start-0 segments and no augmentation, so two passes yield identical tensors.
A record read from a file stays int16 unless it is filtered or its length
changes, and each draw decodes only the segment it cuts.

A draw makes one pass per stage (cut, normalize, each transform that fires)
and is written straight into its row of the batch's float32 array. The row
is then checked for NaN/Inf once, which also catches a float64 value that
overflows float32; the derived records in between are not rescanned.

Every random draw comes from a substream keyed by (seed, purpose, epoch,
record index), which makes the stream independent of iteration scheduling.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..augment import AugmentConfig, apply_augmentations
from ..errors import DataError
from ..seeding import substream
from ..signal import (N_LEADS, EcgRecord, FilterSpec, NormalizationMethod,
                      butterworth_bandpass, extract_segment_at,
                      normalize_array, pad_or_truncate, segment_extract)
from .labels import TaskSpec

__all__ = ["BatchLoader"]


def _check_lengths(segment_len: int, max_len: int | None) -> None:
    """A segment length of at least 1, and a length cap of at least 1 or None."""
    if segment_len < 1:
        raise DataError(f"segment_len must be >= 1, got {segment_len}")
    if max_len is not None and max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")


class BatchLoader:
    """Yields (inputs [B, 12, l] float32, targets [B, k] float32) batches."""

    def __init__(self, records: list[EcgRecord], task: TaskSpec, *,
                 batch_size: int, segment_len: int,
                 normalization: NormalizationMethod = NormalizationMethod.ZSCORE,
                 filter_spec: FilterSpec | None = None,
                 max_len: int | None = None,
                 augment: AugmentConfig | None = None,
                 seed: int = 0, training: bool = False):
        if not records:
            raise DataError("cannot build a loader over an empty split")
        if batch_size < 1:
            raise DataError(f"batch size must be >= 1, got {batch_size}")
        _check_lengths(segment_len, max_len)
        try:
            normalization = NormalizationMethod(normalization)
        except ValueError:
            valid = ", ".join(m.value for m in NormalizationMethod)
            raise DataError(f"unknown normalization {normalization!r}; "
                            f"expected one of {valid}") from None
        for rec in records:
            if rec.labels is None:
                raise DataError(f"record {rec.id!r} has no labels attached")
            if rec.labels.task != task:
                raise DataError(f"record {rec.id!r} labels do not match the task")
        self.task = task
        self.batch_size = int(batch_size)
        self.segment_len = int(segment_len)
        self.normalization = normalization
        self.augment = augment
        self.seed = int(seed)
        self.training = bool(training)

        # record-level deterministic stages, done once
        if filter_spec is not None:
            records = butterworth_bandpass(records, filter_spec)
        prepared = []
        for rec in records:
            if max_len is not None and rec.n_samples > max_len:
                rec = pad_or_truncate(rec, max_len)
            if rec.n_samples < self.segment_len:
                rec = pad_or_truncate(rec, self.segment_len)
            prepared.append(rec)
        self.records = prepared
        self.targets = np.stack([r.labels.values for r in prepared]).astype(np.float32)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_batches(self) -> int:
        return (len(self.records) + self.batch_size - 1) // self.batch_size

    def _prepare_one(self, index: int, epoch: int) -> np.ndarray:
        """Record ``index``'s float64 [12, l] window for ``epoch``."""
        rec = self.records[index]
        if self.training:
            rec = segment_extract(rec, self.segment_len,
                                  substream(self.seed, "segment", epoch, index))
        else:
            rec = extract_segment_at(rec, 0, self.segment_len)
        x = normalize_array(rec.signal, self.normalization)
        if self.training and self.augment is not None:
            rec = apply_augmentations(
                rec.with_signal(x), self.augment,
                substream(self.seed, "augment", epoch, index), training=True)
            x = rec.signal
        return x

    def batches(self, epoch: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One pass over the split; the final partial batch is emitted.

        A window that is not finite as float32 is a DataError naming its
        record and the epoch.
        """
        order = np.arange(len(self.records))
        if self.training:
            order = substream(self.seed, "shuffle", epoch).permutation(order)
        for start in range(0, len(order), self.batch_size):
            idx = order[start:start + self.batch_size]
            x = np.empty((len(idx), N_LEADS, self.segment_len), dtype=np.float32)
            for j, i in enumerate(idx.tolist()):
                x[j] = self._prepare_one(i, epoch)
                if not np.isfinite(x[j]).all():
                    raise DataError(
                        f"record {self.records[i].id!r}: window drawn in epoch "
                        f"{epoch} holds NaN/Inf after normalization, "
                        "augmentation and the float32 cast")
            yield x, self.targets[idx]
