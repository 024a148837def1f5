"""Dataset manifests: one row per record with labels and fold assignment.

On disk a dataset directory holds ``manifest.csv`` (columns id, path, labels,
fold), ``meta.json`` (dataset name, sampling rate, task), and the referenced
record files. Manifests can also live purely in memory (path=None rows) for
generated data.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..signal import EcgRecord
from .labels import LabelVector, TaskSpec
from .records import DEFAULT_GAIN, load_wfdb_record, write_wfdb_record

__all__ = ["ManifestRow", "DatasetManifest", "save_dataset", "load_manifest",
           "load_records"]

_CSV_COLUMNS = ["id", "path", "labels", "fold"]


@dataclass
class ManifestRow:
    id: str
    labels: LabelVector
    fold: int
    path: str | None = None  # header path relative to the dataset directory

    def __post_init__(self):
        if self.fold < 1:
            raise DataError(f"record {self.id!r}: fold ids start at 1, got {self.fold}")


@dataclass
class DatasetManifest:
    name: str
    fs: float
    task: TaskSpec
    rows: list[ManifestRow] = field(default_factory=list)

    def __post_init__(self):
        ids = [r.id for r in self.rows]
        if len(set(ids)) != len(ids):
            raise DataError("manifest record ids must be unique")

    def __len__(self) -> int:
        return len(self.rows)

    def label_matrix(self) -> np.ndarray:
        """[n, k] int8 matrix of label activations in row order."""
        return np.stack([r.labels.values for r in self.rows]) if self.rows \
            else np.zeros((0, self.task.k), dtype=np.int8)

    def folds(self) -> np.ndarray:
        return np.asarray([r.fold for r in self.rows], dtype=np.int64)

    def class_counts(self) -> np.ndarray:
        return self.label_matrix().sum(axis=0)


def save_dataset(manifest: DatasetManifest, records: list[EcgRecord] | None,
                 directory: str | Path, gain: float = DEFAULT_GAIN) -> Path:
    """Write meta.json + manifest.csv and, when given, the record files.

    Records are written under ``records/`` and the manifest rows are updated
    with their relative header paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if records is not None:
        if len(records) != len(manifest.rows):
            raise DataError("records and manifest rows differ in length")
        rec_dir = directory / "records"
        for row, rec in zip(manifest.rows, records):
            if row.id != rec.id:
                raise DataError(f"row/record id mismatch: {row.id!r} vs {rec.id!r}")
            write_wfdb_record(rec_dir / row.id, rec.signal, rec.fs, gain=gain)
            row.path = f"records/{row.id}.hea"

    meta = {"name": manifest.name, "fs": manifest.fs,
            "task": manifest.task.to_dict()}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    with open(directory / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in manifest.rows:
            writer.writerow([row.id, row.path or "", row.labels.encode(), row.fold])
    return directory


def load_manifest(directory: str | Path) -> DatasetManifest:
    """Load meta.json + manifest.csv; every referenced file must exist."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    csv_path = directory / "manifest.csv"
    if not meta_path.exists() or not csv_path.exists():
        raise DataError(f"{directory} is not a dataset directory "
                        "(needs meta.json and manifest.csv)")
    try:
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise TypeError("not a JSON object")
        name, fs, task = meta["name"], float(meta["fs"]), TaskSpec.from_dict(meta["task"])
        if not (np.isfinite(fs) and fs > 0):
            raise ValueError(f"fs must be finite and positive, got {fs}")
    except KeyError as e:
        raise DataError(f"{meta_path}: missing key {e}") from None
    except (TypeError, ValueError, DataError) as e:
        raise DataError(f"{meta_path}: malformed ({e})") from None

    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"manifest.csv is missing columns: {', '.join(missing)}")
        for line_no, rec in enumerate(reader, start=2):
            short = [c for c in _CSV_COLUMNS if rec[c] is None]
            if short:
                raise DataError(f"manifest.csv line {line_no}: row ends before "
                                f"{', '.join(short)}")
            try:
                fold = int(rec["fold"])
            except ValueError:
                raise DataError(
                    f"manifest.csv line {line_no}: fold {rec['fold']!r} is not "
                    "an integer") from None
            path = rec["path"].strip() or None
            if path is not None and not (directory / path).exists():
                raise DataError(f"referenced file does not exist: {directory / path}")
            rows.append(ManifestRow(
                id=rec["id"], path=path,
                labels=LabelVector.decode(rec["labels"], task), fold=fold))
    return DatasetManifest(name=name, fs=fs, task=task, rows=rows)


def load_records(manifest: DatasetManifest, directory: str | Path) -> list[EcgRecord]:
    """Read every row's record file and attach its labels."""
    directory = Path(directory)
    records = []
    for row in manifest.rows:
        if row.path is None:
            raise DataError(f"record {row.id!r} has no file path; "
                            "was this manifest saved with records?")
        rec = load_wfdb_record(directory / row.path)
        if rec.fs != manifest.fs:
            raise DataError(f"record {row.id!r}: fs {rec.fs} != dataset fs {manifest.fs}")
        rec.id, rec.labels = row.id, row.labels
        records.append(rec)
    return records
