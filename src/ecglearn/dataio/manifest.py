"""Dataset manifests: one row per record with labels and fold assignment.

On disk a dataset directory holds ``manifest.csv`` (columns id, path, labels,
fold), ``meta.json`` (dataset name, sampling rate, task), and the referenced
record files. Manifests can also live purely in memory (path=None rows) for
generated data; ``import_dataset`` builds one from record files and a label CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, SignalError
from ..signal import EcgRecord
from .labels import LabelVector, TaskKind, TaskSpec
from .records import DEFAULT_GAIN, load_wfdb_record, write_wfdb_record

__all__ = ["ManifestRow", "DatasetManifest", "save_dataset", "load_manifest",
           "load_records", "import_dataset"]

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
        ids = set()
        for r in self.rows:
            if r.id in ids:
                raise DataError(f"manifest record ids must be unique; {r.id!r} "
                                "repeats")
            ids.add(r.id)

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
    with their relative header paths; any other ``.hea`` or ``.dat`` file
    there, left by an earlier save, is deleted, so every record file is one
    the new manifest names. A file at ``directory`` is a DataError.
    """
    directory = Path(directory)
    if directory.exists() and not directory.is_dir():
        raise DataError(f"dataset directory {directory} exists and is not a directory")
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
        named = {row.id + ext for row in manifest.rows for ext in (".hea", ".dat")}
        for path in rec_dir.iterdir() if rec_dir.is_dir() else ():
            if path.suffix in (".hea", ".dat") and path.name not in named \
                    and path.is_file():
                path.unlink()

    meta = {"name": manifest.name, "fs": manifest.fs,
            "task": manifest.task.to_dict()}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                         encoding="utf-8")
    with open(directory / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in manifest.rows:
            writer.writerow([row.id, row.path or "", row.labels.encode(), row.fold])
    return directory


def _read_csv(path: Path, required, name: str) -> list[dict]:
    """Rows of a UTF-8 CSV table keyed by its header, any fold parsed to int.

    A leading byte-order mark is dropped. A missing column, a short row, a
    non-integer fold, a repeated id or a non-UTF-8 byte is a DataError naming
    ``name`` and the line.
    """
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as e:
        # e.object is the input after any byte-order mark, as e.start is
        line_no = e.object.count(b"\n", 0, e.start) + 1
        raise DataError(f"{name} line {line_no}: not UTF-8 text") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = [c for c in required if c not in (reader.fieldnames or [])]
    if missing:
        raise DataError(f"{name} is missing columns: {', '.join(missing)}")
    rows, id_lines = [], {}
    for row in reader:
        where = f"{name} line {reader.line_num}"
        short = [c for c in reader.fieldnames if row[c] is None]
        if short:
            raise DataError(f"{where}: row ends before {', '.join(short)}")
        if row["id"] in id_lines:
            raise DataError(f"{where}: id {row['id']!r} repeats line "
                            f"{id_lines[row['id']]}")
        id_lines[row["id"]] = reader.line_num
        if "fold" in row:
            try:
                row["fold"] = int(row["fold"])
            except ValueError:
                raise DataError(f"{where}: fold {row['fold']!r} is not an "
                                "integer") from None
        rows.append(row)
    return rows


def load_manifest(directory: str | Path) -> DatasetManifest:
    """Load meta.json + manifest.csv; every referenced file must exist."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    csv_path = directory / "manifest.csv"
    if not meta_path.exists() or not csv_path.exists():
        raise DataError(f"{directory} is not a dataset directory "
                        "(needs meta.json and manifest.csv)")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
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
    for rec in _read_csv(csv_path, _CSV_COLUMNS, "manifest.csv"):
        path = rec["path"].strip() or None
        if path is not None and not (directory / path).exists():
            raise DataError(f"referenced file does not exist: {directory / path}")
        rows.append(ManifestRow(
            id=rec["id"], path=path,
            labels=LabelVector.decode(rec["labels"], task), fold=rec["fold"]))
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


def import_dataset(source: str | Path, labels_csv: str | Path, kind: TaskKind | str,
                   *, n_folds: int = 10, seed: int = 0, name: str = "imported",
                   log=None) -> tuple[DatasetManifest, list[EcgRecord]]:
    """Build a dataset from ``source/<id>.hea`` record files plus a label CSV.

    The CSV has columns id, labels (pipe-joined class names) and optionally
    fold; without it folds come from stratified ``n_folds``-fold. Unreadable
    records and records whose fs differs from the first one's go to ``log``,
    then one DataError counts them.
    """
    from .splits import stratified_kfold  # splits imports this module
    source, labels_csv = Path(source), Path(labels_csv)
    if not labels_csv.exists():
        raise ConfigError(f"labels file not found: {labels_csv}")
    rows = _read_csv(labels_csv, ("id", "labels"), str(labels_csv))
    class_names = sorted({c for r in rows for c in r["labels"].split("|")
                          if c.strip()})
    task = TaskSpec(kind=TaskKind(kind), classes=tuple(class_names))

    records, bad = [], []
    for r in rows:
        try:
            rec = load_wfdb_record(source / f"{r['id']}.hea")
            rec.labels = LabelVector.decode(r["labels"], task)
        except (DataError, SignalError) as e:
            bad.append(f"{r['id']}: {e}")
            continue
        if records and rec.fs != records[0].fs:
            bad.append(f"{r['id']}: fs {rec.fs} != first record's fs {records[0].fs}")
        records.append(rec)
    for line in bad if log else ():
        log(f"malformed record {line}")
    if bad:
        raise DataError(f"{len(bad)} malformed records" +
                        (" (listed above)" if log else ": " + "; ".join(bad)))
    if not records:
        raise DataError("no records imported")

    if "fold" in rows[0]:
        folds = [r["fold"] for r in rows]
    else:
        folds = stratified_kfold(np.stack([rec.labels.values for rec in records]),
                                 k=n_folds, seed=seed,
                                 class_names=task.classes).tolist()
    manifest_rows = [ManifestRow(id=r["id"], labels=rec.labels, fold=f)
                     for r, rec, f in zip(rows, records, folds)]
    return DatasetManifest(name=name, fs=records[0].fs, task=task,
                           rows=manifest_rows), records
