"""Dataset ingestion (``import_dataset`` reads record files plus a label CSV),
splits, synthetic generation, and batch iteration."""

from .batches import BatchLoader
from .labels import LabelVector, TaskKind, TaskSpec
from .manifest import (DatasetManifest, ManifestRow, import_dataset,
                       load_manifest, load_records, save_dataset)
from .records import load_wfdb_record, write_wfdb_record
from .splits import SplitPlan, ptbxl_split, split_indices, stratified_kfold
from .synthetic import (class_frequency, generate_imbalanced_binary,
                        generate_synthetic_dataset,
                        signature_amplitude_estimate)

__all__ = [
    "TaskKind", "TaskSpec", "LabelVector",
    "ManifestRow", "DatasetManifest", "save_dataset", "load_manifest",
    "load_records", "import_dataset", "load_wfdb_record", "write_wfdb_record",
    "SplitPlan", "ptbxl_split", "split_indices", "stratified_kfold",
    "generate_synthetic_dataset", "generate_imbalanced_binary",
    "class_frequency", "signature_amplitude_estimate",
    "BatchLoader",
]
