"""Record files, manifests, splits, synthetic generation, batch iteration."""

import json
import re

import numpy as np
import pytest

from ecglearn.dataio import (BatchLoader, DatasetManifest, LabelVector,
                             ManifestRow, TaskKind, TaskSpec,
                             generate_imbalanced_binary,
                             generate_synthetic_dataset, import_dataset,
                             load_manifest,
                             load_records, load_wfdb_record, ptbxl_split,
                             signature_amplitude_estimate, save_dataset,
                             split_indices, stratified_kfold,
                             write_wfdb_record)
from ecglearn.dataio.synthetic import class_frequency
from ecglearn.augment import AugmentConfig
from ecglearn.errors import DataError, SplitError
from ecglearn.signal import EcgRecord, FilterSpec, design_butterworth_bandpass
from oracles import (oracle_bandpass, oracle_generate_imbalanced_binary,
                     oracle_generate_synthetic_dataset)


# malformed headers for a record "r" of 10 samples at 500 Hz: the whole header
# text to write, or the (old, new) substitution made once in a valid one
MALFORMED_HEADERS = {
    "empty": "",
    "signal-count": ("r 12 500 10", "r twelve 500 10"),
    "fs": ("r 12 500 10", "r 12 fast 10"),
    "fs-nan": ("r 12 500 10", "r 12 nan 10"),
    "fs-inf": ("r 12 500 10", "r 12 inf 10"),
    "samples": ("r 12 500 10", "r 12 500 ten"),
    "gain": ("200(0)/mV", "high(0)/mV"),
    "baseline": ("200(0)/mV", "200(zero)/mV"),
    "gain-inf": ("200(0)/mV", "inf(0)/mV"),
    "gain-nan": ("200(0)/mV", "nan(0)/mV"),
    "gain-overflow": ("200(0)/mV", "1e400(0)/mV"),
    "gain-subnormal": ("200(0)/mV", "1e-320(0)/mV"),
    "baseline-overflow": ("200(0)/mV", "200(99999999999999999999)/mV"),
    "gain-unclosed": ("200(0)/mV", "200(0"),
}


def write_malformed_record(base, case):
    """Write record ``base`` and corrupt its header as MALFORMED_HEADERS[case]."""
    header = write_wfdb_record(base, np.zeros((12, 10)), fs=500.0)
    edit = MALFORMED_HEADERS[case]
    text = header.read_text()
    header.write_text(edit if isinstance(edit, str) else text.replace(*edit, 1))
    return header


# meta.json edits: replacement text, or a function of the parsed object
MALFORMED_META = {
    "invalid-json": "{name: ds",
    "not-object": "[1, 2]",
    "no-name": lambda m: {k: v for k, v in m.items() if k != "name"},
    "no-fs": lambda m: {k: v for k, v in m.items() if k != "fs"},
    "no-task": lambda m: {k: v for k, v in m.items() if k != "task"},
    "fs-not-number": lambda m: {**m, "fs": "fast"},
    "fs-nan": lambda m: {**m, "fs": float("nan")},
    "fs-inf": lambda m: {**m, "fs": float("inf")},
    "fs-negative": lambda m: {**m, "fs": -500.0},
    "fs-zero": lambda m: {**m, "fs": 0},
    "unknown-task-kind": lambda m: {**m, "task": {**m["task"], "kind": "ordinal"}},
}


def corrupt_meta(directory, case):
    meta = directory / "meta.json"
    edit = MALFORMED_META[case]
    meta.write_text(edit if isinstance(edit, str)
                    else json.dumps(edit(json.loads(meta.read_text()))))


# edits of manifest.csv's last row, which the error must name by line
MALFORMED_MANIFEST = {
    "short-row": lambda row: "syn99999,records/syn00000.hea",
    "fold-not-integer": lambda row: row.rsplit(",", 1)[0] + ",x",
    "not-utf8": lambda row: "\udcff" + row,  # a lone 0xff byte on disk
    "dup-id": lambda row: "syn00000" + row[row.index(","):],  # line 2's id
}


def corrupt_manifest(directory, case):
    """Rewrite manifest.csv's last row; returns that row's line number."""
    path = directory / "manifest.csv"
    lines = path.read_text().splitlines()
    lines[-1] = MALFORMED_MANIFEST[case](lines[-1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                    errors="surrogateescape")
    return len(lines)


# faults in an import source (write_import_source): the label CSV's last row,
# the fs of record rec3, and the text the failed import must report
MALFORMED_LABELS_CSV = {
    "short-row": ("rec5", 500.0, "labels.csv line 7: row ends before labels"),
    "not-utf8": ("rec5,\udcff", 500.0, "labels.csv line 7: not UTF-8 text"),
    "mixed-fs": ("rec5,b", 250.0, "rec3: fs 250.0 != first record's fs 500.0"),
    "dup-id": ("rec0,b", 500.0, "labels.csv line 7: id 'rec0' repeats line 2"),
}


def write_import_source(src, case=None):
    """Records rec0..rec5 plus labels.csv (id,labels), faulted by ``case``."""
    last_row, fs3, _ = MALFORMED_LABELS_CSV[case] if case else ("rec5,b", 500.0, "")
    for i in range(6):
        write_wfdb_record(src / f"rec{i}", np.full((12, 10), 0.01 * i),
                          fs=fs3 if i == 3 else 500.0)
    rows = ["id,labels", *(f"rec{i},{'ab'[i % 2]}" for i in range(5)), last_row]
    (src / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8",
                                    errors="surrogateescape")
    return src / "labels.csv"


class TestWfdbRecords:
    def test_gain_arithmetic(self, tmp_path):
        # raw integers 200 and -200 at gain 200, baseline 0 -> 1.0 / -1.0 mV
        sig = np.zeros((12, 2))
        sig[:, 0], sig[:, 1] = 1.0, -1.0
        write_wfdb_record(tmp_path / "g", sig, fs=500.0, gain=200.0)
        raw = np.fromfile(tmp_path / "g.dat", dtype="<i2").reshape(2, 12).T
        assert np.all(raw[:, 0] == 200) and np.all(raw[:, 1] == -200)
        rec = load_wfdb_record(tmp_path / "g.hea")
        assert np.allclose(rec.signal[:, 0], 1.0) and np.allclose(rec.signal[:, 1], -1.0)

    def test_fs_read_from_header(self, tmp_path):
        write_wfdb_record(tmp_path / "f", np.zeros((12, 10)), fs=500.0)
        assert load_wfdb_record(tmp_path / "f.hea").fs == 500.0

    def test_roundtrip_integer_exact_and_mv_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = rng.normal(scale=1.5, size=(12, 777))
        write_wfdb_record(tmp_path / "r", sig, fs=500.0, gain=200.0)
        rec = load_wfdb_record(tmp_path / "r.hea")
        assert np.max(np.abs(rec.signal - sig)) <= 0.5 / 200.0
        # writing the read-back values reproduces the integers bitwise
        write_wfdb_record(tmp_path / "r2", rec.signal, fs=500.0, gain=200.0)
        a = (tmp_path / "r.dat").read_bytes()
        b = (tmp_path / "r2.dat").read_bytes()
        assert a == b

    def test_truncated_file_reports_byte_counts(self, tmp_path):
        write_wfdb_record(tmp_path / "t", np.zeros((12, 100)), fs=500.0)
        data = (tmp_path / "t.dat").read_bytes()
        (tmp_path / "t.dat").write_bytes(data[:-1])
        with pytest.raises(DataError, match="expected 2400 bytes.*found 2399"):
            load_wfdb_record(tmp_path / "t.hea")

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_is_data_error(self, tmp_path, case):
        header = write_malformed_record(tmp_path / "r", case)
        with pytest.raises(DataError, match=r"^r\.hea: "):
            load_wfdb_record(header)

    @pytest.mark.filterwarnings("error")      # no numpy overflow on the way
    @pytest.mark.parametrize("case", ["gain-subnormal", "baseline-overflow",
                                      "gain-unclosed"])
    def test_bad_gain_token_is_named(self, tmp_path, case):
        header = write_malformed_record(tmp_path / "r", case)
        token = MALFORMED_HEADERS[case][1]
        with pytest.raises(DataError, match=re.escape(f"r.hea: bad gain {token!r}")):
            load_wfdb_record(header)

    def test_wrong_lead_count_rejected(self, tmp_path):
        write_wfdb_record(tmp_path / "w", np.zeros((12, 10)), fs=500.0)
        header = (tmp_path / "w.hea").read_text().splitlines()
        header[0] = header[0].replace(" 12 ", " 9 ")
        (tmp_path / "w.hea").write_text("\n".join(header[:10]) + "\n")
        with pytest.raises(DataError, match="expected 12 signals"):
            load_wfdb_record(tmp_path / "w.hea")


def tiny_manifest(task, n=6, folds=None):
    rows = []
    for i in range(n):
        values = np.zeros(task.k, dtype=np.int8)
        values[i % task.k] = 1
        rows.append(ManifestRow(id=f"r{i}", labels=LabelVector(task, values),
                                fold=folds[i] if folds else (i % 10) + 1))
    return DatasetManifest(name="tiny", fs=500.0, task=task, rows=rows)


class TestSplits:
    TASK = TaskSpec(kind=TaskKind.MULTICLASS, classes=("a", "b"))

    def test_benchmark_fold_convention(self):
        m = tiny_manifest(self.TASK, n=20)
        plan = ptbxl_split(m)
        idx = split_indices(m, plan)
        for i in idx["test"]:
            assert m.rows[i].fold == 10
        for i in idx["val"]:
            assert m.rows[i].fold == 9
        for i in idx["train"]:
            assert m.rows[i].fold <= 8

    def test_split_partition_is_exhaustive_and_disjoint(self):
        m = tiny_manifest(self.TASK, n=30)
        idx = split_indices(m, ptbxl_split(m))
        all_idx = idx["train"] + idx["val"] + idx["test"]
        assert sorted(all_idx) == list(range(30))

    def test_bad_fold_ids_rejected(self):
        m = tiny_manifest(self.TASK, n=3, folds=[1, 2, 11])
        with pytest.raises(SplitError, match="outside 1..10"):
            ptbxl_split(m)

    def test_stratified_balanced_two_class(self):
        # 100 records, 2 balanced classes, 10 folds -> every fold is 5+5
        labels = np.zeros((100, 2), dtype=np.int8)
        labels[:50, 0] = 1
        labels[50:, 1] = 1
        folds = stratified_kfold(labels, k=10, seed=3)
        for f in range(1, 11):
            sel = labels[folds == f]
            assert sel[:, 0].sum() == 5 and sel[:, 1].sum() == 5

    def test_stratified_requires_k_positives(self):
        labels = np.zeros((20, 2), dtype=np.int8)
        labels[:9, 0] = 1
        labels[9:, 1] = 1
        with pytest.raises(SplitError, match="class 0 has only 9"):
            stratified_kfold(labels, k=10, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_stratified_needs_one_fold(self, k):
        labels = np.ones((4, 1), dtype=np.int8)
        with pytest.raises(SplitError, match=rf"k >= 1 folds, got {k}"):
            stratified_kfold(labels, k=k)

    def test_stratified_deterministic(self):
        rng = np.random.default_rng(5)
        labels = (rng.random((80, 3)) < 0.4).astype(np.int8)
        labels[np.arange(80) % 3 == 0, 0] = 1  # ensure enough positives
        labels[:, 1] |= (np.arange(80) % 4 == 0)
        labels[:, 2] |= (np.arange(80) % 5 == 0)
        a = stratified_kfold(labels, k=5, seed=42)
        b = stratified_kfold(labels, k=5, seed=42)
        assert np.array_equal(a, b)
        c = stratified_kfold(labels, k=5, seed=43)
        assert not np.array_equal(a, c)

    def test_stratified_every_class_in_every_fold(self):
        rng = np.random.default_rng(6)
        labels = (rng.random((120, 4)) < 0.3).astype(np.int8)
        labels[np.arange(120) % 4 == 0, 0] = 1
        labels[np.arange(120) % 4 == 1, 1] = 1
        labels[np.arange(120) % 4 == 2, 2] = 1
        labels[np.arange(120) % 4 == 3, 3] = 1
        folds = stratified_kfold(labels, k=6, seed=7)
        for f in range(1, 7):
            assert labels[folds == f].sum(axis=0).min() >= 1


class TestSyntheticGeneration:
    def test_counts_and_determinism(self):
        m1, r1 = generate_synthetic_dataset(2, 64, TaskKind.MULTICLASS, seed=9,
                                            length=600)
        assert len(m1) == 128
        per_label = m1.label_matrix().sum(axis=0)
        assert per_label.tolist() == [64, 64]
        m2, r2 = generate_synthetic_dataset(2, 64, TaskKind.MULTICLASS, seed=9,
                                            length=600)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.signal, b.signal)

    def test_pe_shaped_partitions(self):
        m, recs = generate_imbalanced_binary(222, 602, 39, 64, seed=1, length=400)
        assert len(m) == 824 + 103
        folds = m.folds()
        labels = m.label_matrix()[:, 0]
        train = folds <= 9
        test = folds == 10
        assert train.sum() == 824 and test.sum() == 103
        assert labels[train].sum() == 222 and (1 - labels[train]).sum() == 602
        assert labels[test].sum() == 39 and (1 - labels[test]).sum() == 64

    def test_labels_recoverable_by_matched_filter(self):
        m, recs = generate_synthetic_dataset(3, 20, TaskKind.MULTICLASS, seed=11,
                                             length=1500, n_folds=5)
        correct = 0
        for rec in recs:
            scores = [signature_amplitude_estimate(rec, j) for j in range(3)]
            if int(np.argmax(scores)) == int(np.argmax(rec.labels.values)):
                correct += 1
        assert correct / len(recs) > 0.95

    def test_signature_frequency_spacing(self):
        assert class_frequency(0) == 4.0
        assert class_frequency(2) == 10.0

    @pytest.mark.parametrize("n_per_class", [[3, -1], -1])
    def test_negative_class_count_is_data_error(self, n_per_class):
        with pytest.raises(DataError, match=r"n_per_class must be >= 0"):
            generate_synthetic_dataset(2, n_per_class, TaskKind.MULTICLASS, seed=0)

    @pytest.mark.parametrize("arg", ["train_pos", "train_neg", "test_pos", "test_neg"])
    def test_negative_pe_count_is_data_error(self, arg):
        counts = {"train_pos": 3, "train_neg": 3, "test_pos": 1, "test_neg": 1, arg: -1}
        with pytest.raises(DataError, match=rf"^{arg} must be >= 0, got -1$"):
            generate_imbalanced_binary(**counts, seed=0)


def assert_same_dataset(got, want):
    """Manifest, rows and records equal byte for byte; each record shares its
    row's LabelVector object."""
    (m, recs), (om, orecs) = got, want
    assert (m.name, m.fs, m.task) == (om.name, om.fs, om.task)
    assert len(m.rows) == len(om.rows) == len(recs) == len(orecs)
    for row, orow, rec, orec in zip(m.rows, om.rows, recs, orecs):
        assert (row.id, row.fold, row.path) == (orow.id, orow.fold, orow.path)
        assert row.labels.values.tobytes() == orow.labels.values.tobytes()
        assert row.labels.values.dtype == orow.labels.values.dtype
        assert (rec.id, rec.fs) == (orec.id, orec.fs) and rec.id == row.id
        assert rec.signal.tobytes() == orec.signal.tobytes()
        assert rec.labels is row.labels
    assert m.folds().tobytes() == om.folds().tobytes()


class TestSyntheticMatchesOracle:
    """Both generators build what they built before sharing one assembly."""

    @pytest.mark.parametrize("seed", [0, 31])
    @pytest.mark.parametrize("args, kwargs", [
        ((2, 6, TaskKind.MULTICLASS), dict(n_folds=3)),
        ((3, [4, 7, 2], TaskKind.MULTILABEL),
         dict(extra_label_p=0.3, n_folds=2, fs=250.0, name="named")),
        ((2, [9, 3], "binary"), dict(n_folds=3, id_prefix="b", noise=0.2)),
    ])
    def test_generate_synthetic_dataset(self, seed, args, kwargs):
        kwargs = dict(kwargs, length=300)
        assert_same_dataset(
            generate_synthetic_dataset(*args, seed=seed, **kwargs),
            oracle_generate_synthetic_dataset(*args, seed=seed, **kwargs))

    @pytest.mark.parametrize("seed", [0, 31])
    @pytest.mark.parametrize("counts", [(9, 14, 2, 4), (11, 9, 0, 3)])
    def test_generate_imbalanced_binary(self, seed, counts):
        kwargs = dict(length=250, signature_amp=0.5, name="pe-test")
        assert_same_dataset(
            generate_imbalanced_binary(*counts, seed=seed, **kwargs),
            oracle_generate_imbalanced_binary(*counts, seed=seed, **kwargs))

    def test_default_name_and_save_gain(self, tmp_path):
        got = generate_synthetic_dataset(2, 3, TaskKind.MULTICLASS, seed=4,
                                         length=100, n_folds=3)
        assert_same_dataset(got, oracle_generate_synthetic_dataset(
            2, 3, TaskKind.MULTICLASS, seed=4, length=100, n_folds=3))
        assert got[0].name == "synthetic:2x3-3"
        save_dataset(got[0], got[1], tmp_path / "a")
        save_dataset(got[0], got[1], tmp_path / "b", gain=200.0)
        for name in ("syn00000.dat", "syn00000.hea"):
            assert (tmp_path / "a" / "records" / name).read_bytes() == \
                (tmp_path / "b" / "records" / name).read_bytes()


class TestSaveLoadRoundtrip:
    def test_dataset_directory_roundtrip(self, tmp_path):
        m, recs = generate_synthetic_dataset(2, 8, TaskKind.MULTICLASS, seed=13,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        loaded = load_manifest(tmp_path / "ds")
        assert loaded.task == m.task
        assert len(loaded) == len(m)
        back = load_records(loaded, tmp_path / "ds")
        # quantization-bounded reconstruction
        assert np.max(np.abs(back[0].signal - recs[0].signal)) <= 0.5 / 200.0
        assert back[0].labels == m.rows[0].labels

    def test_missing_column_reported(self, tmp_path):
        m, recs = generate_synthetic_dataset(2, 8, TaskKind.MULTICLASS, seed=14,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        csv_path = tmp_path / "ds" / "manifest.csv"
        lines = csv_path.read_text().splitlines()
        lines[0] = "id,path,labels"
        body = [",".join(ln.split(",")[:3]) for ln in lines[1:]]
        csv_path.write_text("\n".join([lines[0]] + body) + "\n")
        with pytest.raises(DataError, match="missing columns: fold"):
            load_manifest(tmp_path / "ds")

    def test_loaded_records_are_the_record_files(self, tmp_path):
        m, recs = generate_synthetic_dataset(2, 4, TaskKind.MULTICLASS, seed=13,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        loaded = load_manifest(tmp_path / "ds")
        back = load_records(loaded, tmp_path / "ds")
        for row, rec in zip(loaded.rows, back):
            ref = load_wfdb_record(tmp_path / "ds" / row.path)
            assert rec.signal.tobytes() == ref.signal.tobytes()
            assert (rec.id, rec.fs, rec.labels) == (row.id, ref.fs, row.labels)

    @pytest.mark.parametrize("case", sorted(MALFORMED_META))
    def test_malformed_meta_is_data_error(self, tmp_path, case):
        m, recs = generate_synthetic_dataset(2, 4, TaskKind.MULTICLASS, seed=14,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        corrupt_meta(tmp_path / "ds", case)
        with pytest.raises(DataError, match=r"meta\.json: "):
            load_manifest(tmp_path / "ds")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFEST))
    def test_malformed_manifest_row_names_its_line(self, tmp_path, case):
        m, recs = generate_synthetic_dataset(2, 4, TaskKind.MULTICLASS, seed=14,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        line_no = corrupt_manifest(tmp_path / "ds", case)
        with pytest.raises(DataError, match=rf"^manifest\.csv line {line_no}: "):
            load_manifest(tmp_path / "ds")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        m, recs = generate_synthetic_dataset(2, 4, TaskKind.MULTICLASS, seed=14,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        want = load_manifest(tmp_path / "ds")
        csv_path = tmp_path / "ds" / "manifest.csv"
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        got = load_manifest(tmp_path / "ds")
        assert got.rows == want.rows

    def test_repeated_record_id_named(self):
        task = TaskSpec(TaskKind.BINARY, ("positive",))
        row = ManifestRow(id="r7", labels=LabelVector(task, np.array([1])), fold=1)
        with pytest.raises(DataError, match="'r7' repeats"):
            DatasetManifest(name="d", fs=500.0, task=task, rows=[row, row])

    def test_missing_referenced_file(self, tmp_path):
        m, recs = generate_synthetic_dataset(2, 8, TaskKind.MULTICLASS, seed=15,
                                             length=300, n_folds=4)
        save_dataset(m, recs, tmp_path / "ds")
        (tmp_path / "ds" / "records" / f"{recs[0].id}.hea").unlink()
        with pytest.raises(DataError, match="does not exist"):
            load_manifest(tmp_path / "ds")


class TestImportDataset:
    def test_records_labels_and_stratified_folds(self, tmp_path):
        labels = write_import_source(tmp_path)
        m, recs = import_dataset(tmp_path, labels, "multilabel", n_folds=2,
                                 seed=1, name="raw")
        assert (m.name, m.fs, m.task.classes) == ("raw", 500.0, ("a", "b"))
        assert [r.id for r in m.rows] == [r.id for r in recs] == [
            f"rec{i}" for i in range(6)]
        assert sorted(set(m.folds().tolist())) == [1, 2]
        assert np.array_equal(recs[4].signal,
                              load_wfdb_record(tmp_path / "rec4.hea").signal)
        assert [r.labels.encode() for r in m.rows] == ["a", "b"] * 3

    def test_byte_order_mark_is_dropped(self, tmp_path):
        labels = write_import_source(tmp_path)
        labels.write_bytes(b"\xef\xbb\xbf" + labels.read_bytes())
        m, _ = import_dataset(tmp_path, labels, "multilabel", n_folds=2)
        assert [r.id for r in m.rows] == [f"rec{i}" for i in range(6)]
        assert m.task.classes == ("a", "b")

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"\xef\xbb\xbfid,labels\n\xffrec0,a\n")
        with pytest.raises(DataError, match="labels.csv line 2: not UTF-8"):
            import_dataset(tmp_path, labels, "multilabel")

    @pytest.mark.parametrize("case", sorted(MALFORMED_LABELS_CSV))
    def test_malformed_source_is_data_error(self, tmp_path, case):
        labels = write_import_source(tmp_path, case)
        text = re.escape(MALFORMED_LABELS_CSV[case][2])
        with pytest.raises(DataError, match=text):
            import_dataset(tmp_path, labels, "multilabel")


class TestBatchLoader:
    def make_loader(self, training, seed=0, n=10, batch=4, l=128):
        m, recs = generate_synthetic_dataset(2, n, TaskKind.MULTICLASS,
                                             seed=17, length=400, n_folds=5)
        return BatchLoader(recs, m.task, batch_size=batch, segment_len=l,
                           seed=seed, training=training)

    def test_batch_shapes_and_partial_batch(self):
        loader = self.make_loader(training=False, n=10, batch=8, l=128)
        batches = list(loader.batches())
        assert [b[0].shape for b in batches] == [(8, 12, 128), (8, 12, 128),
                                                 (4, 12, 128)]
        assert batches[0][0].dtype == np.float32
        assert batches[0][1].shape == (8, 2)

    def test_eval_iteration_identical_twice(self):
        loader = self.make_loader(training=False)
        a = [x.copy() for x, _ in loader.batches()]
        b = [x.copy() for x, _ in loader.batches()]
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_train_iteration_seed_reproducible(self):
        la = self.make_loader(training=True, seed=5)
        lb = self.make_loader(training=True, seed=5)
        for (xa, ya), (xb, yb) in zip(la.batches(epoch=3), lb.batches(epoch=3)):
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_train_epochs_differ(self):
        loader = self.make_loader(training=True, seed=5)
        x0 = next(iter(loader.batches(epoch=0)))[0]
        x1 = next(iter(loader.batches(epoch=1)))[0]
        assert not np.array_equal(x0, x1)

    def test_short_records_padded_to_segment_length(self):
        task = TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
        rec = EcgRecord(signal=np.ones((12, 50)), fs=500.0, id="short",
                        labels=LabelVector(task, np.array([1])))
        loader = BatchLoader([rec], task, batch_size=1, segment_len=100)
        x, y = next(iter(loader.batches()))
        assert x.shape == (1, 12, 100)

    @pytest.mark.parametrize("segment_len", [0, -5])
    def test_segment_len_below_one_rejected(self, segment_len):
        m, recs = generate_synthetic_dataset(2, 2, TaskKind.MULTICLASS,
                                             seed=17, length=100, n_folds=2)
        with pytest.raises(DataError, match="segment_len"):
            BatchLoader(recs, m.task, batch_size=2, segment_len=segment_len)

    @pytest.mark.parametrize("normalization", ["zcore", "", None])
    def test_unknown_normalization_rejected(self, normalization):
        m, recs = generate_synthetic_dataset(2, 2, TaskKind.MULTICLASS,
                                             seed=17, length=100, n_folds=2)
        with pytest.raises(DataError, match="unknown normalization") as err:
            BatchLoader(recs, m.task, batch_size=2, segment_len=50,
                        normalization=normalization)
        for name in ("minmax", "zscore", "rscale", "logscale", "l2"):
            assert name in str(err.value)

    def test_empty_split_rejected(self):
        task = TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
        with pytest.raises(DataError, match="empty split"):
            BatchLoader([], task, batch_size=4, segment_len=100)

    @pytest.mark.parametrize("training", [True, False])
    def test_filtering_loader_equals_prefiltered_records(self, training):
        # mixed lengths: some above max_len, some below segment_len
        m, recs = generate_synthetic_dataset(2, 4, TaskKind.MULTICLASS,
                                             seed=23, length=400, n_folds=4)
        lengths = [400, 400, 90, 300, 60, 400, 250, 90]
        recs = [EcgRecord(r.signal[:, :n], r.fs, r.id, r.labels)
                for r, n in zip(recs, lengths)]
        spec = FilterSpec(fs=recs[0].fs)
        sections = design_butterworth_bandpass(spec)
        prefiltered = [EcgRecord(oracle_bandpass(r.signal, r.fs, sections),
                                 r.fs, r.id, r.labels) for r in recs]
        kwargs = dict(batch_size=3, segment_len=128, max_len=350,
                      augment=AugmentConfig(), seed=4, training=training)
        filtering = BatchLoader(recs, m.task, filter_spec=spec, **kwargs)
        plain = BatchLoader(prefiltered, m.task, **kwargs)
        for a, b in zip(filtering.records, plain.records):
            assert a.signal.flags.c_contiguous
            assert np.array_equal(a.signal, b.signal)
        for epoch in (0, 1):
            pairs = list(zip(filtering.batches(epoch), plain.batches(epoch)))
            assert len(pairs) == 3
            for (xa, ya), (xb, yb) in pairs:
                assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
