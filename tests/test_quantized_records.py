"""Records read from files keep their int16 samples and decode on demand:
byte identity with the whole-record decode they once held, window decodes,
loaders, re-saving, and the bytes a record holds."""

import filecmp

import numpy as np
import pytest

from ecglearn.augment import (AdditiveConfig, AugmentConfig, FlipConfig,
                              LeadDropConfig, RandomDropConfig)
from ecglearn.dataio import (BatchLoader, DatasetManifest, LabelVector,
                             ManifestRow, TaskKind, TaskSpec,
                             generate_synthetic_dataset, load_manifest,
                             load_records, load_wfdb_record, save_dataset,
                             write_wfdb_record)
from ecglearn.signal import (EcgRecord, FilterSpec, NormalizationMethod,
                             QuantizedRecord, extract_segment_at,
                             segment_extract)
from oracles import (oracle_decode_wfdb, oracle_loader_batches,
                     oracle_segment_extract)

FS = 500.0
TASK = TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
# one gain and baseline per lead, spanning the int16 range and fractional,
# large and small gains
GAINS = (200.0, 1000.0, 12.5, 3.3, 0.7, 1e4, 400.0, 17.1, 250.0, 0.125, 99.9,
         5e-3)
BASELINES = (0, -5, 17, 1024, -32768, 32767, 3, -300, 0, 12, -1, 2048)


def write_raw_record(base, raw, gains=GAINS, baselines=BASELINES):
    """Write int16 samples [12, m] with the given gain and baseline per lead."""
    lines = [f"{base.name} 12 {FS:g} {raw.shape[1]}"]
    lines += [f"{base.name}.dat 16 {g!r}({b})/mV 16 0 0 0 0 L{i}"
              for i, (g, b) in enumerate(zip(gains, baselines))]
    base.parent.mkdir(parents=True, exist_ok=True)
    (base.parent / f"{base.name}.hea").write_text("\n".join(lines) + "\n")
    raw.T.astype("<i2").tofile(base.parent / f"{base.name}.dat")
    return base.parent / f"{base.name}.hea"


def raw_dataset(directory, lengths, seed=0):
    """A dataset directory of full-range random int16 records, one per length."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, m in enumerate(lengths):
        raw = rng.integers(-32768, 32768, size=(12, m), dtype=np.int16)
        gains = rng.permutation(GAINS).tolist() if i % 2 else GAINS
        write_raw_record(directory / "records" / f"r{i}", raw, gains=gains)
        rows.append(ManifestRow(id=f"r{i}", labels=LabelVector(TASK, [i % 2]),
                                fold=1 + i % 3, path=f"records/r{i}.hea"))
    save_dataset(DatasetManifest("raw", FS, TASK, rows), None, directory)
    return load_records(load_manifest(directory), directory)


def float_copies(records):
    return [EcgRecord(r.signal, r.fs, r.id, r.labels) for r in records]


class TestDecode:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_signal_is_the_oracle_decode(self, tmp_path, seed):
        records = raw_dataset(tmp_path / "ds", [1, 37, 400], seed)
        for rec in records:
            assert isinstance(rec, QuantizedRecord)
            want = oracle_decode_wfdb(tmp_path / "ds" / "records" / f"{rec.id}.hea")
            got = rec.signal
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_window_is_a_slice_of_the_full_decode(self, tmp_path):
        m = 400
        rec = raw_dataset(tmp_path / "ds", [m], seed=3)[0]
        full = rec.signal
        rng = np.random.default_rng(4)
        for l in (1, 64, 399, 400):
            starts = {0, m - l, *rng.integers(0, m - l, endpoint=True, size=8)}
            for s in sorted(int(s) for s in starts):
                want = full[:, s:s + l].tobytes()
                assert rec.window(s, l).tobytes() == want
                cut = extract_segment_at(rec, s, l)
                assert type(cut) is EcgRecord
                assert cut.signal.flags.c_contiguous
                assert cut.signal.tobytes() == want

    @pytest.mark.parametrize("l", [1, 64, 400])
    def test_random_segments_match_the_oracle(self, tmp_path, l):
        rec = raw_dataset(tmp_path / "ds", [400], seed=5)[0]
        copy = float_copies([rec])[0]
        gen, oracle_gen = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(20):
            got = segment_extract(rec, l, gen)
            want = oracle_segment_extract(copy, l, oracle_gen)
            assert got.signal.tobytes() == want.signal.tobytes()
        assert gen.bit_generator.state == oracle_gen.bit_generator.state

    def test_mutating_a_decode_changes_nothing(self, tmp_path):
        rec = raw_dataset(tmp_path / "ds", [50], seed=6)[0]
        before = rec.signal.tobytes()
        rec.signal[:] = 0.0
        rec.window(0, 10)[:] = 0.0
        assert rec.signal.tobytes() == before

    def test_a_record_holds_its_samples_only(self, tmp_path):
        rng = np.random.default_rng(7)
        write_wfdb_record(tmp_path / "big", rng.normal(size=(12, 5000)), fs=FS)
        rec = load_wfdb_record(tmp_path / "big.hea")
        arrays = [v for v in vars(rec).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 12 * 5000 * 2 + 2 * 12 * 8
        assert rec.samples.dtype == np.int16 and rec.samples.flags.c_contiguous
        assert rec.samples.base is None       # the file's buffer is not pinned
        assert rec.n_samples == 5000


class TestLoaderOverReadRecords:
    # lengths above max_len are truncated, those below segment_len padded
    LENGTHS = [400, 400, 90, 300, 60, 400, 250, 90]

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_batches_equal_float_copies(self, tmp_path, training, filtered):
        records = raw_dataset(tmp_path / "ds", self.LENGTHS, seed=8)
        kwargs = dict(batch_size=3, segment_len=128, max_len=350,
                      filter_spec=FilterSpec(fs=FS) if filtered else None,
                      augment=AugmentConfig(), seed=4, training=training)
        read = BatchLoader(records, TASK, **kwargs)
        copies = BatchLoader(float_copies(records), TASK, **kwargs)
        for epoch in (0, 1, 2):
            pairs = list(zip(read.batches(epoch), copies.batches(epoch)))
            assert len(pairs) == 3
            for (xa, ya), (xb, yb) in pairs:
                assert xa.tobytes() == xb.tobytes()
                assert ya.tobytes() == yb.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_a_draw_decodes_only_its_segment(self, tmp_path, monkeypatch,
                                             training):
        records = raw_dataset(tmp_path / "ds", [400, 300, 128], seed=9)
        decoded = []
        window = QuantizedRecord.window

        def counted(rec, s, l):
            decoded.append(l)
            return window(rec, s, l)

        monkeypatch.setattr(QuantizedRecord, "window", counted)
        loader = BatchLoader(records, TASK, batch_size=2, segment_len=128,
                             max_len=None, seed=1, training=training)
        assert decoded == []            # length checks read no sample
        assert all(isinstance(r, QuantizedRecord) for r in loader.records)
        list(loader.batches(1))
        assert decoded == [128] * 3


def degenerate_raw(lengths, seed):
    """int16 samples [12, m] per length. In the first record lead 3 is
    constant and lead 8 (baseline 0) is all zero, so both normalize through
    the degenerate-denominator branch; a record shorter than the segment
    length is mostly zero padding once padded, so its leads have zero IQR."""
    rng = np.random.default_rng(seed)
    raws = [rng.integers(-3000, 3000, size=(12, m), dtype=np.int16)
            for m in lengths]
    raws[0][3] = 77
    raws[0][8] = 0
    return raws


@pytest.fixture(scope="module")
def record_kinds(tmp_path_factory):
    """The same samples as records read with each lead's own gain and
    baseline (some 0, most not), read with every baseline 0, and as float
    records."""
    lengths = [600, 600, 100, 480, 450, 600, 300]
    tmp = tmp_path_factory.mktemp("kinds")
    kinds = {"baselines": [], "zero-baseline": [], "float": []}
    for i, raw in enumerate(degenerate_raw(lengths, seed=12)):
        labels = LabelVector(TASK, [i % 2])
        for kind, baselines in (("baselines", BASELINES),
                                ("zero-baseline", (0,) * 12)):
            rec = load_wfdb_record(write_raw_record(tmp / kind / f"r{i}", raw,
                                                    baselines=baselines))
            rec.id, rec.labels = f"r{i}", labels
            kinds[kind].append(rec)
        kinds["float"].append(EcgRecord(kinds["zero-baseline"][-1].signal, FS,
                                        f"r{i}", labels))
    return kinds


EVERY_TRANSFORM = AugmentConfig(
    flip=FlipConfig(p=1.0), random_drop=RandomDropConfig(p=1.0),
    lead_drop=LeadDropConfig(p=1.0), square_pulse=AdditiveConfig(p=1.0),
    sine=AdditiveConfig(p=1.0))


class TestLoaderMatchesOracle:
    """``batches()`` against the draw that built a checked record at every
    stage (``oracles.oracle_loader_batches``), byte for byte."""

    def test_baseline_flag_follows_the_header(self, record_kinds):
        assert not any(r._zero_baseline for r in record_kinds["baselines"])
        assert all(r._zero_baseline for r in record_kinds["zero-baseline"])

    @pytest.mark.parametrize("method", list(NormalizationMethod))
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("kind", ["baselines", "zero-baseline", "float"])
    def test_batches(self, record_kinds, kind, filtered, method):
        modes = [(False, None), (True, None), (True, AugmentConfig()),
                 (True, EVERY_TRANSFORM)]
        for max_len in (None, 500):          # 500 truncates the 600s
            for training, augment in modes:
                loader = BatchLoader(
                    record_kinds[kind], TASK, batch_size=3, segment_len=256,
                    normalization=method, max_len=max_len, augment=augment,
                    filter_spec=FilterSpec(fs=FS) if filtered else None,
                    seed=6, training=training)
                for epoch in (0, 1, 2):
                    got = list(loader.batches(epoch))
                    want = list(oracle_loader_batches(loader, epoch))
                    assert len(got) == len(want) == 3
                    for (xa, ya), (xb, yb) in zip(got, want):
                        assert xa.dtype == np.float32 and xa.flags.c_contiguous
                        assert xa.shape == xb.shape
                        assert xa.tobytes() == xb.tobytes()
                        assert ya.tobytes() == yb.tobytes()
                    if not training:
                        # lead 8 of r0 is all zero under every method
                        assert any((x == 0).all(axis=-1).any() for x, _ in got)


class TestResave:
    def test_saving_read_records_rewrites_the_same_files(self, tmp_path):
        manifest, records = generate_synthetic_dataset(
            2, 4, TaskKind.MULTICLASS, seed=11, length=300, n_folds=4)
        save_dataset(manifest, records, tmp_path / "a")
        loaded = load_manifest(tmp_path / "a")
        save_dataset(loaded, load_records(loaded, tmp_path / "a"), tmp_path / "b")
        names = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(tmp_path / "b")
                               for p in (tmp_path / "b").rglob("*") if p.is_file())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", [str(n) for n in names], shallow=False)
        assert mismatch == [] and errors == [] and len(match) == len(names)
