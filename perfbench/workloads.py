"""The three workloads: inputs from the seed, timed calls, output checks.

Every workload runs the same way:

1. ``prepare`` makes the inputs from the seed and, except for ``ingest``,
   writes them to disk. None of this is timed.
2. Whole rounds of the same top-level public calls then run until the run
   length is spent. A round sets up anew (files on disk to loaders
   and a freshly built model), then draws loader epochs, trains and
   evaluates. Every call counts as one attempted operation and is timed on
   its own; the round yields one sample of every metric.
3. The first round warms allocations and caches and is not measured. At
   least ``MIN_ROUNDS`` more follow. Each metric is the median over the
   measured rounds, so every sample of it is spread over the whole run.
4. ``check_round`` and ``check`` verify the outputs with ``checks.py``.

A round builds its model from the same seed, so every round does identical
work and must log an identical loss history.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import ecglearn.dataio as dataio
import ecglearn.learn as learn
import ecglearn.models as models
import ecglearn.transfer as transfer
from ecglearn.augment import AugmentConfig
from ecglearn.dataio import TaskKind, TaskSpec, class_frequency
from ecglearn.signal import FilterSpec
from ecglearn.tensor import no_grad
from tracer import Tracer

# the paper's input shape: 500 Hz, 12 x 5000 records, 12 x 2048 segments,
# batches of 32
FS = 500.0
RECORD_LEN = 5000
SEGMENT_LEN = 2048
BATCH = 32
GAIN = 200.0                 # ADC units per mV in the written records
MIN_ROUNDS = 2
GRADCHECK_SHAPE = (2, 12, 256)

END_TO_END = {"setup_s": "s", "ingest_records_per_s": "records/s",
              "loader_records_per_s": "records/s",
              "train_samples_per_s": "samples/s",
              "eval_samples_per_s": "samples/s", "peak_rss_mb": "MB"}


@dataclass
class Round:
    traced: bool
    seconds: dict[str, float] = field(default_factory=dict)  # per metric
    items: dict[str, int] = field(default_factory=dict)      # per metric
    wall_s: float = 0.0                                      # every timed call
    epochs: list = field(default_factory=list)               # batches per epoch
    history: list | None = None
    report: object = None

    def add(self, metric: str, seconds: float, items: int = 0):
        self.seconds[metric] = self.seconds.get(metric, 0.0) + seconds
        self.items[metric] = self.items.get(metric, 0) + items


class Clock:
    """Times one top-level call and counts it as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.total_s = 0.0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.total_s += elapsed
        return out, elapsed


def _drain(loader, epoch: int) -> list:
    return list(loader.batches(epoch))


def _order_by_fold(manifest) -> list[int]:
    """Record indices sorted by stratified fold; fixed-size slices of this
    order are near-stratified splits whose sizes do not depend on the seed."""
    return np.lexsort((np.arange(len(manifest)), manifest.folds())).tolist()


def records_held_bytes(records, loaders) -> int:
    """Signal bytes held by the caller's records plus every loader's records."""
    held = {id(r.signal): r.signal.nbytes for r in records}
    for loader in loaders:
        held.update({id(r.signal): r.signal.nbytes for r in loader.records})
    return sum(held.values())


class Workload:
    name = ""
    LOADER_EPOCHS: int       # training epochs drawn from the loader per round

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None):
        self.seed = seed
        self.dir = workdir / "data"
        self.tracer = tracer

    def _generated(self, manifest, records):
        self.manifest = manifest
        self.records_in = records
        self.generated = [r.signal for r in records]
        self.labels = manifest.label_matrix()

    def _loader(self, records, task, filter_spec, training: bool):
        return dataio.BatchLoader(
            records, task, batch_size=BATCH, segment_len=SEGMENT_LEN,
            normalization="zscore", filter_spec=filter_spec, max_len=RECORD_LEN,
            augment=AugmentConfig() if training else None, seed=self.seed,
            training=training)

    def _ingest(self, clock: Clock, r: Round, splits, filter_spec):
        """load_manifest, load_records and one BatchLoader per split."""
        manifest, t1 = clock(dataio.load_manifest, self.dir)
        records, t2 = clock(dataio.load_records, manifest, self.dir)
        loaders, t3 = [], 0.0
        for idx, training in splits:
            loader, t = clock(self._loader, [records[i] for i in idx],
                              manifest.task, filter_spec, training)
            loaders.append(loader)
            t3 += t
        r.add("ingest", t1 + t2 + t3, len(records))
        if self.tracer is not None:
            self.tracer.gauge("dataio.records_held_bytes",
                              records_held_bytes(records, loaders))
        self.loaded = records
        return manifest, loaders

    def _loader_epochs(self, clock: Clock, r: Round, loader):
        for epoch in range(1, self.LOADER_EPOCHS + 1):
            batches, t = clock(_drain, loader, epoch)
            r.add("loader", t, len(loader))
            r.epochs.append(batches)

    def check_round(self, r: Round):
        """Batch checks, after which the round's batches are let go so that
        peak memory does not grow with the number of rounds."""
        for batches in r.epochs:
            checks.check_epoch_batches(batches, self.labels[self.train_idx],
                                       BATCH, SEGMENT_LEN)
        r.epochs = []

    def check(self, rounds: list[Round]):
        checks.check_quantisation([r.signal for r in self.loaded], self.generated,
                                  GAIN)
        checks.check_histories_identical([r.history for r in rounds])


# ---------------------------------------------------------------------------
# ingest


class Ingest(Workload):
    """Files on disk -> filtered, augmented training batches.

    A round's set-up writes 24 records (4 multilabel classes) as WFDB-style
    files. The round then loads them, builds a filtering training loader over
    16 and an evaluation loader over 8, and draws ``LOADER_EPOCHS`` training
    epochs. Every run reports all end-to-end metrics, so a narrow probe
    ResNet (base width 8) also trains two epochs and is evaluated
    ``EVALS`` times; that costs well under a tenth of a round, which the
    bandpass dominates.
    """

    name = "ingest"
    N_CLASSES, PER_CLASS, N_TRAIN = 4, 6, 16
    LOADER_EPOCHS = 32
    EVALS = 4
    PROBE = {"base_width": 8}

    def prepare(self):
        manifest, records = dataio.generate_synthetic_dataset(
            self.N_CLASSES, self.PER_CLASS, TaskKind.MULTILABEL, self.seed,
            fs=FS, length=RECORD_LEN, extra_label_p=0.15, n_folds=3,
            name="synthetic:ingest")
        self._generated(manifest, records)
        order = _order_by_fold(manifest)
        self.train_idx, self.eval_idx = order[:self.N_TRAIN], order[self.N_TRAIN:]
        self.spec = models.ModelSpec("ResNet18_1D", manifest.task, self.PROBE)
        self.filter_spec = FilterSpec(fs=FS)
        self.cfg = learn.OptimizerConfig(lr=2e-4, epochs=2)

    def round(self, clock: Clock, r: Round):
        _, t1 = clock(dataio.save_dataset, self.manifest, self.records_in,
                      self.dir, gain=GAIN)
        model, t2 = clock(models.build, self.spec, self.seed)
        r.add("setup", t1 + t2)
        _, (train, held_out) = self._ingest(
            clock, r, ((self.train_idx, True), (self.eval_idx, False)),
            self.filter_spec)
        self._loader_epochs(clock, r, train)
        result, t = clock(learn.train_model, model, train, held_out,
                          learn.focal_loss, self.cfg)
        r.add("train", t, len(train) * self.cfg.epochs)
        r.history = result.history
        for _ in range(self.EVALS):
            _, t = clock(learn.evaluate, model, held_out)
            r.add("eval", t, len(held_out))
        self.loaders = train, held_out

    def check(self, rounds: list[Round]):
        super().check(rounds)
        train, held_out = self.loaders
        order = self.train_idx + self.eval_idx
        filtered = [r.signal for r in train.records + held_out.records]
        spec = self.filter_spec
        checks.check_filtered(filtered, [self.loaded[i].signal for i in order],
                              FS, spec.low_cut, spec.high_cut, spec.order)
        checks.check_signatures(filtered, self.labels[order], FS,
                                [class_frequency(c) for c in range(self.N_CLASSES)])


# ---------------------------------------------------------------------------
# model workloads


class ModelWorkload(Workload):
    """Set-up (records on disk -> loaders, plus a model), then loader epochs,
    one training epoch and one held-out evaluation per round."""

    LOADER_EPOCHS = 8

    def round(self, clock: Clock, r: Round):
        t0 = clock.total_s
        manifest, (train, val, test) = self._ingest(
            clock, r, ((self.train_idx, True), (self.val_idx, False),
                       (self.test_idx, False)), None)
        self.model = self.make_model(clock, manifest.task)
        r.add("setup", clock.total_s - t0)
        self._loader_epochs(clock, r, train)
        result, t = clock(self.train_fn, self.model, train, val,
                          learn.focal_loss, self.cfg)
        r.add("train", t, len(train) * self.cfg.epochs)
        r.history = result.history
        r.report, t = clock(learn.evaluate, self.model, test)
        r.add("eval", t, len(test))
        self.test = test

    def check(self, rounds: list[Round]):
        super().check(rounds)
        self.model.eval_mode()
        with no_grad():
            logits = np.concatenate([self.model.forward(xb).data
                                     for xb, _ in self.test.batches()])
        checks.check_report(rounds[-1].report, logits, self.labels[self.test_idx])
        self.check_gradient()

    def check_gradient(self):
        """Float64 copy of the trained model; loss gradient along a random
        direction against a central difference, on a small batch."""
        m64 = models.build(self.model.spec, self.seed, dtype=np.float64)
        m64.load_state_dict(self.model.state_dict())
        m64.train_mode()
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal(GRADCHECK_SHAPE)
        y = (rng.random((GRADCHECK_SHAPE[0], self.model.spec.k)) < 0.5).astype(
            np.float64)
        params = m64.trainable_parameters()

        def loss_at():
            return float(learn.focal_loss(m64.forward(x), y).data)

        loss = learn.focal_loss(m64.forward(x), y)
        m64.zero_grad()
        loss.backward()
        grads = {n: p.grad.copy() for n, p in params.items()}
        checks.check_directional_derivative(loss_at, params, grads, self.seed)


class PretrainResnet(ModelWorkload):
    """ResNet18_1D (base width 64) on a PTB-XL-shaped multilabel set.

    80 records: 5 classes x 16, each record also carrying any other class with
    probability 0.1. Split by stratified fold into 32 train, 16 validation
    and 32 test records. Focal loss, Adam lr 2e-4, one epoch per round,
    filter off, default augmentation on the training loader.
    """

    name = "pretrain-resnet"
    N_CLASSES, PER_CLASS = 5, 16
    N_TRAIN, N_VAL = 32, 16

    def prepare(self):
        manifest, records = dataio.generate_synthetic_dataset(
            self.N_CLASSES, self.PER_CLASS, TaskKind.MULTILABEL, self.seed,
            fs=FS, length=RECORD_LEN, extra_label_p=0.1,
            name="synthetic:ptbxl-shaped")
        dataio.save_dataset(manifest, records, self.dir, gain=GAIN)
        self._generated(manifest, records)
        order = _order_by_fold(manifest)
        cut = self.N_TRAIN + self.N_VAL
        self.train_idx, self.val_idx = order[:self.N_TRAIN], order[self.N_TRAIN:cut]
        self.test_idx = order[cut:]
        self.spec = models.ModelSpec("ResNet18_1D", manifest.task)
        self.cfg = learn.OptimizerConfig(lr=2e-4, epochs=1)
        self.train_fn = learn.train_model

    def make_model(self, clock: Clock, task):
        model, _ = clock(models.build, self.spec, self.seed)
        return model


class FinetunePeCrnn(ModelWorkload):
    """CRNN_GRU (default sizes) transferred to a PE-shaped imbalanced set.

    The source checkpoint is a seeded CRNN_GRU for a 9-class multiclass task
    (CPSC18-shaped). The target is binary, about the 1:8 imbalance of the
    paper's PE cohort: 72 training records (9 positive) stratified over
    folds 1-9, each fold 1 positive and 7 negative, and a held-out test fold
    of 32 (4 positive). Folds 1-4 train (32 records, one batch), fold 9
    validates and fold 10 tests; only these are written. ``adapt_head``
    swaps in a new head; ``finetune`` trains all weights for one epoch per
    round with focal loss, Adam lr 5e-4, filter off.
    """

    name = "finetune-pe-crnn"
    SOURCE_CLASSES = 9
    TRAIN_POS, TRAIN_NEG, TEST_POS, TEST_NEG = 9, 63, 4, 28
    TRAIN_FOLDS, VAL_FOLD, TEST_FOLD = (1, 2, 3, 4), 9, 10

    def prepare(self):
        manifest, records = dataio.generate_imbalanced_binary(
            self.TRAIN_POS, self.TRAIN_NEG, self.TEST_POS, self.TEST_NEG,
            self.seed, fs=FS, length=RECORD_LEN)
        used = self.TRAIN_FOLDS + (self.VAL_FOLD, self.TEST_FOLD)
        keep = [i for i, row in enumerate(manifest.rows) if row.fold in used]
        manifest = dataio.DatasetManifest(manifest.name, manifest.fs, manifest.task,
                                          [manifest.rows[i] for i in keep])
        records = [records[i] for i in keep]
        dataio.save_dataset(manifest, records, self.dir, gain=GAIN)
        self._generated(manifest, records)
        folds = manifest.folds()
        self.train_idx = np.flatnonzero(np.isin(folds, self.TRAIN_FOLDS)).tolist()
        self.val_idx = np.flatnonzero(folds == self.VAL_FOLD).tolist()
        self.test_idx = np.flatnonzero(folds == self.TEST_FOLD).tolist()
        source_task = TaskSpec(kind=TaskKind.MULTICLASS, classes=tuple(
            f"src{j}" for j in range(self.SOURCE_CLASSES)))
        source = models.build(models.ModelSpec("CRNN_GRU", source_task),
                              self.seed + 1)
        self.checkpoint_path = self.dir / "source.ckpt"
        transfer.save_checkpoint(source, {"source": "synthetic:cpsc18-shaped"},
                                 self.checkpoint_path)
        self.cfg = learn.OptimizerConfig(lr=5e-4, epochs=1)

    def train_fn(self, model, train, val, loss_fn, cfg):
        return transfer.finetune(model, transfer.FineTuneMode.ALL_WEIGHTS,
                                 train, val, loss_fn, cfg)

    def make_model(self, clock: Clock, task):
        ckpt, _ = clock(transfer.load_checkpoint, self.checkpoint_path)
        model, _ = clock(transfer.adapt_head, ckpt, task, self.seed)
        self.checkpoint, self.adapted = ckpt, model.state_dict()
        return model

    def check(self, rounds: list[Round]):
        checks.check_backbone_preserved(self.checkpoint.tensors, self.adapted,
                                        self.model.head_prefix)
        super().check(rounds)


WORKLOADS = {w.name: w for w in (Ingest, PretrainResnet, FinetunePeCrnn)}


# ---------------------------------------------------------------------------
# running


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload and check its outputs.

    Returns the attempted operation count, the metrics ({name: (value, unit)},
    end-to-end untraced or per-layer traced) and the tracer, if any. A traced
    run alternates untraced and traced rounds; the gap between the two is the
    tracing overhead.
    """
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](seed, workdir, tracer)
    clock = Clock()
    workload.prepare()
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS + 1 or time.perf_counter() < deadline:
        r = Round(traced=tracer is not None and len(rounds) > 0
                  and len(rounds) % 2 == 0)
        start = clock.total_s
        if r.traced:
            with tracer.round():
                workload.round(clock, r)
        else:
            workload.round(clock, r)
        r.wall_s = clock.total_s - start
        workload.check_round(r)
        print(f"round {len(rounds)}: " + " ".join(
            f"{m} {s:.4f}s" for m, s in r.seconds.items())
            + (" (traced)" if r.traced else ""), file=sys.stderr)
        rounds.append(r)
    workload.check(rounds)
    rounds = rounds[1:]

    untraced = [r for r in rounds if not r.traced]
    if tracer is not None:
        overhead = (statistics.median(r.wall_s for r in rounds if r.traced)
                    / statistics.median(r.wall_s for r in untraced) - 1.0)
        return clock.attempted, tracer.layer_metrics(100.0 * overhead), tracer

    def rate(metric):
        return statistics.median(r.items[metric] / r.seconds[metric]
                                 for r in untraced)

    values = {
        "setup_s": statistics.median(r.seconds["setup"] for r in untraced),
        "ingest_records_per_s": rate("ingest"),
        "loader_records_per_s": rate("loader"),
        "train_samples_per_s": rate("train"),
        "eval_samples_per_s": rate("eval"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return clock.attempted, metrics, tracer
