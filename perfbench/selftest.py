"""Self-test of the benchmark harness at toy sizes; runs in seconds.

Every output check in checks.py must accept the program's real output and
reject a deliberately corrupted copy of it. Tracing must leave the numbers a
run computes unchanged, and the metric names the harness reports must match
BENCHMARK.json. Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import ecglearn.dataio as dataio  # noqa: E402
import ecglearn.learn as learn  # noqa: E402
import ecglearn.models as models  # noqa: E402
import ecglearn.transfer as transfer  # noqa: E402
from checks import CheckFailed  # noqa: E402
from ecglearn.augment import AugmentConfig  # noqa: E402
from ecglearn.dataio import TaskKind, class_frequency  # noqa: E402
from ecglearn.signal import FilterSpec, butterworth_bandpass  # noqa: E402
from ecglearn.tensor import no_grad  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import END_TO_END  # noqa: E402

FS, LENGTH, SEGMENT, GAIN, SEED = 500.0, 1000, 256, 200.0, 7
# 12 records, 6 per class in class order: both classes in both splits
TRAIN_IDX, TEST_IDX = [0, 1, 2, 3, 6, 7, 8, 9], [4, 5, 10, 11]
TMP = ROOT / ".perfbench" / f"selftest-{os.getpid()}"


def expect(name: str, good, bad):
    """``good()`` must pass and ``bad()`` must raise CheckFailed."""
    good()
    try:
        bad()
    except CheckFailed as e:
        print(f"ok   {name}: rejected corrupted output ({e})")
        return
    raise SystemExit(f"FAIL {name}: corrupted output was accepted")


def toy_data():
    manifest, records = dataio.generate_synthetic_dataset(
        2, 6, TaskKind.MULTILABEL, SEED, fs=FS, length=LENGTH, n_folds=3)
    return manifest, records


def toy_loaders(manifest, records):
    train = dataio.BatchLoader([records[i] for i in TRAIN_IDX], manifest.task,
                               batch_size=4, segment_len=SEGMENT,
                               augment=AugmentConfig(), seed=SEED, training=True)
    test = dataio.BatchLoader([records[i] for i in TEST_IDX], manifest.task,
                              batch_size=4, segment_len=SEGMENT, seed=SEED)
    return train, test


def data_cases(manifest, records):
    labels = manifest.label_matrix()
    filtered = [butterworth_bandpass(r, FilterSpec(fs=FS)).signal for r in records]
    raw = [r.signal for r in records]
    spec = FilterSpec(fs=FS)

    def filt(ys):
        return lambda: checks.check_filtered(ys, raw, FS, spec.low_cut,
                                             spec.high_cut, spec.order)

    perturbed = [y.copy() for y in filtered]
    perturbed[2][5, 400] += 1e-6
    expect("filter vs scipy", filt(filtered), filt(perturbed))

    dataio.save_dataset(manifest, records, TMP, gain=GAIN)
    loaded = [r.signal for r in dataio.load_records(dataio.load_manifest(TMP), TMP)]
    off_by_one_step = [x.copy() for x in loaded]
    off_by_one_step[1][0, 10] += 1.0 / GAIN
    expect("quantisation",
           lambda: checks.check_quantisation(loaded, raw, GAIN),
           lambda: checks.check_quantisation(off_by_one_step, raw, GAIN))

    freqs = [class_frequency(c) for c in range(labels.shape[1])]
    expect("signature lines",
           lambda: checks.check_signatures(filtered, labels, FS, freqs),
           lambda: checks.check_signatures(filtered, 1 - labels, FS, freqs))

    train, _ = toy_loaders(manifest, records)
    batches = list(train.batches(1))
    flipped = [(x, y.copy()) for x, y in batches]
    flipped[0][1][0, 0] = 1 - flipped[0][1][0, 0]
    as_float64 = [(x.astype(np.float64), y) for x, y in batches]
    with_nan = [(x.copy(), y) for x, y in batches]
    with_nan[1][0][0, 0, 0] = np.nan
    for what, bad in (("targets", flipped), ("dtype", as_float64),
                      ("finite", with_nan)):
        expect(f"epoch batches ({what})",
               lambda: checks.check_epoch_batches(batches, labels[TRAIN_IDX], 4,
                                                  SEGMENT),
               lambda b=bad: checks.check_epoch_batches(b, labels[TRAIN_IDX], 4,
                                                        SEGMENT))


def gradient_case(arch: str, hp: dict, task):
    model = models.build(models.ModelSpec(arch, task, hp), SEED, dtype=np.float64)
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((2, 12, 64))
    y = np.eye(task.k)[[0, 1]]
    params = model.trainable_parameters()

    def loss_at():
        return float(learn.focal_loss(model.forward(x), y).data)

    loss = learn.focal_loss(model.forward(x), y)
    model.zero_grad()
    loss.backward()
    grads = {n: p.grad.copy() for n, p in params.items()}
    scaled = {n: 1.001 * g for n, g in grads.items()}
    expect(f"directional derivative ({arch})",
           lambda: checks.check_directional_derivative(loss_at, params, grads, SEED),
           lambda: checks.check_directional_derivative(loss_at, params, scaled, SEED))


def model_cases(manifest, records):
    task = manifest.task
    gradient_case("ResNet18_1D", {"base_width": 4}, task)
    gradient_case("CRNN_GRU", {"base_width": 4, "hidden_size": 8}, task)

    spec = models.ModelSpec("ResNet18_1D", task, {"base_width": 4})
    train, test = toy_loaders(manifest, records)
    cfg = learn.OptimizerConfig(lr=1e-3, epochs=2)

    def fit(tracer=None):
        model = models.build(spec, SEED)
        if tracer is None:
            return model, learn.train_model(model, train, test, learn.focal_loss, cfg)
        with tracer.round():
            return model, learn.train_model(model, train, test, learn.focal_loss,
                                            cfg)

    model, first = fit()
    _, again = fit()
    tracer = Tracer()
    _, traced = fit(tracer)
    checks.check_histories_identical([first.history, traced.history])
    if not tracer.graph_nodes or tracer.stats["tensor.conv1d.fwd"][0] == 0:
        raise SystemExit("FAIL tracer: a traced training run recorded no spans")
    print("ok   tracing leaves the loss history bit-identical")
    altered = [dict(row) for row in again.history]
    altered[0]["train_loss"] = np.nextafter(altered[0]["train_loss"], 1.0)
    expect("loss history repeats",
           lambda: checks.check_histories_identical([first.history, again.history]),
           lambda: checks.check_histories_identical([first.history, altered]))

    report = learn.evaluate(model, test)
    model.eval_mode()
    with no_grad():
        logits = np.concatenate([model.forward(xb).data for xb, _ in test.batches()])
    targets = manifest.label_matrix()[TEST_IDX]
    for metric in ("f1", "auc"):
        off = dataclasses.replace(report, **{metric: getattr(report, metric) + 1e-9})
        expect(f"evaluate {metric} vs brute force",
               lambda: checks.check_report(report, logits, targets),
               lambda o=off: checks.check_report(o, logits, targets))

    source = models.build(models.ModelSpec(
        "CRNN_GRU", task, {"base_width": 4, "hidden_size": 8}), SEED)
    path = transfer.save_checkpoint(source, {"source": "synthetic:selftest"},
                                    TMP / "source.ckpt")
    ckpt = transfer.load_checkpoint(path)
    binary = dataio.TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
    adapted = transfer.adapt_head(ckpt, binary, SEED + 1).state_dict()
    swapped = dict(adapted)
    a, b = (f"backbone.resnet.layer1_0.{conv}.weight" for conv in ("conv1", "conv2"))
    swapped[a], swapped[b] = adapted[b], adapted[a]
    expect("backbone preserved by adapt_head",
           lambda: checks.check_backbone_preserved(ckpt.tensors, adapted, "head."),
           lambda: checks.check_backbone_preserved(ckpt.tensors, swapped, "head."))


def metric_names_case():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {n: u for n, (_, u) in Tracer().layer_metrics(0.0).items()}
    for kind, reported in (("end_to_end", END_TO_END), ("per_layer", layer)):
        listed = {m["name"]: m["unit"] for m in declared[kind]}
        if listed != reported:
            raise SystemExit(f"FAIL {kind} metrics differ from BENCHMARK.json: "
                             f"{sorted(set(listed.items()) ^ set(reported.items()))}")
    print("ok   reported metric names and units match BENCHMARK.json")


def main() -> int:
    manifest, records = toy_data()
    try:
        data_cases(manifest, records)
        model_cases(manifest, records)
        metric_names_case()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("selftest: all cases hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
