"""The benchmark's tracer patches public names of the package by their
dotted location; renaming or moving one of them must fail here, not only
when the benchmark runs."""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def test_round_patches_every_name_and_restores_it(tracer_module):
    import ecglearn.dataio.batches as batches
    from ecglearn.dataio import LabelVector, TaskKind, TaskSpec
    from ecglearn.signal import EcgRecord, FilterSpec

    task = TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
    records = [EcgRecord(np.random.default_rng(i).normal(size=(12, n)), 500.0,
                         id=f"r{i}", labels=LabelVector(task, np.array([i % 2])))
               for i, n in enumerate((300, 300, 200))]

    tracer = tracer_module.Tracer()
    with tracer.round():     # every patched name resolved, or this raises
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
        assert any(owner is batches and attr == "butterworth_bandpass"
                   for owner, attr, _ in patched)
        batches.BatchLoader(records, task, batch_size=2, segment_len=128,
                            filter_spec=FilterSpec(fs=500.0))
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    # one loader, one bandpass call over all of its records
    assert tracer.stats["dataio.loader_build"][0] == 1
    assert tracer.stats["signal.bandpass"][0] == 1


def assert_step_reaches(tracer_module, arch, hp, want):
    """A traced training step of ``arch`` makes the ``want`` forward calls
    per op, and reaches each op's backward."""
    import ecglearn.models as models
    from ecglearn.dataio import TaskKind, TaskSpec
    from ecglearn.learn import focal_loss

    spec = models.ModelSpec(arch, TaskSpec(TaskKind.BINARY, ("positive",)), hp)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 12, 256)).astype(np.float32)
    y = np.array([[1.0], [0.0]], dtype=np.float32)
    tracer = tracer_module.Tracer()
    with tracer.round():
        model = models.build(spec, seed=0).train_mode()
        loss = focal_loss(model.forward(x), y)
        model.zero_grad()
        loss.backward()
    assert {op: tracer.stats[f"tensor.{op}.fwd"][0] for op in want} == want
    assert all(tracer.stats[f"tensor.{op}.bwd"][0] for op in want)


def test_traced_step_reaches_every_layer_op(tracer_module):
    """A layer that binds its op at import time escapes the patch on
    ``functional`` and reads fewer calls here. The ResNet's relus run
    inside its batchnorms, so it calls no ``F.relu``."""
    assert_step_reaches(tracer_module, "ResNet18_1D", {"base_width": 8},
                        {"conv1d": 20, "batchnorm": 20, "maxpool1d": 1,
                         "global_avg_pool1d": 1, "linear": 1})


def test_traced_vgg_step_reaches_relu(tracer_module):
    """VGG11bn1D keeps its ``ReLU`` modules, so relu stays covered."""
    assert_step_reaches(tracer_module, "VGG11bn1D", {"width": 4},
                        {"conv1d": 8, "batchnorm": 8, "relu": 8, "maxpool1d": 5})


def test_traced_checkpoint_load_and_adapt_build_once(tracer_module, tmp_path):
    """A build bound at import time escapes the patch on ``transfer.build``
    and reads no span here; a second build reads two."""
    import ecglearn.transfer as transfer
    from ecglearn.dataio import TaskKind, TaskSpec
    from ecglearn.models import ModelSpec, build

    spec = ModelSpec("CRNN_GRU", TaskSpec(TaskKind.MULTILABEL, ("a", "b", "c")),
                     {"base_width": 4, "hidden_size": 8, "num_layers": 1})
    path = transfer.save_checkpoint(build(spec, seed=0), {"source": "none"},
                                    tmp_path / "m.ckpt")
    tracer = tracer_module.Tracer()
    with tracer.round():
        ckpt = transfer.load_checkpoint(path)
        transfer.adapt_head(ckpt, TaskSpec(TaskKind.BINARY, ("positive",)), 1)
    assert tracer.stats["transfer.load_checkpoint"][0] == 1
    assert tracer.stats["transfer.adapt_head"][0] == 1
    assert tracer.stats["models.build"][0] == 1
