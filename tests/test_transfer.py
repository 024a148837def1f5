"""Checkpoint round-trips, head adaptation, and freeze semantics."""

import json

import numpy as np
import pytest

import ecglearn.transfer as transfer
from ecglearn.dataio import (BatchLoader, TaskKind, TaskSpec,
                             generate_synthetic_dataset)
from ecglearn.errors import CheckpointError
from ecglearn.learn import OptimizerConfig, focal_loss
from ecglearn.models import ModelSpec, build
from ecglearn.tensor import Tensor
from ecglearn.transfer import (Checkpoint, FineTuneMode, adapt_head, finetune,
                               load_checkpoint, save_checkpoint, tensor_hashes)

TASK5 = TaskSpec(TaskKind.MULTILABEL, tuple(f"c{i}" for i in range(5)))
TASK1 = TaskSpec(TaskKind.BINARY, ("positive",))

SMALL = {"base_width": 4}
SMALL_CRNN = {"base_width": 4, "hidden_size": 8, "num_layers": 1}


def trained_small_model(arch="ResNet18_1D", hp=None, task=TASK5, seed=0,
                        dtype=np.float32):
    """Build and run one forward pass so batchnorm stats are populated."""
    model = build(ModelSpec(arch, task, hp or SMALL), seed=seed, dtype=dtype)
    model.train_mode()
    x = np.random.default_rng(seed).normal(size=(4, 12, 64)).astype(dtype)
    model.forward(Tensor(x))
    return model


def rewrite_tensor_table(path, edit):
    """Re-encode a checkpoint's tensor table and data section after
    ``edit(tensors)``; the rest of the header, fingerprint included, stays."""
    raw = path.read_bytes()
    header = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
    tensors = load_checkpoint(path).tensors
    edit(tensors)
    table, blocks, offset = [], [], 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        table.append({"name": name, "shape": list(arr.shape), "dtype": "<f4",
                      "offset": offset, "nbytes": arr.nbytes})
        blocks.append(arr.tobytes())
        offset += arr.nbytes
    header["tensors"] = table
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                     + b"".join(blocks))


def rewrite_header(path, edit):
    """Re-encode a checkpoint's JSON header as ``edit(header)``; the data
    section stays."""
    raw = path.read_bytes()
    end = 16 + int.from_bytes(raw[8:16], "little")
    blob = json.dumps(edit(json.loads(raw[16:end]))).encode("utf-8")
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[end:])


def without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def each_tensor(edit):
    return lambda header: {**header,
                           "tensors": [edit(dict(t)) for t in header["tensors"]]}


def swapped_offsets(header):
    """bn1's beta and gamma (16 B each) trade data offsets."""
    table = {t["name"]: dict(t) for t in header["tensors"]}
    beta, gamma = (table[f"backbone.resnet.bn1.{n}"] for n in ("beta", "gamma"))
    beta["offset"], gamma["offset"] = gamma["offset"], beta["offset"]
    return {**header, "tensors": list(table.values())}


def shifted_first_offset(header):
    """The first tensor starts one float32 late, still inside the data."""
    first, *rest = header["tensors"]
    return {**header, "tensors": [{**first, "offset": first["offset"] + 4}, *rest]}


# headers that are valid JSON but not a checkpoint header
MALFORMED_CKPT_HEADERS = {
    "list": list,
    "string": lambda header: "header",
    **{f"no-{key}": without(key)
       for key in ("version", "spec", "fingerprint", "tensors")},
    "spec-list": lambda header: {**header, "spec": []},
    "spec-no-task": lambda header: {**header, "spec": without("task")(header["spec"])},
    "tensors-int": lambda header: {**header, "tensors": 5},
    "tensor-no-nbytes": each_tensor(without("nbytes")),
    "tensor-bad-dtype": each_tensor(lambda t: {**t, "dtype": "<i9"}),
    "tensor-zero-size-dtype": each_tensor(lambda t: {**t, "dtype": "S0"}),
    "tensor-dtype-syntax": each_tensor(lambda t: {**t, "dtype": "04<f4"}),
    "tensor-int-dtype": each_tensor(lambda t: {**t, "dtype": "<i4"}),
    "tensor-big-endian-dtype": each_tensor(lambda t: {**t, "dtype": ">f4"}),
    "tensor-shape-vs-nbytes": each_tensor(lambda t: {**t, "shape": t["shape"] + [3]}),
    "tensor-offsets-swapped": swapped_offsets,
    "tensor-offset-shifted": shifted_first_offset,
    "seed-string": lambda header: {**header, "seed": "x"},
    "seed-negative": lambda header: {**header, "seed": -3},
    "seed-fraction": lambda header: {**header, "seed": 1.5},
    "provenance-list": lambda header: {**header, "provenance": ["PTB-XL"]},
}

# tensor-table edits that leave the file well formed but do not fit the
# architecture: (edit, what the error names)
MISMATCHED_TENSOR_TABLES = {
    "missing": (lambda t: t.pop("head.bias"), r"missing=\['head.bias'\]"),
    "extra": (lambda t: t.update({"backbone.extra": np.zeros(3, np.float32)}),
              r"unexpected=\['backbone.extra'\]"),
    "wrong-shape": (lambda t: t.update({"head.weight": t["head.weight"].T}),
                    r"'head.weight'.*shape"),
    "backbone-wrong-shape": (
        lambda t: t.update({"backbone.resnet.bn1.gamma":
                            t["backbone.resnet.bn1.gamma"][:-1]}),
        r"'backbone.resnet.bn1.gamma'.*shape"),
}
# adapt_head reads every name and every backbone shape, but no head shape
ADAPT_HEAD_REFUSES = ("missing", "extra", "backbone-wrong-shape")


def mismatched_checkpoint(path, case):
    """Save a small model to ``path`` with its table edited as ``case``."""
    save_checkpoint(trained_small_model(), {"source": "none"}, path)
    rewrite_tensor_table(path, MISMATCHED_TENSOR_TABLES[case][0])
    return path


class TestCheckpointRoundtrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_roundtrip(self, tmp_path, dtype):
        model = trained_small_model(dtype=dtype)
        save_checkpoint(model, {"source": "none"}, tmp_path / "m.ckpt")
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        state = model.state_dict()
        assert set(ckpt.tensors) == set(state)
        for name, arr in state.items():
            assert np.array_equal(ckpt.tensors[name], arr), name
        restored = ckpt.to_model()
        for name, arr in restored.state_dict().items():
            assert arr.dtype == dtype, name
            assert arr.tobytes() == state[name].tobytes(), name

    def test_truncated_file_rejected(self, tmp_path):
        model = trained_small_model()
        path = save_checkpoint(model, {"source": "none"}, tmp_path / "m.ckpt")
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_provenance_retrievable(self, tmp_path):
        model = trained_small_model()
        prov = {"source": "PTB-XL", "epochs": 12, "val_f1": 0.71}
        save_checkpoint(model, prov, tmp_path / "m.ckpt")
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        assert ckpt.provenance == prov

    def test_unknown_source_rejected(self, tmp_path):
        model = trained_small_model()
        with pytest.raises(CheckpointError, match="not recognized"):
            save_checkpoint(model, {"source": "mystery"}, tmp_path / "m.ckpt")

    def test_fingerprint_tamper_detected(self, tmp_path):
        model = trained_small_model()
        path = save_checkpoint(model, {"source": "none"}, tmp_path / "m.ckpt")
        raw = path.read_bytes()
        # flip a hyperparameter inside the JSON header; same length, so only
        # the fingerprint check can catch it
        needle = b'"base_width": 4'
        assert needle in raw
        path.write_bytes(raw.replace(needle, b'"base_width": 8', 1))
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(MISMATCHED_TENSOR_TABLES))
    def test_tensor_table_must_match_description(self, tmp_path, case):
        ckpt = load_checkpoint(mismatched_checkpoint(tmp_path / "m.ckpt", case))
        message = r"m\.ckpt: .*" + MISMATCHED_TENSOR_TABLES[case][1]
        with pytest.raises(CheckpointError, match=message):
            ckpt.to_model()
        if case not in ADAPT_HEAD_REFUSES:
            adapt_head(ckpt, TASK1, seed=1)     # the old head is not read
            return
        with pytest.raises(CheckpointError, match=message):
            adapt_head(ckpt, TASK1, seed=1)

    def test_load_builds_nothing_and_each_model_builds_once(self, tmp_path,
                                                            monkeypatch):
        path = save_checkpoint(trained_small_model(), {"source": "none"},
                               tmp_path / "m.ckpt")
        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(transfer, "build", counting_build)
        ckpt = load_checkpoint(path)
        assert len(calls) == 0
        ckpt.to_model()
        assert len(calls) == 1
        adapt_head(ckpt, TASK1, seed=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_CKPT_HEADERS))
    def test_malformed_header_is_checkpoint_error(self, tmp_path, case):
        path = save_checkpoint(trained_small_model(), {"source": "none"},
                               tmp_path / "m.ckpt")
        rewrite_header(path, MALFORMED_CKPT_HEADERS[case])
        with pytest.raises(CheckpointError, match=r"m\.ckpt: corrupt header"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        (tmp_path / "junk.ckpt").write_bytes(b"hello world, definitely ecg")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(tmp_path / "junk.ckpt")


class TestAdaptHead:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backbone_preserved_bitwise_head_fresh(self, tmp_path, dtype):
        model = trained_small_model(task=TASK5, seed=3, dtype=dtype)
        save_checkpoint(model, {"source": "synthetic:unit"}, tmp_path / "m.ckpt")
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        adapted = adapt_head(ckpt, TASK1, seed=99)
        old = model.state_dict()
        new = adapted.state_dict()
        for name, arr in new.items():
            if name.startswith("head."):
                continue
            assert arr.dtype == dtype, name
            assert arr.tobytes() == old[name].tobytes(), name
        assert new["head.weight"].shape == (32, 1)

    def test_same_k_still_reinitializes_head(self, tmp_path):
        model = trained_small_model(task=TASK5, seed=4)
        # make the trained head clearly distinct from any fresh init
        model.named_parameters()["head.weight"].data[...] = 7.0
        save_checkpoint(model, {"source": "none"}, tmp_path / "m.ckpt")
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        adapted = adapt_head(ckpt, TASK5, seed=4)
        fresh = build(ModelSpec("ResNet18_1D", TASK5, SMALL), seed=4)
        assert np.array_equal(adapted.state_dict()["head.weight"],
                              fresh.state_dict()["head.weight"])
        assert not np.any(adapted.state_dict()["head.weight"] == 7.0)

    def test_adapt_then_save_equals_save_then_adapt(self, tmp_path):
        model = trained_small_model(task=TASK5, seed=5)
        save_checkpoint(model, {"source": "none"}, tmp_path / "a.ckpt")
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        adapted = adapt_head(ckpt, TASK1, seed=11)
        save_checkpoint(adapted, {"source": "none"}, tmp_path / "b.ckpt")
        reloaded = load_checkpoint(tmp_path / "b.ckpt")
        direct = adapt_head(ckpt, TASK1, seed=11).state_dict()
        for name, arr in reloaded.tensors.items():
            assert np.array_equal(arr, direct[name]), name

    def test_crnn_head_swap_shape(self, tmp_path):
        model = trained_small_model("CRNN_GRU", SMALL_CRNN, TASK5, seed=6)
        save_checkpoint(model, {"source": "none"}, tmp_path / "m.ckpt")
        adapted = adapt_head(load_checkpoint(tmp_path / "m.ckpt"), TASK1, seed=7)
        out = adapted.forward(np.zeros((3, 12, 64), dtype=np.float32))
        assert out.shape == (3, 1)


class TestFinetuneFreeze:
    def make_loaders(self, task_seed=31):
        manifest, records = generate_synthetic_dataset(
            2, 12, TaskKind.BINARY, seed=task_seed, length=500, n_folds=4)
        train = BatchLoader(records, manifest.task, batch_size=8, segment_len=96,
                            seed=1, training=True)
        val = BatchLoader(records, manifest.task, batch_size=8, segment_len=96,
                          seed=1, training=False)
        return train, val

    def test_head_only_changes_exactly_the_head_set(self):
        train, val = self.make_loaders()
        model = build(ModelSpec("ResNet18_1D", train.task, SMALL), seed=8)
        # emulate a pretrained backbone: frozen batchnorm needs running stats
        model.train_mode()
        for xb, _ in val.batches():
            model.forward(Tensor(xb))
        before = model.state_dict()
        cfg = OptimizerConfig(lr=1e-3, batch_size=8, epochs=3, patience=10)
        finetune(model, FineTuneMode.HEAD_ONLY, train, val, focal_loss, cfg)
        after = model.state_dict()
        changed = {n for n in before if not np.array_equal(before[n], after[n])}
        assert changed == {"head.weight", "head.bias"}

    def test_all_weights_changes_backbone(self):
        train, val = self.make_loaders()
        model = build(ModelSpec("ResNet18_1D", train.task, SMALL), seed=9)
        before = model.state_dict()
        cfg = OptimizerConfig(lr=1e-3, batch_size=8, epochs=1, patience=10)
        finetune(model, FineTuneMode.ALL_WEIGHTS, train, val, focal_loss, cfg)
        after = model.state_dict()
        backbone_changed = [n for n in before if n.startswith("backbone.")
                            and not np.array_equal(before[n], after[n])]
        assert backbone_changed

    def test_hash_helper_detects_changes(self):
        model = trained_small_model(seed=10)
        h1 = tensor_hashes(model.state_dict())
        model.named_parameters()["head.bias"].data[...] += 1.0
        h2 = tensor_hashes(model.state_dict())
        diff = {n for n in h1 if h1[n] != h2[n]}
        assert diff == {"head.bias"}
