"""Architecture construction: shapes, determinism, summaries, errors."""

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ecglearn.dataio import TaskKind, TaskSpec
from ecglearn.errors import ModelError, ShapeError
from ecglearn.models import (ARCHITECTURE_NAMES, Model, ModelSpec, build,
                             summarize_parameters)
from ecglearn.models.architectures import _BUILDERS, _MIN_INPUT_LEN
from ecglearn.learn import focal_loss
from ecglearn.tensor import Tensor, functional as F, gradcheck
from ecglearn.transfer import tensor_hashes
from oracles import (oracle_batchnorm, oracle_conv1d, oracle_conv1d_grads,
                     oracle_layernorm, oracle_maxpool1d, oracle_maxpool1d_grad,
                     oracle_relu)

TASK5 = TaskSpec(TaskKind.MULTILABEL, tuple(f"c{i}" for i in range(5)))
TASK9 = TaskSpec(TaskKind.MULTILABEL, tuple(f"c{i}" for i in range(9)))
TASK1 = TaskSpec(TaskKind.BINARY, ("positive",))

SMALL_HP = {
    "AlexNet1D": {"width": 8},
    "VGG11bn1D": {"width": 4},
    "ResNet18_1D": {"base_width": 4},
    "EEGNet2D": {"f1": 2, "depth_mult": 2, "f2": 4, "kern_length": 17},
    "CRNN_LSTM": {"base_width": 4, "hidden_size": 8, "num_layers": 1},
    "CRNN_GRU": {"base_width": 4, "hidden_size": 8, "num_layers": 1},
    "AttResNet": {"base_width": 4, "embed_dim": 32, "num_heads": 2},
    "TransformerEnc": {"embed_dim": 16, "num_heads": 2, "num_layers": 1,
                       "ffn_dim": 32, "max_tokens": 64},
    "ResTransformer": {"base_width": 4, "embed_dim": 32, "num_heads": 2,
                       "num_layers": 1, "ffn_dim": 64, "max_tokens": 64},
}


class TestHeadShapes:
    def test_resnet_five_label_head(self):
        model = build(ModelSpec("ResNet18_1D", TASK5), seed=0)
        out = model.forward(np.zeros((2, 12, 2048), dtype=np.float32))
        assert out.shape == (2, 5)

    def test_crnn_binary_head(self):
        model = build(ModelSpec("CRNN_GRU", TASK1,
                                {"base_width": 8, "hidden_size": 16}), seed=0)
        out = model.forward(np.zeros((1, 12, 2048), dtype=np.float32))
        assert out.shape == (1, 1)

    def test_transformer_nine_label_head(self):
        model = build(ModelSpec("TransformerEnc", TASK9,
                                {"embed_dim": 32, "num_heads": 2, "num_layers": 1,
                                 "ffn_dim": 64, "max_tokens": 300}), seed=0)
        out = model.forward(np.zeros((2, 12, 2048), dtype=np.float32))
        assert out.shape == (2, 9)

    @pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
    def test_all_architectures_emit_logits(self, arch):
        model = build(ModelSpec(arch, TASK5, SMALL_HP[arch]), seed=3)
        out = model.forward(np.random.default_rng(0)
                            .normal(size=(2, 12, 128)).astype(np.float32))
        assert out.shape == (2, 5)
        assert np.all(np.isfinite(out.data))


class TestForwardContracts:
    def test_eval_forward_deterministic(self):
        model = build(ModelSpec("AlexNet1D", TASK5, {"width": 8}), seed=1)
        # populate norm-free alexnet is stateless; eval twice must match bitwise
        x = np.random.default_rng(1).normal(size=(2, 12, 128)).astype(np.float32)
        model.eval_mode()
        a = model.forward(x).data
        b = model.forward(x).data
        assert np.array_equal(a, b)

    def test_train_dropout_varies_eval_does_not(self):
        model = build(ModelSpec("AlexNet1D", TASK5, {"width": 8, "dropout": 0.5}),
                      seed=2)
        x = np.random.default_rng(2).normal(size=(4, 12, 128)).astype(np.float32)
        model.train_mode()
        a = model.forward(x).data
        b = model.forward(x).data
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("arch", ["AlexNet1D", "VGG11bn1D", "ResNet18_1D",
                                      "EEGNet2D", "CRNN_GRU", "CRNN_LSTM",
                                      "AttResNet"])
    def test_zero_input_gives_head_bias(self, arch):
        # zero-centered init propagates zero activations through these nets,
        # so train-mode logits on zero input equal the head bias (zero)
        model = build(ModelSpec(arch, TASK5, SMALL_HP[arch]), seed=4)
        model.train_mode()
        out = model.forward(np.zeros((2, 12, 128), dtype=np.float32))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_channel_count_checked(self):
        model = build(ModelSpec("ResNet18_1D", TASK5, {"base_width": 4}), seed=0)
        with pytest.raises(ShapeError, match="expects input \\[B, 12, L\\]"):
            model.forward(np.zeros((2, 8, 128), dtype=np.float32))

    def test_short_input_names_minimum(self):
        model = build(ModelSpec("AlexNet1D", TASK5, {"width": 8}), seed=0)
        with pytest.raises(ShapeError, match="requires input length >= 63"):
            model.forward(np.zeros((1, 12, 62), dtype=np.float32))
        out = model.forward(np.zeros((1, 12, 63), dtype=np.float32))
        assert out.shape == (1, 5)


class TestSpecValidation:
    def test_unknown_architecture(self):
        with pytest.raises(ModelError, match="unknown architecture"):
            ModelSpec("ResNet50_3D", TASK5)

    def test_unknown_hyperparameter(self):
        with pytest.raises(ModelError, match="unknown hyperparameters"):
            ModelSpec("ResNet18_1D", TASK5, {"depth": 3})

    def test_case_insensitive_lookup(self):
        assert ModelSpec("crnn_gru", TASK1).architecture == "CRNN_GRU"

    @pytest.mark.parametrize("key, value", [
        ("base_width", 0), ("base_width", -2), ("base_width", 2.5),
        ("base_width", True), ("base_width", "x"), ("num_layers", None),
        ("dropout", 1.0), ("dropout", -0.1), ("dropout", float("nan")),
        ("dropout", False), ("dropout", "0.1"),
    ])
    def test_hyperparameter_value_refused(self, key, value):
        with pytest.raises(ModelError, match=rf"ResTransformer: hyperparameter "
                                             rf"'{key}' must be .*got {value!r}"):
            ModelSpec("ResTransformer", TASK1, {key: value})

    @pytest.mark.parametrize("hp", [{"base_width": 1}, {"dropout": 0},
                                    {"dropout": 0.0}, {"dropout": 0.99}])
    def test_hyperparameter_edge_values_accepted(self, hp):
        assert ModelSpec("ResTransformer", TASK1, hp).hyperparams.items() >= hp.items()

    def test_attention_width_coupling(self):
        with pytest.raises(ModelError, match="must equal the feature width"):
            build(ModelSpec("AttResNet", TASK5,
                            {"base_width": 4, "embed_dim": 64, "num_heads": 2}),
                  seed=0)

    def test_fingerprint_stable_and_distinct(self):
        a = ModelSpec("ResNet18_1D", TASK5).fingerprint()
        b = ModelSpec("ResNet18_1D", TASK5).fingerprint()
        c = ModelSpec("ResNet18_1D", TASK5, {"base_width": 32}).fingerprint()
        assert a == b and a != c

    def test_builder_tables_name_every_architecture(self):
        # a half-added architecture (name without builder, or the reverse)
        assert set(_BUILDERS) == set(ARCHITECTURE_NAMES)
        assert set(_MIN_INPUT_LEN) == set(ARCHITECTURE_NAMES)


class TestParameterSummary:
    def test_plain_linear_count(self):
        # 10 -> 5 with bias: 55 parameters
        from ecglearn.models.modules import Linear
        lin = Linear(10, 5, np.random.default_rng(0))
        assert sum(p.size for p in lin.parameters()) == 55

    def test_same_spec_same_summary_and_params(self):
        spec = ModelSpec("CRNN_GRU", TASK1,
                         {"base_width": 8, "hidden_size": 16, "num_layers": 2})
        m1, m2 = build(spec, seed=7), build(spec, seed=7)
        assert summarize_parameters(m1) == summarize_parameters(m2)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters().items(),
                                      m2.named_parameters().items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_different_seed_different_params(self):
        spec = ModelSpec("ResNet18_1D", TASK5, {"base_width": 4})
        m1, m2 = build(spec, seed=1), build(spec, seed=2)
        w1 = m1.named_parameters()["backbone.resnet.conv1.weight"].data
        w2 = m2.named_parameters()["backbone.resnet.conv1.weight"].data
        assert not np.array_equal(w1, w2)

    def test_resnet_count_matches_layer_arithmetic(self):
        # independent hand computation of the topology's parameter count
        def block(cin, cout, stride):
            n = cin * cout * 3 + 2 * cout + cout * cout * 3 + 2 * cout
            if stride != 1 or cin != cout:
                n += cin * cout + 2 * cout
            return n

        w, k = 64, 5
        expected = 12 * w * 7 + 2 * w                     # stem conv + bn
        expected += block(w, w, 1) + block(w, w, 1)
        expected += block(w, 2 * w, 2) + block(2 * w, 2 * w, 1)
        expected += block(2 * w, 4 * w, 2) + block(4 * w, 4 * w, 1)
        expected += block(4 * w, 8 * w, 2) + block(8 * w, 8 * w, 1)
        expected += 8 * w * k + k                          # head
        model = build(ModelSpec("ResNet18_1D", TASK5), seed=0)
        _, total = summarize_parameters(model)
        assert total == expected

    def test_head_names_prefixed(self):
        model = build(ModelSpec("ResNet18_1D", TASK5, {"base_width": 4}), seed=0)
        names = set(model.named_parameters())
        heads = model.head_parameter_names()
        assert heads == {"head.weight", "head.bias"}
        assert all(n.startswith("backbone.") for n in names - heads)


class TestAstype:
    @pytest.mark.parametrize("arch", sorted(SMALL_HP))
    def test_float64_cast_is_in_place_and_exact(self, arch):
        model = build(ModelSpec(arch, TASK5, SMALL_HP[arch]), seed=0)
        before = model.state_dict()
        assert model.astype(np.float64) is model
        assert all(p.dtype == np.float64 and p.grad is None
                   for p in model.parameters())
        after = model.state_dict()
        assert list(after) == list(before)
        for name, value in after.items():
            assert value.dtype == np.float64, name
            assert value.tobytes() == before[name].astype(np.float64).tobytes()


# build(ModelSpec(arch, TASK5, hp), seed=3): parameter count, then sha256 of
# the parameter names in registration order and of the JSON of its
# tensor_hashes. Names are the checkpoint keys and the registration order
# fixes the initialization draws, so a changed digest means older
# checkpoints stop loading or fresh builds change their initial weights.
PINNED_BUILDS = {
    "AttResNet": (
        {"base_width": 4, "embed_dim": 32, "num_heads": 2}, 70,
        "4145273266b298082c6065d29c95dfd0475e31ee4798277586c9123027e10174",
        "5afccea59fcd47253d16435b0f6be22db934447674d90d77b6e5365c3d2ad22c"),
    "TransformerEnc": (
        {"embed_dim": 16, "num_heads": 2, "num_layers": 2, "ffn_dim": 32,
         "max_tokens": 64}, 39,
        "5d73ba2e988d24ddcb0319639e8d3393db49567c04bd60d88407ce0a87624ded",
        "2f7e803df958567f54e908213ddd24a913b29ea1b4746b91a1b398ff6e78b791"),
    "ResTransformer": (
        {"base_width": 4, "embed_dim": 32, "num_heads": 2, "num_layers": 2,
         "ffn_dim": 64, "max_tokens": 64}, 97,
        "1a6c362d26d543066a323eaffa7b42e3188ea58ef63d3bba6c0a061f210f8838",
        "3d644371cfcffe103a349ac1acdea7536894780758826e3683f2a80880305d72"),
}


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCheckpointCompatibility:
    @pytest.mark.parametrize("arch", sorted(PINNED_BUILDS))
    def test_names_and_initial_tensors_pinned(self, arch):
        hp, count, names_digest, hashes_digest = PINNED_BUILDS[arch]
        model = build(ModelSpec(arch, TASK5, hp), seed=3)
        names = list(model.named_parameters())
        assert len(names) == count
        assert sha256_hex("\n".join(names)) == names_digest
        hashes = tensor_hashes(model.state_dict())
        assert sha256_hex(json.dumps(hashes, sort_keys=True)) == hashes_digest


def fused_oracle(relu_op):
    """F.batchnorm's ``residual``/``relu`` call composed from the frozen
    nodes: oracle_batchnorm, then ``+ residual`` through ``Tensor.__add__``,
    then the relu that ``relu_op()`` names at call time."""
    def op(*args, residual=None, relu=False, **kw):
        out = oracle_batchnorm(*args, **kw)
        if residual is not None:
            out = out + residual
        return relu_op()(out) if relu else out
    return op


NORM_STEP_HP = {
    "ResNet18_1D": {"base_width": 4},
    "EEGNet2D": {"f1": 2, "depth_mult": 2, "f2": 4, "kern_length": 17},
    "CRNN_GRU": {"base_width": 4, "hidden_size": 8, "num_layers": 1},
    "TransformerEnc": {"embed_dim": 16, "num_heads": 2, "num_layers": 2,
                       "ffn_dim": 32, "max_tokens": 64},
}


class TestNormalizationStepMatchesOracle:
    """One training step, then an eval pass, through the shared normalization
    node and again through the frozen pre-merge batchnorm and layernorm."""

    @staticmethod
    def step(arch):
        model = build(ModelSpec(arch, TASK5, NORM_STEP_HP[arch]), seed=3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 12, 256)).astype(np.float32)
        y = (rng.random((4, 5)) < 0.5).astype(np.float32)
        model.train_mode()
        loss = focal_loss(model.forward(x), y)
        model.zero_grad()
        loss.backward()
        grads = {n: p.grad for n, p in model.named_parameters().items()}
        logits = model.eval_mode().forward(x).data
        return loss.data, grads, model.state_dict(), logits

    @pytest.mark.parametrize("arch", sorted(NORM_STEP_HP))
    def test_loss_gradients_buffers_bitwise(self, arch, monkeypatch):
        got = self.step(arch)
        calls = {"batchnorm": 0, "layernorm": 0}

        def counted(name, oracle):
            def op(*args, **kw):
                calls[name] += 1
                return oracle(*args, **kw)
            return op

        monkeypatch.setattr(F, "batchnorm",
                            counted("batchnorm", fused_oracle(lambda: oracle_relu)))
        monkeypatch.setattr(F, "layernorm", counted("layernorm", oracle_layernorm))
        want = self.step(arch)
        assert calls["layernorm" if arch == "TransformerEnc" else "batchnorm"] > 0
        loss, grads, state, logits = got
        assert loss.tobytes() == want[0].tobytes()
        assert logits.tobytes() == want[3].tobytes()
        for table, ref in ((grads, want[1]), (state, want[2])):
            assert list(table) == list(ref)
            for name in table:
                assert table[name].tobytes() == ref[name].tobytes(), name


def oracle_conv1d_op(x, w, b=None, stride=1, padding=0):
    """F.conv1d as one node over the frozen conv1d forward and gradients."""
    bd = None if b is None else b.data
    out = oracle_conv1d(x.data, w.data, bd, stride, padding)

    def backward(g):
        dx, dw, db = oracle_conv1d_grads(x.data, w.data, bd, g, stride, padding)
        return (dx, dw) if b is None else (dx, dw, db)

    return Tensor._from_op(out, (x, w) if b is None else (x, w, b), backward)


def oracle_maxpool1d_op(x, kernel, stride=None, padding=0):
    """F.maxpool1d as one node over the frozen maxpool1d forward and gradient."""
    stride = kernel if stride is None else stride
    out = oracle_maxpool1d(x.data, kernel, stride, padding)
    return Tensor._from_op(out, (x,), lambda g: (
        oracle_maxpool1d_grad(x.data, g, kernel, stride, padding),))


class TestFrontEndStepMatchesOracle:
    """One ResNet18_1D training step and eval pass at the default width and
    full record length, through the library's conv1d, maxpool1d and fused
    batchnorm (+ residual, relu) and again through their frozen forms; the
    frozen relu runs through the patched ``F.relu``, so it is counted. At
    this size the layer4 GEMMs reduce over 1,536 terms, so BLAS runs its
    blocked path."""

    @staticmethod
    def step():
        model = build(ModelSpec("ResNet18_1D", TASK5), seed=3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 12, 2048)).astype(np.float32)
        y = (rng.random((4, 5)) < 0.5).astype(np.float32)
        model.train_mode()
        loss = focal_loss(model.forward(x), y)
        model.zero_grad()
        loss.backward()
        grads = {n: p.grad for n, p in model.named_parameters().items()}
        logits = model.eval_mode().forward(x).data
        return loss.data, grads, model.state_dict(), logits

    def test_loss_gradients_buffers_logits_bitwise(self, monkeypatch):
        got = self.step()
        oracles = {"relu": oracle_relu, "conv1d": oracle_conv1d_op,
                   "maxpool1d": oracle_maxpool1d_op,
                   "batchnorm": fused_oracle(lambda: F.relu)}
        calls = dict.fromkeys(oracles, 0)

        def counted(name):
            def op(*args, **kw):
                calls[name] += 1
                return oracles[name](*args, **kw)
            return op

        for name in oracles:
            monkeypatch.setattr(F, name, counted(name))
        want = self.step()
        assert all(calls.values()), calls
        loss, grads, state, logits = got
        assert loss.tobytes() == want[0].tobytes()
        assert logits.tobytes() == want[3].tobytes()
        for table, ref in ((grads, want[1]), (state, want[2])):
            assert list(table) == list(ref)
            for name in table:
                assert table[name].tobytes() == ref[name].tobytes(), name


class TestTinyGradcheck:
    def test_crnn_gru_full_chain(self):
        spec = ModelSpec("CRNN_GRU", TASK1,
                         {"base_width": 2, "hidden_size": 8, "num_layers": 1})
        model = build(spec, seed=5, dtype=np.float64)
        model.train_mode()
        rng = np.random.default_rng(5)
        mix = rng.normal(size=(2, 1))

        def f(x):
            return (model.forward(x) * mix).sum()

        report = gradcheck(f, Tensor(rng.normal(size=(2, 12, 32))),
                           max_elements=96, rng=np.random.default_rng(0))
        assert report.passed, f"rel err {report.max_rel_err} at {report.worst_index}"


GRAPH_HP = {"ResNet18_1D": {"base_width": 8},
            "CRNN_GRU": {"base_width": 8, "hidden_size": 16},
            "CRNN_LSTM": {"base_width": 8, "hidden_size": 16},
            "EEGNet2D": {}}


def graph_step(arch):
    """The focal loss of one training forward at [2, 12, 2048] (``arch`` at
    its ``GRAPH_HP``), its model and its batch. The graph pins below are
    keyed by architecture, so a pin that moves keeps its test's name."""
    model = build(ModelSpec(arch, TASK1, GRAPH_HP[arch]), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 12, 2048)).astype(np.float32)
    y = np.array([[1.0], [0.0]], dtype=np.float32)
    model.train_mode()
    return focal_loss(model.forward(x), y), model, x


class TestGraphSize:
    """Graph nodes of one focal-loss training step, pinned so that graph
    growth fails here without a benchmark run; a change that shrinks the
    graph updates these pins on purpose."""

    NODES = {"ResNet18_1D": 122, "CRNN_GRU": 132, "CRNN_LSTM": 132}

    @pytest.mark.parametrize("arch", NODES)
    def test_nodes_per_training_step(self, arch):
        loss, _, _ = graph_step(arch)
        assert len(loss._toposort()) == self.NODES[arch]


def _buffer(a):
    """The allocation an array view (or a strided window of one) points into."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


def activation_bytes(loss, model, x) -> int:
    """Bytes of the ``.data`` buffers of every node of ``loss``'s graph and
    of their parents, each buffer once, without the model's parameters and
    the caller's batch ``x``."""
    skip = {id(_buffer(p.data)) for p in model.parameters()} | {id(_buffer(x))}
    held = {id(b): b.nbytes for n in loss._toposort() for t in (n, *n._parents)
            for b in (_buffer(t.data),) if id(b) not in skip}
    return sum(held.values())


class TestGraphActivationBytes:
    """Activation bytes one focal-loss training step's graph holds, pinned so
    that an array no backward reads (a pre-activation kept only as a relu
    node's input, say) fails here when it comes back."""

    NBYTES = {"ResNet18_1D": 1_410_196, "CRNN_GRU": 1_458_448}

    @pytest.mark.parametrize("arch", NBYTES)
    def test_activation_bytes_per_training_step(self, arch):
        loss, model, x = graph_step(arch)
        assert activation_bytes(loss, model, x) == self.NBYTES[arch]


def closure_bytes(loss) -> int:
    """Bytes of the arrays the backward closures of ``loss``'s graph hold on
    top of the graph's own tensors: every ndarray reachable from a closure's
    cells (through nested closures, tuples and lists), counted once per
    underlying buffer, skipping buffers that some node or node parent
    already holds as its ``.data``."""
    nodes = loss._toposort()
    graph = {id(_buffer(t.data)) for n in nodes for t in (n, *n._parents)}
    held, seen = {}, set()
    stack = [n._backward for n in nodes if n._backward is not None]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            buf = _buffer(obj)
            if id(buf) not in graph:
                held[id(buf)] = buf.nbytes
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return sum(held.values())


class TestGraphRetainedBytes:
    """Bytes the backward closures of one focal-loss training step keep alive
    besides the graph's tensors, pinned so that a closure that starts keeping
    a derived array (an im2col matrix, a padded copy, a normalized
    activation) fails here. Window ops rebuild their windows and
    normalization its x̂ in backward; what remains are per-channel
    statistics, pool argmaxes, elu slopes and dropout masks."""

    NBYTES = {"ResNet18_1D": 13_008, "CRNN_GRU": 95_440, "EEGNet2D": 1_975_632}

    @pytest.mark.parametrize("arch", NBYTES)
    def test_closure_bytes_per_training_step(self, arch):
        loss, _, _ = graph_step(arch)
        assert closure_bytes(loss) == self.NBYTES[arch]

    def test_walk_counts_a_derived_buffer_once(self):
        x = Tensor(np.ones((4, 8)), requires_grad=True)
        kept = x.data * 2.0                    # derived: counted once
        half, row = kept[::2], x.data[1:]      # a view of it; a view of x

        def inner(g):
            return g * half.sum() * row.sum()

        y = Tensor._from_op(x.data * kept, (x,), lambda g: (inner(g) * kept,))
        assert closure_bytes(y.sum()) == kept.nbytes


class TestRepeatedBackward:
    """Backward rebuilds each convolution's im2col matrix from the input the
    node holds, so a second backward over the same graph must read exactly
    the bytes the first read, the caller's batch included (the stem
    convolution's input is that array, uncopied)."""

    def test_second_backward_adds_the_same_grads(self):
        model = build(ModelSpec("ResNet18_1D", TASK1, {"base_width": 8}), seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 12, 2048)).astype(np.float32)
        x_before = x.copy()
        y = np.array([[1.0], [0.0]], dtype=np.float32)
        model.train_mode()
        loss = focal_loss(model.forward(x), y)
        model.zero_grad()
        loss.backward()
        first = {n: p.grad.copy() for n, p in model.named_parameters().items()}
        loss.backward()
        assert x.tobytes() == x_before.tobytes()
        assert "backbone.resnet.conv1.weight" in first
        for name, p in model.named_parameters().items():
            assert p.grad.tobytes() == (first[name] + first[name]).tobytes(), name


BLAS_STEP = """
import sys
import numpy as np
from ecglearn.dataio import TaskKind, TaskSpec
from ecglearn.learn import focal_loss
from ecglearn.learn.optim import Adam
from ecglearn.models import ModelSpec, build

model = build(ModelSpec("CRNN_GRU", TaskSpec(TaskKind.BINARY, ("positive",))), seed=4)
rng = np.random.default_rng(4)
x = rng.normal(size=(4, 12, 2048)).astype(np.float32)
y = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=np.float32)
model.train_mode()
logits = model.forward(x)
loss = focal_loss(logits, y)
model.zero_grad()
loss.backward()
arrays = {"loss": loss.data, "logits": logits.data}
arrays.update({"grad." + n: p.grad for n, p in model.named_parameters().items()})
Adam(model.trainable_parameters(), lr=1e-3).step()
arrays.update({"state." + n: a for n, a in model.state_dict().items()})
np.savez(sys.argv[1], **arrays)
"""


class TestBlasThreadDeterminism:
    """One focal-loss training step of a default-width CRNN_GRU gives the same
    bytes with one BLAS thread and with two: the whole-sequence GEMMs of the
    recurrent layers must not make results depend on the thread count."""

    def test_step_is_bitwise_across_blas_threads(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"step{threads}.npz"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", BLAS_STEP, str(out)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            with np.load(out) as arrays:
                results.append({k: arrays[k] for k in arrays.files})
        one, two = results
        assert list(one) == list(two)
        assert "grad.backbone.rnn.layer1.w_hh" in one
        for name in one:
            assert one[name].tobytes() == two[name].tobytes(), name
