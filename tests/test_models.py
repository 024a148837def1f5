"""Architecture construction: shapes, determinism, summaries, errors."""

import hashlib
import json

import numpy as np
import pytest

from ecglearn.dataio import TaskKind, TaskSpec
from ecglearn.errors import ModelError, ShapeError
from ecglearn.models import (ARCHITECTURE_NAMES, Model, ModelSpec, build,
                             summarize_parameters)
from ecglearn.tensor import Tensor, gradcheck
from ecglearn.transfer import tensor_hashes

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
