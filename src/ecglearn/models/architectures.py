"""The nine classifier architectures and the build entry point.

A built ``Model`` is itself the root module. Its two children are
``backbone`` (feature extraction to a fixed vector) and ``head`` (one linear
layer emitting raw logits; sigmoid/softmax live inside losses and metrics).
The "head." name prefix is the contract used by checkpoint head-swapping and
fine-tune freezing.

CNN families (AlexNet, VGG11-bn, ResNet18) use 1-d convolutions over the 12
input channels and global average pooling before the head. The input grid
front-end treats the record as a 2-d [12 x L] image with temporal,
depthwise-spatial, and separable convolutions. CRNNs feed the ResNet
feature sequence to stacked recurrent layers and classify from the final
hidden state. Attention/transformer variants add learned positional
embeddings and pre-norm encoder layers over the feature sequence, mean-pooled
into the head.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial

import numpy as np

from ..errors import ModelError, ShapeError
from ..seeding import child_rng, substream
from ..signal import N_LEADS
from ..tensor import Parameter, Tensor
from ..tensor import functional as F
from .attention_layers import (LearnedPositionalEmbedding, SelfAttention,
                               TransformerEncoderLayer)
from .modules import (BatchNorm1d, BatchNorm2d, Conv1d, Conv2d, DepthwiseConv2d,
                      Dropout, LayerNorm, Linear, MaxPool1d, Module, ReLU,
                      Sequential)
from .recurrent import RecurrentStack
from .resnet import ResNetBackbone1d
from .spec import ModelSpec

__all__ = ["Model", "build", "summarize_parameters"]

HEAD_PREFIX = "head."


# ---------------------------------------------------------------------------
# backbones


class AlexNetBackbone(Module):
    def __init__(self, hp, rng, dtype):
        super().__init__()
        w = hp["width"]
        self.features = Sequential(
            Conv1d(N_LEADS, w, 11, rng, stride=4, padding=2, dtype=dtype), ReLU(),
            MaxPool1d(3, 2),
            Conv1d(w, 3 * w, 5, rng, padding=2, dtype=dtype), ReLU(),
            MaxPool1d(3, 2),
            Conv1d(3 * w, 6 * w, 3, rng, padding=1, dtype=dtype), ReLU(),
            Conv1d(6 * w, 4 * w, 3, rng, padding=1, dtype=dtype), ReLU(),
            Conv1d(4 * w, 4 * w, 3, rng, padding=1, dtype=dtype), ReLU(),
            MaxPool1d(3, 2),
        )
        self.drop = Dropout(hp["dropout"], child_rng(rng))
        self.out_features = 4 * w

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(F.global_avg_pool1d(self.features(x)))


class VggBackbone(Module):
    """Conv → BN → ReLU stages as ``Sequential`` slots. The batchnorms do not
    take their ReLU in (as the ResNet's do): dropping the ``ReLU`` slots
    would renumber ``features`` and so rename every later checkpoint
    tensor."""

    def __init__(self, hp, rng, dtype):
        super().__init__()
        w = hp["width"]
        plan = [w, "M", 2 * w, "M", 4 * w, 4 * w, "M", 8 * w, 8 * w, "M",
                8 * w, 8 * w, "M"]
        layers: list[Module] = []
        in_c = N_LEADS
        for item in plan:
            if item == "M":
                layers.append(MaxPool1d(2, 2))
            else:
                layers += [Conv1d(in_c, item, 3, rng, padding=1, dtype=dtype,
                                  bias=False),
                           BatchNorm1d(item, dtype), ReLU()]
                in_c = item
        self.features = Sequential(*layers)
        self.out_features = 8 * w

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool1d(self.features(x))


class ResNetClassifierBackbone(Module):
    def __init__(self, hp, rng, dtype):
        super().__init__()
        self.resnet = ResNetBackbone1d(N_LEADS, hp["base_width"], rng, dtype)
        self.out_features = self.resnet.out_channels

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool1d(self.resnet(x))


class GridConvBackbone(Module):
    """Treats the record as a 2-d [12 x L] grid (compact EEG-style network)."""

    def __init__(self, hp, rng, dtype):
        super().__init__()
        f1, d, f2 = hp["f1"], hp["depth_mult"], hp["f2"]
        kern = hp["kern_length"]
        self.temporal = Conv2d(1, f1, (1, kern), rng, padding=(0, kern // 2),
                               dtype=dtype, bias=False)
        self.bn1 = BatchNorm2d(f1, dtype)
        self.spatial = DepthwiseConv2d(f1, d, (N_LEADS, 1), rng, dtype=dtype,
                                       bias=False)
        self.bn2 = BatchNorm2d(f1 * d, dtype)
        self.drop1 = Dropout(hp["dropout"], child_rng(rng))
        self.sep_depth = DepthwiseConv2d(f1 * d, 1, (1, 16), rng,
                                         padding=(0, 8), dtype=dtype, bias=False)
        self.sep_point = Conv2d(f1 * d, f2, (1, 1), rng, dtype=dtype, bias=False)
        self.bn3 = BatchNorm2d(f2, dtype)
        self.drop2 = Dropout(hp["dropout"], child_rng(rng))
        self.out_features = f2

    def forward(self, x: Tensor) -> Tensor:
        B, C, L = x.shape
        x = x.reshape(B, 1, C, L)
        # activation between the norm layers: a norm -> linear -> norm
        # sandwich would cancel the first norm's affine shift exactly,
        # leaving it without gradient
        x = F.elu(self.bn1(self.temporal(x)))
        x = self.drop1(F.avgpool2d(F.elu(self.bn2(self.spatial(x))), (1, 4)))
        x = self.sep_point(self.sep_depth(x))
        x = self.drop2(F.avgpool2d(F.elu(self.bn3(x)), (1, 8)))
        B2, C2, H2, W2 = x.shape
        return F.global_avg_pool1d(x.reshape(B2, C2 * H2, W2))


class CrnnBackbone(Module):
    def __init__(self, hp, rng, dtype, kind: str):
        super().__init__()
        self.resnet = ResNetBackbone1d(N_LEADS, hp["base_width"], rng, dtype)
        self.rnn = RecurrentStack(kind, self.resnet.out_channels,
                                  hp["hidden_size"], hp["num_layers"], rng, dtype)
        self.out_features = hp["hidden_size"]

    def forward(self, x: Tensor) -> Tensor:
        seq = self.resnet(x).transpose(0, 2, 1)   # [B, T, C]
        _, final = self.rnn(seq)
        return final


class _ResNetTokens(Module):
    """Registers the ResNet front end, whose feature sequence is the token
    sequence, so ``embed_dim`` must equal its feature width."""

    def __init__(self, hp, rng, dtype):
        super().__init__()
        self.resnet = ResNetBackbone1d(N_LEADS, hp["base_width"], rng, dtype)
        if hp["embed_dim"] != self.resnet.out_channels:
            raise ModelError(
                f"embed_dim {hp['embed_dim']} must equal the feature width "
                f"{self.resnet.out_channels} (8 * base_width)")
        self.out_features = hp["embed_dim"]

    def _tokens(self, x: Tensor) -> Tensor:
        return self.resnet(x).transpose(0, 2, 1)   # [B, T, C]


class _EncoderStack(Module):
    """Learned positions, pre-norm encoder layers ``enc{i}`` and a final
    layer norm over a token sequence, mean-pooled over tokens.

    A subclass registers its front end first, then calls ``_add_encoder``;
    that order fixes the parameter names and the initialization draws. No
    ``__init__`` here, so a front-end base can come first in the bases.
    """

    def _add_encoder(self, hp, rng, dtype):
        e = hp["embed_dim"]
        self.posemb = LearnedPositionalEmbedding(hp["max_tokens"], e, rng, dtype)
        for li in range(hp["num_layers"]):
            setattr(self, f"enc{li}",
                    TransformerEncoderLayer(e, hp["num_heads"], hp["ffn_dim"],
                                            hp["dropout"], rng, dtype))
        self.num_layers = hp["num_layers"]
        self.final_ln = LayerNorm(e, dtype)
        self.out_features = e

    def _encode(self, seq: Tensor) -> Tensor:
        seq = self.posemb(seq)
        for li in range(self.num_layers):
            seq = getattr(self, f"enc{li}")(seq)
        return self.final_ln(seq).mean(axis=1)


class AttResNetBackbone(_ResNetTokens):
    def __init__(self, hp, rng, dtype):
        super().__init__(hp, rng, dtype)
        self.attn = SelfAttention(hp["embed_dim"], hp["num_heads"], rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        seq = self._tokens(x)
        seq = seq + self.attn(seq)
        return seq.mean(axis=1)


class TransformerBackbone(_EncoderStack):
    def __init__(self, hp, rng, dtype):
        super().__init__()
        self.stem = Conv1d(N_LEADS, hp["embed_dim"], hp["stem_kernel"], rng,
                           stride=hp["stem_stride"],
                           padding=hp["stem_kernel"] // 2, dtype=dtype)
        self._add_encoder(hp, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self._encode(self.stem(x).transpose(0, 2, 1))


class ResTransformerBackbone(_ResNetTokens, _EncoderStack):
    def __init__(self, hp, rng, dtype):
        super().__init__(hp, rng, dtype)
        self._add_encoder(hp, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self._encode(self._tokens(x))


_BUILDERS = {
    "AlexNet1D": AlexNetBackbone,
    "VGG11bn1D": VggBackbone,
    "ResNet18_1D": ResNetClassifierBackbone,
    "EEGNet2D": GridConvBackbone,
    "CRNN_LSTM": partial(CrnnBackbone, kind="lstm"),
    "CRNN_GRU": partial(CrnnBackbone, kind="gru"),
    "AttResNet": AttResNetBackbone,
    "TransformerEnc": TransformerBackbone,
    "ResTransformer": ResTransformerBackbone,
}

_MIN_INPUT_LEN = {
    "AlexNet1D": 63, "VGG11bn1D": 32, "ResNet18_1D": 1, "EEGNet2D": 27,
    "CRNN_LSTM": 1, "CRNN_GRU": 1, "AttResNet": 1, "TransformerEnc": 1,
    "ResTransformer": 1,
}


class Model(Module):
    """A built network: the root module, with children ``backbone`` and
    ``head``, plus its spec, seed, input checks, modes and freezing.

    Made only by ``build``.
    """

    head_prefix = HEAD_PREFIX

    def __init__(self, spec: ModelSpec, seed: int, dtype):
        super().__init__()
        self.spec = spec
        self.seed = seed
        self.min_input_len = _MIN_INPUT_LEN[spec.architecture]
        # the head draws from the stream after the backbone
        rng = substream(seed, "model-init", spec.architecture)
        self.backbone = _BUILDERS[spec.architecture](spec.hyperparams, rng, dtype)
        self.head = Linear(self.backbone.out_features, spec.k, rng, dtype,
                           init_kind="xavier")
        for name, p in self.named_parameters().items():
            p.name = name

    @property
    def net(self) -> "Model":
        """The model itself. Kept for perfbench's tracer, which reads
        ``model.net.training``; nothing in the package reads it."""
        return self

    def forward(self, x) -> Tensor:
        """Logits for x [B, 12, L]. An array x is wrapped, not copied, and
        backward reads it again, so leave it unchanged until backward is done."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim != 3 or x.shape[1] != N_LEADS:
            raise ShapeError(
                f"{self.spec.architecture} expects input [B, {N_LEADS}, L], "
                f"got {x.shape}")
        if x.shape[2] < self.min_input_len:
            raise ShapeError(
                f"{self.spec.architecture} requires input length >= "
                f"{self.min_input_len}, got {x.shape[2]}")
        return self.head(self.backbone(x))

    # -- mode ------------------------------------------------------------------

    def train_mode(self) -> "Model":
        return self.train(True)

    def eval_mode(self) -> "Model":
        return self.train(False)

    def trainable_parameters(self) -> "OrderedDict[str, Parameter]":
        return OrderedDict((n, p) for n, p in self.named_parameters().items()
                           if p.requires_grad)

    # -- freezing ----------------------------------------------------------------

    def head_parameter_names(self) -> set[str]:
        return {n for n in self.named_parameters() if n.startswith(self.head_prefix)}

    def freeze_backbone(self) -> "Model":
        """Make only head parameters trainable; backbone stays in eval mode
        (so normalization statistics and dropout cannot change it)."""
        for p in self.backbone.parameters():
            p.requires_grad = False
        self.backbone.force_eval = True
        self.backbone.train(False)
        return self

    def unfreeze_all(self) -> "Model":
        for p in self.parameters():
            p.requires_grad = True
        self.backbone.force_eval = False
        return self


def build(spec: ModelSpec, seed: int, dtype=np.float32) -> Model:
    """Instantiate a spec with seeded initialization.

    Two builds with the same spec/seed/dtype are bit-identical. Convolutions
    and linear layers feeding ReLU/ELU use He-uniform; recurrent, attention,
    and head projections use Xavier-uniform; norm layers start at
    gamma=1/beta=0; biases start at zero.
    """
    return Model(spec, seed, dtype)


def summarize_parameters(model: Model) -> tuple[list[tuple[str, tuple, int]], int]:
    """(name, shape, count) per parameter in stable traversal order, plus total."""
    rows = [(name, tuple(p.shape), int(p.size))
            for name, p in model.named_parameters().items()]
    return rows, sum(r[2] for r in rows)
