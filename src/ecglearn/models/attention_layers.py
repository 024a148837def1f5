"""Self-attention building blocks: MHA layer, encoder layer, positional embedding."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from ..seeding import child_rng
from ..tensor import Parameter, Tensor, multihead_attention
from ..tensor import functional as F
from ..tensor import init
from .modules import Dropout, LayerNorm, Linear, Module

__all__ = ["SelfAttention", "TransformerEncoderLayer", "LearnedPositionalEmbedding"]


class SelfAttention(Module):
    def __init__(self, embed_dim: int, num_heads: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ModelError(
                f"embed dim {embed_dim} not divisible by {num_heads} heads")
        self.num_heads = num_heads

        def proj():
            return Parameter(init.xavier_uniform(
                (embed_dim, embed_dim), embed_dim, embed_dim, rng, dtype))

        self.wq, self.wk, self.wv, self.wo = proj(), proj(), proj(), proj()
        self.bq = Parameter(init.zeros(embed_dim, dtype))
        self.bk = Parameter(init.zeros(embed_dim, dtype))
        self.bv = Parameter(init.zeros(embed_dim, dtype))
        self.bo = Parameter(init.zeros(embed_dim, dtype))

    def forward(self, x: Tensor) -> Tensor:
        return multihead_attention(
            x, x, x, self.num_heads,
            self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
            self.wo, self.bo)


class TransformerEncoderLayer(Module):
    """Pre-norm encoder layer: x + MHA(LN(x)), then x + FFN(LN(x))."""

    def __init__(self, embed_dim: int, num_heads: int, ffn_dim: int,
                 dropout: float, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.ln1 = LayerNorm(embed_dim, dtype)
        self.attn = SelfAttention(embed_dim, num_heads, rng, dtype)
        self.drop1 = Dropout(dropout, child_rng(rng))
        self.ln2 = LayerNorm(embed_dim, dtype)
        self.ffn1 = Linear(embed_dim, ffn_dim, rng, dtype, init_kind="he")
        self.ffn2 = Linear(ffn_dim, embed_dim, rng, dtype, init_kind="xavier")
        self.drop2 = Dropout(dropout, child_rng(rng))

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.drop1(self.attn(self.ln1(x)))
        x = x + self.drop2(self.ffn2(F.relu(self.ffn1(self.ln2(x)))))
        return x


class LearnedPositionalEmbedding(Module):
    def __init__(self, max_len: int, embed_dim: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.max_len = max_len
        self.pos = Parameter(
            (rng.normal(0.0, 0.02, size=(1, max_len, embed_dim))).astype(dtype))

    def forward(self, x: Tensor) -> Tensor:
        T = x.shape[1]
        if T > self.max_len:
            raise ModelError(
                f"sequence of {T} tokens exceeds the positional table "
                f"({self.max_len}); raise the max_tokens hyperparameter")
        return x + self.pos[:, :T, :]
