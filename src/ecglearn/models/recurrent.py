"""Stacked GRU/LSTM layers over [B, T, F] sequences."""

from __future__ import annotations

import numpy as np

# perfbench/tracer.py patches ``unroll`` under this module's name
from ..tensor import Parameter, Tensor, recurrent_layer, unroll  # noqa: F401
from ..tensor import init
from .modules import Module

__all__ = ["RecurrentStack"]


class _CellWeights(Module):
    def __init__(self, input_size: int, hidden_size: int, gates: int,
                 rng: np.random.Generator, dtype):
        super().__init__()
        self.w_ih = Parameter(init.xavier_uniform(
            (input_size, gates * hidden_size), input_size, gates * hidden_size,
            rng, dtype))
        self.w_hh = Parameter(init.xavier_uniform(
            (hidden_size, gates * hidden_size), hidden_size, gates * hidden_size,
            rng, dtype))
        self.b_ih = Parameter(init.zeros(gates * hidden_size, dtype))
        self.b_hh = Parameter(init.zeros(gates * hidden_size, dtype))


class RecurrentStack(Module):
    """Multi-layer GRU or LSTM; forward returns (outputs [B,T,H], final h [B,H])."""

    def __init__(self, kind: str, input_size: int, hidden_size: int,
                 num_layers: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.kind = kind
        gates = 3 if kind == "gru" else 4
        for li in range(num_layers):
            in_dim = input_size if li == 0 else hidden_size
            setattr(self, f"layer{li}",
                    _CellWeights(in_dim, hidden_size, gates, rng, dtype))
        self.num_layers = num_layers

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        for li in range(self.num_layers):
            lw = getattr(self, f"layer{li}")
            x = recurrent_layer(x, lw.w_ih, lw.w_hh, lw.b_ih, lw.b_hh, self.kind)
        return x, x[:, -1, :]
