"""GRU and LSTM cell updates plus multi-layer sequence unrolling.

``unroll`` is one loop over layers and steps: the cell is chosen once from
the kind, each layer's step outputs replace its step inputs in one list, and
the top layer's outputs become [B, T, H] through one concat and one reshape.

Gate equations follow the standard formulation. For an input x_t and hidden
state h, with packed weights w_ih [in, gates*H], w_hh [H, gates*H] and biases
b_ih, b_hh [gates*H] (gate order r,z,n for GRU and i,f,g,o for LSTM):

GRU:   r = sigmoid(x W_r + h U_r + b_r)
       z = sigmoid(x W_z + h U_z + b_z)
       n = tanh(x W_n + b_in + r * (h U_n + b_hn))
       h' = (1 - z) * n + z * h

LSTM:  i,f,o = sigmoid(gates), g = tanh(gate)
       c' = f * c + i * g
       h' = o * tanh(c')
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .functional import concat, linear
from .tensor import Tensor

__all__ = ["gru_cell", "lstm_cell", "unroll"]


def _check_cell_shapes(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor, gates: int):
    if x.ndim != 2 or h.ndim != 2:
        raise ShapeError(f"cell expects 2-d x and h, got {x.shape}, {h.shape}")
    hidden = h.shape[1]
    if w_ih.shape != (x.shape[1], gates * hidden):
        raise ShapeError(
            f"w_ih shape {w_ih.shape} does not match input {x.shape[1]} "
            f"and hidden {hidden} (expected ({x.shape[1]}, {gates * hidden}))")
    if w_hh.shape != (hidden, gates * hidden):
        raise ShapeError(f"w_hh shape {w_hh.shape} does not match hidden {hidden}")


def gru_cell(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor,
             b_ih: Tensor, b_hh: Tensor) -> Tensor:
    """One GRU step: returns the new hidden state [B, H]."""
    _check_cell_shapes(x, h, w_ih, w_hh, 3)
    H = h.shape[1]
    gi = linear(x, w_ih, b_ih)
    gh = linear(h, w_hh, b_hh)
    r = (gi[:, 0:H] + gh[:, 0:H]).sigmoid()
    z = (gi[:, H:2 * H] + gh[:, H:2 * H]).sigmoid()
    n = (gi[:, 2 * H:3 * H] + r * gh[:, 2 * H:3 * H]).tanh()
    return (1.0 - z) * n + z * h


def lstm_cell(x: Tensor, state: tuple[Tensor, Tensor], w_ih: Tensor, w_hh: Tensor,
              b_ih: Tensor, b_hh: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: returns (h', c')."""
    h, c = state
    _check_cell_shapes(x, h, w_ih, w_hh, 4)
    H = h.shape[1]
    gates = linear(x, w_ih, b_ih) + linear(h, w_hh, b_hh)
    i = gates[:, 0:H].sigmoid()
    f = gates[:, H:2 * H].sigmoid()
    g = gates[:, 2 * H:3 * H].tanh()
    o = gates[:, 3 * H:4 * H].sigmoid()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return h_new, c_new


def unroll(x: Tensor, layer_weights: list[dict], kind: str,
           initial=None) -> tuple[Tensor, list]:
    """Run stacked recurrent layers over a [B, T, F] sequence.

    ``layer_weights`` holds one dict per layer with keys w_ih, w_hh, b_ih,
    b_hh. ``initial`` holds one state per layer, [B, H] or for LSTM an (h, c)
    pair of them; it defaults to zeros. Returns the top layer's per-step
    outputs [B, T, H] and the final state of every layer (h, or (h, c) for
    LSTM).
    """
    if x.ndim != 3:
        raise ShapeError(f"unroll expects [B, T, F], got {x.shape}")
    if kind not in ("gru", "lstm"):
        raise ShapeError(f"unknown cell kind {kind!r}")
    B, T, _ = x.shape
    hidden_sizes = [lw["w_hh"].shape[0] for lw in layer_weights]
    for li in range(1, len(layer_weights)):
        expected = layer_weights[li]["w_ih"].shape[0]
        if expected != hidden_sizes[li - 1]:
            raise ShapeError(
                f"stacked layer {li} expects input {expected}, previous hidden "
                f"size is {hidden_sizes[li - 1]}")

    want = [((B, H), (B, H)) if kind == "lstm" else (B, H) for H in hidden_sizes]
    if initial is None:
        states = [tuple(Tensor(np.zeros(s, x.dtype)) for s in w) if kind == "lstm"
                  else Tensor(np.zeros(w, x.dtype)) for w in want]
    else:
        states = list(initial)
        got = [tuple(t.shape for t in s) if isinstance(s, (tuple, list)) else s.shape
               for s in states]
        if got != want:
            raise ShapeError(f"unroll: initial must hold one state per layer, "
                             f"shaped {want}; got {got}")

    cell = gru_cell if kind == "gru" else lstm_cell
    seq = [x[:, t, :] for t in range(T)]
    for li, lw in enumerate(layer_weights):
        state = states[li]
        for t in range(T):
            state = cell(seq[t], state, lw["w_ih"], lw["w_hh"], lw["b_ih"], lw["b_hh"])
            seq[t] = state[0] if kind == "lstm" else state
        states[li] = state
    return concat(seq, axis=1).reshape(B, T, hidden_sizes[-1]), states
