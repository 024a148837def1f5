"""GRU and LSTM cells, the fused sequence op ``recurrent_layer``, and
multi-layer sequence unrolling.

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

``recurrent_layer`` runs one layer over a whole [B, T, F] sequence from a
zero state as a single graph node (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946). Its forward projects every step's input in one GEMM,
x.reshape(B*T, F) @ w_ih + b_ih, and loops in Python only over h @ w_hh and
the gate math. Each step writes into buffers preallocated in the model dtype
and laid out [T, B, .]: ``hs`` holds the state before every step and after
the last, ``act`` the gate activations, and ``aux`` the GRU's h U_n + b_hn or
the LSTM's cell states. The backward is hand-derived BPTT over those buffers:
a reverse walk over the steps, each with one dgates @ w_hh^T, leaves the
pre-activation gradients of the input projection [B, T, .] and of the
recurrent one [T, B, .]; dW_ih, dW_hh and dx are then one GEMM each, and
db_ih and db_hh one sum each. The arithmetic of every step is the cells'; only
the GEMMs over all steps sum in another order, so the op matches ``unroll``
to rounding.

``unroll`` is the composed reference: one loop over layers and steps through
``gru_cell`` or ``lstm_cell``, chosen once from the kind, with an optional
initial state, returning the top layer's outputs [B, T, H] through one
concat and one reshape.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .functional import concat, linear
from .tensor import Tensor, stable_sigmoid

__all__ = ["gru_cell", "lstm_cell", "recurrent_layer", "unroll"]

_GATES = {"gru": 3, "lstm": 4}


def _check_weights(features: int, hidden: int, w_ih: Tensor, w_hh: Tensor,
                   gates: int):
    if w_ih.shape != (features, gates * hidden):
        raise ShapeError(
            f"w_ih shape {w_ih.shape} does not match input {features} "
            f"and hidden {hidden} (expected ({features}, {gates * hidden}))")
    if w_hh.shape != (hidden, gates * hidden):
        raise ShapeError(f"w_hh shape {w_hh.shape} does not match hidden {hidden}")


def _check_cell_shapes(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor, gates: int):
    if x.ndim != 2 or h.ndim != 2:
        raise ShapeError(f"cell expects 2-d x and h, got {x.shape}, {h.shape}")
    _check_weights(x.shape[1], h.shape[1], w_ih, w_hh, gates)


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


def recurrent_layer(x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor,
                    b_hh: Tensor, kind: str) -> Tensor:
    """One GRU or LSTM layer over a [B, T, F] sequence from a zero state.

    Returns the hidden state after every step, [B, T, H], as one graph node
    whose backward yields the gradients of x and of all four weights.
    """
    if x.ndim != 3 or x.shape[1] == 0:
        raise ShapeError(f"recurrent_layer expects [B, T, F] with T >= 1, got {x.shape}")
    if kind not in _GATES:
        raise ShapeError(f"unknown cell kind {kind!r}")
    B, T, F = x.shape
    H = w_hh.shape[0]
    G = _GATES[kind] * H
    _check_weights(F, H, w_ih, w_hh, _GATES[kind])
    if b_ih.shape != (G,) or b_hh.shape != (G,):
        raise ShapeError(f"biases {b_ih.shape}, {b_hh.shape} must both be ({G},)")
    lstm = kind == "lstm"
    xd, wh, bh = x.data.reshape(B * T, F), w_hh.data, b_hh.data
    gi = (xd @ w_ih.data + b_ih.data).reshape(B, T, G)
    dt = gi.dtype
    hs = np.zeros((T + 1, B, H), dt)   # hs[t]: the state before step t
    act = np.empty((T, B, G), dt)
    aux = np.zeros((T + 1, B, H), dt)  # GRU: h U_n + b_hn; LSTM: aux[t + 1] = c
    for t in range(T):
        gh = hs[t] @ wh + bh
        a = act[t]
        if lstm:
            pre = gi[:, t] + gh
            a[:, :2 * H] = stable_sigmoid(pre[:, :2 * H])
            np.tanh(pre[:, 2 * H:3 * H], out=a[:, 2 * H:3 * H])
            a[:, 3 * H:] = stable_sigmoid(pre[:, 3 * H:])
            aux[t + 1] = a[:, H:2 * H] * aux[t] + a[:, :H] * a[:, 2 * H:3 * H]
            hs[t + 1] = a[:, 3 * H:] * np.tanh(aux[t + 1])
        else:
            a[:, :2 * H] = stable_sigmoid(gi[:, t, :2 * H] + gh[:, :2 * H])
            r, z, n = a[:, :H], a[:, H:2 * H], a[:, 2 * H:]
            aux[t] = gh[:, 2 * H:]
            np.tanh(gi[:, t, 2 * H:] + r * aux[t], out=n)
            hs[t + 1] = (1.0 - z) * n + z * hs[t]
    out = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def backward(g):
        dgi = np.empty((B, T, G), dt)   # d(x W_ih + b_ih), rows ordered as xd
        dgh = np.empty((T, B, G), dt)   # d(h W_hh + b_hh), rows ordered as hs
        dh = np.zeros((B, H), dt)
        dc = np.zeros((B, H), dt)       # the LSTM's cell-state gradient
        wt = np.ascontiguousarray(wh.T)   # BLAS runs faster on it than on wh.T
        for t in reversed(range(T)):
            dh = dh + g[:, t]
            a, d = act[t], dgh[t]
            if lstm:
                i, f, gc, o = (a[:, k * H:(k + 1) * H] for k in range(4))
                tc = np.tanh(aux[t + 1])
                dc = dc + dh * o * (1.0 - tc * tc)
                d[:, :H] = dc * gc * i * (1.0 - i)
                d[:, H:2 * H] = dc * aux[t] * f * (1.0 - f)
                d[:, 2 * H:3 * H] = dc * i * (1.0 - gc * gc)
                d[:, 3 * H:] = dh * tc * o * (1.0 - o)
                dgi[:, t] = d
                dc = dc * f
                dh = d @ wt
            else:
                r, z, n = a[:, :H], a[:, H:2 * H], a[:, 2 * H:]
                dn = dh * (1.0 - z) * (1.0 - n * n)
                d[:, :H] = dn * aux[t] * r * (1.0 - r)
                d[:, H:2 * H] = dh * (hs[t] - n) * z * (1.0 - z)
                d[:, 2 * H:] = dn * r
                dgi[:, t, :2 * H] = d[:, :2 * H]
                dgi[:, t, 2 * H:] = dn
                dh = dh * z + d @ wt
        di, dr = dgi.reshape(B * T, G), dgh.reshape(T * B, G)
        dx = (di @ w_ih.data.T).reshape(B, T, F) if x.requires_grad else None
        return (dx, xd.T @ di, hs[:-1].reshape(T * B, H).T @ dr,
                di.sum(axis=0), dr.sum(axis=0))

    return Tensor._from_op(out, (x, w_ih, w_hh, b_ih, b_hh), backward)


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
