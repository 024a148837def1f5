"""Minimal dense tensor engine with reverse-mode automatic differentiation."""

from . import functional
from .attention import multihead_attention
from .gradcheck import GradcheckReport, gradcheck, param_gradcheck
from .rnn import gru_cell, lstm_cell, recurrent_layer, unroll
from .tensor import Parameter, Tensor, is_grad_enabled, no_grad, stable_sigmoid

__all__ = [
    "Tensor", "Parameter", "no_grad", "is_grad_enabled", "functional",
    "stable_sigmoid", "gru_cell", "lstm_cell", "recurrent_layer", "unroll",
    "multihead_attention",
    "gradcheck", "param_gradcheck", "GradcheckReport",
]
