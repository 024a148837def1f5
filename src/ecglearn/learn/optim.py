"""Adam optimizer and the training hyperparameter record."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import OptimizerError
from ..tensor import Parameter

__all__ = ["OptimizerConfig", "Adam"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings plus loop-level knobs (batch size, epochs, patience).

    Reference learning rates from the tuned configurations: CNN families
    ~2e-4, CRNNs ~5e-4, transformer encoders ~1e-4, the compact grid network
    ~1.5e-3.
    """

    lr: float = 2e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    batch_size: int = 32
    epochs: int = 50
    patience: int = 10

    def __post_init__(self):
        for name in ("lr", "eps", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise OptimizerError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise OptimizerError(f"learning rate must be positive, got {self.lr}")
        # eps = 0 makes every zero-gradient entry's update 0/0
        if self.eps <= 0:
            raise OptimizerError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise OptimizerError(f"weight_decay must be >= 0, got {self.weight_decay}")
        try:
            beta1, beta2 = self.betas
        except (TypeError, ValueError):
            raise OptimizerError(f"betas must be a pair, got {self.betas!r}") from None
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise OptimizerError(f"betas must be in [0, 1), got {self.betas}")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 0:
            raise OptimizerError("batch_size/epochs must be >= 1, patience >= 0")


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    Parameters with grad=None (never reached by backward) are left untouched.
    A non-finite gradient aborts the step naming the offending parameter.
    The settings are checked as ``OptimizerConfig`` checks them.
    """

    def __init__(self, params: dict[str, Parameter], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        OptimizerConfig(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise OptimizerError(f"non-finite gradient for parameter {name!r}")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(
                p.data.dtype, copy=False)
