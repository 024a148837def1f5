"""Module system: parameter containers with hierarchical naming.

A Module tracks parameters, numpy buffers (e.g. batchnorm running stats),
and child modules in registration order, which fixes the traversal order used
for checkpoints and summaries. ``force_eval`` pins a subtree in eval mode
regardless of ``train()`` calls; combined with requires_grad=False on its
parameters this implements freezing.

A layer is a module only where it owns parameters, buffers, a random stream
or a ``Sequential`` slot; every other op is called from ``functional``, and
every layer looks its op up there at call time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..errors import ModelError
from ..tensor import Parameter, Tensor
from ..tensor import functional as F
from ..tensor import init

__all__ = [
    "Module", "Sequential", "Linear", "Conv1d", "Conv2d", "DepthwiseConv2d",
    "BatchNorm1d", "BatchNorm2d", "LayerNorm", "Dropout", "ReLU", "MaxPool1d",
]


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "force_eval", False)

    # -- attribute routing ---------------------------------------------------

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        for store in ("_params", "_buffers", "_modules"):
            d = object.__getattribute__(self, store)
            if name in d:
                return d[name]
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value

    # -- traversal -------------------------------------------------------------

    def _walk(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """(name prefix, module) for this module and every descendant, pre-order."""
        yield prefix, self
        for cname, child in self._modules.items():
            yield from child._walk(prefix + cname + ".")

    def _named(self, store: str) -> OrderedDict:
        return OrderedDict((prefix + name, value) for prefix, m in self._walk()
                           for name, value in getattr(m, store).items())

    def named_parameters(self) -> "OrderedDict[str, Parameter]":
        return self._named("_params")

    def named_buffers(self) -> "OrderedDict[str, np.ndarray]":
        return self._named("_buffers")

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    # -- state -------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, keyed by hierarchical name."""
        out = {name: p.data.copy() for name, p in self.named_parameters().items()}
        for name, b in self.named_buffers().items():
            out[name] = b.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]):
        own_params = self.named_parameters()
        own_buffers = self.named_buffers()
        own = set(own_params) | set(own_buffers)
        missing = own - set(state)
        unexpected = set(state) - own
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch; missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, value in state.items():
            target = own_params[name].data if name in own_params else own_buffers[name]
            value = np.asarray(value)
            if value.shape != target.shape:
                raise ModelError(
                    f"parameter {name!r}: shape {value.shape} does not match "
                    f"{target.shape}")
            target[...] = value

    def train(self, mode: bool = True) -> "Module":
        if self.force_eval:
            mode = False
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = np.zeros_like(p.data)

    def astype(self, dtype) -> "Module":
        """Cast all parameters and float buffers in place (fresh grads)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
            p.grad = None
        for _, m in self._walk():
            for name, b in m._buffers.items():
                if np.issubdtype(b.dtype, np.floating):
                    m._buffers[name] = b.astype(dtype)
        return self

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise NotImplementedError


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        for i, layer in enumerate(layers):
            setattr(self, str(i), layer)

    def forward(self, x: Tensor) -> Tensor:
        for child in self._modules.values():
            x = child(x)
        return x


# ---------------------------------------------------------------------------
# parametric layers


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 dtype=np.float32, init_kind: str = "he", bias: bool = True):
        super().__init__()
        if init_kind == "he":
            w = init.he_uniform((n_in, n_out), n_in, rng, dtype)
        else:
            w = init.xavier_uniform((n_in, n_out), n_in, n_out, rng, dtype)
        self.weight = Parameter(w)
        self.bias = Parameter(init.zeros(n_out, dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class _Conv(Module):
    """Stride, padding, a He-uniform ``weight`` and an optional zero ``bias``."""

    def __init__(self, shape: tuple, fan_in: int, n_out: int,
                 rng: np.random.Generator, stride, padding, dtype, bias: bool):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.he_uniform(shape, fan_in, rng, dtype))
        self.bias = Parameter(init.zeros(n_out, dtype)) if bias else None


class Conv1d(_Conv):
    def __init__(self, in_ch: int, out_ch: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 dtype=np.float32, bias: bool = True):
        super().__init__((out_ch, in_ch, kernel), in_ch * kernel, out_ch, rng,
                         stride, padding, dtype, bias)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class Conv2d(_Conv):
    def __init__(self, in_ch: int, out_ch: int, kernel: tuple[int, int],
                 rng: np.random.Generator, stride=(1, 1), padding=(0, 0),
                 dtype=np.float32, bias: bool = True):
        kh, kw = kernel
        super().__init__((out_ch, in_ch, kh, kw), in_ch * kh * kw, out_ch, rng,
                         stride, padding, dtype, bias)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class DepthwiseConv2d(_Conv):
    def __init__(self, channels: int, depth_mult: int, kernel: tuple[int, int],
                 rng: np.random.Generator, stride=(1, 1), padding=(0, 0),
                 dtype=np.float32, bias: bool = True):
        kh, kw = kernel
        super().__init__((channels, depth_mult, kh, kw), kh * kw,
                         channels * depth_mult, rng, stride, padding, dtype, bias)

    def forward(self, x: Tensor) -> Tensor:
        return F.depthwise_conv2d(x, self.weight, self.bias,
                                  stride=self.stride, padding=self.padding)


class _BatchNorm(Module):
    """Batch normalization over axis 1 of [B, C, L] or [B, C, H, W]."""

    def __init__(self, channels: int, dtype=np.float32, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones(channels, dtype))
        self.beta = Parameter(init.zeros(channels, dtype))
        # running_var == 0 marks "never trained": eval mode then raises
        self.register_buffer("running_mean", init.zeros(channels, dtype))
        self.register_buffer("running_var", init.zeros(channels, dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.batchnorm(x, self.gamma, self.beta,
                           self.running_mean, self.running_var,
                           training=self.training, momentum=self.momentum,
                           eps=self.eps)


BatchNorm1d = BatchNorm2d = _BatchNorm


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(init.ones(dim, dtype))
        self.beta = Parameter(init.zeros(dim, dtype))

    def forward(self, x: Tensor) -> Tensor:
        return F.layernorm(x, self.gamma, self.beta, eps=self.eps)


class Dropout(Module):
    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


# ---------------------------------------------------------------------------
# stateless layers that fill a Sequential slot


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class MaxPool1d(Module):
    def __init__(self, kernel: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def forward(self, x: Tensor) -> Tensor:
        return F.maxpool1d(x, self.kernel, self.stride, self.padding)
