"""ResNet-18 adapted to 1-d 12-lead input.

Square kernels become length-k 1-d kernels with the usual counts and strides:
a 7-wide stride-2 stem over 12 input channels, four stages of two basic
blocks, channel widths [w, 2w, 4w, 8w]. The backbone returns the pre-pool
feature map [B, 8w, T/32]; heads and sequence consumers attach downstream.

Each ReLU, and each block's residual add, runs inside the batchnorm before
it (``bn(x, residual=..., relu=True)``), one graph node that keeps no
pre-activation array; the outputs are those of the separate ops, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from .modules import BatchNorm1d, Conv1d, Module

__all__ = ["BasicBlock1d", "ResNetBackbone1d"]


class BasicBlock1d(Module):
    def __init__(self, in_ch: int, out_ch: int, stride: int,
                 rng: np.random.Generator, dtype):
        super().__init__()
        self.conv1 = Conv1d(in_ch, out_ch, 3, rng, stride=stride, padding=1,
                            dtype=dtype, bias=False)
        self.bn1 = BatchNorm1d(out_ch, dtype)
        self.conv2 = Conv1d(out_ch, out_ch, 3, rng, stride=1, padding=1,
                            dtype=dtype, bias=False)
        self.bn2 = BatchNorm1d(out_ch, dtype)
        self.has_downsample = stride != 1 or in_ch != out_ch
        if self.has_downsample:
            self.down_conv = Conv1d(in_ch, out_ch, 1, rng, stride=stride,
                                    dtype=dtype, bias=False)
            self.down_bn = BatchNorm1d(out_ch, dtype)

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1(self.conv1(x), relu=True)
        shortcut = self.down_bn(self.down_conv(x)) if self.has_downsample else x
        return self.bn2(self.conv2(h), residual=shortcut, relu=True)


class ResNetBackbone1d(Module):
    def __init__(self, in_ch: int, base_width: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        w = base_width
        self.conv1 = Conv1d(in_ch, w, 7, rng, stride=2, padding=3,
                            dtype=dtype, bias=False)
        self.bn1 = BatchNorm1d(w, dtype)
        widths = [w, 2 * w, 4 * w, 8 * w]
        in_c = w
        for si, out_c in enumerate(widths):
            stride = 1 if si == 0 else 2
            setattr(self, f"layer{si + 1}_0",
                    BasicBlock1d(in_c, out_c, stride, rng, dtype))
            setattr(self, f"layer{si + 1}_1",
                    BasicBlock1d(out_c, out_c, 1, rng, dtype))
            in_c = out_c
        self.out_channels = 8 * w

    def forward(self, x: Tensor) -> Tensor:
        x = F.maxpool1d(self.bn1(self.conv1(x), relu=True), 3, stride=2, padding=1)
        for si in range(4):
            x = getattr(self, f"layer{si + 1}_0")(x)
            x = getattr(self, f"layer{si + 1}_1")(x)
        return x
