"""Differentiable neural-network primitives on top of the Tensor graph.

Convolutions are computed directly (im2col + BLAS matmul, no FFT), which is
exact and fast enough at the signal lengths this package targets. 1-d
convolution and average pooling run on the 2-d kernels as their height-1
case, so there is one im2col convolution. Every window op's backward pass
sums its window gradients back through one col2im scatter. Batch and layer
normalization are one node, ``_normalize``, over different axes. Every op
validates its shape algebra up front and raises ShapeError naming the op and
the offending dimensions; a conforming call always produces the documented
output shape.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor, stable_sigmoid

__all__ = [
    "relu", "elu", "softmax", "logsigmoid", "dropout", "concat", "linear",
    "conv1d", "conv2d", "depthwise_conv2d", "maxpool1d", "avgpool1d",
    "avgpool2d", "global_avg_pool1d", "batchnorm", "layernorm",
]


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    data = np.where(mask, x.data, 0.0).astype(x.dtype, copy=False)
    return Tensor._from_op(data, (x,), lambda g: (g * mask,))


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    neg = alpha * np.expm1(np.minimum(x.data, 0.0))
    data = np.where(x.data > 0, x.data, neg).astype(x.dtype, copy=False)
    slope = np.where(x.data > 0, 1.0, neg + alpha).astype(x.dtype, copy=False)
    return Tensor._from_op(data, (x,), lambda g: (g * slope,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return Tensor._from_op(data.astype(x.dtype, copy=False), (x,), backward)


def logsigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow in either tail."""
    data = -np.logaddexp(0.0, -x.data).astype(x.dtype, copy=False)
    sig_neg = stable_sigmoid(-x.data)
    return Tensor._from_op(data, (x,), lambda g: (g * sig_neg,))


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) so eval is identity."""
    if not training or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / np.asarray(1.0 - p, x.dtype)
    data = x.data * mask
    return Tensor._from_op(data, (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# structural ops


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return Tensor._from_op(data, tuple(tensors), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) with w of shape [in_features, out_features]."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"linear: input features {x.shape[-1]} != weight rows {w.shape[0]}")
    out = x @ w
    if b is not None:
        out = out + b
    return out


# ---------------------------------------------------------------------------
# im2col scatter (col2im)


def _col2im(dwin: np.ndarray, strides: tuple, padded: tuple) -> np.ndarray:
    """Sum window gradients back onto the padded input grid.

    ``dwin`` is [B, C, *out, *kernel], the gradient of every strided window
    a forward pass read from a [B, C, *padded] input. Kernel offsets are added
    one at a time, in ``np.ndindex`` order, so each input element sums its
    contributions in a fixed order and the result is deterministic.
    """
    nd = len(strides)
    out, kernel = dwin.shape[2:2 + nd], dwin.shape[2 + nd:]
    dxp = np.zeros(dwin.shape[:2] + tuple(padded), dtype=dwin.dtype)
    for offset in np.ndindex(*kernel):
        span = tuple(slice(k, k + (n - 1) * s + 1, s)
                     for k, n, s in zip(offset, out, strides))
        dxp[(..., *span)] += dwin[(..., *offset)]
    return dxp


# ---------------------------------------------------------------------------
# 1-d convolution and pooling (height-1 cases of the 2-d kernels below)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B, C, L] with filters [O, C, K] -> [B, O, Lout]."""
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected x[B,C,L], w[O,C,K]; got {x.shape}, {w.shape}")
    B, C, L = x.shape
    O, Cw, K = w.shape
    if C != Cw:
        raise ShapeError(f"conv1d: input channels {C} != weight channels {Cw}")
    Lp = L + 2 * padding
    if K > Lp:
        raise ShapeError(
            f"conv1d: kernel {K} larger than padded input {Lp} (L={L}, pad={padding})")
    out = conv2d(x.reshape(B, C, 1, L), w.reshape(O, C, 1, K), b,
                 stride=(1, stride), padding=(0, padding))
    return out.reshape(B, O, out.shape[3])


def maxpool1d(x: Tensor, kernel: int, stride: int | None = None,
              padding: int = 0) -> Tensor:
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d expects [B,C,L], got {x.shape}")
    stride = stride or kernel
    B, C, L = x.shape
    Lp = L + 2 * padding
    if kernel > Lp:
        raise ShapeError(f"maxpool1d: kernel {kernel} larger than padded input {Lp}")
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding)), constant_values=-np.inf)
    win = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride, :]  # [B, C, Lout, k]
    idx = win.argmax(axis=3)
    data = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]
    data = np.ascontiguousarray(data)

    def backward(g):
        # built offset-major, so each offset's slab is contiguous; a
        # kernel-last array would run every op over a length-kernel axis
        sel = idx == np.arange(kernel).reshape(-1, 1, 1, 1)
        dwin = np.moveaxis(g * sel, 0, -1)
        dx = _col2im(dwin, (stride,), (Lp,))[..., padding:padding + L]
        return (np.ascontiguousarray(dx),)

    return Tensor._from_op(data, (x,), backward)


def avgpool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    if x.ndim != 3:
        raise ShapeError(f"avgpool1d expects [B,C,L], got {x.shape}")
    B, C, L = x.shape
    if kernel > L:
        raise ShapeError(f"avgpool1d: kernel {kernel} larger than input {L}")
    out = avgpool2d(x.reshape(B, C, 1, L), (1, kernel), (1, stride or kernel))
    return out.reshape(B, C, out.shape[3])


def global_avg_pool1d(x: Tensor) -> Tensor:
    """[B, C, L] -> [B, C], mean over the temporal axis."""
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool1d expects [B,C,L], got {x.shape}")
    return x.mean(axis=2)


# ---------------------------------------------------------------------------
# 2-d convolution and pooling (12-lead grid front-ends)


def _pad2d(x: np.ndarray, ph, pw) -> tuple[np.ndarray, tuple]:
    """Zero-pad H by ph and W by pw (each an int or a (before, after) pair).

    Also returns the index that crops a padded-grid gradient back to x.
    """
    ph0, ph1 = (ph, ph) if isinstance(ph, int) else ph
    pw0, pw1 = (pw, pw) if isinstance(pw, int) else pw
    crop = (..., slice(ph0, ph0 + x.shape[2]), slice(pw0, pw0 + x.shape[3]))
    if not (ph0 or ph1 or pw0 or pw1):
        return x, crop
    return np.pad(x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1))), crop


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Cross-correlation of [B, C, H, W] with filters [O, C, KH, KW]."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected x[B,C,H,W], w[O,C,KH,KW]; got {x.shape}, {w.shape}")
    B, C, H, W = x.shape
    O, Cw, KH, KW = w.shape
    if C != Cw:
        raise ShapeError(f"conv2d: input channels {C} != weight channels {Cw}")
    sh, sw = stride
    ph, pw = padding
    xp, crop = _pad2d(x.data, ph, pw)
    Hp, Wp = xp.shape[2], xp.shape[3]
    if KH > Hp or KW > Wp:
        raise ShapeError(f"conv2d: kernel ({KH},{KW}) larger than padded input ({Hp},{Wp})")
    win = sliding_window_view(xp, (KH, KW), axis=(2, 3))[:, :, ::sh, ::sw]
    Ho, Wo = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B * Ho * Wo, C * KH * KW)
    wmat = w.data.reshape(O, C * KH * KW)
    out = (cols @ wmat.T).reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)
    if b is not None:
        out = out + b.data.reshape(1, O, 1, 1)

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * Ho * Wo, O)
        dw = (g2.T @ cols).reshape(O, C, KH, KW)
        db = g.sum(axis=(0, 2, 3)) if b is not None else None
        dcols = (g2 @ wmat).reshape(B, Ho, Wo, C, KH, KW).transpose(0, 3, 1, 2, 4, 5)
        dx = _col2im(dcols, stride, (Hp, Wp))[crop]
        return (np.ascontiguousarray(dx), dw) + ((db,) if b is not None else ())

    parents = (x, w) + ((b,) if b is not None else ())
    return Tensor._from_op(out, parents, backward)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
                     stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Per-channel convolution: x[B,C,H,W], w[C,M,KH,KW] -> [B, C*M, Ho, Wo].

    M is the depth multiplier; output channel c*M+m is channel c filtered
    with w[c, m].
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(
            f"depthwise_conv2d: expected x[B,C,H,W], w[C,M,KH,KW]; got {x.shape}, {w.shape}")
    B, C, H, W = x.shape
    Cw, M, KH, KW = w.shape
    if C != Cw:
        raise ShapeError(f"depthwise_conv2d: input channels {C} != weight channels {Cw}")
    sh, sw = stride
    ph, pw = padding
    xp, crop = _pad2d(x.data, ph, pw)
    Hp, Wp = xp.shape[2], xp.shape[3]
    if KH > Hp or KW > Wp:
        raise ShapeError(
            f"depthwise_conv2d: kernel ({KH},{KW}) larger than padded input ({Hp},{Wp})")
    win = sliding_window_view(xp, (KH, KW), axis=(2, 3))[:, :, ::sh, ::sw]
    Ho, Wo = win.shape[2], win.shape[3]
    out = np.einsum("bchwuv,cmuv->bcmhw", win, w.data, optimize=True)
    out = np.ascontiguousarray(out.reshape(B, C * M, Ho, Wo))
    if b is not None:
        out = out + b.data.reshape(1, C * M, 1, 1)

    def backward(g):
        g5 = g.reshape(B, C, M, Ho, Wo)
        dw = np.einsum("bchwuv,bcmhw->cmuv", win, g5, optimize=True)
        db = g.sum(axis=(0, 2, 3)) if b is not None else None
        dwin = np.einsum("bcmhw,cmuv->bchwuv", g5, w.data, optimize=True)
        dx = _col2im(dwin, stride, (Hp, Wp))[crop]
        return (np.ascontiguousarray(dx), dw) + ((db,) if b is not None else ())

    parents = (x, w) + ((b,) if b is not None else ())
    return Tensor._from_op(out, parents, backward)


def avgpool2d(x: Tensor, kernel: tuple[int, int],
              stride: tuple[int, int] | None = None) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"avgpool2d expects [B,C,H,W], got {x.shape}")
    kh, kw = kernel
    sh, sw = stride or kernel
    B, C, H, W = x.shape
    if kh > H or kw > W:
        raise ShapeError(f"avgpool2d: kernel ({kh},{kw}) larger than input ({H},{W})")
    win = sliding_window_view(x.data, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    data = np.ascontiguousarray(win.mean(axis=(4, 5)))

    def backward(g):
        share = g / (kh * kw)
        dwin = np.broadcast_to(share[..., None, None], share.shape + (kh, kw))
        return (_col2im(dwin, (sh, sw), (H, W)),)

    return Tensor._from_op(data, (x,), backward)


# ---------------------------------------------------------------------------
# normalization


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, mu, var, eps: float,
               stat_axes: tuple, param_axes: tuple, batch_stats: bool) -> Tensor:
    """gamma * (x - mu) / sqrt(var + eps) + beta; gamma and beta broadcast over
    (and their gradients sum over) ``param_axes``. With ``batch_stats``, mu and
    var are x's own statistics over ``stat_axes`` and dx takes their terms."""
    pshape = tuple(1 if a in param_axes else n for a, n in enumerate(x.shape))
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    data = (gam * xhat + bet).astype(x.dtype, copy=False)
    n = int(np.prod([x.shape[a] for a in stat_axes]))

    def backward(g):
        dbeta = g.sum(axis=param_axes)
        dgamma = (g * xhat).sum(axis=param_axes)
        dxhat = g * gam
        if batch_stats:
            dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=stat_axes, keepdims=True)
                                  - xhat * (dxhat * xhat).sum(axis=stat_axes, keepdims=True))
        else:
            dx = dxhat * inv_std
        return np.ascontiguousarray(dx), dgamma, dbeta

    return Tensor._from_op(data, (x, gamma, beta), backward)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float = 0.1, eps: float = 1e-5,
              update_stats: bool = True) -> Tensor:
    """Batch normalization over all axes except channel (axis 1).

    Works for [B, C, L] and [B, C, H, W]. In training mode the batch mean and
    (biased) variance normalize the activations and, unless stats are frozen,
    update the running buffers in place. Eval mode requires populated running
    stats and normalizes with them.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"batchnorm expects [B,C,L] or [B,C,H,W], got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"batchnorm: gamma/beta must have shape ({C},)")
    axes = (0,) + tuple(range(2, x.ndim))
    if training:
        mu = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        if update_stats:
            running_mean += momentum * (mu.reshape(C) - running_mean)
            running_var += momentum * (var.reshape(C) - running_var)
    else:
        if not np.any(running_var):
            raise ShapeError("batchnorm eval mode requires populated running stats")
        pshape = (1, C) + (1,) * (x.ndim - 2)
        mu, var = running_mean.reshape(pshape), running_var.reshape(pshape)
    return _normalize(x, gamma, beta, mu, var, eps, axes, axes, training)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis, per position."""
    H = x.shape[-1]
    if gamma.shape != (H,) or beta.shape != (H,):
        raise ShapeError(f"layernorm: gamma/beta must have shape ({H},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    return _normalize(x, gamma, beta, mu, var, eps, (x.ndim - 1,),
                      tuple(range(x.ndim - 1)), True)
