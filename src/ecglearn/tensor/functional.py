"""Differentiable neural-network primitives on top of the Tensor graph.

Convolutions are computed directly (im2col + BLAS matmul, no FFT), which is
exact and fast enough at the signal lengths this package targets. Every
convolution and pool is one graph node: one prologue, ``_windows``, checks
its kernel, stride and padding, pads and windows its input, and one col2im
scatter sums the window gradients back. That scatter works channels last:
a convolution's backward multiplies by the weight matrix with its columns
permuted to (KH, KW, C), so each kernel offset's gradient slab is contiguous,
and the scatter's crop transposes the sum back to [B, C, H, W] in one copy.
A window op's backward closure keeps its input array and shapes, never a
derived window array: a convolution rebuilds its im2col matrix (and a
depthwise convolution its padded windows) from the input in backward, with
the same code and so the same bytes, rather than holding them from forward
to backward. 1-d ops run the 2-d kernels on height-1 views inside that
one node. Batch and layer normalization are one node, ``_normalize``, over
different axes; ``_moments`` reproduces numpy's mean and variance arithmetic
and hands x - mu on, so it is computed once. Normalization keeps no
activation-sized array beside its input and output: backward rebuilds x̂
from the input with the forward's two operations. Batchnorm can also add a
residual and apply relu in place (``batchnorm(..., residual=r, relu=True)``),
so BN → add → ReLU is one node that keeps no pre-activation array. relu is
``fmax(x, 0)`` plus an in-place +0, which maps NaN, -inf and -0.0 to +0.0
exactly as ``np.where(x > 0, x, 0)`` does, without keeping a mask. These
forms keep every floating-point operation and summation order of the plain
formulas, so outputs and gradients are bit-identical to them. Every op
validates its shape algebra up front and raises ShapeError naming the op
and the offending dimensions; a conforming call always produces the
documented output shape.
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


def _rectify(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.fmax(a, 0, out=out)     # NaN and -inf give 0
    out += 0                         # -0.0 becomes +0.0
    return out


def relu(x: Tensor) -> Tensor:
    data = _rectify(x.data)
    return Tensor._from_op(data, (x,), lambda g: (g * (data > 0),))


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


def _check_bias(b: Tensor | None, n: int, op: str):
    if b is not None and b.shape != (n,):
        raise ShapeError(f"{op}: bias shape {b.shape} != ({n},)")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) with w of shape [in_features, out_features]."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"linear: input features {x.shape[-1]} != weight rows {w.shape[0]}")
    _check_bias(b, w.shape[-1], "linear")
    out = x @ w
    if b is not None:
        out = out + b
    return out


# ---------------------------------------------------------------------------
# window ops: one prologue, one col2im scatter and one graph node per call


def _col2im(dwin: np.ndarray, strides: tuple, padded: tuple) -> np.ndarray:
    """Sum window gradients back onto the padded input grid, channels last.

    ``dwin`` is [B, *out, *kernel, C], the gradient of every strided window
    a forward pass read from a [B, *padded, C] grid. Kernel offsets are added
    one at a time, in ``np.ndindex`` order, so each input element sums its
    contributions in a fixed order and the result is deterministic. The grid
    is laid out channels first in memory when ``dwin``'s slabs are.
    """
    nd = len(strides)
    B, C = dwin.shape[0], dwin.shape[-1]
    out, kernel = dwin.shape[1:1 + nd], dwin.shape[1 + nd:-1]
    if dwin.strides[-1] <= dwin.strides[nd]:
        dxp = np.zeros((B, *padded, C), dtype=dwin.dtype)
    else:
        dxp = np.moveaxis(np.zeros((B, C, *padded), dtype=dwin.dtype), 1, -1)
    for offset in np.ndindex(*kernel):
        span = tuple(slice(k, k + (n - 1) * s + 1, s)
                     for k, n, s in zip(offset, out, strides))
        dxp[(slice(None), *span)] += dwin[(slice(None),) * (1 + nd) + offset]
    return dxp


def _windows(x: np.ndarray, kernel: tuple, stride: tuple, padding: tuple,
             op: str, err: str, fill: float = 0.0):
    """Pad [B, C, H, W] ``x`` with ``fill`` (each ``padding`` entry an int or a
    (before, after) pair), raise ShapeError if a kernel or stride entry is
    below 1, a padding entry below 0, or (``err`` formatted with kh, kw, hp
    and wp) if ``kernel`` does not fit, and return the strided windows
    [B, C, Ho, Wo, KH, KW] and ``scatter``, which sums channels-last window
    gradients [B, Ho, Wo, KH, KW, C] back onto x's [B, C, H, W] grid."""
    (ph0, ph1), (pw0, pw1) = ((p, p) if isinstance(p, int) else p for p in padding)
    for name, values, low in (("kernel size", kernel, 1), ("stride", stride, 1),
                              ("padding", (ph0, ph1, pw0, pw1), 0)):
        for v in values:
            if v < low:
                raise ShapeError(f"{op}: {name} must be >= {low}, got {v}")
    crop = (slice(None), slice(ph0, ph0 + x.shape[2]), slice(pw0, pw0 + x.shape[3]))
    if ph0 or ph1 or pw0 or pw1:
        x = np.pad(x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)), constant_values=fill)
    (kh, kw), (hp, wp) = kernel, x.shape[2:]
    if kh > hp or kw > wp:
        raise ShapeError(err.format(kh=kh, kw=kw, hp=hp, wp=wp))
    win = sliding_window_view(x, kernel, axis=(2, 3))[:, :, ::stride[0], ::stride[1]]
    return win, lambda dwin: np.ascontiguousarray(
        _col2im(dwin, stride, (hp, wp))[crop].transpose(0, 3, 1, 2))


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """The one graph node of a window op. When the input is 1-d the op ran
    on height-1 views: the output drops that axis and every gradient is
    reshaped back to its parent's shape."""
    if parents[0].ndim == 4:
        return Tensor._from_op(data, parents, backward)
    return Tensor._from_op(data[:, :, 0], parents, lambda g: tuple(
        None if d is None else d.reshape(p.shape)
        for p, d in zip(parents, backward(g[:, :, None]))))


def _conv_node(out: np.ndarray, x: Tensor, w: Tensor, b: Tensor | None,
               backward) -> Tensor:
    """A convolution's node: ``backward`` gives (dx, dw); the bias, if any,
    broadcasts over and its gradient sums g over every axis but channels."""
    if b is None:
        return _node(out, (x, w), backward)
    return _node(out + b.data.reshape(1, -1, 1, 1), (x, w, b),
                 lambda g: backward(g) + (g.sum(axis=(0, 2, 3)),))


# im2col copies one strided slab per kernel offset while kernel rows are at
# most this wide; past it, one transpose copy running along the rows is faster
_SLAB_KW = 5


def _im2col(win: np.ndarray) -> np.ndarray:
    """The [B*Ho*Wo, C*KH*KW] im2col matrix of windows [B, C, Ho, Wo, KH, KW]."""
    B, C, Ho, Wo, KH, KW = win.shape
    if KW <= _SLAB_KW:
        cols = np.empty((B, Ho, Wo, C, KH, KW), dtype=win.dtype)
        for kh, kw in np.ndindex(KH, KW):
            cols[..., kh, kw] = win[..., kh, kw].transpose(0, 2, 3, 1)
    else:
        cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(B * Ho * Wo, C * KH * KW)


def _conv(x: Tensor, w: Tensor, b: Tensor | None, stride, padding, op: str,
          err: str) -> Tensor:
    """im2col cross-correlation of [B, C, H, W] with [O, C, KH, KW] (or of
    their 1-d, height-1 forms). The im2col matrix lives only inside the
    forward GEMM and inside backward's dw GEMM: backward rebuilds it from
    the input, so the graph holds no copy of it between the two."""
    xd, wd = (t.data if t.ndim == 4 else t.data[:, :, None] for t in (x, w))
    B, C, _, _ = xd.shape
    O, Cw, KH, KW = wd.shape
    if C != Cw:
        raise ShapeError(f"{op}: input channels {C} != weight channels {Cw}")
    _check_bias(b, O, op)
    win, scatter = _windows(xd, (KH, KW), stride, padding, op, err)
    Ho, Wo = win.shape[2], win.shape[3]
    wmat = wd.reshape(O, C * KH * KW)
    out = np.ascontiguousarray(
        (_im2col(win) @ wmat.T).reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2))

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * Ho * Wo, O)
        cols = _im2col(_windows(xd, (KH, KW), stride, padding, op, err)[0])
        dw = (g2.T @ cols).reshape(O, C, KH, KW)
        del cols                                       # before dcols exists
        if not x.requires_grad:
            return None, dw
        # wmat's columns permuted to (KH, KW, C) give channels-last dcols
        wcl = wd.transpose(0, 2, 3, 1).reshape(O, KH * KW * C)
        return scatter((g2 @ wcl).reshape(B, Ho, Wo, KH, KW, C)), dw

    return _conv_node(out, x, w, b, backward)


def _avgpool(x: Tensor, kernel: tuple, stride: tuple, op: str, err: str) -> Tensor:
    """Mean over each window of [B, C, H, W] x (or of its 1-d, height-1 form)."""
    xd = x.data if x.ndim == 4 else x.data[:, :, None]
    win, scatter = _windows(xd, kernel, stride, (0, 0), op, err)
    data = np.ascontiguousarray(win.mean(axis=(4, 5)))
    shape = win.shape

    def backward(g):
        share = g / (kernel[0] * kernel[1])
        dwin = np.broadcast_to(share[..., None, None], shape)
        return (scatter(dwin.transpose(0, 2, 3, 4, 5, 1)),)

    return _node(data, (x,), backward)


# ---------------------------------------------------------------------------
# 1-d convolution and pooling (height-1 cases of the 2-d kernels)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B, C, L] with filters [O, C, K] -> [B, O, Lout]."""
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected x[B,C,L], w[O,C,K]; got {x.shape}, {w.shape}")
    return _conv(x, w, b, (1, stride), (0, padding), "conv1d",
                 "conv1d: kernel {kw} larger than padded input {wp} "
                 f"(L={x.shape[2]}, pad={padding})")


def maxpool1d(x: Tensor, kernel: int, stride: int | None = None,
              padding: int = 0) -> Tensor:
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d expects [B,C,L], got {x.shape}")
    win, scatter = _windows(
        x.data[:, :, None], (1, kernel), (1, kernel if stride is None else stride),
        (0, padding), "maxpool1d", "maxpool1d: kernel {kw} larger than padded input {wp}",
        fill=-np.inf)
    win = win[..., 0, :]                                  # [B, C, 1, Lout, k]
    # argmax's choice, one offset slab at a time: the first maximum of each
    # window, or its first NaN
    data = win[..., 0]
    idx = np.zeros(data.shape, dtype=np.min_scalar_type(kernel))
    for k in range(1, kernel):
        take = ~((win[..., k] <= data) | (data != data))
        data = np.where(take, win[..., k], data)
        idx += take * (k - idx)
    data = np.ascontiguousarray(data)

    def backward(g):
        # built offset-major, so each offset's slab is contiguous; a
        # kernel-last array would run every op over a length-kernel axis
        sel = idx == np.arange(kernel).reshape(-1, 1, 1, 1, 1)
        return (scatter((g * sel).transpose(1, 3, 4, 0, 2)[:, :, :, None]),)

    return _node(data, (x,), backward)


def avgpool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    if x.ndim != 3:
        raise ShapeError(f"avgpool1d expects [B,C,L], got {x.shape}")
    return _avgpool(x, (1, kernel), (1, kernel if stride is None else stride),
                    "avgpool1d", "avgpool1d: kernel {kw} larger than input {wp}")


def global_avg_pool1d(x: Tensor) -> Tensor:
    """[B, C, L] -> [B, C], mean over the temporal axis."""
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool1d expects [B,C,L], got {x.shape}")
    return x.mean(axis=2)


# ---------------------------------------------------------------------------
# 2-d convolution and pooling (12-lead grid front-ends)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Cross-correlation of [B, C, H, W] with filters [O, C, KH, KW]."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected x[B,C,H,W], w[O,C,KH,KW]; got {x.shape}, {w.shape}")
    return _conv(x, w, b, stride, padding, "conv2d",
                 "conv2d: kernel ({kh},{kw}) larger than padded input ({hp},{wp})")


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
    _check_bias(b, C * M, "depthwise_conv2d")
    def windows():
        return _windows(
            x.data, (KH, KW), stride, padding, "depthwise_conv2d",
            "depthwise_conv2d: kernel ({kh},{kw}) larger than padded input ({hp},{wp})")

    win, scatter = windows()
    Ho, Wo = win.shape[2], win.shape[3]
    out = np.einsum("bchwuv,cmuv->bcmhw", win, w.data, optimize=True)
    out = np.ascontiguousarray(out.reshape(B, C * M, Ho, Wo))

    def backward(g):
        g5 = g.reshape(B, C, M, Ho, Wo)
        dw = np.einsum("bchwuv,bcmhw->cmuv", windows()[0], g5, optimize=True)
        dwin = np.einsum("bcmhw,cmuv->bchwuv", g5, w.data, optimize=True)
        return scatter(dwin.transpose(0, 2, 3, 4, 5, 1)), dw

    return _conv_node(out, x, w, b, backward)


def avgpool2d(x: Tensor, kernel: tuple[int, int],
              stride: tuple[int, int] | None = None) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"avgpool2d expects [B,C,H,W], got {x.shape}")
    return _avgpool(x, kernel, kernel if stride is None else stride, "avgpool2d",
                    "avgpool2d: kernel ({kh},{kw}) larger than input ({hp},{wp})")


# ---------------------------------------------------------------------------
# normalization


def _moments(x: np.ndarray, axes: tuple):
    """Mean and biased variance of ``x`` over ``axes`` (kept), and x - mean.
    The arithmetic is numpy's own ``mean``/``var`` (sum, divide by the count
    as intp, subtract, square, sum, divide), so both match them bit for bit
    while x - mean is computed once."""
    n = np.intp(np.prod([x.shape[a] for a in axes]))
    mu = x.sum(axis=axes, keepdims=True)
    np.true_divide(mu, n, out=mu, casting="unsafe")
    d = x - mu
    var = np.square(d).sum(axis=axes, keepdims=True)
    np.true_divide(var, n, out=var, casting="unsafe")
    return mu, var, d


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, mu: np.ndarray,
               d: np.ndarray, var, eps: float, stat_axes: tuple,
               param_axes: tuple, batch_stats: bool,
               residual: Tensor | None = None, relu: bool = False) -> Tensor:
    """gamma * d / sqrt(var + eps) + beta for ``d`` = x - mu, a fresh array
    this node takes over; gamma and beta broadcast over (and their gradients
    sum over) ``param_axes``. With ``batch_stats``, mu and var are x's own
    statistics over ``stat_axes`` and dx takes their terms. ``residual`` is
    then added and ``relu`` applied in place, as ``relu(out + residual)``
    computes them, so the output is the only activation-sized array the node
    holds. The closure keeps x's array, mu and inv_std: backward rebuilds
    x̂ = (x - mu) * inv_std with the forward's two operations, masks g by
    the output when ``relu``, and passes that g on as the residual's
    gradient. Temporaries are reused in place; every operation and its
    order is the plain formulas'."""
    pshape = tuple(1 if a in param_axes else n for a, n in enumerate(x.shape))
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(d, inv_std, out=d)
    data = xhat * gam
    data += bet
    data = data.astype(x.dtype, copy=False)
    parents = (x, gamma, beta)
    if residual is not None:
        data += residual.data
        parents += (residual,)
    if relu:
        _rectify(data, out=data)
    has_residual = residual is not None
    xd = x.data
    n = int(np.prod([x.shape[a] for a in stat_axes]))

    def backward(g):
        if relu:
            g = g * (data > 0)
        xhat = np.subtract(xd, mu)
        xhat *= inv_std
        dbeta = g.sum(axis=param_axes)
        tmp = g * xhat
        dgamma = tmp.sum(axis=param_axes)
        dx = g * gam                                   # dxhat
        if batch_stats:
            # (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
            s1 = dx.sum(axis=stat_axes, keepdims=True)
            s2 = np.multiply(dx, xhat, out=tmp).sum(axis=stat_axes, keepdims=True)
            dx *= n
            dx -= s1
            dx -= np.multiply(xhat, s2, out=tmp)
            dx *= inv_std / n
        else:
            dx *= inv_std
        grads = (np.ascontiguousarray(dx), dgamma, dbeta)
        return grads + (g,) if has_residual else grads

    return Tensor._from_op(data, parents, backward)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, momentum: float = 0.1, eps: float = 1e-5,
              update_stats: bool = True, residual: Tensor | None = None,
              relu: bool = False) -> Tensor:
    """Batch normalization over all axes except channel (axis 1).

    Works for [B, C, L] and [B, C, H, W]. In training mode the batch mean and
    (biased) variance normalize the activations and, unless stats are frozen,
    update the running buffers in place. Eval mode requires populated running
    stats and normalizes with them; the node keeps its own copy of the
    running mean, so a later update cannot change what backward reads.
    ``residual`` (same shape as x) is added to the output and ``relu``
    then applied, in this one node: ``batchnorm(x, ..., residual=r,
    relu=True)`` equals ``relu(batchnorm(x, ...) + r)`` bit for bit.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"batchnorm expects [B,C,L] or [B,C,H,W], got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"batchnorm: gamma/beta must have shape ({C},)")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"batchnorm: residual shape {residual.shape} "
                         f"differs from input {x.shape}")
    axes = (0,) + tuple(range(2, x.ndim))
    if training:
        mu, var, d = _moments(x.data, axes)
        if update_stats:
            running_mean += momentum * (mu.reshape(C) - running_mean)
            running_var += momentum * (var.reshape(C) - running_var)
    else:
        if not np.any(running_var):
            raise ShapeError("batchnorm eval mode requires populated running stats")
        pshape = (1, C) + (1,) * (x.ndim - 2)
        mu = running_mean.reshape(pshape).copy()
        var = running_var.reshape(pshape)
        d = x.data - mu
    return _normalize(x, gamma, beta, mu, d, var, eps, axes, axes, training,
                      residual, relu)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis, per position."""
    H = x.shape[-1]
    if gamma.shape != (H,) or beta.shape != (H,):
        raise ShapeError(f"layernorm: gamma/beta must have shape ({H},)")
    mu, var, d = _moments(x.data, (x.ndim - 1,))
    return _normalize(x, gamma, beta, mu, d, var, eps, (x.ndim - 1,),
                      tuple(range(x.ndim - 1)), True)
