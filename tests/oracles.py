"""Brute-force reference implementations used to verify the metric suite,
the AUC's tie-group loop from before its groups came from value boundaries,
the bandpass filter and the backward passes of the strided window ops, plus
the forward passes of those ops from before they shared one windowing
prologue and one graph node per call, the per-input finite-difference loop
that ``gradcheck`` ran before it became the one-tensor case of
``param_gradcheck``, the batch and layer norm nodes from before they
shared one forward and backward, relu from before it became fmax plus an
in-place +0, and the logistic and the recurrent unroll from before the
logistic dropped its boolean masks and the unroll became one cell loop,
the record path (segment cuts, padding, per-lead normalization and the
two synthetic generators) from before each of its steps was written once,
the whole-record float64 decode that a read record held before records
kept their 16-bit samples, and the loader's draw from before it made one
pass per stage: a checked record at every stage, a masked normalizing
divide, and a float32 copy per window stacked into the batch.

Deliberately written with explicit python loops and none of the library's
vectorized machinery, so agreement is meaningful. Conventions match the
documented metric definitions: empty denominators give 0 for binarized
metrics; AP uses precision-at-each-positive over the stable descending score
order; AUC counts pairwise wins with ties worth 1/2; undefined AP/AUC
(missing class) is None and excluded from macro means.
"""

import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ecglearn.dataio.labels import LabelVector, TaskKind, TaskSpec
from ecglearn.dataio.manifest import DatasetManifest, ManifestRow
from ecglearn.dataio.splits import stratified_kfold
from ecglearn.dataio.synthetic import _LEAD_PROFILE, _label_rows, class_frequency
from ecglearn.errors import AutodiffError, DataError, ShapeError, SignalError
from ecglearn.seeding import substream
from ecglearn.augment import apply_augmentations
from ecglearn.signal import (_EPS, N_LEADS, EcgRecord, NormalizationMethod,
                             QuantizedRecord, SegmentSpec, draw_segment_start)
from ecglearn.tensor import GradcheckReport, Tensor, gru_cell, lstm_cell, no_grad
from ecglearn.tensor.functional import concat


def oracle_column_binarized(pred_col, tgt_col):
    tp = fp = tn = fn = 0
    for p, t in zip(pred_col, tgt_col):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    n = len(pred_col)
    sens = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    spec = tn / (tn + fp) if (tn + fp) > 0 else 0.0
    ppv = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0
    return {
        "accuracy": (tp + tn) / n,
        "f1": f1,
        "sensitivity": sens,
        "specificity": spec,
        "ppv": ppv,
        "gmean": math.sqrt(sens * spec),
    }


def oracle_ap(scores_col, tgt_col):
    n_pos = sum(1 for t in tgt_col if t == 1)
    if n_pos == 0:
        return None
    order = sorted(range(len(scores_col)), key=lambda i: -float(scores_col[i]))
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if tgt_col[idx] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


def oracle_auc(scores_col, tgt_col):
    pos = [float(s) for s, t in zip(scores_col, tgt_col) if t == 1]
    neg = [float(s) for s, t in zip(scores_col, tgt_col) if t == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_auc_tie_loop(scores, targets):
    """``auc_score`` from before its tie groups came from value boundaries:
    a loop that scans each group, ranks it (i + 1 + j) / 2 and sums the
    positives' ranks. Finite scores only: a NaN never ends its group."""
    targets = np.asarray(targets)
    n = len(targets)
    n_pos = int(targets.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    svals = scores[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j < n and svals[j] == svals[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    rank_sum = float(ranks[targets == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def oracle_report(scores, targets, kind="multilabel", threshold=0.5):
    """Full macro report; scores/targets are 2-d nested sequences."""
    n = len(scores)
    k = len(scores[0])
    if kind == "multiclass":
        pred = [[0] * k for _ in range(n)]
        for i in range(n):
            best = 0
            for c in range(1, k):
                if scores[i][c] > scores[i][best]:
                    best = c
            pred[i][best] = 1
    else:
        pred = [[1 if scores[i][c] >= threshold else 0 for c in range(k)]
                for i in range(n)]

    sums = {m: 0.0 for m in ("accuracy", "f1", "sensitivity", "specificity",
                             "ppv", "gmean")}
    aps, aucs = [], []
    for c in range(k):
        pred_col = [pred[i][c] for i in range(n)]
        tgt_col = [targets[i][c] for i in range(n)]
        score_col = [scores[i][c] for i in range(n)]
        stats = oracle_column_binarized(pred_col, tgt_col)
        for m in sums:
            sums[m] += stats[m]
        ap = oracle_ap(score_col, tgt_col)
        if ap is not None:
            aps.append(ap)
        auc = oracle_auc(score_col, tgt_col)
        if auc is not None:
            aucs.append(auc)

    out = {m: sums[m] / k for m in sums}
    out["map"] = sum(aps) / len(aps) if aps else float("nan")
    out["auc"] = sum(aucs) / len(aucs) if aucs else float("nan")
    return out


def oracle_sosfilt(sections, x):
    """Biquad cascade along the last axis, one section and one sample at a
    time over lane-major data (direct form II transposed)."""
    y = np.array(x, dtype=np.float64, copy=True)
    lead_shape = y.shape[:-1]
    n = y.shape[-1]
    for b0, b1, b2, _a0, a1, a2 in sections:
        z1 = np.zeros(lead_shape)
        z2 = np.zeros(lead_shape)
        src = y.copy()
        for i in range(n):
            xi = src[..., i]
            yi = b0 * xi + z1
            z1 = b1 * xi - a1 * yi + z2
            z2 = b2 * xi - a2 * yi
            y[..., i] = yi
    return y


def oracle_filtfilt(sections, x, padlen):
    """Odd-reflection padding, forward pass, backward pass, trim."""
    x = np.asarray(x, dtype=np.float64)
    padlen = min(padlen, x.shape[-1] - 1)
    if padlen > 0:
        left = 2.0 * x[..., :1] - x[..., padlen:0:-1]
        right = 2.0 * x[..., -1:] - x[..., -2:-padlen - 2:-1]
        x = np.concatenate([left, x, right], axis=-1)
    y = oracle_sosfilt(sections, x)
    y = oracle_sosfilt(sections, y[..., ::-1])[..., ::-1]
    if padlen > 0:
        y = y[..., padlen:-padlen]
    return y


def oracle_bandpass(signal, fs, sections):
    """One record's zero-phase bandpass with a second of padding."""
    return oracle_filtfilt(sections, signal, min(signal.shape[-1] - 1, int(fs)))


# ---------------------------------------------------------------------------
# Backward passes of the strided window ops, each with its own hand-written
# scatter-add loop over kernel offsets. Each takes the forward inputs and the
# upstream gradient g and returns the op's gradients. Each op also keeps its
# own forward pass: the 1-d convolution and average pool from before they ran
# on the 2-d kernels, the others from before every window op shared one
# windowing prologue.


def _pads(p):
    return (p, p) if isinstance(p, int) else tuple(p)


def oracle_conv1d(x, w, b, stride, padding):
    """Forward of conv1d: its own 1-d im2col and GEMM."""
    B, C, L = x.shape
    O, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    win = sliding_window_view(xp, K, axis=2)[:, :, ::stride, :]
    Lout = win.shape[2]
    cols = np.ascontiguousarray(win.transpose(0, 2, 1, 3)).reshape(B * Lout, C * K)
    out = (cols @ w.reshape(O, C * K).T).reshape(B, Lout, O).transpose(0, 2, 1)
    out = np.ascontiguousarray(out)
    return out + b.reshape(1, O, 1) if b is not None else out


def oracle_avgpool1d(x, kernel, stride):
    """Forward of avgpool1d: the mean over each 1-d window."""
    win = sliding_window_view(x, kernel, axis=2)[:, :, ::stride, :]
    return np.ascontiguousarray(win.mean(axis=3))


def oracle_maxpool1d(x, kernel, stride, padding):
    """Forward of maxpool1d: the first maximum of each -inf-padded window."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)), constant_values=-np.inf)
    win = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride, :]
    idx = win.argmax(axis=3)
    return np.ascontiguousarray(np.take_along_axis(win, idx[..., None], axis=3)[..., 0])


def oracle_conv1d_grads(x, w, b, g, stride, padding):
    """(dx, dw, db) of conv1d."""
    B, C, L = x.shape
    O, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    Lp = xp.shape[2]
    win = sliding_window_view(xp, K, axis=2)[:, :, ::stride, :]
    Lout = win.shape[2]
    cols = np.ascontiguousarray(win.transpose(0, 2, 1, 3)).reshape(B * Lout, C * K)
    wmat = w.reshape(O, C * K)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(B * Lout, O)
    dw = (g2.T @ cols).reshape(O, C, K)
    db = g.sum(axis=(0, 2)) if b is not None else None
    dcols = (g2 @ wmat).reshape(B, Lout, C, K).transpose(0, 2, 1, 3)
    dxp = np.zeros((B, C, Lp), dtype=g.dtype)
    span = (Lout - 1) * stride + 1
    for kk in range(K):
        dxp[:, :, kk:kk + span:stride] += dcols[:, :, :, kk]
    dx = dxp[:, :, padding:padding + L] if padding else dxp
    return np.ascontiguousarray(dx), dw, db


def oracle_maxpool1d_grad(x, g, kernel, stride, padding):
    """dx of maxpool1d; ties go to the first maximum of a window."""
    B, C, L = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)), constant_values=-np.inf)
    Lp = xp.shape[2]
    idx = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride, :].argmax(axis=3)
    Lout = idx.shape[2]
    dxp = np.zeros((B, C, Lp), dtype=g.dtype)
    span = (Lout - 1) * stride + 1
    for kk in range(kernel):
        sel = idx == kk
        if sel.any():
            dxp[:, :, kk:kk + span:stride] += g * sel
    dx = dxp[:, :, padding:padding + L] if padding else dxp
    return np.ascontiguousarray(dx)


def oracle_avgpool1d_grad(x, g, kernel, stride):
    """dx of avgpool1d."""
    B, C, L = x.shape
    Lout = g.shape[2]
    dx = np.zeros((B, C, L), dtype=g.dtype)
    share = g / kernel
    span = (Lout - 1) * stride + 1
    for kk in range(kernel):
        dx[:, :, kk:kk + span:stride] += share
    return dx


def _scatter2d(dwin, dxp, stride, padding, H, W):
    sh, sw = stride
    Ho, Wo, KH, KW = dwin.shape[2:]
    hspan = (Ho - 1) * sh + 1
    wspan = (Wo - 1) * sw + 1
    for kh in range(KH):
        for kw in range(KW):
            dxp[:, :, kh:kh + hspan:sh, kw:kw + wspan:sw] += dwin[:, :, :, :, kh, kw]
    ph0, pw0 = _pads(padding[0])[0], _pads(padding[1])[0]
    return np.ascontiguousarray(dxp[:, :, ph0:ph0 + H, pw0:pw0 + W])


def _windows2d(x, kshape, stride, padding):
    xp = np.pad(x, ((0, 0), (0, 0), _pads(padding[0]), _pads(padding[1])))
    win = sliding_window_view(xp, kshape, axis=(2, 3))[:, :, ::stride[0], ::stride[1]]
    return xp, win


def oracle_conv2d(x, w, b, stride, padding):
    """Forward of conv2d: its own 2-d im2col and GEMM."""
    B, C = x.shape[:2]
    O, _, KH, KW = w.shape
    _, win = _windows2d(x, (KH, KW), stride, padding)
    Ho, Wo = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B * Ho * Wo, C * KH * KW)
    out = (cols @ w.reshape(O, C * KH * KW).T).reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)
    return out + b.reshape(1, O, 1, 1) if b is not None else out


def oracle_depthwise_conv2d(x, w, b, stride, padding):
    """Forward of depthwise_conv2d: one einsum over the windows."""
    B, C = x.shape[:2]
    _, M, KH, KW = w.shape
    _, win = _windows2d(x, (KH, KW), stride, padding)
    out = np.einsum("bchwuv,cmuv->bcmhw", win, w, optimize=True)
    out = np.ascontiguousarray(out.reshape(B, C * M, win.shape[2], win.shape[3]))
    return out + b.reshape(1, C * M, 1, 1) if b is not None else out


def oracle_avgpool2d(x, kernel, stride):
    """Forward of avgpool2d: the mean over each 2-d window."""
    win = sliding_window_view(x, kernel, axis=(2, 3))[:, :, ::stride[0], ::stride[1]]
    return np.ascontiguousarray(win.mean(axis=(4, 5)))


def oracle_conv2d_grads(x, w, b, g, stride, padding):
    """(dx, dw, db) of conv2d; padding entries are ints or (before, after)."""
    B, C, H, W = x.shape
    O, _, KH, KW = w.shape
    xp, win = _windows2d(x, (KH, KW), stride, padding)
    Ho, Wo = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B * Ho * Wo, C * KH * KW)
    wmat = w.reshape(O, C * KH * KW)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * Ho * Wo, O)
    dw = (g2.T @ cols).reshape(O, C, KH, KW)
    db = g.sum(axis=(0, 2, 3)) if b is not None else None
    dcols = (g2 @ wmat).reshape(B, Ho, Wo, C, KH, KW).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros_like(xp, dtype=g.dtype)
    return _scatter2d(dcols, dxp, stride, padding, H, W), dw, db


def oracle_depthwise_conv2d_grads(x, w, b, g, stride, padding):
    """(dx, dw, db) of depthwise_conv2d."""
    B, C, H, W = x.shape
    _, M, KH, KW = w.shape
    xp, win = _windows2d(x, (KH, KW), stride, padding)
    g5 = g.reshape(B, C, M, win.shape[2], win.shape[3])
    dw = np.einsum("bchwuv,bcmhw->cmuv", win, g5, optimize=True)
    db = g.sum(axis=(0, 2, 3)) if b is not None else None
    dwin = np.einsum("bcmhw,cmuv->bchwuv", g5, w, optimize=True)
    dxp = np.zeros_like(xp, dtype=g.dtype)
    return _scatter2d(dwin, dxp, stride, padding, H, W), dw, db


def oracle_avgpool2d_grad(x, g, kernel, stride):
    """dx of avgpool2d."""
    B, C, H, W = x.shape
    kh, kw = kernel
    sh, sw = stride
    Ho, Wo = g.shape[2], g.shape[3]
    dx = np.zeros((B, C, H, W), dtype=g.dtype)
    share = g / (kh * kw)
    hspan = (Ho - 1) * sh + 1
    wspan = (Wo - 1) * sw + 1
    for u in range(kh):
        for v in range(kw):
            dx[:, :, u:u + hspan:sh, v:v + wspan:sw] += share
    return dx


# ---------------------------------------------------------------------------
# gradcheck's own loop, from before it ran through param_gradcheck: a fresh
# perturbed copy of x per evaluation, its own determinism probe and scalar
# guard. Kept verbatim, float() reads included, so reports can be compared
# field for field.


def _oracle_check_deterministic(evaluate):
    y1 = evaluate()
    y2 = evaluate()
    if y1.shape != y2.shape or not np.array_equal(y1, y2):
        raise AutodiffError(
            "function is stochastic; freeze dropout and any other random op "
            "before running gradcheck")
    return y1


def _oracle_scalar_guard(y):
    if y.size != 1:
        raise AutodiffError(
            f"gradcheck needs a scalar output, got shape {y.shape}; "
            "reduce with sum() or mean() first")


def _oracle_sample_indices(n, max_elements, rng):
    if max_elements is None or n <= max_elements:
        return np.arange(n)
    rng = rng or np.random.default_rng(0)
    return np.sort(rng.choice(n, size=max_elements, replace=False))


def oracle_gradcheck(f, x, tol=1e-4, step=1e-5, max_elements=None, rng=None):
    """Compare autodiff dF/dx against central finite differences, per element."""
    if x.dtype != np.float64:
        raise AutodiffError(
            f"gradcheck requires float64 input, got {x.dtype}; "
            "finite differences are unreliable at single precision")

    with no_grad():
        y0 = _oracle_check_deterministic(
            lambda: f(Tensor(x.data.copy())).data.copy())
    if y0.size != 1:
        _oracle_scalar_guard(Tensor(y0))

    xt = Tensor(x.data.copy(), requires_grad=True)
    y = f(xt)
    _oracle_scalar_guard(y)
    y.backward()
    analytic = xt.grad if xt.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    idxs = _oracle_sample_indices(flat.size, max_elements, rng)
    worst = (0.0, ())
    for i in idxs:
        base = flat[i]
        probe = x.data.copy()
        pflat = probe.reshape(-1)
        with no_grad():
            pflat[i] = base + step
            fp = float(f(Tensor(probe.copy())).data)
            pflat[i] = base - step
            fm = float(f(Tensor(probe.copy())).data)
        numeric = (fp - fm) / (2.0 * step)
        a, n = float(analytic.reshape(-1)[i]), numeric
        err = abs(a - n) / max(abs(a), abs(n), 1e-6)
        if err > worst[0]:
            worst = (err, np.unravel_index(i, x.shape))
    return GradcheckReport(worst[0], worst[1], len(idxs), tol)


# ---------------------------------------------------------------------------
# batch and layer normalization, each with its own forward and backward, from
# before both ran through one node. Kept verbatim, so outputs, gradients and
# running buffers can be compared byte for byte; they take and return Tensors
# with the signatures of functional.batchnorm and functional.layernorm.


def oracle_batchnorm(x, gamma, beta, running_mean, running_var, training,
                     momentum=0.1, eps=1e-5, update_stats=True):
    if x.ndim not in (3, 4):
        raise ShapeError(f"batchnorm expects [B,C,L] or [B,C,H,W], got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"batchnorm: gamma/beta must have shape ({C},)")
    axes = (0,) + tuple(range(2, x.ndim))
    pshape = (1, C) + (1,) * (x.ndim - 2)
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)

    if training:
        mu = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        if update_stats:
            running_mean += momentum * (mu.reshape(C) - running_mean)
            running_var += momentum * (var.reshape(C) - running_var)
    else:
        if not np.any(running_var):
            raise ShapeError("batchnorm eval mode requires populated running stats")
        mu = running_mean.reshape(pshape)
        var = running_var.reshape(pshape)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    data = (gam * xhat + bet).astype(x.dtype, copy=False)
    n = int(np.prod([x.shape[a] for a in axes]))

    def backward(g):
        dbeta = g.sum(axis=axes)
        dgamma = (g * xhat).sum(axis=axes)
        dxhat = g * gam
        if training:
            dx = (inv_std / n) * (
                n * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
            )
        else:
            dx = dxhat * inv_std
        return np.ascontiguousarray(dx), dgamma, dbeta

    return Tensor._from_op(data, (x, gamma, beta), backward)


def oracle_layernorm(x, gamma, beta, eps=1e-5):
    H = x.shape[-1]
    if gamma.shape != (H,) or beta.shape != (H,):
        raise ShapeError(f"layernorm: gamma/beta must have shape ({H},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    data = (gamma.data * xhat + beta.data).astype(x.dtype, copy=False)
    reduce_axes = tuple(range(x.ndim - 1))

    def backward(g):
        dbeta = g.sum(axis=reduce_axes)
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dxhat = g * gamma.data
        dx = (inv_std / H) * (
            H * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
        return np.ascontiguousarray(dx), dgamma, dbeta

    return Tensor._from_op(data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# relu from before it became fmax plus an in-place +0: np.where over a stored
# mask, whose backward multiplies by that mask. It takes and returns Tensors
# with the signature of functional.relu.


def oracle_relu(x):
    mask = x.data > 0
    data = np.where(mask, x.data, 0.0).astype(x.dtype, copy=False)
    return Tensor._from_op(data, (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# the logistic from before it became branch-free: exp of -x over the x >= 0
# mask and of x over the rest, gathered and scattered through the masks.


def oracle_sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function of an array, stable in both tails.

    exp is only taken of non-positive values, so no input overflows.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# unroll from before it became one cell loop: a kind branch per step, its own
# zero-state builder, a second per-layer output list and T reshape nodes
# before the concat.


def oracle_unroll(x: Tensor, layer_weights: list[dict], kind: str,
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

    def zeros_state(H):
        z = Tensor(np.zeros((B, H), dtype=x.dtype))
        if kind == "lstm":
            return (z, Tensor(np.zeros((B, H), dtype=x.dtype)))
        return z

    if initial is None:
        states = [zeros_state(H) for H in hidden_sizes]
    else:
        states = list(initial)
        want = [((B, H), (B, H)) if kind == "lstm" else (B, H) for H in hidden_sizes]
        got = [tuple(t.shape for t in s) if isinstance(s, (tuple, list)) else s.shape
               for s in states]
        if got != want:
            raise ShapeError(f"unroll: initial must hold one state per layer, "
                             f"shaped {want}; got {got}")

    seq = [x[:, t, :] for t in range(T)]
    for li, lw in enumerate(layer_weights):
        out_steps = []
        state = states[li]
        for t in range(T):
            if kind == "gru":
                state = gru_cell(seq[t], state, lw["w_ih"], lw["w_hh"],
                                 lw["b_ih"], lw["b_hh"])
                out_steps.append(state)
            else:
                state = lstm_cell(seq[t], state, lw["w_ih"], lw["w_hh"],
                                  lw["b_ih"], lw["b_hh"])
                out_steps.append(state[0])
        states[li] = state
        seq = out_steps

    H = hidden_sizes[-1]
    outputs = concat([s.reshape(B, 1, H) for s in seq], axis=1)
    return outputs, states


# ---------------------------------------------------------------------------
# the record path from before each step was written once: segment cuts that
# slice, copy and wrap the signal each on its own, a three-branch padding
# copy, a nested np.where guarded division per normalization method, and the
# two synthetic generators, each assembling its own records, manifest rows
# and manifest. The generators keep their per-record generation
# (``_base_ecg`` and ``_make_record``); they share the library's label rows,
# folds and signature frequencies.


def oracle_decode_wfdb(header_path) -> np.ndarray:
    """The [12, m] float64 millivolts ``load_wfdb_record`` held before a
    read record kept its samples: the frame-interleaved file decoded whole as
    (raw - baseline) / gain. Reads only well-formed headers."""
    header_path = Path(header_path)
    lines = header_path.read_text().splitlines()
    m = int(lines[0].split()[3])
    gains, baselines = [], []
    for ln in lines[1:1 + N_LEADS]:
        gain, _, baseline = ln.split()[2].split("/")[0].partition("(")
        gains.append(float(gain))
        baselines.append(int(baseline.rstrip(")") or 0))
    dat_path = header_path.parent / lines[1].split()[0]
    raw = np.fromfile(dat_path, dtype="<i2").reshape(m, N_LEADS).T
    return (raw.astype(np.float64) - np.asarray(baselines)[:, None]) \
        / np.asarray(gains)[:, None]


def _oracle_window(record: EcgRecord, s: int, l: int) -> np.ndarray:
    """Samples [s, s+l): a read record's window decoded with the baseline
    subtracted whatever its value, or a slice copy of a float signal."""
    if isinstance(record, QuantizedRecord):
        x = np.subtract(record.samples[:, s:s + l], record.baseline,
                        dtype=np.float64)
        x /= record.gain
        return x
    return record.signal[:, s:s + l].copy()


def oracle_loader_batches(loader, epoch: int = 0):
    """The batches ``loader.batches(epoch)`` yielded when every stage of a
    draw built a record checked for NaN/Inf: the cut, the normalized window
    and each augmentation. Starts from ``loader.records``, which the loader
    filtered and padded when it was built."""
    l = loader.segment_len

    def checked(rec, x):
        return EcgRecord(signal=x, fs=rec.fs, id=rec.id, labels=rec.labels)

    def prepare_one(index):
        rec = loader.records[index]
        s = 0
        if loader.training:
            s = draw_segment_start(rec.n_samples, l,
                                   substream(loader.seed, "segment", epoch,
                                             index)).s
        rec = checked(rec, _oracle_window(rec, s, l))
        x = oracle_normalize_array(rec.signal, loader.normalization)
        if loader.training and loader.augment is not None:
            rec = apply_augmentations(
                checked(rec, x), loader.augment,
                substream(loader.seed, "augment", epoch, index), training=True)
            x = checked(rec, rec.signal).signal
        return x.astype(np.float32)

    order = np.arange(len(loader.records))
    if loader.training:
        order = substream(loader.seed, "shuffle", epoch).permutation(order)
    for start in range(0, len(order), loader.batch_size):
        idx = order[start:start + loader.batch_size]
        yield (np.stack([prepare_one(int(i)) for i in idx]),
               loader.targets[idx])


def oracle_extract_segment_at(record: EcgRecord, s: int, l: int) -> EcgRecord:
    """Deterministic cut [s, s+l) applied identically to all leads."""
    seg = SegmentSpec(l=l, s=s, m=record.n_samples)
    return record.with_signal(record.signal[:, seg.s:seg.s + seg.l].copy())


def oracle_segment_extract(record: EcgRecord, l: int,
                           rng: np.random.Generator) -> EcgRecord:
    """Random segment of length l; the same start index is used on every lead."""
    seg = draw_segment_start(record.n_samples, l, rng)
    return record.with_signal(record.signal[:, seg.s:seg.s + seg.l].copy())


def oracle_pad_or_truncate(record: EcgRecord, target: int) -> EcgRecord:
    """Keep the first ``target`` samples, or zero-pad the tail up to it."""
    if target < 1:
        raise SignalError(f"target length must be >= 1, got {target}")
    m = record.n_samples
    if m == target:
        return record.with_signal(record.signal.copy())
    if m > target:
        return record.with_signal(record.signal[:, :target].copy())
    out = np.zeros((N_LEADS, target), dtype=np.float64)
    out[:, :m] = record.signal
    return record.with_signal(out)


def oracle_normalize_array(x: np.ndarray, method: NormalizationMethod) -> np.ndarray:
    """Normalize each lead of [leads, n] independently.

    Degenerate denominators (constant, all-zero, or zero-IQR leads, which
    zero-padding makes reachable) produce all-zero output instead of blowing
    up; the centered numerator is zero in those cases anyway.
    """
    x = np.asarray(x, dtype=np.float64)
    method = NormalizationMethod(method)
    if method is NormalizationMethod.MINMAX:
        lo = x.min(axis=1, keepdims=True)
        span = x.max(axis=1, keepdims=True) - lo
        return np.where(span > _EPS, (x - lo) / np.where(span > _EPS, span, 1.0), 0.0)
    if method is NormalizationMethod.ZSCORE:
        mu = x.mean(axis=1, keepdims=True)
        sd = x.std(axis=1, keepdims=True)
        return np.where(sd > _EPS, (x - mu) / np.where(sd > _EPS, sd, 1.0), 0.0)
    if method is NormalizationMethod.RSCALE:
        med = np.median(x, axis=1, keepdims=True)
        q75, q25 = np.percentile(x, [75, 25], axis=1, keepdims=True)
        iqr = q75 - q25
        return np.where(iqr > _EPS, (x - med) / np.where(iqr > _EPS, iqr, 1.0), 0.0)
    if method is NormalizationMethod.LOGSCALE:
        return np.sign(x) * np.log1p(np.abs(x))
    if method is NormalizationMethod.L2:
        norm = np.linalg.norm(x, axis=1, keepdims=True)
        return np.where(norm > _EPS, x / np.where(norm > _EPS, norm, 1.0), 0.0)
    raise SignalError(f"unknown normalization method {method!r}")


def _oracle_base_ecg(rng: np.random.Generator, n: int, fs: float) -> np.ndarray:
    t = np.arange(n) / fs
    rate = rng.uniform(1.05, 1.35)
    start = rng.uniform(0.0, 1.0 / rate)
    beat_times = np.arange(start, t[-1] + 1.0 / fs, 1.0 / rate)
    wave = np.zeros(n)
    for tb in beat_times:
        wave += np.exp(-0.5 * ((t - tb) / 0.012) ** 2)            # QRS-like
        wave += 0.25 * np.exp(-0.5 * ((t - tb - 0.18) / 0.05) ** 2)  # T-wave-ish
    return _LEAD_PROFILE[:, None] * wave[None, :]


def _oracle_make_record(index: int, labels: np.ndarray, seed: int, fs: float,
                        n: int, noise: float, signature_amp: float,
                        id_prefix: str) -> EcgRecord:
    rng = substream(seed, "synthetic", index)
    sig = _oracle_base_ecg(rng, n, fs)
    t = np.arange(n) / fs
    for j in np.flatnonzero(labels):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig = sig + signature_amp * np.sin(
            2.0 * np.pi * class_frequency(int(j)) * t + phase)[None, :]
    sig = sig + rng.normal(0.0, noise, size=(N_LEADS, n))
    return EcgRecord(signal=sig, fs=fs, id=f"{id_prefix}{index:05d}")


def oracle_generate_synthetic_dataset(
    n_classes: int, n_per_class, task_kind: TaskKind, seed: int, *,
    fs: float = 500.0, length: int = 2500, noise: float = 0.05,
    signature_amp: float = 0.35, extra_label_p: float = 0.0,
    n_folds: int = 10, name: str | None = None, id_prefix: str = "syn",
) -> tuple[DatasetManifest, list[EcgRecord]]:
    """Build an in-memory labeled dataset with stratified fold assignment.

    ``n_per_class`` is an int or a per-class sequence. Binary tasks must use
    n_classes=2 (class 0 negative, class 1 positive); only positives carry a
    signature.
    """
    task_kind = TaskKind(task_kind)
    counts = ([int(n_per_class)] * n_classes
              if np.isscalar(n_per_class) else [int(c) for c in n_per_class])
    if len(counts) != n_classes:
        raise DataError(f"n_per_class has {len(counts)} entries for "
                        f"{n_classes} classes")
    if task_kind is TaskKind.BINARY:
        if n_classes != 2:
            raise DataError("binary generation uses 2 classes (negative, positive)")
        task = TaskSpec(kind=task_kind, classes=("positive",))
    else:
        task = TaskSpec(kind=task_kind,
                        classes=tuple(f"c{j}" for j in range(n_classes)))

    class_of_record = np.concatenate(
        [np.full(c, j, dtype=np.int64) for j, c in enumerate(counts)])
    labels = _label_rows(class_of_record, task, seed, extra_label_p)
    records = [_oracle_make_record(i, labels[i], seed, fs, length, noise,
                                   signature_amp, id_prefix)
               for i in range(len(class_of_record))]
    folds = stratified_kfold(labels, k=n_folds, seed=seed,
                             class_names=task.classes)
    rows = [ManifestRow(id=rec.id, labels=LabelVector(task, labels[i]),
                        fold=int(folds[i]))
            for i, rec in enumerate(records)]
    manifest = DatasetManifest(
        name=name or f"synthetic:{n_classes}x{'-'.join(map(str, counts))}",
        fs=fs, task=task, rows=rows)
    for rec, row in zip(records, manifest.rows):
        rec.labels = row.labels
    return manifest, records


def oracle_generate_imbalanced_binary(
    train_pos: int, train_neg: int, test_pos: int, test_neg: int, seed: int, *,
    fs: float = 500.0, length: int = 2500, noise: float = 0.05,
    signature_amp: float = 0.35, name: str = "synthetic:pe-shaped",
) -> tuple[DatasetManifest, list[EcgRecord]]:
    """Binary dataset with a fixed held-out test partition.

    Training records are stratified over folds 1..9 (so fold 9 can serve as
    validation); all test records carry fold 10.
    """
    task = TaskSpec(kind=TaskKind.BINARY, classes=("positive",))
    train_classes = np.concatenate([np.zeros(train_neg, dtype=np.int64),
                                    np.ones(train_pos, dtype=np.int64)])
    test_classes = np.concatenate([np.zeros(test_neg, dtype=np.int64),
                                   np.ones(test_pos, dtype=np.int64)])
    all_classes = np.concatenate([train_classes, test_classes])
    labels = _label_rows(all_classes, task, seed, 0.0)
    records = [_oracle_make_record(i, labels[i], seed, fs, length, noise,
                                   signature_amp, "pe")
               for i in range(len(all_classes))]

    n_train = len(train_classes)
    train_folds = stratified_kfold(labels[:n_train], k=9, seed=seed,
                                   class_names=task.classes)
    folds = np.concatenate([train_folds,
                            np.full(len(test_classes), 10, dtype=np.int64)])
    rows = [ManifestRow(id=rec.id, labels=LabelVector(task, labels[i]),
                        fold=int(folds[i]))
            for i, rec in enumerate(records)]
    manifest = DatasetManifest(name=name, fs=fs, task=task, rows=rows)
    for rec, row in zip(records, manifest.rows):
        rec.labels = row.labels
    return manifest, records
