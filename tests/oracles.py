"""Brute-force reference implementations used to verify the metric suite,
the bandpass filter and the backward passes of the strided window ops.

Deliberately written with explicit python loops and none of the library's
vectorized machinery, so agreement is meaningful. Conventions match the
documented metric definitions: empty denominators give 0 for binarized
metrics; AP uses precision-at-each-positive over the stable descending score
order; AUC counts pairwise wins with ties worth 1/2; undefined AP/AUC
(missing class) is None and excluded from macro means.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
# upstream gradient g and returns the op's gradients.


def _pads(p):
    return (p, p) if isinstance(p, int) else tuple(p)


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
