"""Output checks made apart from the program.

Each check takes what the program produced plus what the benchmark knows
independently (the generated inputs, scipy's filter, a brute-force metric)
and raises ``CheckFailed`` naming the first disagreement. ``selftest.py``
shows that every check fails on a deliberately corrupted output.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

N_LEADS = 12


class CheckFailed(AssertionError):
    pass


def _fail(message: str):
    raise CheckFailed(message)


# ---------------------------------------------------------------------------
# data path


def reference_bandpass(x: np.ndarray, fs: float, low: float, high: float,
                       order: int, padlen: int) -> np.ndarray:
    """scipy Butterworth, zero initial state, forward-backward, odd padding."""
    sos = sps.butter(order, [low, high], btype="bandpass", fs=fs, output="sos")
    padlen = min(padlen, x.shape[-1] - 1)
    left = 2.0 * x[..., :1] - x[..., padlen:0:-1]
    right = 2.0 * x[..., -1:] - x[..., -2:-padlen - 2:-1]
    ext = np.concatenate([left, x, right], axis=-1)
    y = sps.sosfilt(sos, ext, axis=-1)
    y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    return y[..., padlen:-padlen]


def check_filtered(filtered: list[np.ndarray], raw: list[np.ndarray], fs: float,
                   low: float, high: float, order: int, tol: float = 1e-9):
    """Loader records equal the scipy reference filter of the loaded records."""
    for i, (y, x) in enumerate(zip(filtered, raw)):
        ref = reference_bandpass(x, fs, low, high, order, padlen=int(fs))
        err = float(np.max(np.abs(y - ref)))
        if not err <= tol:
            _fail(f"filtered record {i}: max |program - scipy| = {err:.3e} > {tol:g}")


def check_quantisation(loaded: list[np.ndarray], generated: list[np.ndarray],
                       gain: float):
    """Read-back millivolts lie within half an ADC step of the written ones."""
    limit = 1.0 / (2.0 * gain) + 1e-12
    for i, (a, b) in enumerate(zip(loaded, generated)):
        if a.shape != b.shape:
            _fail(f"record {i}: loaded shape {a.shape} != generated {b.shape}")
        err = float(np.max(np.abs(a - b)))
        if not err <= limit:
            _fail(f"record {i}: max |loaded - generated| = {err:.3e} mV exceeds "
                  f"half a quantisation step {limit:.3e}")


def check_signatures(filtered: list[np.ndarray], labels: np.ndarray, fs: float,
                     class_freqs: list[float]):
    """Each class's signature line is stronger in its positives than negatives."""
    spectra = np.stack([np.abs(np.fft.rfft(y, axis=-1)).mean(axis=0)
                        for y in filtered])
    n = filtered[0].shape[-1]
    for c, freq in enumerate(class_freqs):
        line = spectra[:, int(round(freq * n / fs))]
        pos, neg = labels[:, c] == 1, labels[:, c] == 0
        if not pos.any() or not neg.any():
            _fail(f"class {c}: needs positives and negatives to compare")
        if not line[pos].mean() > line[neg].mean():
            _fail(f"class {c}: {freq:g} Hz line is {line[pos].mean():.3g} in "
                  f"positives, not above {line[neg].mean():.3g} in negatives")


def check_epoch_batches(batches: list[tuple], labels: np.ndarray,
                        batch_size: int, segment_len: int):
    """One epoch: finite float32 [B, 12, l] batches whose targets permute labels."""
    n = labels.shape[0]
    for bi, (x, y) in enumerate(batches):
        expected_b = min(batch_size, n - bi * batch_size)
        if x.dtype != np.float32 or x.shape != (expected_b, N_LEADS, segment_len):
            _fail(f"batch {bi}: {x.dtype} {x.shape}, expected float32 "
                  f"{(expected_b, N_LEADS, segment_len)}")
        if not np.all(np.isfinite(x)):
            _fail(f"batch {bi}: non-finite inputs")
    targets = np.concatenate([y for _, y in batches]) if batches else np.zeros((0,))
    if targets.shape != labels.shape:
        _fail(f"epoch targets {targets.shape} != label matrix {labels.shape}")
    if not np.array_equal(_sorted_rows(targets), _sorted_rows(labels)):
        _fail("epoch targets are not a permutation of the label matrix")


def _sorted_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    return m[np.lexsort(m.T[::-1])]


# ---------------------------------------------------------------------------
# models


def check_directional_derivative(loss_at, params: dict, grads: dict,
                                 seed: int, eps: float = 1e-5,
                                 rel_tol: float = 1e-4, tries: int = 5):
    """<grad, d> against a central difference of the loss along d (float64).

    ``loss_at()`` evaluates the loss at the current parameter values; d is a
    seeded random unit direction. A ReLU or max-pool kink inside the step
    makes the central differences at eps and eps/2 disagree; such a
    direction says nothing about the gradient and is redrawn, up to
    ``tries`` times. Both comparisons allow for float64 rounding of the
    loss difference, which matters when the gradient is tiny.
    """
    rng = np.random.default_rng(seed)
    rounding = 64 * np.finfo(np.float64).eps * abs(loss_at()) / (eps / 2)

    def close(a, b, rtol):
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + rounding

    for _ in range(tries):
        direction = {n: rng.standard_normal(p.data.shape) for n, p in params.items()}
        norm = _norm(direction)
        direction = {n: d / norm for n, d in direction.items()}
        fine = _central_difference(loss_at, params, direction, eps / 2)
        coarse = _central_difference(loss_at, params, direction, eps)
        if close(fine, coarse, 0.2 * rel_tol):
            break
    else:
        _fail(f"loss is not smooth along any of {tries} directions "
              f"(central differences {fine:.10g} and {coarse:.10g})")
    analytic = sum(float(np.sum(grads[n] * d)) for n, d in direction.items())
    if not close(analytic, fine, rel_tol):
        _fail(f"directional derivative: analytic {analytic:.10g} vs central "
              f"difference {fine:.10g} (tolerance {rel_tol:g} relative "
              f"+ {rounding:.1e} rounding)")


def _norm(arrays: dict) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays.values())))


def _central_difference(loss_at, params: dict, direction: dict, h: float) -> float:
    for n, p in params.items():
        p.data += h * direction[n]
    plus = loss_at()
    for n, p in params.items():
        p.data -= 2.0 * h * direction[n]
    minus = loss_at()
    for n, p in params.items():
        p.data += h * direction[n]
    return (plus - minus) / (2.0 * h)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def brute_force_f1_auc(logits: np.ndarray, targets: np.ndarray,
                       threshold: float = 0.5) -> tuple[float, float]:
    """Macro F1 at the threshold and macro pairwise AUC (ties count 1/2)."""
    scores = _stable_sigmoid(np.asarray(logits, dtype=np.float64))
    f1s, aucs = [], []
    for c in range(targets.shape[1]):
        s, t = scores[:, c], targets[:, c]
        pred = s >= threshold
        tp = int(np.sum(pred & (t == 1)))
        fp = int(np.sum(pred & (t == 0)))
        fn = int(np.sum(~pred & (t == 1)))
        f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        pos, neg = s[t == 1], s[t == 0]
        if len(pos) and len(neg):
            wins = (pos[:, None] > neg[None, :]).sum() \
                + 0.5 * (pos[:, None] == neg[None, :]).sum()
            aucs.append(wins / (len(pos) * len(neg)))
    return float(np.mean(f1s)), float(np.mean(aucs)) if aucs else float("nan")


def check_report(report, logits: np.ndarray, targets: np.ndarray,
                 tol: float = 1e-12):
    """``evaluate``'s F1 and AUC equal the brute-force values from the logits."""
    f1, auc = brute_force_f1_auc(logits, targets)
    for name, got, want in (("F1", report.f1, f1), ("AUC", report.auc, auc)):
        if not (abs(got - want) <= tol or (np.isnan(got) and np.isnan(want))):
            _fail(f"evaluate {name} {got!r} != brute force {want!r}")


def check_backbone_preserved(checkpoint_tensors: dict, state: dict,
                             head_prefix: str):
    """Every non-head tensor after head adaptation is the checkpoint's, bitwise."""
    backbone = [n for n in checkpoint_tensors if not n.startswith(head_prefix)]
    if not backbone or set(backbone) != {n for n in state
                                         if not n.startswith(head_prefix)}:
        _fail("adapted model and checkpoint disagree on the backbone tensor names")
    for name in backbone:
        a, b = checkpoint_tensors[name], state[name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            _fail(f"backbone tensor {name!r} differs from the checkpoint")


def check_histories_identical(histories: list[list[dict]]):
    """Every repeat of one seeded training run logs the same history."""
    if len(histories) < 2:
        _fail("need at least two repeats to compare loss histories")
    # repr is exact for floats and, unlike ==, treats NaN like any other value
    first = [repr(row) for row in histories[0]]
    for i, h in enumerate(histories[1:], start=1):
        rows = [repr(row) for row in h]
        if rows != first:
            at = next((e for e, (a, b) in enumerate(zip(rows, first)) if a != b),
                      min(len(rows), len(first)))
            _fail(f"repeat {i} history differs from repeat 0 at epoch row {at}")
