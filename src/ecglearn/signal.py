"""Signal conditioning for 12-lead ECG records.

The chain mirrors how records flow into training: bandpass filtering for
baseline-wander and power-line suppression, length regularization, random or
deterministic segment extraction, and per-lead normalization. All functions
are pure: they return new records and never mutate their inputs.

A record read from a file is a ``QuantizedRecord``: it keeps the file's int16
samples with each lead's gain and baseline, and its ``signal`` is a fresh
float64 decode on every read. The segment cuts decode only the window they
cut, so drawing a segment never decodes a whole record. Every function that
returns a record returns a float64 ``EcgRecord``.

The bandpass is a Butterworth IIR designed from the analog prototype via the
bilinear transform with frequency pre-warping, applied forward-backward
(zero-phase) so waveform morphology is not time-shifted. The effective
magnitude response of the two-pass application is the squared single-pass
response.

The IIR recursion is a Python loop over samples on a time-major [n, lanes]
buffer, where each step updates every lane at once. Its cost is almost all
per-step call overhead, so steps are what count, and the code takes as few
as it can. Records of equal length stack into one buffer, so
``butterworth_bandpass`` over a list filters them all in one pass instead of
looping over them. The second-order sections run as a pipeline lagged one
sample per section, so one step advances every section and a pass takes
n + ns - 1 steps, not ns * n. Every lane gets exactly the arithmetic it
would get alone, section by section, so the output is bit-identical to
filtering each record, lead and section in turn.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import SignalError

if TYPE_CHECKING:  # pragma: no cover
    from .dataio.labels import LabelVector

__all__ = [
    "N_LEADS", "EcgRecord", "QuantizedRecord", "FilterSpec", "SegmentSpec",
    "NormalizationMethod",
    "design_butterworth_bandpass", "sosfilt", "filtfilt_sos",
    "butterworth_bandpass", "analytic_bandpass_gain",
    "draw_segment_start", "segment_extract", "extract_segment_at",
    "pad_or_truncate", "normalize", "normalize_array",
]

N_LEADS = 12

_EPS = 1e-8

# records per stacked bandpass pass; bounds its working buffer to
# 32 x 12 x (n + 2 * padlen) float64, about 21 MB for 10 s at 500 Hz
_BANDPASS_CHUNK = 32


# ---------------------------------------------------------------------------
# domain types


@dataclass
class EcgRecord:
    """A 12-lead ECG: signal matrix [12, m] in millivolts at ``fs`` Hz."""

    signal: np.ndarray
    fs: float
    id: str = ""
    labels: Optional["LabelVector"] = None

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float64)
        self._check_shape(self.signal.shape)
        if not np.all(np.isfinite(self.signal)):
            raise SignalError(f"record {self.id!r}: signal contains NaN/Inf")

    def _check_shape(self, shape: tuple) -> None:
        if len(shape) != 2 or shape[0] != N_LEADS:
            raise SignalError(
                f"record {self.id!r}: expected [{N_LEADS}, m] signal, "
                f"got shape {shape}")
        if shape[1] < 1:
            raise SignalError(f"record {self.id!r}: empty signal")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise SignalError(
                f"record {self.id!r}: fs must be finite and positive, got {self.fs}")

    @property
    def n_samples(self) -> int:
        return self.signal.shape[1]

    def window(self, s: int, l: int) -> np.ndarray:
        """A fresh C-contiguous float64 copy of samples [s, s+l) of every lead."""
        return self.signal[:, s:s + l].copy()

    def with_signal(self, signal: np.ndarray) -> "EcgRecord":
        return EcgRecord(signal=signal, fs=self.fs, id=self.id, labels=self.labels)


class QuantizedRecord(EcgRecord):
    """A record as its file holds it: C-contiguous int16 ADC samples [12, m]
    and a gain and baseline per lead, millivolts = (sample - baseline) / gain.

    Nothing else is kept: 2 bytes a sample against a float64 signal's 8.
    ``signal`` and ``window`` decode on every call into a fresh float64
    array, so mutating what they return changes nothing. A window decodes
    only its own samples, bit-identically to slicing the full decode.
    """

    def __init__(self, samples: np.ndarray, gain, baseline, fs: float,
                 id: str = "", labels: Optional["LabelVector"] = None):
        self.samples = np.ascontiguousarray(samples, dtype=np.int16)
        self.gain = np.asarray(gain, dtype=np.float64).reshape(-1, 1)
        self.baseline = np.asarray(baseline, dtype=np.float64).reshape(-1, 1)
        self.fs, self.id, self.labels = fs, id, labels
        self._check_shape(self.samples.shape)

    @property
    def signal(self) -> np.ndarray:
        return self.window(0, self.n_samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def window(self, s: int, l: int) -> np.ndarray:
        x = np.subtract(self.samples[:, s:s + l], self.baseline, dtype=np.float64)
        x /= self.gain
        return x


def _check_band(order: int, low_cut: float, high_cut: float) -> None:
    """The bandpass rules that need no sampling rate: order >= 1 and finite
    band edges with 0 < low_cut < high_cut."""
    if order < 1:
        raise SignalError(f"filter order must be >= 1, got {order}")
    if not 0 < low_cut < high_cut:
        raise SignalError(
            f"need 0 < low_cut < high_cut, got {low_cut}, {high_cut}")
    if not math.isfinite(high_cut):
        raise SignalError(f"high_cut must be finite, got {high_cut}")


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth bandpass: prototype order and band edges in Hz."""

    fs: float
    order: int = 2
    low_cut: float = 1.0
    high_cut: float = 45.0

    def __post_init__(self):
        _check_band(self.order, self.low_cut, self.high_cut)
        if not math.isfinite(self.fs):
            raise SignalError(f"fs must be finite, got {self.fs}")
        if self.fs <= 2 * self.high_cut:
            raise SignalError(
                f"Nyquist violation: fs={self.fs} must exceed 2*high_cut="
                f"{2 * self.high_cut}")


@dataclass(frozen=True)
class SegmentSpec:
    """A validated segment: start s, length l, source length m, s + l <= m."""

    l: int
    s: int
    m: int

    def __post_init__(self):
        if self.s < 0 or self.l < 1 or self.s + self.l > self.m:
            raise SignalError(
                f"invalid segment: s={self.s}, l={self.l}, m={self.m} "
                "(need 0 <= s and s + l <= m)")


class NormalizationMethod(str, Enum):
    MINMAX = "minmax"
    ZSCORE = "zscore"
    RSCALE = "rscale"
    LOGSCALE = "logscale"
    L2 = "l2"


# ---------------------------------------------------------------------------
# Butterworth bandpass design (bilinear transform of the analog prototype)


def _prototype_poles(order: int) -> list[complex]:
    """Left-half-plane poles of the unit-cutoff analog Butterworth lowpass."""
    return [cmath.exp(1j * math.pi * (2 * k - 1 + order) / (2 * order))
            for k in range(1, order + 1)]


def design_butterworth_bandpass(spec: FilterSpec) -> np.ndarray:
    """Return second-order sections [n_sections, 6] (b0 b1 b2 a0 a1 a2).

    A prototype of order N yields a bandpass with 2N poles, N digital zeros
    at z=1 and N at z=-1; the overall gain is normalized to 1 at the (warped)
    geometric center of the band.
    """
    fs2 = 2.0 * spec.fs
    w1 = fs2 * math.tan(math.pi * spec.low_cut / spec.fs)
    w2 = fs2 * math.tan(math.pi * spec.high_cut / spec.fs)
    bw = w2 - w1
    w0sq = w1 * w2

    s_poles: list[complex] = []
    for p in _prototype_poles(spec.order):
        q = p * bw / 2.0
        disc = cmath.sqrt(q * q - w0sq)
        s_poles.extend([q + disc, q - disc])

    z_poles = [(fs2 + s) / (fs2 - s) for s in s_poles]

    # section denominators from conjugate (or real) pole pairs
    tol = 1e-10
    complex_upper = sorted((z for z in z_poles if z.imag > tol),
                           key=lambda z: (z.real, z.imag))
    real_poles = sorted(z.real for z in z_poles if abs(z.imag) <= tol)
    sections: list[list[float]] = []
    for z in complex_upper:
        sections.append([1.0, 0.0, -1.0, 1.0, -2.0 * z.real, abs(z) ** 2])
    for i in range(0, len(real_poles), 2):
        r1, r2 = real_poles[i], real_poles[i + 1]
        sections.append([1.0, 0.0, -1.0, 1.0, -(r1 + r2), r1 * r2])
    if len(sections) != spec.order:
        raise SignalError("internal design error: section count mismatch")

    # normalize overall gain to 1 at the warped center frequency
    wc = 2.0 * math.atan(math.sqrt(w0sq) / fs2)
    zc = cmath.exp(1j * wc)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sections:
        h *= (b0 * zc * zc + b1 * zc + b2) / (a0 * zc * zc + a1 * zc + a2)
    k = 1.0 / abs(h)
    for coeffs in sections:
        coeffs[0] *= k ** (1.0 / spec.order)
        coeffs[1] *= k ** (1.0 / spec.order)
        coeffs[2] *= k ** (1.0 / spec.order)

    return np.asarray(sections, dtype=np.float64)


def analytic_bandpass_gain(freq_hz: float, spec: FilterSpec, passes: int = 1) -> float:
    """Closed-form magnitude response at ``freq_hz``.

    Uses the Butterworth bandpass formula |H|^2 = 1/(1 + x^(2N)) with
    x = (w^2 - w0^2)/(bw * w) evaluated at bilinear-prewarped frequencies, so
    it matches the digital filter exactly. ``passes=2`` gives the effective
    forward-backward gain.
    """
    if freq_hz < 0 or freq_hz > spec.fs / 2:
        raise SignalError(f"probe frequency {freq_hz} outside [0, fs/2]")
    if freq_hz == 0.0 or freq_hz == spec.fs / 2:
        return 0.0
    fs2 = 2.0 * spec.fs
    w = fs2 * math.tan(math.pi * freq_hz / spec.fs)
    w1 = fs2 * math.tan(math.pi * spec.low_cut / spec.fs)
    w2 = fs2 * math.tan(math.pi * spec.high_cut / spec.fs)
    x = (w * w - w1 * w2) / ((w2 - w1) * w)
    single = 1.0 / math.sqrt(1.0 + x ** (2 * spec.order))
    return single ** passes


def _sosfilt_time_major(sections: np.ndarray, buf: np.ndarray,
                        backward: bool = False) -> None:
    """Causal biquad cascade down axis 0 of a time-major [n, lanes] buffer,
    in place (direct form II transposed); ``backward`` filters from the last
    row to the first, as filtering the time-reversed buffer would.

    The ns sections run as a pipeline, each one sample behind the one before
    it: at step t, section s filters row t - s (counted from the last row
    when backward). The rows busy at one step are then one block of ns
    adjacent rows, a sliding window over ``buf``, and a pass takes
    n + ns - 1 steps instead of ns * n. A step is nine ufunc calls however
    many lanes it holds, so its cost is call overhead and steps are what
    count. Block row k runs section ns - 1 - k forward and section k
    backward, so each section's coefficients and state keep their row as
    the block slides, and the backward pass walks the same positive-stride
    blocks in reverse. Coefficients are full [ns, lanes] arrays and the
    scratch is preallocated, so no call broadcasts or allocates. The first
    and last ns - 1 steps (every step when n < ns) run the busy sections on
    slices. Each lane of each section gets exactly the arithmetic of
    filtering it alone, one section after another.
    """
    n, lanes = buf.shape
    ns = len(sections)
    placed = sections if backward else sections[::-1]
    full = ([np.repeat(placed[:, j:j + 1], lanes, axis=1) for j in (0, 1, 2, 4, 5)]
            + [np.zeros((ns, lanes)) for _ in range(2)]
            + [np.empty((ns, lanes)) for _ in range(3)])
    # block r holds rows r..r+ns-1; every section is busy for 0 <= r <= n - ns
    steady = as_strided(buf, (max(n - ns + 1, 0), ns, lanes),
                        (buf.strides[0],) + buf.strides)

    def ramp(r):
        lo, hi = max(r, 0), min(r + ns, n)
        return [buf[lo:hi]], [a[lo - r:hi - r] for a in full]

    phases = ([ramp(r) for r in range(1 - ns, 0)]
              + [(steady[::-1] if backward else steady, full)]
              + [ramp(r) for r in range(max(n - ns + 1, 0), n)])
    if backward:
        phases.reverse()
    mul, add, sub = np.multiply, np.add, np.subtract
    for blocks, (b0, b1, b2, a1, a2, z1, z2, t1, t2, u) in phases:
        for x in blocks:
            mul(b1, x, t1)
            mul(b2, x, t2)
            mul(x, b0, x)        # the block becomes each section's output
            add(x, z1, x)
            mul(a1, x, u)
            sub(t1, u, t1)
            add(t1, z2, z1)
            mul(a2, x, u)
            sub(t2, u, z2)


def _check_padlen(padlen: int) -> None:
    if not isinstance(padlen, (int, np.integer)) or padlen < 0:
        raise SignalError(f"padlen must be a non-negative integer, got {padlen!r}")


def _check_filter_args(sections, x, padlen: int | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``sections`` and ``x`` as float64 arrays, or a SignalError naming the
    argument that ``sosfilt`` or ``filtfilt_sos`` cannot filter with."""
    try:
        sections = np.asarray(sections, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SignalError(
            f"sections must be a numeric [n_sections, 6] array: {exc}") from None
    if sections.ndim != 2 or sections.shape[1] != 6:
        raise SignalError(
            f"sections must be a [n_sections, 6] array, got shape {sections.shape}")
    if len(sections) == 0:
        raise SignalError("sections must hold at least one section")
    if not np.all(np.isfinite(sections)):
        raise SignalError("sections contain NaN/Inf")
    if not np.all(sections[:, 3] == 1.0):
        raise SignalError("sections must be normalised to a0 = 1, "
                          f"got a0 = {sections[:, 3].tolist()}")
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SignalError(f"x must be a numeric array: {exc}") from None
    if x.ndim == 0 or x.shape[-1] == 0:
        raise SignalError(f"x must hold at least one sample on its last axis, "
                          f"got shape {x.shape}")
    if padlen is not None:
        _check_padlen(padlen)
    return sections, x


def sosfilt(sections: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal cascade of biquads along the last axis (direct form II transposed)."""
    sections, x = _check_filter_args(sections, x)
    buf = x.reshape(-1, x.shape[-1]).T.copy()
    _sosfilt_time_major(sections, buf)
    return np.ascontiguousarray(buf.T).reshape(x.shape)


def _filtfilt_time_major(sections: np.ndarray, blocks: Sequence[np.ndarray],
                         padlen: int) -> np.ndarray:
    """Zero-phase filter the rows of equal-length [rows, n] blocks side by side.

    The rows are laid out as the lanes of one time-major buffer, with odd
    reflections of ``padlen`` samples (at most n - 1) either side, and run
    forward then backward through the cascade. Returns the unpadded [n, lanes] view of
    that buffer, lanes in block order.
    """
    n = blocks[0].shape[-1]
    padlen = min(padlen, n - 1)
    buf = np.empty((n + 2 * padlen, sum(len(b) for b in blocks)))
    lane = 0
    for block in blocks:
        cols = slice(lane, lane + len(block))
        buf[padlen:padlen + n, cols] = block.T
        if padlen > 0:
            buf[:padlen, cols] = (2.0 * block[:, :1] - block[:, padlen:0:-1]).T
            buf[padlen + n:, cols] = (2.0 * block[:, -1:]
                                      - block[:, -2:-padlen - 2:-1]).T
        lane += len(block)
    _sosfilt_time_major(sections, buf)
    _sosfilt_time_major(sections, buf, backward=True)
    return buf[padlen:padlen + n]


def filtfilt_sos(sections: np.ndarray, x: np.ndarray,
                 padlen: int | None = None) -> np.ndarray:
    """Zero-phase filtering: odd-reflection padding, forward pass, backward pass.

    ``x`` is [..., n] and every leading index is an independent lane. All
    lanes share one time-major pass, so a stack [N, 12, n] costs little more
    than one record and filters bit-identically to filtering each alone.
    """
    sections, x = _check_filter_args(sections, x, padlen)
    if padlen is None:
        padlen = 3 * (2 * len(sections) + 1)
    n = x.shape[-1]
    y = _filtfilt_time_major(sections, [x.reshape(-1, n)], padlen)
    return np.ascontiguousarray(y.T).reshape(x.shape)


def butterworth_bandpass(record: EcgRecord | Sequence[EcgRecord],
                         spec: FilterSpec | None = None,
                         padlen: int | None = None) -> EcgRecord | list[EcgRecord]:
    """Filter every lead with identical coefficients, zero-phase.

    ``record`` is one record or a sequence of them; a sequence gives a list
    of filtered records in input order. Records of equal length share one
    time-major pass, up to ``_BANDPASS_CHUNK`` records at a time, and each
    filters bit-identically to filtering it alone. Every output signal is a
    C-contiguous array of its own. All records must be sampled at
    ``spec.fs`` (default: the first record's rate).
    """
    single = isinstance(record, EcgRecord)
    records = [record] if single else list(record)
    if not records:
        return []
    if spec is None:
        spec = FilterSpec(fs=records[0].fs)
    for rec in records:
        if spec.fs != rec.fs:
            raise SignalError(
                f"filter designed for fs={spec.fs} applied to record at fs={rec.fs}")
    sections = design_butterworth_bandpass(spec)
    if padlen is None:
        # a second's worth of padding pushes edge transients out of the
        # signal; records shorter than that get n - 1
        padlen = int(spec.fs)
    _check_padlen(padlen)
    by_length: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        by_length.setdefault(rec.n_samples, []).append(i)
    out: list = [None] * len(records)
    for indices in by_length.values():
        for start in range(0, len(indices), _BANDPASS_CHUNK):
            chunk = indices[start:start + _BANDPASS_CHUNK]
            y = _filtfilt_time_major(sections, [records[i].signal for i in chunk],
                                     padlen)
            for j, i in enumerate(chunk):
                lanes = y[:, j * N_LEADS:(j + 1) * N_LEADS]
                out[i] = records[i].with_signal(lanes.T.copy())
    return out[0] if single else out


# ---------------------------------------------------------------------------
# length regularization and segmentation


def draw_segment_start(m: int, l: int, rng: np.random.Generator) -> SegmentSpec:
    """Draw the start s uniformly from {0, ..., m - l}."""
    if l > m:
        raise SignalError(f"segment length {l} exceeds available length {m}; pad first")
    s = int(rng.integers(0, m - l, endpoint=True))
    return SegmentSpec(l=l, s=s, m=m)


def extract_segment_at(record: EcgRecord, s: int, l: int) -> EcgRecord:
    """Deterministic cut [s, s+l) applied identically to all leads."""
    seg = SegmentSpec(l=l, s=s, m=record.n_samples)
    return record.with_signal(record.window(seg.s, seg.l))


def segment_extract(record: EcgRecord, l: int, rng: np.random.Generator) -> EcgRecord:
    """Random segment of length l; the same start index is used on every lead."""
    seg = draw_segment_start(record.n_samples, l, rng)
    return extract_segment_at(record, seg.s, l)


def pad_or_truncate(record: EcgRecord, target: int) -> EcgRecord:
    """Keep the first ``target`` samples, or zero-pad the tail up to it."""
    if target < 1:
        raise SignalError(f"target length must be >= 1, got {target}")
    n = min(record.n_samples, target)
    out = np.zeros((N_LEADS, target), dtype=np.float64)
    out[:, :n] = record.signal[:, :n]
    return record.with_signal(out)


# ---------------------------------------------------------------------------
# normalization


def normalize_array(x: np.ndarray, method: NormalizationMethod) -> np.ndarray:
    """Normalize each lead of [leads, n] independently.

    Degenerate denominators (constant, all-zero, or zero-IQR leads, which
    zero-padding makes reachable) produce all-zero output instead of blowing
    up; the centered numerator is zero in those cases anyway.
    """
    x = np.asarray(x, dtype=np.float64)
    try:
        method = NormalizationMethod(method)
    except ValueError:
        valid = ", ".join(m.value for m in NormalizationMethod)
        raise SignalError(f"unknown normalization method {method!r}; "
                          f"expected one of {valid}") from None
    if method is NormalizationMethod.LOGSCALE:
        return np.sign(x) * np.log1p(np.abs(x))
    if method is NormalizationMethod.MINMAX:
        lo = x.min(axis=1, keepdims=True)
        num = x - lo
        den = x.max(axis=1, keepdims=True) - lo
    elif method is NormalizationMethod.ZSCORE:
        num = x - x.mean(axis=1, keepdims=True)
        # x.std's arithmetic on the centred numerator: the mean is taken once
        den = np.sqrt(np.square(num).mean(axis=1, keepdims=True))
    elif method is NormalizationMethod.RSCALE:
        q75, q25 = np.percentile(x, [75, 25], axis=1, keepdims=True)
        num = x - np.median(x, axis=1, keepdims=True)
        den = q75 - q25
    else:
        num = x
        den = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(num, den, out=np.zeros_like(num), where=den > _EPS)


def normalize(record: EcgRecord, method: NormalizationMethod) -> EcgRecord:
    return record.with_signal(normalize_array(record.signal, method))
