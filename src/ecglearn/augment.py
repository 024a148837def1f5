"""Training-time stochastic augmentations for ECG records.

Five transforms, composed in a fixed order when applied through a config:
flip -> random drop -> lead drop -> square pulse sum -> sine sum. Each fires
independently with its configured probability. "Flip" is amplitude inversion
(simulating lead polarity reversal), not time reversal. Random drop zeroes
the same temporal positions on every lead, mimicking transient sensor
dropout; lead drop zeroes whole leads.

Augmentation is train-only: ``apply_augmentations`` with ``training=False``
returns the record unchanged regardless of configuration. All randomness
comes from the caller's generator, so a fixed seed reproduces the exact
augmentation stream.

No transform scans its output for NaN/Inf. Flip and the drops cannot make a
finite signal non-finite, and the two additive transforms refuse a
non-finite amplitude, frequency or phase; a sum that still overflows is
caught where the batch is built (``BatchLoader``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AugmentError
from .signal import N_LEADS, EcgRecord

__all__ = [
    "TransformConfig", "AdditiveConfig", "RandomDropConfig", "LeadDropConfig",
    "AugmentConfig", "flip", "random_drop", "lead_drop", "square_pulse_sum",
    "sine_sum", "apply_augmentations",
]


def _check_prob(p: float, name: str):
    if not 0.0 <= p <= 1.0:
        raise AugmentError(f"{name}: probability must be in [0, 1], got {p}")


def _check_range(rng: tuple, name: str):
    try:
        lo, hi = rng
    except (TypeError, ValueError):
        raise AugmentError(f"{name}: expected a (low, high) pair, got {rng!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise AugmentError(f"{name}: range must be finite, got ({lo}, {hi})")
    if lo > hi:
        raise AugmentError(f"{name}: empty range ({lo}, {hi})")


@dataclass(frozen=True)
class TransformConfig:
    enabled: bool = True
    p: float = 0.3


@dataclass(frozen=True)
class RandomDropConfig(TransformConfig):
    fraction_range: tuple[float, float] = (0.05, 0.15)

    def __post_init__(self):
        _check_prob(self.p, "random_drop")
        _check_range(self.fraction_range, "random_drop.fraction_range")
        if self.fraction_range[0] < 0.0:
            raise AugmentError(f"random_drop.fraction_range: fractions must be >= 0, "
                               f"got {self.fraction_range}")
        if self.fraction_range[1] >= 1.0:
            raise AugmentError("random_drop: a fraction >= 1 would erase the sample")


@dataclass(frozen=True)
class LeadDropConfig(TransformConfig):
    leads_range: tuple[int, int] = (1, 2)

    def __post_init__(self):
        _check_prob(self.p, "lead_drop")
        _check_range(self.leads_range, "lead_drop.leads_range")
        if self.leads_range[1] >= N_LEADS:
            raise AugmentError(
                f"lead_drop: dropping {self.leads_range[1]} of {N_LEADS} leads "
                "would erase the sample")
        if self.leads_range[0] < 1:
            raise AugmentError("lead_drop: must drop at least one lead")


@dataclass(frozen=True)
class AdditiveConfig(TransformConfig):
    # amplitude is relative to each lead's standard deviation
    rel_amplitude_range: tuple[float, float] = (0.05, 0.2)
    freq_range_hz: tuple[float, float] = (0.1, 5.0)

    def __post_init__(self):
        _check_prob(self.p, "additive transform")
        _check_range(self.rel_amplitude_range, "rel_amplitude_range")
        _check_range(self.freq_range_hz, "freq_range_hz")


@dataclass(frozen=True)
class FlipConfig(TransformConfig):
    def __post_init__(self):
        _check_prob(self.p, "flip")


@dataclass(frozen=True)
class AugmentConfig:
    flip: FlipConfig = field(default_factory=FlipConfig)
    random_drop: RandomDropConfig = field(default_factory=RandomDropConfig)
    lead_drop: LeadDropConfig = field(default_factory=LeadDropConfig)
    square_pulse: AdditiveConfig = field(default_factory=AdditiveConfig)
    sine: AdditiveConfig = field(default_factory=AdditiveConfig)

    @staticmethod
    def disabled() -> "AugmentConfig":
        return AugmentConfig(
            flip=FlipConfig(enabled=False, p=0.0),
            random_drop=RandomDropConfig(enabled=False, p=0.0),
            lead_drop=LeadDropConfig(enabled=False, p=0.0),
            square_pulse=AdditiveConfig(enabled=False, p=0.0),
            sine=AdditiveConfig(enabled=False, p=0.0),
        )


# ---------------------------------------------------------------------------
# individual transforms (pure, individually testable)


def flip(record: EcgRecord) -> EcgRecord:
    """Amplitude inversion of every lead."""
    return record.with_signal(-record.signal)


def random_drop(record: EcgRecord, fraction: float,
                rng: np.random.Generator) -> EcgRecord:
    """Zero floor(fraction * l) sample positions, identical across leads."""
    if not 0.0 <= fraction < 1.0:
        raise AugmentError(f"random_drop: fraction must be in [0, 1), got {fraction}")
    l = record.n_samples
    count = int(fraction * l)
    out = record.signal.copy()
    if count:
        positions = rng.choice(l, size=count, replace=False)
        out[:, positions] = 0.0
    return record.with_signal(out)


def lead_drop(record: EcgRecord, k: int, rng: np.random.Generator) -> EcgRecord:
    """Zero k distinct leads entirely."""
    if not 1 <= k < N_LEADS:
        raise AugmentError(f"lead_drop: k must be in [1, {N_LEADS - 1}], got {k}")
    leads = rng.choice(N_LEADS, size=k, replace=False)
    out = record.signal.copy()
    out[leads, :] = 0.0
    return record.with_signal(out)


def _time_axis(record: EcgRecord) -> np.ndarray:
    return np.arange(record.n_samples) / record.fs


def _wave_amplitude(name: str, amplitude, freq_hz: float,
                    phase: float) -> np.ndarray:
    """The amplitude as a [leads, 1] column, once amplitude, frequency and
    phase are known to be finite, so the wave added to a signal is finite."""
    amp = np.asarray(amplitude, dtype=np.float64).reshape(-1, 1)
    if not (np.isfinite(amp).all() and math.isfinite(freq_hz)
            and math.isfinite(phase)):
        raise AugmentError(
            f"{name}: amplitude, frequency and phase must be finite, got "
            f"amplitude {amp.ravel().tolist()}, frequency {freq_hz}, phase {phase}")
    return amp


def square_pulse_sum(record: EcgRecord, amplitude, freq_hz: float,
                     phase: float) -> EcgRecord:
    """Add a square wave; amplitude may be scalar or per-lead [12]."""
    amp = _wave_amplitude("square_pulse_sum", amplitude, freq_hz, phase)
    wave = np.where(np.sin(2 * np.pi * freq_hz * _time_axis(record) + phase) >= 0,
                    1.0, -1.0)
    return record.with_signal(record.signal + amp * wave)


def sine_sum(record: EcgRecord, amplitude, freq_hz: float,
             phase: float) -> EcgRecord:
    """Add a sinusoid; amplitude may be scalar or per-lead [12]."""
    amp = _wave_amplitude("sine_sum", amplitude, freq_hz, phase)
    wave = np.sin(2 * np.pi * freq_hz * _time_axis(record) + phase)
    return record.with_signal(record.signal + amp * wave)


# ---------------------------------------------------------------------------
# composed application


def _draw_additive_params(cfg: AdditiveConfig, record: EcgRecord,
                          rng: np.random.Generator):
    rel = rng.uniform(*cfg.rel_amplitude_range)
    freq = rng.uniform(*cfg.freq_range_hz)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    amplitude = rel * record.signal.std(axis=1)
    return amplitude, freq, phase


def apply_augmentations(record: EcgRecord, cfg: AugmentConfig,
                        rng: np.random.Generator,
                        training: bool = True) -> EcgRecord:
    """Fire each enabled transform with its probability, in declared order.

    The draw order per transform is fixed (gate first, then parameters), so a
    seeded generator makes the whole augmentation stream reproducible.
    """
    if not training:
        return record
    out = record
    if cfg.flip.enabled and rng.random() < cfg.flip.p:
        out = flip(out)
    if cfg.random_drop.enabled and rng.random() < cfg.random_drop.p:
        fraction = rng.uniform(*cfg.random_drop.fraction_range)
        out = random_drop(out, fraction, rng)
    if cfg.lead_drop.enabled and rng.random() < cfg.lead_drop.p:
        k = int(rng.integers(cfg.lead_drop.leads_range[0],
                             cfg.lead_drop.leads_range[1], endpoint=True))
        out = lead_drop(out, k, rng)
    if cfg.square_pulse.enabled and rng.random() < cfg.square_pulse.p:
        amp, freq, phase = _draw_additive_params(cfg.square_pulse, out, rng)
        out = square_pulse_sum(out, amp, freq, phase)
    if cfg.sine.enabled and rng.random() < cfg.sine.p:
        amp, freq, phase = _draw_additive_params(cfg.sine, out, rng)
        out = sine_sum(out, amp, freq, phase)
    return out
