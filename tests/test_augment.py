"""Augmentation transforms: definitions, composition, determinism."""

import numpy as np
import pytest

from ecglearn.augment import (AdditiveConfig, AugmentConfig, FlipConfig,
                              LeadDropConfig, RandomDropConfig,
                              apply_augmentations, flip, lead_drop,
                              random_drop, sine_sum, square_pulse_sum)
from ecglearn.errors import AugmentError
from ecglearn.seeding import substream
from ecglearn.signal import EcgRecord


def make_record(seed=0, n=2048, fs=500.0):
    rng = np.random.default_rng(seed)
    return EcgRecord(signal=rng.normal(size=(12, n)), fs=fs, id=f"aug{seed}")


def fit_sinusoid(residual, fs, freq):
    """Least-squares (amplitude, phase) of a sinusoid at a known frequency."""
    t = np.arange(len(residual)) / fs
    basis = np.stack([np.sin(2 * np.pi * freq * t),
                      np.cos(2 * np.pi * freq * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, residual, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


class TestIndividualTransforms:
    def test_flip_negates(self):
        rec = make_record(1)
        out = flip(rec)
        assert np.array_equal(out.signal, -rec.signal)

    def test_random_drop_exact_count(self):
        rec = make_record(2, n=2048)
        out = random_drop(rec, 0.1, np.random.default_rng(0))
        zeroed = np.sum(out.signal[0] == 0.0)
        assert zeroed == int(0.1 * 2048) == 204
        # same positions across leads
        mask = out.signal[0] == 0.0
        for lead in range(12):
            assert np.array_equal(out.signal[lead] == 0.0, mask)

    def test_lead_drop_zeroes_exactly_k(self):
        # distinct per-lead markers: untouched leads stay bit-identical
        sig = np.arange(1, 13, dtype=np.float64)[:, None] * np.ones((12, 256))
        rec = EcgRecord(signal=sig, fs=500.0, id="markers")
        out = lead_drop(rec, 1, np.random.default_rng(3))
        zero_leads = [i for i in range(12) if np.all(out.signal[i] == 0.0)]
        assert len(zero_leads) == 1
        for i in range(12):
            if i not in zero_leads:
                assert np.array_equal(out.signal[i], sig[i])

    def test_square_pulse_zero_amplitude_identity(self):
        rec = make_record(4)
        out = square_pulse_sum(rec, 0.0, freq_hz=2.0, phase=0.3)
        assert np.array_equal(out.signal, rec.signal)

    def test_square_pulse_is_square(self):
        rec = make_record(5, n=1000)
        out = square_pulse_sum(rec, 0.5, freq_hz=3.0, phase=0.0)
        residual = out.signal - rec.signal
        assert np.allclose(np.abs(residual), 0.5, atol=1e-9)
        assert residual.min() < 0 < residual.max()

    def test_sine_sum_recovered_by_lsq_fit(self):
        rec = make_record(6, n=4000)
        amp, freq = 0.37, 4.25
        out = sine_sum(rec, amp, freq_hz=freq, phase=1.1)
        residual = (out.signal - rec.signal)[7]
        fitted = fit_sinusoid(residual, rec.fs, freq)
        assert abs(fitted - amp) < 1e-9

    def test_invalid_params_raise(self):
        rec = make_record(7)
        with pytest.raises(AugmentError, match="fraction"):
            random_drop(rec, 1.0, np.random.default_rng(0))
        with pytest.raises(AugmentError, match="k must be"):
            lead_drop(rec, 12, np.random.default_rng(0))


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestAdditiveParameterChecks:
    """The additive transforms refuse a non-finite parameter, since no
    record they return is scanned for NaN/Inf."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("param", ["amplitude", "lead amplitude",
                                       "freq_hz", "phase"])
    @pytest.mark.parametrize("transform", [square_pulse_sum, sine_sum])
    def test_non_finite_parameter_refused(self, transform, param, bad):
        args = {"amplitude": 0.1, "freq_hz": 2.0, "phase": 0.5}
        if param == "lead amplitude":
            args["amplitude"] = np.full(12, 0.1)
            args["amplitude"][5] = bad
        else:
            args[param] = bad
        with pytest.raises(AugmentError, match=f"{transform.__name__}: "
                           "amplitude, frequency and phase must be finite"):
            transform(make_record(8, n=64), **args)


class TestConfigValidation:
    def test_probability_bounds(self):
        with pytest.raises(AugmentError, match="probability"):
            FlipConfig(p=1.5)

    def test_destructive_ranges_rejected(self):
        with pytest.raises(AugmentError, match="erase"):
            RandomDropConfig(fraction_range=(0.5, 1.0))
        with pytest.raises(AugmentError, match="erase"):
            LeadDropConfig(leads_range=(1, 12))

    def test_empty_range_rejected(self):
        with pytest.raises(AugmentError, match="empty range"):
            AdditiveConfig(rel_amplitude_range=(0.3, 0.1))

    @pytest.mark.parametrize("fraction_range", [(-0.5, -0.1), (-0.01, 0.1)])
    def test_negative_drop_fraction_rejected(self, fraction_range):
        with pytest.raises(AugmentError, match="random_drop.fraction_range"):
            RandomDropConfig(p=1.0, fraction_range=fraction_range)

    @pytest.mark.parametrize("make, field", [
        (lambda r: RandomDropConfig(fraction_range=r), "random_drop.fraction_range"),
        (lambda r: LeadDropConfig(leads_range=r), "lead_drop.leads_range"),
        (lambda r: AdditiveConfig(rel_amplitude_range=r), "rel_amplitude_range"),
        (lambda r: AdditiveConfig(freq_range_hz=r), "freq_range_hz"),
    ])
    @pytest.mark.parametrize("bad", [(0.1,), (0.1, 0.2, 0.3), 0.1, None])
    def test_range_must_be_a_pair(self, make, field, bad):
        with pytest.raises(AugmentError, match=f"{field}: expected a"):
            make(bad)

    @pytest.mark.parametrize("make, field", [
        (lambda r: RandomDropConfig(p=1.0, fraction_range=r),
         "random_drop.fraction_range"),
        (lambda r: AdditiveConfig(freq_range_hz=r), "freq_range_hz"),
    ])
    @pytest.mark.parametrize("bad", [(float("nan"), 0.1), (0.05, float("nan")),
                                     (0.05, float("inf"))])
    def test_range_must_be_finite(self, make, field, bad):
        with pytest.raises(AugmentError, match=f"{field}: range must be finite"):
            make(bad)


class TestComposition:
    def test_all_probabilities_zero_is_identity(self):
        rec = make_record(8)
        cfg = AugmentConfig(
            flip=FlipConfig(p=0.0), random_drop=RandomDropConfig(p=0.0),
            lead_drop=LeadDropConfig(p=0.0), square_pulse=AdditiveConfig(p=0.0),
            sine=AdditiveConfig(p=0.0))
        out = apply_augmentations(rec, cfg, np.random.default_rng(0))
        assert np.array_equal(out.signal, rec.signal)

    def test_flip_p1_always_negates(self):
        rec = make_record(9)
        cfg = AugmentConfig.disabled()
        cfg = AugmentConfig(flip=FlipConfig(p=1.0), random_drop=cfg.random_drop,
                            lead_drop=cfg.lead_drop, square_pulse=cfg.square_pulse,
                            sine=cfg.sine)
        out = apply_augmentations(rec, cfg, np.random.default_rng(1))
        assert np.array_equal(out.signal, -rec.signal)

    def test_eval_path_identity_regardless_of_config(self):
        rec = make_record(10)
        cfg = AugmentConfig()  # everything enabled at defaults
        out = apply_augmentations(rec, cfg, np.random.default_rng(2), training=False)
        assert out is rec

    def test_shape_preserved(self):
        rec = make_record(11, n=777)
        cfg = AugmentConfig(
            flip=FlipConfig(p=1.0), random_drop=RandomDropConfig(p=1.0),
            lead_drop=LeadDropConfig(p=1.0), square_pulse=AdditiveConfig(p=1.0),
            sine=AdditiveConfig(p=1.0))
        out = apply_augmentations(rec, cfg, np.random.default_rng(3))
        assert out.signal.shape == (12, 777)

    def test_fixed_seed_bitwise_reproducible(self):
        rec = make_record(12)
        cfg = AugmentConfig()
        a = apply_augmentations(rec, cfg, substream(77, "augment", 0, 5))
        b = apply_augmentations(rec, cfg, substream(77, "augment", 0, 5))
        assert np.array_equal(a.signal, b.signal)
        c = apply_augmentations(rec, cfg, substream(77, "augment", 1, 5))
        assert not np.array_equal(a.signal, c.signal)

    def test_additive_transforms_commute(self):
        rec = make_record(13, n=1500)
        amp_p, f_p, ph_p = 0.2, 2.0, 0.4
        amp_s, f_s, ph_s = 0.3, 5.0, 1.2
        ab = sine_sum(square_pulse_sum(rec, amp_p, f_p, ph_p), amp_s, f_s, ph_s)
        ba = square_pulse_sum(sine_sum(rec, amp_s, f_s, ph_s), amp_p, f_p, ph_p)
        assert np.allclose(ab.signal - rec.signal, ba.signal - rec.signal, atol=1e-15)
