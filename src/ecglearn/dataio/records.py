"""Reading and writing 12-lead records in a WFDB-style binary layout.

A record is a text header (``<name>.hea``) plus one 16-bit little-endian
sample file (``<name>.dat``) holding frame-interleaved integers: frame t is
the twelve signals' samples at time t. The header's first line carries
``name n_sig fs n_samples``; each signal line carries the sample file name,
the format code (16), and a ``gain(baseline)/mV`` token. Millivolts are
reconstructed as (raw - baseline) / gain, per lead.

A loaded record is a ``QuantizedRecord`` holding only the samples (12 x m x
2 bytes) and the 12 gains and baselines. Its ``signal`` is a fresh decode on
every read, so mutating it changes nothing; a segment cut decodes only its
window.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..signal import N_LEADS, QuantizedRecord

__all__ = ["write_wfdb_record", "load_wfdb_record", "DEFAULT_GAIN"]

DEFAULT_GAIN = 200.0

_INT16 = np.iinfo(np.int16)
_LEAD_NAMES = ("I", "II", "III", "aVR", "aVL", "aVF",
               "V1", "V2", "V3", "V4", "V5", "V6")


def write_wfdb_record(base_path: str | Path, signal_mv: np.ndarray, fs: float,
                      gain: float = DEFAULT_GAIN, baseline: int = 0) -> Path:
    """Quantize [12, m] millivolt data to int16 and write header + samples.

    Returns the header path. Values are rounded to the nearest ADC unit, so a
    read-back differs from the input by at most half a quantization step
    (1 / (2 * gain) mV).
    """
    base = Path(base_path)
    signal_mv = np.asarray(signal_mv, dtype=np.float64)
    if signal_mv.ndim != 2 or signal_mv.shape[0] != N_LEADS:
        raise DataError(f"expected [{N_LEADS}, m] signal, got {signal_mv.shape}")
    m = signal_mv.shape[1]
    raw = np.rint(signal_mv * gain + baseline)
    if np.any(raw > 32767) or np.any(raw < -32768):
        raise DataError(f"record {base.name}: samples exceed int16 range at gain {gain}")
    raw = raw.astype("<i2")

    dat_name = base.name + ".dat"
    lines = [f"{base.name} {N_LEADS} {fs:g} {m}"]
    for lead in _LEAD_NAMES:
        lines.append(f"{dat_name} 16 {gain:g}({baseline})/mV 16 0 0 0 0 {lead}")
    base.parent.mkdir(parents=True, exist_ok=True)
    (base.parent / (base.name + ".hea")).write_text("\n".join(lines) + "\n")
    # frame-interleaved: sample t holds all 12 signals
    raw.T.tofile(base.parent / dat_name)
    return base.parent / (base.name + ".hea")


def _parse_gain_token(token: str) -> tuple[float, int]:
    """'200(0)/mV' -> (200.0, 0); units and baseline are optional.

    A non-numeric field, an unclosed '(', a baseline outside int16, or a gain
    that is not finite and positive or so small that a 16-bit sample divided
    by it overflows raises ValueError.
    """
    token = token.split("/")[0]
    baseline = 0
    if "(" in token:
        gain_s, rest = token.split("(", 1)
        if not rest.endswith(")"):
            raise ValueError("unclosed '('")
        baseline = int(rest[:-1])
        if not _INT16.min <= baseline <= _INT16.max:
            raise ValueError(f"baseline {baseline} is outside the int16 range")
    else:
        gain_s = token
    gain = float(gain_s)
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(f"gain must be finite and positive, got {gain_s!r}")
    if not math.isfinite((_INT16.max - _INT16.min) / gain):
        raise ValueError(f"gain {gain_s!r} is so small that (sample - baseline) "
                         "/ gain overflows")
    return gain, baseline


def load_wfdb_record(header_path: str | Path) -> QuantizedRecord:
    """Parse a header and its sample file into a record that keeps the samples."""
    header_path = Path(header_path)
    if not header_path.exists():
        raise DataError(f"header not found: {header_path}")
    lines = [ln.strip() for ln in header_path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise DataError(f"{header_path.name}: empty header")
    try:
        head = lines[0].split()
        name, n_sig, fs, m = head[0], int(head[1]), float(head[2]), int(head[3])
    except (IndexError, ValueError):
        raise DataError(
            f"{header_path.name}: malformed record line {lines[0]!r}") from None
    if not (math.isfinite(fs) and fs > 0):
        raise DataError(f"{header_path.name}: sampling rate must be finite and "
                        f"positive, got {head[2]!r}")
    if n_sig != N_LEADS:
        raise DataError(
            f"{header_path.name}: expected {N_LEADS} signals, header declares {n_sig}")
    if len(lines) - 1 < n_sig:
        raise DataError(f"{header_path.name}: header declares {n_sig} signals "
                        f"but has {len(lines) - 1} signal lines")

    dat_names, gains, baselines = [], [], []
    for ln in lines[1:1 + n_sig]:
        fields = ln.split()
        if len(fields) < 3:
            raise DataError(f"{header_path.name}: malformed signal line {ln!r}")
        if fields[1] != "16":
            raise DataError(
                f"{header_path.name}: unsupported sample format {fields[1]!r} "
                "(only 16-bit little-endian is supported)")
        dat_names.append(fields[0])
        try:
            g, b = _parse_gain_token(fields[2])
        except ValueError as e:
            raise DataError(
                f"{header_path.name}: bad gain {fields[2]!r} ({e})") from None
        gains.append(g)
        baselines.append(b)
    if len(set(dat_names)) != 1:
        raise DataError(f"{header_path.name}: all signals must share one sample file")

    dat_path = header_path.parent / dat_names[0]
    if not dat_path.exists():
        raise DataError(f"sample file not found: {dat_path}")
    expected_bytes = 2 * N_LEADS * m
    actual_bytes = os.path.getsize(dat_path)
    if actual_bytes != expected_bytes:
        raise DataError(
            f"{dat_path.name}: expected {expected_bytes} bytes "
            f"({N_LEADS} signals x {m} samples x 2), found {actual_bytes}")
    raw = np.fromfile(dat_path, dtype="<i2").reshape(m, N_LEADS).T
    rec = QuantizedRecord(raw, gains, baselines, fs=fs, id=name)
    # the header's ints, so no array is scanned: PTB-XL's baselines and
    # those write_wfdb_record writes by default are all 0
    rec._zero_baseline = not any(baselines)
    return rec
