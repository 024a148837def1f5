"""Reproducible random streams.

Every stochastic component in the package draws from a Philox counter-based
generator keyed by a root seed plus an integer path. Substreams derived from
the same (seed, path) are bit-identical across runs and platforms, and
independent substreams can be consumed in any order, so batch-parallel work
stays reproducible regardless of scheduling.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError

__all__ = ["substream", "child_rng"]


def _path_element(x) -> int:
    if isinstance(x, str):
        return zlib.crc32(x.encode("utf-8"))
    return int(x)


def substream(seed: int, *path) -> np.random.Generator:
    """Return an independent generator for (seed, path).

    Path elements may be ints or short strings (hashed with crc32, which is
    stable across platforms). Same inputs always produce the same stream.
    Every seeded path comes here, so this is where a negative seed is refused.
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    key = tuple(_path_element(x) for x in path)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def child_rng(rng: np.random.Generator) -> np.random.Generator:
    """Return a new generator keyed by one draw from ``rng``.

    The draw advances ``rng``, so children taken in the same order from
    the same parent stream are the same.
    """
    return np.random.Generator(np.random.Philox(rng.integers(0, 2 ** 63)))
