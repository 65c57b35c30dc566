"""Deterministic RNG stream derivation.

Every stochastic function in this package takes an explicit
``numpy.random.Generator``. Streams are derived from a single master seed by a
counter-based split (``SeedSequence`` spawn keys), so a run is bit-reproducible
given (seed, config) and independent components can draw concurrently without
sharing state.

Path elements may be ints or strings; strings are mapped to ints with crc32 so
labels like ``("chain", 3)`` form stable keys.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("stream path ints must be nonnegative")
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream path elements must be int or str, got {type(part)!r}")


def stream(seed: int, *path) -> np.random.Generator:
    """Return the Generator for ``path`` under ``seed``.

    The same (seed, path) always yields the same stream; distinct paths are
    statistically independent.
    """
    key = tuple(_key_int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def substream(rng_or_seed, *path) -> np.random.Generator:
    """Derive a child stream either from a seed or from a Generator.

    Deriving from a Generator consumes one 64-bit draw from it, which keeps
    child creation deterministic in call order.
    """
    if isinstance(rng_or_seed, np.random.Generator):
        child_seed = int(rng_or_seed.integers(0, 2**63 - 1))
        return stream(child_seed, *path)
    return stream(int(rng_or_seed), *path)
