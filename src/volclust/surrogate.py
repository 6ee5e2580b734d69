"""Seeded surrogate shuffling and iid Gaussian null-model generation.

All randomness in the package flows through explicit integer seeds (64-bit
unsigned range) via :func:`generator`; nothing reads ambient entropy. The
generator is numpy's PCG64, with standard normals drawn by its ziggurat
method, so every seeded operation is reproducible run to run.

A surrogate (Theiler et al. 1992) keeps a series' values and destroys their
order. :func:`shuffle` permutes the returns; :func:`shuffle_symbols`
permutes a symbolized series with the same draws, which puts its symbols in
the order that :func:`shuffle` puts the returns. Binning does not depend on
order, so the second skips standardizing and symbolizing the shuffled copy.
"""

from __future__ import annotations

import numpy as np

from .ingest import ReturnSeries
from .symbolize import SymbolicSeries


def generator(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; seed must be an integer in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.default_rng(int(seed))


def shuffle(returns: ReturnSeries, seed: int) -> ReturnSeries:
    """Uniformly random permutation of the values (Fisher-Yates).

    Preserves the value multiset exactly; destroys temporal ordering.
    """
    return ReturnSeries.from_values(generator(seed).permutation(returns.values))


def shuffle_symbols(series: SymbolicSeries, seed: int) -> SymbolicSeries:
    """The symbols permuted as :func:`shuffle` permutes returns with the same seed.

    numpy's Fisher-Yates draws do not depend on the array's dtype, so
    ``shuffle_symbols(symbolize(r, s), seed)`` holds the symbols of
    ``shuffle(r, seed)`` under the same scheme ``s``.
    """
    return SymbolicSeries(generator(seed).permutation(series.indices), series.scheme)


def iid_gaussian(n: int, sigma: float, seed: int) -> ReturnSeries:
    """n independent normal(0, sigma^2) draws (standard normals scaled by sigma)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not sigma > 0.0 or not np.isfinite(sigma):
        raise ValueError(f"sigma must be a positive finite real, got {sigma}")
    return ReturnSeries.from_values(generator(seed).standard_normal(n) * sigma)
