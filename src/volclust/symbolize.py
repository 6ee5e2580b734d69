"""Equal-width binning of returns into a finite symbol alphabet.

A scheme partitions the return range into an odd number of equal-width bins
so exactly one bin straddles zero; each return maps to the index of the bin
containing it, and a symbol's numeric value is its bin midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ingest import ReturnSeries, _frozen_array


@dataclass(frozen=True, eq=False)
class BinningScheme:
    """A partition of the real line by strictly increasing edges.

    The edges bound an odd number (>= 3) of bins; ``n_bins`` and the bin
    midpoints ``centers`` are derived from them at construction.
    """

    edges: np.ndarray
    n_bins: int = field(init=False)
    centers: np.ndarray = field(init=False)

    def __post_init__(self):
        edges = _frozen_array(self.edges, float)
        n_bins = len(edges) - 1
        if n_bins < 3 or n_bins % 2 == 0:
            raise ValueError(f"n_bins must be odd and >= 3, got {n_bins}")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n_bins", n_bins)
        object.__setattr__(self, "centers", _frozen_array(0.5 * (edges[:-1] + edges[1:]), float))


@dataclass(frozen=True, eq=False)
class SymbolicSeries:
    """Bin indices of a return series under a fixed scheme."""

    indices: np.ndarray
    scheme: BinningScheme

    def __post_init__(self):
        object.__setattr__(self, "indices", _frozen_array(self.indices, np.int64))
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.scheme.n_bins
        ):
            raise ValueError("symbol indices out of range for the scheme")

    def __len__(self) -> int:
        return len(self.indices)


def build_bins(returns: ReturnSeries, n_bins: int, clip_sigmas: float) -> BinningScheme:
    """Equal-width bins spanning mean +/- clip_sigmas * stdev of the series.

    For a standardized series this is [-clip_sigmas, +clip_sigmas], with
    edges symmetric about 0 and the middle bin centered on 0.
    """
    if n_bins < 3 or n_bins % 2 == 0:
        raise ValueError(f"n_bins must be odd and >= 3, got {n_bins}")
    if not 0.0 < clip_sigmas < np.inf:
        raise ValueError(f"clip_sigmas must be positive and finite, got {clip_sigmas}")
    if returns.stdev <= 0.0:
        raise ValueError("cannot bin a zero-variance return series")
    # Offsets are mirrored so the grid is exactly antisymmetric, and a mean
    # that is pure floating-point noise snaps to 0. The middle bin center is
    # then exactly 0.0 for standardized input, which keeps the sign split of
    # the slope fit stable under last-ulp perturbations of the data.
    span = clip_sigmas * returns.stdev
    # a bin center halves the sum of two edges, so edges stay below half the float range
    if not np.isfinite(2.0 * (abs(returns.mean) + span)):
        raise ValueError(f"clip_sigmas {clip_sigmas} times stdev {returns.stdev} overflows")
    upper = np.linspace(span / n_bins, span, (n_bins + 1) // 2)
    offsets = np.concatenate([-upper[::-1], upper])
    mean = 0.0 if abs(returns.mean) <= 1e-12 * returns.stdev else returns.mean
    edges = mean + offsets
    if not np.all(np.diff(edges) > 0):
        raise ValueError(
            f"clip_sigmas {clip_sigmas} times stdev {returns.stdev} is too narrow "
            f"to split into {n_bins} bins around mean {returns.mean}"
        )
    return BinningScheme(edges=edges)


def symbolize(returns: ReturnSeries, scheme: BinningScheme) -> SymbolicSeries:
    """Map each return to its bin index.

    Bins are half-open [low, high); values below the first edge clip into
    bin 0, values at or above the last edge clip into bin n_bins - 1, so
    every finite return gets exactly one symbol: the count of inner edges
    at or below the value.
    """
    edges, k, x = scheme.edges, scheme.n_bins, returns.values
    # Guess each bin by arithmetic, as if the bins had equal widths. The cast
    # truncates toward zero, which differs from the floor only below bin 0,
    # and comes before the clip, so a NaN or inf guess (a span too wide or too
    # narrow for the float range) lands inside the alphabet, where the check decides.
    with np.errstate(over="ignore", invalid="ignore"):
        work = x - edges[0]
        work *= k / (edges[-1] - edges[0])
        idx = work.astype(np.int64)
    np.clip(idx, 0, k - 1, out=idx)
    # keep a guess only if its stored edges hold the value, the outer bins open;
    # mode="clip" lets take write into ``work`` without an n-sized buffer
    low, high = edges[:-1].copy(), edges[1:].copy()
    low[0], high[-1] = -np.inf, np.inf
    ok = np.take(low, idx, mode="clip", out=work) <= x
    ok &= x < np.take(high, idx, mode="clip", out=work)
    del work  # before SymbolicSeries copies the indices
    if not ok.all():
        miss = ~ok
        idx[miss] = np.searchsorted(edges[1:-1], x[miss], side="right")
    return SymbolicSeries(indices=idx, scheme=scheme)
