"""Equal-width binning of returns into a finite symbol alphabet.

A scheme partitions the return range into an odd number of equal-width bins
so exactly one bin straddles zero; each return maps to the index of the bin
containing it, and a symbol's numeric value is its bin midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ReturnSeries, _frozen_array

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class BinningScheme:
    """An equal-width partition: n_bins bins, n_bins+1 strictly increasing edges."""

    n_bins: int
    edges: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _frozen_array(self.edges, float))
        object.__setattr__(self, "centers", _frozen_array(self.centers, float))
        if self.n_bins < 3 or self.n_bins % 2 == 0:
            raise ValueError(f"n_bins must be odd and >= 3, got {self.n_bins}")
        if len(self.edges) != self.n_bins + 1:
            raise ValueError("edges must have n_bins + 1 entries")
        if len(self.centers) != self.n_bins:
            raise ValueError("centers must have n_bins entries")
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("edges must be strictly increasing")
        midpoints = 0.5 * (self.edges[:-1] + self.edges[1:])
        scale = max(1.0, float(np.max(np.abs(self.edges))))
        if not np.allclose(self.centers, midpoints, rtol=0.0, atol=_EDGE_TOL * scale):
            raise ValueError("centers must be the bin midpoints")


@dataclass(frozen=True)
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
    centers = 0.5 * (edges[:-1] + edges[1:])
    return BinningScheme(n_bins=n_bins, edges=edges, centers=centers)


def symbolize(returns: ReturnSeries, scheme: BinningScheme) -> SymbolicSeries:
    """Map each return to its bin index.

    Bins are half-open [low, high); values below the first edge clip into
    bin 0, values at or above the last edge clip into bin n_bins - 1, so
    every finite return gets exactly one symbol.
    """
    idx = np.searchsorted(scheme.edges, returns.values, side="right") - 1
    np.clip(idx, 0, scheme.n_bins - 1, out=idx)
    return SymbolicSeries(indices=idx, scheme=scheme)
