"""Quantify volatility clustering in return series.

Pipeline: load prices, take log returns, standardize, bin into symbols,
count symbol-to-symbol transitions, and fit the slopes of the mean
absolute successor value (one per row of the count matrix) against the
conditioning symbol value (dvc_p for nonnegative symbols, dvc_n for
negative ones). The :mod:`volclust.garch` and :mod:`volclust.surrogate`
modules supply the synthetic-data machinery (GARCH(1,1) simulate/fit/filter,
seeded shuffling) that :mod:`volclust.experiment` uses to validate the
measure.
"""

from .dvc import (
    AnalysisConfig,
    DvcProfile,
    DvcResult,
    PipelineError,
    analyze,
    dvc_profile,
    fit_dvc,
    transition_counts,
)
from .ingest import PriceSeries, ReturnSeries, compute_returns, load_prices, standardize
from .symbolize import BinningScheme, SymbolicSeries, build_bins, symbolize

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "BinningScheme",
    "DvcProfile",
    "DvcResult",
    "PipelineError",
    "PriceSeries",
    "ReturnSeries",
    "SymbolicSeries",
    "analyze",
    "build_bins",
    "compute_returns",
    "dvc_profile",
    "fit_dvc",
    "load_prices",
    "standardize",
    "symbolize",
    "transition_counts",
    "__version__",
]
