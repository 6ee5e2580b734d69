"""Degree-of-volatility-clustering estimation from a symbolic series.

Consecutive symbols are counted into a transition-count matrix. Row i,
divided by its sum, is the distribution of the symbol that follows symbol
i; its mean absolute successor value is then regressed on the value of
symbol i, separately for nonnegative and negative values. The two slopes
(dvc_p, dvc_n) quantify how strongly large-magnitude returns follow
large-magnitude returns: both are near zero for a series with no temporal
dependence, and move apart (positive / negative) when volatility clusters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .ingest import ReturnSeries, _frozen_array, standardize
from .symbolize import SymbolicSeries, build_bins, symbolize


class PipelineError(ValueError):
    """A pipeline stage failed; the message is prefixed with the stage name."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


@dataclass(frozen=True)
class AnalysisConfig:
    """Control parameters of the full analysis pipeline."""

    n_bins: int = 41
    clip_sigmas: float = 3.0
    min_count: int = 100
    standardize_first: bool = True

    def __post_init__(self):
        if self.n_bins < 3 or self.n_bins % 2 == 0:
            raise ValueError(f"n_bins must be odd and >= 3, got {self.n_bins}")
        if not 0.0 < self.clip_sigmas < np.inf:
            raise ValueError(f"clip_sigmas must be positive and finite, got {self.clip_sigmas}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")

    def to_json_dict(self) -> dict:
        return {
            "n_bins": self.n_bins,
            "clip_sigmas": float(self.clip_sigmas),
            "min_count": self.min_count,
            "standardize_first": bool(self.standardize_first),
        }


# the columns of profile.csv and the keys of each profile entry in result.json
PROFILE_COLUMNS = ("s_value", "abs_mean", "count")


@dataclass(frozen=True, eq=False)
class DvcProfile:
    """One entry per kept symbol, by strictly increasing symbol value.

    Read-only arrays of equal length: the symbol value, the mean absolute
    value of the symbol that follows it, and the transitions behind that mean.
    Profiles compare and hash by their rows, so a DvcResult does too.
    """

    s_values: np.ndarray
    abs_means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name, dtype in (("s_values", float), ("abs_means", float), ("counts", np.int64)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))
        if not len(self.s_values) == len(self.abs_means) == len(self.counts):
            raise ValueError("s_values, abs_means and counts must have equal lengths")
        if len(self.s_values) == 0:
            raise ValueError("profile must contain at least one point")
        if np.any(self.abs_means < 0.0):
            raise ValueError("abs_mean must be nonnegative")
        if np.any(self.counts < 1):
            raise ValueError("point count must be >= 1")
        if np.any(self.s_values[:-1] >= self.s_values[1:]):
            raise ValueError("points must be sorted by strictly increasing s_value")

    def rows(self) -> list[tuple[float, float, int]]:
        """One tuple per point in ``PROFILE_COLUMNS`` order, in Python numbers, as written out."""
        return list(zip(self.s_values.tolist(), self.abs_means.tolist(), self.counts.tolist()))

    def __eq__(self, other):
        return isinstance(other, DvcProfile) and self.rows() == other.rows()

    def __hash__(self):
        return hash(tuple(self.rows()))


@dataclass(frozen=True)
class DvcResult:
    """Fitted clustering slopes plus the profile they came from."""

    dvc_p: float
    dvc_n: float
    profile: DvcProfile
    n_points_pos: int
    n_points_neg: int
    config: AnalysisConfig | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "dvc_p": float(self.dvc_p),
            "dvc_n": float(self.dvc_n),
            "n_points_pos": self.n_points_pos,
            "n_points_neg": self.n_points_neg,
            "profile": [dict(zip(PROFILE_COLUMNS, row)) for row in self.profile.rows()],
            "config": self.config.to_json_dict() if self.config is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def transition_counts(series: SymbolicSeries) -> np.ndarray:
    """The k x k matrix of symbol-to-symbol steps, k = series.scheme.n_bins.

    Entry (i, j) counts the positions t with symbol i at t and symbol j at
    t + 1, so row i sums to the occurrences of i before the last position.
    Row i, divided by its sum, is the empirical distribution of the symbol
    that follows i.
    """
    k = series.scheme.n_bins
    idx = series.indices
    flat = np.bincount(idx[:-1] * k + idx[1:], minlength=k * k)
    return flat.reshape(k, k)


def dvc_profile(series: SymbolicSeries, min_count: int) -> DvcProfile:
    """One point per symbol with at least ``min_count`` observed transitions.

    Raises ValueError when no symbol reaches the threshold (series too
    short, or bins too fine for its length).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = transition_counts(series)
    support = counts.sum(axis=1)
    keep = support >= min_count
    if not keep.any():
        raise ValueError(
            f"no symbol reaches min_count={min_count} transitions; "
            "series too short or bins too fine"
        )
    abs_centers = np.abs(series.scheme.centers)
    # a dot product per row, as one matrix product rounds some sums differently;
    # ascending symbol index == ascending center value
    sums = np.array([row @ abs_centers for row in counts[keep]])
    return DvcProfile(series.scheme.centers[keep], sums / support[keep], support[keep])


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def fit_dvc(profile: DvcProfile) -> DvcResult:
    """Least-squares slopes of abs_mean against s_value, split by sign.

    dvc_p is fitted over points with s_value >= 0, dvc_n over points with
    s_value < 0; each side needs at least 2 points. A profile with no
    dependence on the symbol value yields slopes near zero.
    """
    svals, means = profile.s_values, profile.abs_means
    pos = svals >= 0.0
    neg = ~pos
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos < 2:
        raise ValueError(f"need >= 2 profile points with s_value >= 0, got {n_pos}")
    if n_neg < 2:
        raise ValueError(f"need >= 2 profile points with s_value < 0, got {n_neg}")
    return DvcResult(
        dvc_p=_ols_slope(svals[pos], means[pos]),
        dvc_n=_ols_slope(svals[neg], means[neg]),
        profile=profile,
        n_points_pos=n_pos,
        n_points_neg=n_neg,
    )


def _run_stage(stage, func, *args):
    try:
        return func(*args)
    except PipelineError:
        raise
    except (ValueError, OSError) as exc:
        raise PipelineError(stage, str(exc)) from exc


def analyze(returns: ReturnSeries, config: AnalysisConfig | None = None) -> DvcResult:
    """Run the full pipeline: standardize, bin, symbolize, profile, fit.

    Deterministic for identical inputs and config; failures carry the name
    of the stage that raised them.
    """
    cfg = config if config is not None else AnalysisConfig()
    work = returns
    if cfg.standardize_first:
        work = _run_stage("standardize", standardize, returns)
    scheme = _run_stage("build_bins", build_bins, work, cfg.n_bins, cfg.clip_sigmas)
    sym = _run_stage("symbolize", symbolize, work, scheme)
    profile = _run_stage("dvc_profile", dvc_profile, sym, cfg.min_count)
    result = _run_stage("fit_dvc", fit_dvc, profile)
    return replace(result, config=cfg)
