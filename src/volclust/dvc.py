"""Degree-of-volatility-clustering estimation from a symbolic series.

For each conditioning symbol the empirical distribution of the next symbol
is estimated; its mean absolute successor value is then regressed on the
conditioning symbol's value, separately for nonnegative and negative
values. The two slopes (dvc_p, dvc_n) quantify how strongly large-magnitude
returns follow large-magnitude returns: both are near zero for a series
with no temporal dependence, and move apart (positive / negative) when
volatility clusters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .ingest import ReturnSeries, standardize
from .symbolize import SymbolicSeries, build_bins, symbolize

_PROB_TOL = 1e-12


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


@dataclass(frozen=True)
class ConditionalDistribution:
    """Empirical next-symbol distribution for one conditioning symbol.

    A normalized view of one row of the transition-count matrix:
    support_count is the row total, the number of observed transitions out
    of the conditioning symbol (occurrences anywhere but the last position).
    """

    conditioning_symbol: int
    probabilities: Mapping[int, float]
    support_count: int

    def __post_init__(self):
        object.__setattr__(
            self, "probabilities", MappingProxyType(dict(self.probabilities))
        )
        if self.support_count < 0:
            raise ValueError("support_count must be nonnegative")
        if self.support_count == 0:
            if self.probabilities:
                raise ValueError("empty support requires empty probabilities")
            return
        total = 0.0
        for sym, p in self.probabilities.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability of symbol {sym} outside [0, 1]: {p}")
            total += p
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class DvcPoint:
    """One profile point: symbol value, mean absolute successor value, support."""

    s_value: float
    abs_mean: float
    count: int


@dataclass(frozen=True)
class DvcProfile:
    """Profile points sorted by strictly increasing symbol value."""

    points: tuple[DvcPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("profile must contain at least one point")
        for p in self.points:
            if p.abs_mean < 0.0:
                raise ValueError("abs_mean must be nonnegative")
            if p.count < 1:
                raise ValueError("point count must be >= 1")
        svals = [p.s_value for p in self.points]
        if any(a >= b for a, b in zip(svals, svals[1:])):
            raise ValueError("points must be sorted by strictly increasing s_value")

    def s_values(self) -> np.ndarray:
        return np.array([p.s_value for p in self.points])

    def abs_means(self) -> np.ndarray:
        return np.array([p.abs_mean for p in self.points])


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
            "profile": [
                {"s_value": float(p.s_value), "abs_mean": float(p.abs_mean), "count": p.count}
                for p in self.profile.points
            ],
            "config": self.config.to_json_dict() if self.config is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _transition_counts(series: SymbolicSeries) -> np.ndarray:
    k = series.scheme.n_bins
    idx = series.indices
    if len(idx) < 2:
        return np.zeros((k, k), dtype=np.int64)
    flat = np.bincount(idx[:-1] * k + idx[1:], minlength=k * k)
    return flat.reshape(k, k)


def conditional_distribution(
    series: SymbolicSeries, conditioning_symbol: int
) -> ConditionalDistribution:
    """Row ``conditioning_symbol`` of the transition-count matrix, normalized.

    Returns an empty distribution (support_count 0) when the symbol never
    occurs before the last position.
    """
    k = series.scheme.n_bins
    if not 0 <= conditioning_symbol < k:
        raise ValueError(f"symbol index {conditioning_symbol} out of range [0, {k})")
    row = _transition_counts(series)[conditioning_symbol].tolist()
    support = sum(row)
    probs = {j: count / support for j, count in enumerate(row) if count}
    return ConditionalDistribution(conditioning_symbol, probs, support)


def dvc_profile(series: SymbolicSeries, min_count: int) -> DvcProfile:
    """One point per symbol with at least ``min_count`` observed transitions.

    Raises ValueError when no symbol reaches the threshold (series too
    short, or bins too fine for its length).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = _transition_counts(series)
    support = counts.sum(axis=1)
    keep = np.nonzero(support >= min_count)[0]
    if len(keep) == 0:
        raise ValueError(
            f"no symbol reaches min_count={min_count} transitions; "
            "series too short or bins too fine"
        )
    abs_centers = np.abs(series.scheme.centers)
    points = []
    for sym in keep:  # ascending symbol index == ascending center value
        n = int(support[sym])
        abs_mean = float(counts[sym] @ abs_centers) / n
        points.append(DvcPoint(float(series.scheme.centers[sym]), abs_mean, n))
    return DvcProfile(points=tuple(points))


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def fit_dvc(profile: DvcProfile) -> DvcResult:
    """Least-squares slopes of abs_mean against s_value, split by sign.

    dvc_p is fitted over points with s_value >= 0, dvc_n over points with
    s_value < 0; each side needs at least 2 points. A profile with no
    dependence on the symbol value yields slopes near zero.
    """
    svals = profile.s_values()
    means = profile.abs_means()
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
    except ValueError as exc:
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
