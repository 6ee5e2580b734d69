import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volclust.cli import _write_csv
from volclust.dvc import (
    AnalysisConfig,
    ConditionalDistribution,
    DvcPoint,
    DvcProfile,
    PipelineError,
    analyze,
    conditional_distribution,
    dvc_profile,
    fit_dvc,
)
from volclust.ingest import ReturnSeries
from volclust.surrogate import iid_gaussian
from volclust.symbolize import SymbolicSeries, build_bins

UNIT = ReturnSeries.from_values([-1.0, 0.0, 1.0])
THREE = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)       # centers [-2, 0, 2]


def sym(indices, scheme=THREE):
    return SymbolicSeries(indices=np.asarray(indices, dtype=np.int64), scheme=scheme)


def brute_force_transitions(indices):
    """Oracle: plain dict counting of (current, next) pairs."""
    counts = {}
    for a, b in zip(indices[:-1], indices[1:]):
        counts.setdefault(int(a), {}).setdefault(int(b), 0)
        counts[int(a)][int(b)] += 1
    return counts


# --- conditional_distribution ---------------------------------------------


def test_conditional_distribution_hand_example():
    dist = conditional_distribution(sym([0, 1, 0, 1, 0, 2]), 0)
    assert dist.support_count == 3
    assert dist.probabilities[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert dist.probabilities[2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert set(dist.probabilities) == {1, 2}


def test_conditional_distribution_constant_series():
    dist = conditional_distribution(sym([1, 1, 1, 1]), 1)
    assert dist.support_count == 3
    assert dist.probabilities[1] == 1.0


def test_conditional_distribution_absent_symbol():
    dist = conditional_distribution(sym([0, 1, 0, 1]), 2)
    assert dist.support_count == 0
    assert dict(dist.probabilities) == {}


def test_conditional_distribution_ignores_final_position():
    # the trailing 2 has no successor, so it contributes no support
    dist = conditional_distribution(sym([0, 0, 2]), 2)
    assert dist.support_count == 0


def test_conditional_distribution_invalid_symbol():
    with pytest.raises(ValueError, match="out of range"):
        conditional_distribution(sym([0, 1]), 3)


def test_conditional_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        ConditionalDistribution(0, {1: 0.4, 2: 0.4}, 5)
    with pytest.raises(ValueError, match="empty"):
        ConditionalDistribution(0, {1: 1.0}, 0)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=60))
@settings(max_examples=100)
def test_conditional_distribution_matches_oracle(indices):
    series = sym(indices)
    oracle = brute_force_transitions(indices)
    support_total = 0
    for symbol in range(3):
        dist = conditional_distribution(series, symbol)
        row = oracle.get(symbol, {})
        assert dist.support_count == sum(row.values())
        support_total += dist.support_count
        assert set(dist.probabilities) == set(row)
        for successor, count in row.items():
            assert dist.probabilities[successor] == pytest.approx(
                count / dist.support_count, abs=1e-12
            )
        if dist.support_count > 0:
            assert math.isclose(sum(dist.probabilities.values()), 1.0, abs_tol=1e-12)
    assert support_total == len(indices) - 1


# --- dvc_profile ------------------------------------------------------------


def test_profile_single_symbol_series():
    profile = dvc_profile(sym([1] * 100), min_count=10)
    assert len(profile.points) == 1
    point = profile.points[0]
    assert point.s_value == pytest.approx(0.0, abs=1e-12)
    assert point.abs_mean == pytest.approx(0.0, abs=1e-12)
    assert point.count == 99


def test_profile_threshold_excludes_everything():
    with pytest.raises(ValueError, match="min_count=4"):
        dvc_profile(sym([0, 1, 0, 1, 0, 2]), min_count=4)


def test_profile_matches_transition_matrix_oracle():
    rng = np.random.default_rng(123)
    indices = rng.integers(0, 5, size=100_000)
    scheme = build_bins(UNIT, n_bins=5, clip_sigmas=5.0)  # centers [-4,-2,0,2,4]
    profile = dvc_profile(SymbolicSeries(indices=indices, scheme=scheme), min_count=100)

    oracle = brute_force_transitions(indices.tolist())
    expected = []
    for symbol in sorted(oracle):
        row = oracle[symbol]
        total = sum(row.values())
        if total < 100:
            continue
        abs_mean = sum(abs(scheme.centers[j]) * c for j, c in row.items()) / total
        expected.append((scheme.centers[symbol], abs_mean, total))

    assert len(profile.points) == len(expected) == 5
    for point, (s_value, abs_mean, count) in zip(profile.points, expected):
        assert point.s_value == pytest.approx(s_value, abs=1e-12)
        assert point.abs_mean == pytest.approx(abs_mean, abs=1e-12)
        assert point.count == count


def test_profile_exhaustive_small_sequences():
    # every sequence of length <= 6 over 3 symbols (the long version lives
    # in the acceptance suite)
    for length in range(2, 7):
        for indices in itertools.product(range(3), repeat=length):
            oracle = brute_force_transitions(list(indices))
            series = sym(list(indices))
            for symbol in range(3):
                dist = conditional_distribution(series, symbol)
                row = oracle.get(symbol, {})
                assert dist.support_count == sum(row.values())
                assert set(dist.probabilities) == set(row)


def test_profile_validation():
    with pytest.raises(ValueError, match="sorted"):
        DvcProfile(points=(DvcPoint(1.0, 0.5, 10), DvcPoint(0.5, 0.5, 10)))
    with pytest.raises(ValueError, match="nonnegative"):
        DvcProfile(points=(DvcPoint(0.0, -0.1, 10),))
    with pytest.raises(ValueError, match="at least one"):
        DvcProfile(points=())


def test_profile_csv_export(tmp_path):
    profile = DvcProfile(points=(DvcPoint(-1.0, 0.5, 10), DvcPoint(1.0, 0.75, 20)))
    path = tmp_path / "profile.csv"
    _write_csv(path, ("s_value", "abs_mean", "count"),
               ((p.s_value, p.abs_mean, p.count) for p in profile.points))
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "s_value,abs_mean,count"
    assert lines[1] == "-1.0,0.5,10"
    assert lines[2] == "1.0,0.75,20"
    assert lines[3:] == [""]


# --- fit_dvc ----------------------------------------------------------------


def test_fit_exact_lines_both_sides():
    profile = DvcProfile(points=(
        DvcPoint(-2.0, 1.2, 10),
        DvcPoint(-1.0, 0.6, 10),
        DvcPoint(0.5, 0.25, 10),
        DvcPoint(1.0, 0.5, 10),
        DvcPoint(2.0, 1.0, 10),
    ))
    result = fit_dvc(profile)
    assert result.dvc_p == pytest.approx(0.5, abs=1e-12)
    assert result.dvc_n == pytest.approx(-0.6, abs=1e-12)
    assert result.n_points_pos == 3
    assert result.n_points_neg == 2


def test_fit_absolute_value_limit():
    points = tuple(
        DvcPoint(float(x), abs(float(x)), 5) for x in (-2, -1, 0, 1, 2)
    )
    result = fit_dvc(DvcProfile(points=points))
    assert result.dvc_p == pytest.approx(1.0, abs=1e-12)
    assert result.dvc_n == pytest.approx(-1.0, abs=1e-12)


def test_fit_flat_profile_gives_zero_slopes():
    points = tuple(DvcPoint(float(x), 0.8, 5) for x in (-2, -1, 0, 1, 2))
    result = fit_dvc(DvcProfile(points=points))
    assert result.dvc_p == pytest.approx(0.0, abs=1e-12)
    assert result.dvc_n == pytest.approx(0.0, abs=1e-12)


def test_fit_requires_two_points_per_side():
    pos_only = DvcProfile(points=(DvcPoint(0.0, 0.1, 5), DvcPoint(1.0, 0.2, 5)))
    with pytest.raises(ValueError, match="s_value < 0"):
        fit_dvc(pos_only)
    lopsided = DvcProfile(points=(
        DvcPoint(-1.0, 0.2, 5), DvcPoint(0.0, 0.1, 5), DvcPoint(1.0, 0.2, 5)
    ))
    with pytest.raises(ValueError, match="s_value < 0"):
        fit_dvc(lopsided)
    neg_heavy = DvcProfile(points=(
        DvcPoint(-2.0, 0.3, 5), DvcPoint(-1.0, 0.2, 5), DvcPoint(1.0, 0.2, 5)
    ))
    with pytest.raises(ValueError, match="s_value >= 0"):
        fit_dvc(neg_heavy)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
)
@settings(max_examples=50)
def test_fit_recovers_exact_through_origin_slopes(pos_slope, neg_slope):
    xs = np.array([-2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    points = tuple(
        DvcPoint(float(x), pos_slope * x if x >= 0 else -neg_slope * x, 5)
        for x in xs
    )
    result = fit_dvc(DvcProfile(points=points))
    assert result.dvc_p == pytest.approx(pos_slope, abs=1e-12)
    assert result.dvc_n == pytest.approx(-neg_slope, abs=1e-12)


# --- analyze ----------------------------------------------------------------


def test_analyze_defaults():
    config = AnalysisConfig()
    assert (config.n_bins, config.clip_sigmas, config.min_count) == (41, 3.0, 100)
    assert config.standardize_first


def test_analyze_config_validation():
    with pytest.raises(ValueError, match="odd"):
        AnalysisConfig(n_bins=10)
    with pytest.raises(ValueError, match="min_count"):
        AnalysisConfig(min_count=0)
    with pytest.raises(ValueError, match="clip_sigmas"):
        AnalysisConfig(clip_sigmas=-1.0)
    with pytest.raises(ValueError, match="clip_sigmas"):
        AnalysisConfig(clip_sigmas=float("inf"))


def test_analyze_is_deterministic():
    series = iid_gaussian(50_000, 1.0, 21)
    first = analyze(series)
    second = analyze(series)
    assert first == second
    assert first.to_json() == second.to_json()


def test_analyze_iid_series_is_flat():
    # no temporal dependence: slopes near zero, checked across 10 seeds
    slopes = []
    for seed in range(1, 11):
        result = analyze(iid_gaussian(100_000, 1.0, seed))
        slopes.append((result.dvc_p, result.dvc_n))
    p_values, n_values = zip(*slopes)
    assert np.median(np.abs(p_values)) < 0.05
    assert np.median(np.abs(n_values)) < 0.05


def test_analyze_iid_slopes_shrink_with_length():
    short, long = [], []
    for seed in range(1, 11):
        r_short = analyze(iid_gaussian(20_000, 1.0, seed))
        r_long = analyze(iid_gaussian(200_000, 1.0, seed + 1000))
        short.append(max(abs(r_short.dvc_p), abs(r_short.dvc_n)))
        long.append(max(abs(r_long.dvc_p), abs(r_long.dvc_n)))
    assert np.median(long) < np.median(short)


def test_analyze_detects_garch_clustering():
    from volclust.garch import GarchParams, simulate

    series = simulate(GarchParams(omega=0.05, alpha=0.10, beta=0.85), 100_000, 1)
    result = analyze(series)
    assert result.dvc_p > 0.1
    assert result.dvc_n < -0.1
    # every profile point cleared the default threshold
    assert all(p.count >= 100 for p in result.profile.points)


def test_analyze_stage_tagging():
    # 0.5 is exactly representable, so the constant series has stdev exactly 0
    with pytest.raises(PipelineError, match="^standardize:"):
        analyze(ReturnSeries.from_values([0.5] * 50))
    with pytest.raises(PipelineError, match="^dvc_profile:"):
        analyze(iid_gaussian(50, 1.0, 3))
    try:
        analyze(iid_gaussian(50, 1.0, 3))
    except PipelineError as exc:
        assert exc.stage == "dvc_profile"


def test_analyze_without_standardization():
    rng = np.random.default_rng(17)
    series = ReturnSeries.from_values(rng.normal(0.0, 2.0, size=60_000))
    config = AnalysisConfig(standardize_first=False)
    result = analyze(series, config)
    assert abs(result.dvc_p) < 0.05
    assert result.config == config


def test_result_json_schema():
    result = analyze(iid_gaussian(60_000, 1.0, 4))
    payload = json.loads(result.to_json())
    assert set(payload) == {
        "dvc_p", "dvc_n", "n_points_pos", "n_points_neg", "profile", "config",
    }
    assert payload["config"]["n_bins"] == 41
    first = payload["profile"][0]
    assert set(first) == {"s_value", "abs_mean", "count"}
    assert payload["n_points_pos"] + payload["n_points_neg"] == len(payload["profile"])
