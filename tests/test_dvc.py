import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volclust.cli import _write_csv
from volclust.dvc import (
    AnalysisConfig,
    DvcProfile,
    PipelineError,
    analyze,
    dvc_profile,
    fit_dvc,
    transition_counts,
)
from volclust.garch import GarchParams, evaluate
from volclust.ingest import PriceSeries, ReturnSeries
from volclust.surrogate import iid_gaussian
from volclust.symbolize import BinningScheme, SymbolicSeries, build_bins

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


# --- transition_counts ------------------------------------------------------


def test_transition_counts_hand_example():
    counts = transition_counts(sym([0, 1, 0, 1, 0, 2]))
    # 0 -> 1 twice, 0 -> 2 once, 1 -> 0 twice; symbol 2 only ends the series
    assert counts.tolist() == [[0, 2, 1], [2, 0, 0], [0, 0, 0]]
    assert counts.dtype == np.int64


def test_transition_counts_constant_series():
    assert transition_counts(sym([1, 1, 1, 1])).tolist() == [[0, 0, 0], [0, 3, 0], [0, 0, 0]]


def test_transition_counts_ignores_final_position():
    # the trailing 2 has no successor, so row 2 gets no support
    assert transition_counts(sym([0, 0, 2])).tolist() == [[1, 0, 1], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("indices", [[], [2]])
def test_transition_counts_short_series_is_zero(indices):
    counts = transition_counts(sym(indices))
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.zeros((3, 3), dtype=np.int64))


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=60))
@settings(max_examples=100)
def test_transition_counts_matches_oracle(indices):
    expected = np.zeros((3, 3), dtype=np.int64)
    for a, row in brute_force_transitions(indices).items():
        for b, count in row.items():
            expected[a, b] = count
    counts = transition_counts(sym(indices))
    assert np.array_equal(counts, expected)
    assert counts.sum() == len(indices) - 1


# --- dvc_profile ------------------------------------------------------------


def test_profile_single_symbol_series():
    profile = dvc_profile(sym([1] * 100), min_count=10)
    assert len(profile.s_values) == 1
    assert profile.s_values[0] == pytest.approx(0.0, abs=1e-12)
    assert profile.abs_means[0] == pytest.approx(0.0, abs=1e-12)
    assert profile.counts[0] == 99


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

    assert len(profile.s_values) == len(expected) == 5
    for i, (s_value, abs_mean, count) in enumerate(expected):
        assert profile.s_values[i] == pytest.approx(s_value, abs=1e-12)
        assert profile.abs_means[i] == pytest.approx(abs_mean, abs=1e-12)
        assert profile.counts[i] == count


def test_profile_validation():
    with pytest.raises(ValueError, match="sorted"):
        DvcProfile([1.0, 0.5], [0.5, 0.5], [10, 10])
    with pytest.raises(ValueError, match="nonnegative"):
        DvcProfile([0.0], [-0.1], [10])
    with pytest.raises(ValueError, match="at least one"):
        DvcProfile([], [], [])
    with pytest.raises(ValueError, match="count must be >= 1"):
        DvcProfile([-1.0, 1.0], [0.5, 0.5], [10, 0])
    with pytest.raises(ValueError, match="equal lengths"):
        DvcProfile([-1.0, 1.0], [0.5, 0.5], [10])


def test_profile_csv_export(tmp_path):
    profile = DvcProfile([-1.0, 1.0], [0.5, 0.75], [10, 20])
    path = tmp_path / "profile.csv"
    _write_csv(path, ("s_value", "abs_mean", "count"), profile.rows())
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "s_value,abs_mean,count"
    assert lines[1] == "-1.0,0.5,10"
    assert lines[2] == "1.0,0.75,20"
    assert lines[3:] == [""]


# --- fit_dvc ----------------------------------------------------------------


def test_fit_exact_lines_both_sides():
    profile = DvcProfile([-2.0, -1.0, 0.5, 1.0, 2.0], [1.2, 0.6, 0.25, 0.5, 1.0], [10] * 5)
    result = fit_dvc(profile)
    assert result.dvc_p == pytest.approx(0.5, abs=1e-12)
    assert result.dvc_n == pytest.approx(-0.6, abs=1e-12)
    assert result.n_points_pos == 3
    assert result.n_points_neg == 2


def test_fit_absolute_value_limit():
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    result = fit_dvc(DvcProfile(xs, np.abs(xs), [5] * 5))
    assert result.dvc_p == pytest.approx(1.0, abs=1e-12)
    assert result.dvc_n == pytest.approx(-1.0, abs=1e-12)


def test_fit_flat_profile_gives_zero_slopes():
    result = fit_dvc(DvcProfile([-2.0, -1.0, 0.0, 1.0, 2.0], [0.8] * 5, [5] * 5))
    assert result.dvc_p == pytest.approx(0.0, abs=1e-12)
    assert result.dvc_n == pytest.approx(0.0, abs=1e-12)


def test_fit_requires_two_points_per_side():
    pos_only = DvcProfile([0.0, 1.0], [0.1, 0.2], [5, 5])
    with pytest.raises(ValueError, match="s_value < 0"):
        fit_dvc(pos_only)
    lopsided = DvcProfile([-1.0, 0.0, 1.0], [0.2, 0.1, 0.2], [5, 5, 5])
    with pytest.raises(ValueError, match="s_value < 0"):
        fit_dvc(lopsided)
    neg_heavy = DvcProfile([-2.0, -1.0, 1.0], [0.3, 0.2, 0.2], [5, 5, 5])
    with pytest.raises(ValueError, match="s_value >= 0"):
        fit_dvc(neg_heavy)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
)
@settings(max_examples=50)
def test_fit_recovers_exact_through_origin_slopes(pos_slope, neg_slope):
    xs = np.array([-2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    means = [pos_slope * x if x >= 0 else -neg_slope * x for x in xs.tolist()]
    result = fit_dvc(DvcProfile(xs, means, [5] * len(xs)))
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: PriceSeries(np.arange(3), [1.0, 2.0, 3.0]),
        lambda: iid_gaussian(1000, 1.0, 1),
        lambda: BinningScheme(np.array([-1.5, -0.5, 0.5, 1.5])),
        lambda: sym([0, 1, 2]),
        lambda: evaluate(GarchParams(0.05, 0.10, 0.85), iid_gaussian(1000, 1.0, 1)),
    ],
    ids=["PriceSeries", "ReturnSeries", "BinningScheme", "SymbolicSeries", "GarchFit"],
)
def test_array_value_types_compare_by_identity(make):
    # like the numpy arrays they hold; DvcProfile and DvcResult compare by value
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False
    assert hash(a) == hash(a) and len({a, b}) == 2


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
    assert np.all(result.profile.counts >= 100)


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
