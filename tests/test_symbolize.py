import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volclust.ingest import ReturnSeries, standardize
from volclust.symbolize import BinningScheme, SymbolicSeries, build_bins, symbolize

# exactly standardized: mean 0, sample stdev 1
UNIT = ReturnSeries.from_values([-1.0, 0.0, 1.0])


def scan_bin(edges, value):
    """Brute-force bin search: first half-open interval containing the value."""
    n_bins = len(edges) - 1
    if value < edges[0]:
        return 0
    for i in range(n_bins):
        if edges[i] <= value < edges[i + 1]:
            return i
    return n_bins - 1


def test_build_bins_three_bins():
    scheme = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)
    assert np.allclose(scheme.edges, [-3.0, -1.0, 1.0, 3.0], atol=1e-12)
    assert np.allclose(scheme.centers, [-2.0, 0.0, 2.0], atol=1e-12)


def test_build_bins_five_bins():
    scheme = build_bins(UNIT, n_bins=5, clip_sigmas=5.0)
    assert np.allclose(scheme.edges, [-5.0, -3.0, -1.0, 1.0, 3.0, 5.0], atol=1e-12)
    assert np.allclose(scheme.centers, [-4.0, -2.0, 0.0, 2.0, 4.0], atol=1e-12)


def test_build_bins_rejects_even_or_small_counts():
    with pytest.raises(ValueError, match="odd"):
        build_bins(UNIT, n_bins=4, clip_sigmas=3.0)
    with pytest.raises(ValueError, match="odd"):
        build_bins(UNIT, n_bins=1, clip_sigmas=3.0)


def test_build_bins_rejects_bad_clip_and_variance():
    with pytest.raises(ValueError, match="clip_sigmas"):
        build_bins(UNIT, n_bins=3, clip_sigmas=0.0)
    with pytest.raises(ValueError, match="clip_sigmas"):
        build_bins(UNIT, n_bins=3, clip_sigmas=float("inf"))
    # finite, but the edges, or the sum of two adjacent edges, leave the float range
    wide = ReturnSeries.from_values([-2.0, 0.0, 2.0])  # stdev 2
    for clip_sigmas in (1e308, 6e307):
        with pytest.raises(ValueError, match="clip_sigmas"):
            build_bins(wide, n_bins=41, clip_sigmas=clip_sigmas)
    with pytest.raises(ValueError, match="zero-variance"):
        build_bins(ReturnSeries.from_values([0.1, 0.1]), n_bins=3, clip_sigmas=3.0)


def test_build_bins_centers_on_sample_mean():
    series = ReturnSeries.from_values([9.0, 10.0, 11.0])  # mean 10, stdev 1
    scheme = build_bins(series, n_bins=3, clip_sigmas=3.0)
    assert np.allclose(scheme.edges, [7.0, 9.0, 11.0, 13.0], atol=1e-12)


def test_build_bins_symmetric_for_standardized_input():
    rng = np.random.default_rng(5)
    series = standardize(ReturnSeries.from_values(rng.normal(2.0, 3.0, size=4000)))
    scheme = build_bins(series, n_bins=41, clip_sigmas=3.0)
    assert np.max(np.abs(scheme.edges + scheme.edges[::-1])) < 1e-12
    assert abs(scheme.centers[scheme.n_bins // 2]) < 1e-12


def test_symbolize_basic_mapping():
    scheme = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)
    sym = symbolize(ReturnSeries.from_values([-2.5, 0.0, 2.5]), scheme)
    assert sym.indices.tolist() == [0, 1, 2]
    assert len(sym) == 3


def test_symbolize_clips_out_of_range():
    scheme = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)
    sym = symbolize(ReturnSeries.from_values([-7.0, 7.0]), scheme)
    assert sym.indices.tolist() == [0, 2]


def test_symbolize_boundary_ties_go_to_higher_bin():
    scheme = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)
    # edges are [-3, -1, 1, 3]: -1 and 1 sit on interior edges, 3 on the last
    sym = symbolize(ReturnSeries.from_values([-3.0, -1.0, 1.0, 3.0]), scheme)
    assert sym.indices.tolist() == [0, 1, 2, 2]


def test_symbolize_agrees_with_linear_scan_on_uniforms():
    scheme = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)
    rng = np.random.default_rng(99)
    values = rng.uniform(-4.0, 4.0, size=10_000)
    sym = symbolize(ReturnSeries.from_values(values), scheme)
    expected = [scan_bin(scheme.edges, v) for v in values]
    assert sym.indices.tolist() == expected


def test_scheme_validation():
    with pytest.raises(ValueError, match="increasing"):
        BinningScheme(n_bins=3, edges=np.array([0.0, 1.0, 1.0, 2.0]),
                      centers=np.array([0.5, 1.0, 1.5]))
    with pytest.raises(ValueError, match="midpoints"):
        BinningScheme(n_bins=3, edges=np.array([0.0, 1.0, 2.0, 3.0]),
                      centers=np.array([0.5, 1.5, 2.0]))
    with pytest.raises(ValueError, match="n_bins"):
        BinningScheme(n_bins=2, edges=np.array([0.0, 1.0, 2.0]),
                      centers=np.array([0.5, 1.5]))


def test_symbolic_series_validation():
    scheme = build_bins(UNIT, n_bins=3, clip_sigmas=3.0)
    with pytest.raises(ValueError, match="out of range"):
        SymbolicSeries(indices=np.array([0, 3]), scheme=scheme)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=200),
    st.sampled_from([3, 5, 7, 41]),
)
@settings(max_examples=80)
def test_symbolization_total_and_matches_scan(values, n_bins):
    scheme = build_bins(UNIT, n_bins=n_bins, clip_sigmas=3.0)
    sym = symbolize(ReturnSeries.from_values(values), scheme)
    assert len(sym) == len(values)
    assert np.all((sym.indices >= 0) & (sym.indices < n_bins))
    assert sym.indices.tolist() == [scan_bin(scheme.edges, v) for v in values]


@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
             min_size=2, max_size=100)
)
@settings(max_examples=80)
def test_symbolization_is_monotone(values):
    scheme = build_bins(UNIT, n_bins=5, clip_sigmas=3.0)
    ordered = sorted(values)
    sym = symbolize(ReturnSeries.from_values(ordered), scheme)
    assert np.all(np.diff(sym.indices) >= 0)
