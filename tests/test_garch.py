import json
import math
from dataclasses import replace

import numpy as np
import pytest

from volclust import garch
from volclust.dvc import analyze
from volclust.garch import (
    GarchFit,
    GarchParams,
    evaluate,
    filter_returns,
    fit,
    gaussian_log_likelihood,
    simulate,
    variance_path,
)
from volclust.ingest import ReturnSeries
from volclust.surrogate import iid_gaussian

TRUE = GarchParams(omega=0.05, alpha=0.10, beta=0.85)


# --- parameters -------------------------------------------------------------


def test_params_stationarity_enforced():
    with pytest.raises(ValueError, match="stationarity"):
        GarchParams(omega=0.1, alpha=0.5, beta=0.5)
    with pytest.raises(ValueError, match="stationarity"):
        GarchParams(omega=0.1, alpha=0.0, beta=1.0)
    with pytest.raises(ValueError, match="omega"):
        GarchParams(omega=0.0, alpha=0.1, beta=0.1)
    with pytest.raises(ValueError, match="alpha"):
        GarchParams(omega=0.1, alpha=-0.1, beta=0.1)
    with pytest.raises(ValueError, match="beta"):
        GarchParams(omega=0.1, alpha=0.1, beta=-0.1)
    with pytest.raises(ValueError, match="finite"):
        GarchParams(omega=math.nan, alpha=0.1, beta=0.1)


def test_unconditional_variance():
    params = GarchParams(omega=0.2, alpha=0.3, beta=0.3)
    assert params.unconditional_variance == pytest.approx(0.5, abs=1e-15)


# --- simulate ---------------------------------------------------------------


def test_simulate_reaches_unconditional_variance():
    series = simulate(GarchParams(omega=0.2, alpha=0.3, beta=0.3), 500_000, 42)
    assert len(series) == 500_000
    assert abs(series.stdev**2 - 0.5) < 0.05 * 0.5


def test_simulate_degenerates_to_iid_gaussian():
    series = simulate(GarchParams(omega=0.3, alpha=0.0, beta=0.0), 500_000, 7)
    values = series.values
    assert abs(series.stdev**2 - 0.3) < 0.05 * 0.3
    # excess kurtosis of a Gaussian is 0
    centered = values - values.mean()
    excess_kurtosis = np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0
    assert abs(excess_kurtosis) < 0.1


def test_simulate_is_seed_deterministic():
    a = simulate(TRUE, 5_000, 123)
    b = simulate(TRUE, 5_000, 123)
    c = simulate(TRUE, 5_000, 124)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_simulate_validates_inputs():
    with pytest.raises(ValueError, match="n must be"):
        simulate(TRUE, 1, 0)
    with pytest.raises(ValueError, match="seed"):
        simulate(TRUE, 10, -1)


# --- variance path and likelihood --------------------------------------------


def test_variance_path_satisfies_recursion():
    series = simulate(TRUE, 20_000, 5)
    v = variance_path(TRUE, series.values)
    r = series.values
    assert v[0] == pytest.approx(np.var(r, ddof=1), rel=1e-12)
    expected = TRUE.omega + TRUE.alpha * r[:-1] ** 2 + TRUE.beta * v[:-1]
    assert np.allclose(v[1:], expected, rtol=1e-10, atol=1e-10)
    assert np.all(v > 0.0)


def test_nll_closed_form_when_constant_variance():
    rng = np.random.default_rng(31)
    series = ReturnSeries.from_values(rng.normal(0.0, 0.7, size=10_000))
    sample_var = float(np.var(series.values, ddof=1))
    params = GarchParams(omega=sample_var, alpha=0.0, beta=0.0)
    n = len(series)
    closed_form = 0.5 * (
        n * math.log(2.0 * math.pi)
        + n * math.log(sample_var)
        + float(np.sum(series.values**2)) / sample_var
    )
    assert -evaluate(params, series).log_likelihood == pytest.approx(closed_form, rel=1e-12)


def test_nll_prefers_true_parameters():
    series = simulate(TRUE, 100_000, 11)
    at_true = -evaluate(TRUE, series).log_likelihood
    doubled = GarchParams(omega=2 * TRUE.omega, alpha=TRUE.alpha, beta=TRUE.beta)
    assert at_true < -evaluate(doubled, series).log_likelihood


def test_nll_consistent_with_stored_variances():
    series = simulate(TRUE, 20_000, 9)
    fitted = fit(series)
    recomputed = gaussian_log_likelihood(series.values, fitted.conditional_variances)
    assert fitted.log_likelihood == pytest.approx(recomputed, abs=1e-8)
    assert -evaluate(fitted.params, series).log_likelihood == pytest.approx(
        -fitted.log_likelihood, abs=1e-8
    )


def test_variance_path_requires_positive_start():
    with pytest.raises(ValueError, match="initial variance"):
        variance_path(TRUE, np.array([0.1, 0.2]), initial_variance=0.0)


# --- fit ----------------------------------------------------------------------


def test_fit_recovers_simulation_parameters():
    series = simulate(TRUE, 50_000, 101)
    fitted = fit(series)
    assert fitted.converged
    assert abs(fitted.params.omega - TRUE.omega) / TRUE.omega < 0.3
    assert abs(fitted.params.alpha - TRUE.alpha) / TRUE.alpha < 0.3
    assert abs(fitted.params.beta - TRUE.beta) / TRUE.beta < 0.3


def test_fit_iid_input_gives_tiny_alpha():
    alphas = [fit(iid_gaussian(50_000, 1.0, seed)).params.alpha for seed in range(1, 11)]
    assert float(np.median(alphas)) < 0.02


def test_fit_ends_at_a_likelihood_maximum():
    series = simulate(TRUE, 50_000, 7)
    fitted = fit(series)
    for name in ("omega", "alpha", "beta"):
        for factor in (0.99, 1.01):
            moved = replace(fitted.params, **{name: getattr(fitted.params, name) * factor})
            assert evaluate(moved, series).log_likelihood <= fitted.log_likelihood + 1e-6


def test_fit_evaluates_through_variance_path(monkeypatch):
    # the benchmark's garch.fit_nfev counts variance_path calls inside fit
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return variance_path(*args, **kwargs)

    monkeypatch.setattr(garch, "variance_path", counted)
    fit(simulate(TRUE, 2_000, 4))
    assert len(calls) >= 3  # start value, search, final evaluate


def test_fit_is_deterministic():
    series = simulate(TRUE, 20_000, 3)
    a = fit(series)
    b = fit(series)
    assert (a.params, a.log_likelihood, a.converged) == (b.params, b.log_likelihood, b.converged)
    assert np.array_equal(a.conditional_variances, b.conditional_variances)


def test_fit_rejects_short_series():
    with pytest.raises(ValueError, match="at least 500"):
        fit(iid_gaussian(499, 1.0, 1))


# --- filter -------------------------------------------------------------------


def test_filter_with_true_parameters_recovers_unit_innovations():
    series = simulate(TRUE, 100_000, 13)
    residuals = filter_returns(series, evaluate(TRUE, series))
    assert abs(residuals.stdev**2 - 1.0) < 0.03


def test_filter_constant_variance_is_scalar_multiple():
    rng = np.random.default_rng(8)
    series = ReturnSeries.from_values(rng.normal(0.0, 0.5, size=1000))
    omega = 0.25
    constant_fit = GarchFit(
        params=GarchParams(omega=omega, alpha=0.0, beta=0.0),
        log_likelihood=gaussian_log_likelihood(series.values, np.full(1000, omega)),
        conditional_variances=np.full(1000, omega),
        converged=True,
    )
    filtered = filter_returns(series, constant_fit)
    assert np.array_equal(filtered.values, series.values / math.sqrt(omega))


def test_filter_length_mismatch():
    series = simulate(TRUE, 2_000, 2)
    fitted = fit(series)
    shorter = ReturnSeries.from_values(series.values[:-1])
    with pytest.raises(ValueError, match="length"):
        filter_returns(shorter, fitted)


def test_filter_collapses_clustering():
    series = simulate(TRUE, 100_000, 1)
    raw = analyze(series)
    filtered = analyze(filter_returns(series, fit(series)))
    assert abs(filtered.dvc_p) <= 0.25 * abs(raw.dvc_p)
    assert abs(filtered.dvc_n) <= 0.25 * abs(raw.dvc_n)


def test_true_parameter_filtering_reduces_dvc_every_seed():
    for seed in range(1, 11):
        series = simulate(TRUE, 200_000, seed)
        raw = analyze(series)
        filtered = analyze(filter_returns(series, evaluate(TRUE, series)))
        assert abs(filtered.dvc_p) < abs(raw.dvc_p)
        assert abs(filtered.dvc_n) < abs(raw.dvc_n)


# --- serialization --------------------------------------------------------------


def test_fit_json_schema():
    series = simulate(TRUE, 2_000, 4)
    fitted = fit(series)
    payload = json.loads(json.dumps(fitted.to_json_dict()))
    assert set(payload) == {"omega", "alpha", "beta", "log_likelihood", "converged"}
    assert payload["omega"] == fitted.params.omega
