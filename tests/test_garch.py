import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import volclust
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
from volclust.surrogate import generator, iid_gaussian

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


def test_params_json_holds_every_field():
    payload = GarchParams(omega=1, alpha=0.1, beta=0.85).to_json_dict()
    assert list(payload) == [f.name for f in fields(GarchParams)]
    assert json.dumps(payload) == '{"omega": 1.0, "alpha": 0.1, "beta": 0.85}'


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


def _simulate_step_by_step(params, n, seed):
    # the plain recursion that simulate's prefix scan replaces
    total = n + garch.SIMULATION_BURN_IN
    eps = generator(seed).standard_normal(total).tolist()
    out = [0.0] * total
    v = params.unconditional_variance
    r = math.sqrt(v) * eps[0]
    out[0] = r
    for t in range(1, total):
        v = params.omega + params.alpha * r * r + params.beta * v
        r = math.sqrt(v) * eps[t]
        out[t] = r
    return np.array(out[garch.SIMULATION_BURN_IN:])


@pytest.mark.parametrize("n", [2, 63, 64, 65, 5_000])
@pytest.mark.parametrize(
    "params",
    [
        TRUE,
        GarchParams(omega=0.05, alpha=0.10, beta=0.0),  # block products underflow
        GarchParams(omega=0.05, alpha=0.0, beta=0.85),  # constant sigma^2
        GarchParams(omega=0.05, alpha=0.10, beta=0.90 - 1e-9),  # near-integrated
        GarchParams(omega=0.05, alpha=0.99, beta=0.0),  # large eps^2 spikes
    ],
    ids=["true", "beta0", "alpha0", "persistent", "spiky"],
)
def test_simulate_matches_step_by_step_recursion(params, n):
    expected = _simulate_step_by_step(params, n, 17)
    got = simulate(params, n, 17).values
    assert len(got) == n
    assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-13


def test_simulate_peak_memory_is_a_few_arrays():
    # the noise, the block coefficients, the variances and the series's own
    # copy come to about 33 bytes a step; a float object per step came to 71
    n = 100_000
    tracemalloc.start()
    try:
        simulate(TRUE, n, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * (n + garch.SIMULATION_BURN_IN)


def test_simulate_validates_inputs():
    with pytest.raises(ValueError, match="n must be"):
        simulate(TRUE, 1, 0)
    with pytest.raises(ValueError, match="seed"):
        simulate(TRUE, 10, -1)


# --- variance path and likelihood --------------------------------------------


def _variance_step_by_step(params, values, v0):
    # the per-step recursion, in extended precision: near beta = 1 a float64
    # loop drifts by about 1e-13 relative over 5000 steps on its own
    omega, alpha, beta = (np.longdouble(x) for x in (params.omega, params.alpha, params.beta))
    r = values.astype(np.longdouble)
    v = [np.longdouble(v0)]
    for t in range(1, len(r)):
        v.append(omega + alpha * r[t - 1] * r[t - 1] + beta * v[-1])
    return np.array(v, dtype=np.longdouble)


@pytest.mark.parametrize("n", [2, 64, 65, 5_000])
@pytest.mark.parametrize(
    "params",
    [
        TRUE,
        GarchParams(omega=0.05, alpha=0.10, beta=0.0),
        GarchParams(omega=0.05, alpha=0.0, beta=0.85),
        GarchParams(omega=0.05, alpha=0.0, beta=garch._MAX_PERSISTENCE),  # IGARCH boundary
    ],
    ids=["true", "beta0", "alpha0", "clamp"],
)
def test_variance_path_matches_step_by_step_recursion(params, n):
    values = simulate(TRUE, n, 3).values
    expected = _variance_step_by_step(params, values, np.var(values, ddof=1))
    got = variance_path(params, values)
    assert len(got) == n
    assert got[0] == pytest.approx(np.var(values, ddof=1), rel=1e-12)
    assert np.max(np.abs(got - expected) / expected) < 1e-13
    assert np.all(got > 0.0)


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
    assert fitted.log_likelihood == recomputed
    assert evaluate(fitted.params, series).log_likelihood == fitted.log_likelihood


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
    fits = [fit(iid_gaussian(50_000, 1.0, seed)) for seed in range(1, 11)]
    assert all(f.converged for f in fits)
    assert float(np.median([f.params.alpha for f in fits])) < 0.02


def test_fit_ends_at_a_likelihood_maximum():
    series = simulate(TRUE, 50_000, 7)
    fitted = fit(series)
    for name in ("omega", "alpha", "beta"):
        for factor in (0.99, 1.01):
            moved = replace(fitted.params, **{name: getattr(fitted.params, name) * factor})
            assert evaluate(moved, series).log_likelihood <= fitted.log_likelihood + 1e-6


def _counting_variance_path(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return variance_path(*args, **kwargs)

    monkeypatch.setattr(garch, "variance_path", counted)
    return calls


def test_fit_evaluates_through_variance_path(monkeypatch):
    # the benchmark's garch.fit_nfev counts variance_path calls inside fit
    calls = _counting_variance_path(monkeypatch)
    fit(simulate(TRUE, 20_000, 3))
    assert 3 <= len(calls) <= 60  # the start value, then one call per trial step


CAP = garch._MAX_PERSISTENCE
# p = (omega / v0, alpha, beta)
SCORE_POINTS = [
    np.array([0.05, 0.10, 0.85]),
    np.array([0.05, 0.0, 0.85]),  # alpha at its bound
    np.array([0.001, 0.10, 0.899]),  # persistence near 1
    np.array([0.001, 0.10, CAP - 0.10]),  # persistence at the cap
]


def _nll_through_the_bounds(p, values):
    # the same recursion, free of GarchParams's checks, so that central
    # differences can step across alpha = 0 and alpha + beta = cap
    v0 = np.var(values, ddof=1)
    variances = garch._affine_scan(v0, p[2], p[0] * v0 + p[1] * np.square(values[:-1]))
    return -gaussian_log_likelihood(values, variances)


@pytest.mark.parametrize("p", SCORE_POINTS)
def test_score_matches_central_differences(p):
    values = simulate(TRUE, 5_000, 3).values
    nll, variances = garch._nll(p, values, np.var(values, ddof=1))
    score, _ = garch._score_and_information(p, values * values, variances)
    assert nll == pytest.approx(_nll_through_the_bounds(p, values), rel=1e-12)
    for i in range(3):
        step = np.zeros(3)
        step[i] = 1e-5
        up = _nll_through_the_bounds(p + step, values)
        down = _nll_through_the_bounds(p - step, values)
        central = (up - down) / 2e-5
        assert abs(score[i] - central) <= 1e-5 * abs(central)


def _score_step_by_step(p, values):
    # sigma^2 forwards and lambda_k = g_k + beta * lambda_{k+1} backwards, one
    # step at a time; omega = p[0] * v0, so d nll / d p[0] = v0 * d nll / d omega
    v0 = float(np.var(values, ddof=1))
    omega, alpha, beta = p[0] * v0, p[1], p[2]
    r = values.tolist()
    v = [v0]
    for t in range(1, len(r)):
        v.append(omega + alpha * r[t - 1] ** 2 + beta * v[-1])
    lam, acc = [0.0] * len(r), 0.0
    for k in range(len(r) - 1, 0, -1):
        acc = 0.5 * (1.0 - r[k] ** 2 / v[k]) / v[k] + beta * acc
        lam[k] = acc
    return np.array([
        v0 * math.fsum(lam[1:]),
        math.fsum(lam[k] * r[k - 1] ** 2 for k in range(1, len(r))),
        math.fsum(lam[k] * v[k - 1] for k in range(1, len(r))),
    ])


@pytest.mark.parametrize("p", SCORE_POINTS)
def test_score_matches_step_by_step_adjoint(p):
    values = simulate(TRUE, 5_000, 3).values
    _, variances = garch._nll(p, values, np.var(values, ddof=1))
    score, _ = garch._score_and_information(p, values * values, variances)
    expected = _score_step_by_step(p, values)
    assert np.all(np.abs(score - expected) <= 1e-12 * np.abs(expected))


def _information_step_by_step(p, values):
    # D_t = (v0, r^2_{t-1}, sigma^2_{t-1}) + beta * D_{t-1} from D_0 = 0 one
    # step at a time, then 1/2 sum D_t D_t^T / sigma^4_t
    v0 = float(np.var(values, ddof=1))
    omega, alpha, beta = p[0] * v0, p[1], p[2]
    r = values.tolist()
    v, d = [v0], [(0.0, 0.0, 0.0)]
    for t in range(1, len(r)):
        v.append(omega + alpha * r[t - 1] ** 2 + beta * v[-1])
        d.append(tuple(x + beta * y for x, y in zip((v0, r[t - 1] ** 2, v[t - 1]), d[-1])))
    information = np.array([
        [0.5 * math.fsum(dt[i] * dt[j] / vt**2 for dt, vt in zip(d, v)) for j in range(3)]
        for i in range(3)
    ])
    return np.array(d).T, information


@pytest.mark.parametrize("p", SCORE_POINTS)
def test_information_matches_step_by_step_sensitivities(p):
    values = simulate(TRUE, 5_000, 3).values
    _, variances = garch._nll(p, values, np.var(values, ddof=1))
    sens = garch._sensitivities(p[2], values * values, variances)
    _, information = garch._score_and_information(p, values * values, variances)
    expected_sens, expected = _information_step_by_step(p, values)
    assert sens.shape == expected_sens.shape
    assert np.all(np.abs(sens - expected_sens) <= 1e-12 * np.abs(expected_sens))
    assert np.all(np.abs(information - expected) <= 1e-12 * np.abs(expected))
    assert np.array_equal(information, information.T)


def test_fit_leaves_the_iid_ridge_quickly(monkeypatch):
    # on this seed the likelihood is flat along alpha = 0, where a search
    # that cannot hold alpha at its bound crawls for hundreds of steps
    calls = _counting_variance_path(monkeypatch)
    fitted = fit(iid_gaussian(50_000, 1.0, 26))
    assert fitted.converged
    assert len(calls) <= 100


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_fit_does_not_depend_on_the_scale_of_the_returns(scale):
    values = simulate(TRUE, 50_000, 4).values
    unscaled = fit(ReturnSeries.from_values(values)).params
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = fit(ReturnSeries.from_values(values * scale))
    assert fitted.converged
    assert fitted.params.alpha == pytest.approx(unscaled.alpha, rel=1e-6)
    assert fitted.params.beta == pytest.approx(unscaled.beta, rel=1e-6)
    assert fitted.params.omega == pytest.approx(unscaled.omega * scale**2, rel=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "params",
    [GarchParams(omega=1e-4, alpha=0.10, beta=0.8999),
     GarchParams(omega=1e-6, alpha=0.05, beta=0.94999999)],
    ids=["persistence-0.9999", "persistence-1-1e-8"],
)
def test_fit_near_integrated_ends_at_a_maximum_along_the_persistence(params, seed):
    series = simulate(params, 50_000, seed)
    fitted = fit(series)
    assert fitted.converged
    alpha, beta = fitted.params.alpha, fitted.params.beta
    for shift in (0.01 * alpha, -0.01 * alpha):
        traded = replace(fitted.params, alpha=alpha + shift, beta=beta - shift)
        assert evaluate(traded, series).log_likelihood <= fitted.log_likelihood + 1e-6


def test_garch_filter_experiment_runs_without_scipy(tmp_path):
    # numpy is volclust's only dependency: with every scipy import made to
    # raise, a fresh interpreter still runs the CLI's GARCH fit end to end
    src = str(Path(volclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from volclust.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    argv = ["experiment", "--kind", "garch-filter", "--n", "20000", "--seeds", "1",
            "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    payload = json.loads((tmp_path / "out" / "experiment.json").read_text())
    assert [row["seed"] for row in payload["rows"]] == [1]


def test_fit_is_deterministic():
    series = simulate(TRUE, 20_000, 3)
    a = fit(series)
    b = fit(series)
    assert (a.params, a.log_likelihood, a.converged) == (b.params, b.log_likelihood, b.converged)
    assert np.array_equal(a.conditional_variances, b.conditional_variances)


def test_fit_rejects_short_series():
    with pytest.raises(ValueError, match="at least 500"):
        fit(iid_gaussian(499, 1.0, 1))


def test_fit_rejects_zero_variance_series():
    with pytest.raises(ValueError, match="cannot fit a zero-variance return series"):
        fit(ReturnSeries(np.zeros(600)))


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
