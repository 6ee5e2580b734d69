"""GARCH(1,1) simulation, Gaussian quasi-maximum-likelihood fitting, and filtering.

Model: r_t = sigma_t * eps_t with eps_t iid standard normal and
sigma^2_t = omega + alpha * r^2_{t-1} + beta * sigma^2_{t-1}, covariance
stationary when alpha + beta < 1. Simulation initializes the recursion at
the unconditional variance omega / (1 - alpha - beta) and discards a
burn-in; likelihood evaluation initializes at the sample variance of the
data. Fitting runs a Nelder-Mead search on an unconstrained
reparameterization that keeps the parameters inside the stationarity
region by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import ReturnSeries, _frozen_array
from .surrogate import generator

LOG_2PI = math.log(2.0 * math.pi)
SIMULATION_BURN_IN = 1000
MIN_FIT_LENGTH = 500
MAX_FIT_ITERATIONS = 2000
FIT_RELATIVE_F_TOL = 1e-8


@dataclass(frozen=True)
class GarchParams:
    """Stationary GARCH(1,1) parameters; alpha + beta < 1 is enforced."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("omega", "alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if not self.alpha + self.beta < 1.0:
            raise ValueError(
                f"alpha + beta must be < 1 for stationarity, got {self.alpha + self.beta}"
            )

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)

    def to_json_dict(self) -> dict:
        return {"omega": float(self.omega), "alpha": float(self.alpha), "beta": float(self.beta)}


@dataclass(frozen=True)
class GarchFit:
    """Fitted parameters with the conditional variance path they imply."""

    params: GarchParams
    log_likelihood: float
    conditional_variances: np.ndarray
    converged: bool

    def __post_init__(self):
        object.__setattr__(
            self, "conditional_variances", _frozen_array(self.conditional_variances, float)
        )
        v = self.conditional_variances
        if len(v) == 0 or not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("conditional variances must be positive and finite")
        if not math.isfinite(self.log_likelihood):
            raise ValueError("log_likelihood must be finite")

    def to_json_dict(self) -> dict:
        return {
            **self.params.to_json_dict(),
            "log_likelihood": float(self.log_likelihood),
            "converged": bool(self.converged),
        }


def simulate(params: GarchParams, n: int, seed: int) -> ReturnSeries:
    """Simulate n returns after discarding a 1000-step burn-in.

    sigma^2_0 starts at the unconditional variance; deterministic per seed.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    total = n + SIMULATION_BURN_IN
    eps = generator(seed).standard_normal(total).tolist()
    omega, alpha, beta = params.omega, params.alpha, params.beta
    out = [0.0] * total
    v = params.unconditional_variance
    r = math.sqrt(v) * eps[0]
    out[0] = r
    for t in range(1, total):
        v = omega + alpha * r * r + beta * v
        r = math.sqrt(v) * eps[t]
        out[t] = r
    return ReturnSeries.from_values(out[SIMULATION_BURN_IN:])


def variance_path(
    params: GarchParams, values: np.ndarray, initial_variance: float | None = None
) -> np.ndarray:
    """Conditional variance recursion along observed returns.

    sigma^2_0 defaults to the sample variance of the data (n-1 denominator).
    """
    # scipy is imported here and in fit, so importing the package does not pay for it
    from scipy.signal import lfilter

    r = np.asarray(values, dtype=float)
    if len(r) < 2:
        raise ValueError(f"need at least 2 returns, got {len(r)}")
    v0 = float(np.var(r, ddof=1)) if initial_variance is None else float(initial_variance)
    if not v0 > 0.0:
        raise ValueError(f"initial variance must be positive, got {v0}")
    # y_t = x_t + beta * y_{t-1} with x_t = omega + alpha * r^2_{t-1}, y_0 = v0
    x = np.empty_like(r)
    x[0] = v0
    x[1:] = params.omega + params.alpha * r[:-1] ** 2
    return lfilter([1.0], [1.0, -params.beta], x)


def gaussian_log_likelihood(values: np.ndarray, variances: np.ndarray) -> float:
    """Gaussian log-likelihood of returns under a given variance path."""
    r = np.asarray(values, dtype=float)
    v = np.asarray(variances, dtype=float)
    if len(r) != len(v):
        raise ValueError("returns and variances have different lengths")
    return float(-0.5 * np.sum(LOG_2PI + np.log(v) + r * r / v))


def evaluate(params: GarchParams, returns: ReturnSeries, converged: bool = True) -> GarchFit:
    """Build a GarchFit for given (not optimized) parameters on the data."""
    variances = variance_path(params, returns.values)
    return GarchFit(
        params=params,
        log_likelihood=gaussian_log_likelihood(returns.values, variances),
        conditional_variances=variances,
        converged=converged,
    )


def _sigmoid(t: float) -> float:
    # stable for arbitrarily large |t|
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _unpack(theta: np.ndarray) -> GarchParams:
    # clamps keep the map total: any theta yields valid stationary params
    omega = math.exp(min(max(theta[0], -700.0), 700.0))
    persistence = min(_sigmoid(theta[1]), 1.0 - 1e-12)
    share = _sigmoid(theta[2])
    return GarchParams(omega=omega, alpha=persistence * share, beta=persistence * (1.0 - share))


def fit(returns: ReturnSeries) -> GarchFit:
    """Maximum-likelihood GARCH(1,1) fit via Nelder-Mead.

    The search runs on (log omega, logit persistence, logit share), which
    maps onto the stationarity region, with relative function tolerance
    1e-8 and at most 2000 iterations; the converged flag reports whether
    the optimizer met the tolerance. Start: omega = 0.1 * sample variance,
    alpha = 0.05, beta = 0.90.
    """
    from scipy.optimize import minimize

    if len(returns) < MIN_FIT_LENGTH:
        raise ValueError(
            f"need at least {MIN_FIT_LENGTH} returns for a meaningful fit, got {len(returns)}"
        )
    start = GarchParams(omega=0.1 * returns.stdev**2, alpha=0.05, beta=0.90)
    persistence = start.alpha + start.beta
    x0 = np.array([math.log(start.omega), _logit(persistence), _logit(start.alpha / persistence)])

    values = returns.values
    v0 = float(np.var(values, ddof=1))

    def objective(theta):
        params = _unpack(theta)
        variances = variance_path(params, values, initial_variance=v0)
        nll = -gaussian_log_likelihood(values, variances)
        return nll if math.isfinite(nll) else math.inf

    f0 = objective(x0)
    scale = max(1.0, abs(f0)) if math.isfinite(f0) else 1.0
    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options=dict(
            maxiter=MAX_FIT_ITERATIONS,
            maxfev=2 * MAX_FIT_ITERATIONS,
            fatol=FIT_RELATIVE_F_TOL * scale,
            xatol=1e-6,
        ),
    )
    return evaluate(_unpack(result.x), returns, converged=bool(result.success))


def filter_returns(returns: ReturnSeries, fitted: GarchFit) -> ReturnSeries:
    """Divide each return by its fitted conditional standard deviation."""
    if len(fitted.conditional_variances) != len(returns):
        raise ValueError(
            f"fit length {len(fitted.conditional_variances)} does not match "
            f"series length {len(returns)}"
        )
    return ReturnSeries.from_values(
        returns.values / np.sqrt(fitted.conditional_variances)
    )
