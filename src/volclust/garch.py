"""GARCH(1,1) simulation, Gaussian quasi-maximum-likelihood fitting, and filtering.

Model: r_t = sigma_t * eps_t with eps_t iid standard normal and
sigma^2_t = omega + alpha * r^2_{t-1} + beta * sigma^2_{t-1}, covariance
stationary when alpha + beta < 1 (Bollerslev 1986). Simulation initializes
the recursion at the unconditional variance omega / (1 - alpha - beta) and
discards a burn-in; likelihood evaluation initializes at the sample variance
of the data. Simulation, the variance path and the score's sensitivities
all run the recursion through one numpy prefix scan, ``_affine_scan``.
Fitting runs damped Fisher scoring on the analytic score and expected
information in (omega / v0, alpha, beta), v0 the sample variance, projected
onto the stationary region; numpy is the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .ingest import _TINY, ReturnSeries, _frozen_array
from .surrogate import generator

LOG_2PI = math.log(2.0 * math.pi)
SIMULATION_BURN_IN = 1000
MIN_FIT_LENGTH = 500
MAX_FIT_ITERATIONS = 2000
_SCAN_BLOCK = 64  # steps per block of _affine_scan


@dataclass(frozen=True)
class GarchParams:
    """Stationary GARCH(1,1) parameters; alpha + beta < 1 is enforced."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in self.to_json_dict().items():
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
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True, eq=False)
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


def _blocked(x) -> np.ndarray:
    """x[i] at [i % 64, i // 64], the last column padded; a scalar is one column."""
    x = np.atleast_1d(x)
    full = len(x) // _SCAN_BLOCK
    out = np.empty((_SCAN_BLOCK, -(-len(x) // _SCAN_BLOCK)))
    out[:, :full] = x[: full * _SCAN_BLOCK].reshape(full, _SCAN_BLOCK).T
    out[:, full:] = np.resize(x[full * _SCAN_BLOCK :], (_SCAN_BLOCK, out.shape[1] - full))
    return out


def _affine_scan(first: float, coef, offset) -> np.ndarray:
    """y[0] = first and y[t] = offset[t-1] + coef[t-1] * y[t-1] for t = 1..steps.

    ``coef`` and ``offset`` are float arrays of the steps' values or scalars.
    Affine maps compose, so this is a blocked prefix scan (Blelloch 1990):
    all 64-step blocks run from zero at once, one contiguous row per step,
    then one pass over the block ends carries y across them. It matches the
    step-by-step loop to about 1e-15 relative; overflow gives inf or nan.
    """
    (steps,) = np.broadcast_shapes(np.shape(coef), np.shape(offset))
    blocks = -(-steps // _SCAN_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        # rebinding frees a caller's temporary; v runs each block's recursion in place
        coef, v = _blocked(coef), _blocked(np.broadcast_to(offset, steps))
        for k in range(1, _SCAN_BLOCK):
            v[k] += coef[k] * v[k - 1]
            coef[k] *= coef[k - 1]
        c, carry = first, []
        for end, growth in zip(v[-1].tolist(), np.broadcast_to(coef[-1], blocks).tolist()):
            carry.append(c)
            c = end + growth * c
        y = np.empty(blocks * _SCAN_BLOCK + 1)
        y[0] = first
        # y = v + carry * running product, written back in time order
        steps_of_blocks = y[1:].reshape(blocks, _SCAN_BLOCK)
        np.multiply(coef.T, np.array(carry)[:, None], out=steps_of_blocks)
        steps_of_blocks += v.T
    return y[: steps + 1]


def simulate(params: GarchParams, n: int, seed: int) -> ReturnSeries:
    """Simulate n returns after discarding a 1000-step burn-in.

    sigma^2_0 starts at the unconditional variance; deterministic per seed.
    Once the noise is drawn, sigma^2_t = omega + (alpha * eps^2_{t-1} +
    beta) * sigma^2_{t-1} is affine, so ``_affine_scan`` runs it; an
    overflowing path turns into inf or nan and fails in ``from_values``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    eps = generator(seed).standard_normal(n + SIMULATION_BURN_IN)
    variances = _affine_scan(params.unconditional_variance,
                             np.square(eps[:-1]) * params.alpha + params.beta, params.omega)
    eps *= np.sqrt(variances, out=variances)
    return ReturnSeries.from_values(eps[SIMULATION_BURN_IN:])


def variance_path(
    params: GarchParams, values: np.ndarray, initial_variance: float | None = None
) -> np.ndarray:
    """Conditional variance recursion along observed returns, by ``_affine_scan``.

    sigma^2_0 defaults to the sample variance of the data (n-1 denominator).
    """
    r = np.asarray(values, dtype=float)
    if len(r) < 2:
        raise ValueError(f"need at least 2 returns, got {len(r)}")
    v0 = float(np.var(r, ddof=1)) if initial_variance is None else float(initial_variance)
    if not v0 > 0.0:
        raise ValueError(f"initial variance must be positive, got {v0}")
    return _affine_scan(v0, params.beta, params.omega + params.alpha * np.square(r[:-1]))


def gaussian_log_likelihood(values: np.ndarray, variances: np.ndarray) -> float:
    """Gaussian log-likelihood of returns under a given variance path."""
    r = np.asarray(values, dtype=float)
    v = np.asarray(variances, dtype=float)
    if len(r) != len(v):
        raise ValueError("returns and variances have different lengths")
    return float(-0.5 * np.sum(LOG_2PI + np.log(v) + r * r / v))


def evaluate(params: GarchParams, returns: ReturnSeries) -> GarchFit:
    """The likelihood and variance path at given parameters, with no search.

    For filtering with known parameters, such as a simulation's own, and as
    the fit's test oracle: ``evaluate(fit(r).params, r)`` reproduces the
    fit's log-likelihood and variances exactly.
    """
    variances = variance_path(params, returns.values)
    return GarchFit(params, gaussian_log_likelihood(returns.values, variances), variances, True)


_MAX_PERSISTENCE = 1.0 - 1e-12
_MIN_OMEGA_RATIO = 1e-12  # floor of omega / v0, as far from 0 as the cap is from 1
# the fit's region as outward normals and limits: omega / v0, alpha and beta
# at their floors, and alpha + beta at the cap
_NORMALS = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
_LIMITS = np.array([-_MIN_OMEGA_RATIO, 0.0, 0.0, _MAX_PERSISTENCE])


def _params(p: np.ndarray, v0: float) -> GarchParams:
    omega_ratio, alpha, beta = p.tolist()
    return GarchParams(omega=omega_ratio * v0, alpha=alpha, beta=beta)


def _nll(p: np.ndarray, values: np.ndarray, v0: float) -> tuple[float, np.ndarray]:
    """NLL at p = (omega / v0, alpha, beta) from sigma^2_0 = v0, and the variance path."""
    variances = variance_path(_params(p, v0), values, initial_variance=v0)
    return -gaussian_log_likelihood(values, variances), variances


def _sensitivities(beta: float, squares: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """D_t = d sigma^2_t / d(omega / v0, alpha, beta) as rows, from D_0 = 0.

    With v0 = sigma^2_0, D_t = (v0, r^2_{t-1}, sigma^2_{t-1}) + beta * D_{t-1}:
    one ``_affine_scan`` a row, every row in units of variance.
    """
    offsets = (np.full(len(squares) - 1, variances[0]), squares[:-1], variances[:-1])
    return np.array([_affine_scan(0.0, beta, offset) for offset in offsets])


def _score_and_information(
    p: np.ndarray, squares: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score and expected information of the negative log-likelihood in p.

    ``variances`` is the variance path at p = (omega / v0, alpha, beta) and
    ``squares`` the squared returns. With g_t = d nll / d sigma^2_t, the
    score is sum_t g_t D_t and the information is
    1/2 sum_t D_t D_t^T / sigma^4_t (Fiorentini, Calzolari & Panattoni 1996).
    """
    sens = _sensitivities(p[2], squares, variances)
    g = 0.5 * (1.0 - squares / variances) / variances
    scaled = sens / variances
    # einsum's own loops: faster here than a BLAS product on 3 x n arrays
    return np.einsum("it,t->i", sens, g), 0.5 * np.einsum("it,jt->ij", scaled, scaled)


def _free_directions(p: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the steps the fit may take from p.

    A bound of the region is held when p is on it and the descent direction
    -score points out through it; the columns span what the held bounds
    leave free. At the persistence cap that is alpha traded against beta.
    """
    held = (_NORMALS @ p >= _LIMITS) & (_NORMALS @ score < 0.0)
    return np.linalg.qr(_NORMALS[held].T, mode="complete")[0][:, np.count_nonzero(held):]


def _project(p: np.ndarray) -> np.ndarray:
    """The nearest point with omega / v0 >= its floor, alpha, beta >= 0 and alpha + beta <= cap."""
    alpha, beta = max(p[1], 0.0), max(p[2], 0.0)
    excess = alpha + beta - _MAX_PERSISTENCE
    if excess > 0.0:
        alpha = min(max(alpha - 0.5 * excess, 0.0), _MAX_PERSISTENCE)
        beta = _MAX_PERSISTENCE - alpha
    return np.array([max(p[0], _MIN_OMEGA_RATIO), alpha, beta])


def fit(returns: ReturnSeries) -> GarchFit:
    """Maximum-likelihood GARCH(1,1) fit by projected, damped Fisher scoring.

    The search runs on p = (omega / v0, alpha, beta), v0 the sample variance
    that starts the recursion, so p is of order one at any scale of returns.
    Each step solves (A + lambda * diag A) step = -score by least squares,
    with the score and expected information A restricted to the directions
    ``_free_directions`` leaves free (Levenberg-Marquardt damping, Marquardt
    1963); ``_project`` puts the trial back in the stationary region. A trial
    that does not raise the negative log-likelihood is taken and lambda
    divided by 10, down to 1e-17; otherwise lambda is multiplied by 10 and
    the step solved again. ``converged`` is True when the largest free
    |score| is at most 1e-5, or a taken step lowers the negative
    log-likelihood by at most 1e-14 relative; it is False when lambda reaches
    1e16 without a step taken, or after 2000 steps. Start: p = (0.1, 0.05, 0.9).
    """
    if len(returns) < MIN_FIT_LENGTH:
        raise ValueError(
            f"need at least {MIN_FIT_LENGTH} returns for a meaningful fit, got {len(returns)}"
        )
    if returns.stdev <= 0.0:
        raise ValueError("cannot fit a zero-variance return series")
    values = returns.values
    v0 = float(np.var(values, ddof=1))
    if v0 < _TINY:
        raise ValueError("cannot fit returns whose variance is below the smallest normal float")
    squares = values * values
    p = np.array([0.1, 0.05, 0.90])
    nll, variances = _nll(p, values, v0)
    damping, converged = 1e-3, False
    for _ in range(MAX_FIT_ITERATIONS):
        score, information = _score_and_information(p, squares, variances)
        free = _free_directions(p, score)
        score, information = free.T @ score, free.T @ information @ free
        if np.all(np.abs(score) <= 1e-5):
            converged = True
            break
        while damping < 1e16:
            damped = information + damping * np.diag(np.diag(information))
            trial = _project(p + free @ np.linalg.lstsq(damped, -score, rcond=None)[0])
            trial_nll, trial_variances = _nll(trial, values, v0)
            if trial_nll <= nll:
                break
            damping *= 10.0
        else:
            break
        converged = nll - trial_nll <= 1e-14 * abs(nll)
        p, nll, variances = trial, trial_nll, trial_variances
        # below 1e-17, A + damping * diag A rounds to A; a damping that
        # underflowed to 0 could never be raised again
        damping = max(damping / 10.0, 1e-17)
        if converged:
            break
    return GarchFit(_params(p, v0), -nll, variances, converged)


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
