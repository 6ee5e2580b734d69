"""Inputs, reference answers, output checks and the op runner of the volclust benchmark.

Nothing here imports volclust. Inputs and reference answers come from this
file's own numpy code, so the two commits of a comparison read identical
bytes and are checked against identical numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The README's GARCH(1,1) parameters; unconditional variance 1.
OMEGA, ALPHA, BETA = 0.05, 0.10, 0.85
BURN_IN = 1000
INITIAL_PRICE = 100.0
# analyze-csv inputs scale the unit-variance returns to 1% per step.
PRICE_RETURN_SCALE = 0.01
# volclust's default AnalysisConfig.
N_BINS, CLIP_SIGMAS, MIN_COUNT = 41, 3.0, 100
DVC_TOLERANCE = 1e-9
RETURN_TOLERANCE = 1e-9
OVERFLOW_MESSAGE = "simulated prices exceed the floating-point range"
# An op that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 60.0


# ---------------------------------------------------------------- inputs


def garch_returns(seed: int, n: int) -> np.ndarray:
    """n GARCH(1,1) returns from PCG64 standard normals.

    The recursion starts at the unconditional variance and drops a
    1000-step burn-in, the model the README documents for ``simulate``.
    """
    eps = np.random.default_rng(seed).standard_normal(n + BURN_IN).tolist()
    out = [0.0] * (n + BURN_IN)
    v = OMEGA / (1.0 - ALPHA - BETA)
    r = math.sqrt(v) * eps[0]
    out[0] = r
    for t in range(1, n + BURN_IN):
        v = OMEGA + ALPHA * r * r + BETA * v
        r = math.sqrt(v) * eps[t]
        out[t] = r
    return np.array(out[BURN_IN:])


def prices_from_returns(returns: np.ndarray) -> np.ndarray:
    """n + 1 prices starting at 100; may hold inf or 0 when the walk leaves float range."""
    with np.errstate(over="ignore", under="ignore"):
        return INITIAL_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


def price_range(returns: np.ndarray) -> str:
    """Where the price path of these returns lies in the float range.

    "overflow": some price is inf or 0, and volclust simulate exits 1.
    "subnormal": some price is below the smallest normal float, where it
    keeps too few digits for its log returns to survive a round trip.
    "normal": otherwise.
    """
    prices = prices_from_returns(returns)
    if not (np.all(np.isfinite(prices)) and np.all(prices > 0.0)):
        return "overflow"
    return "subnormal" if prices.min() < np.finfo(float).tiny else "normal"


def timestamps(start: int, count: int, iso: bool) -> list:
    """Consecutive epoch seconds, as integers or as ISO-8601 UTC strings."""
    seconds = np.arange(start, start + count, dtype=np.int64)
    if not iso:
        return seconds.tolist()
    text = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")
    return [f"{t}Z" for t in text.tolist()]


def write_price_csv(path: Path, stamps: list, prices: np.ndarray) -> None:
    body = "".join(f"{t},{p!r}\n" for t, p in zip(stamps, prices.tolist()))
    path.write_text("timestamp,price\n" + body, encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ------------------------------------------------------------ references


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def reference_dvc(path: Path) -> dict:
    """dvc_p, dvc_n and point counts of a price CSV under the default config."""
    prices = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    r = np.diff(np.log(prices))
    z = (r - r.mean()) / r.std(ddof=1)
    mean, sd = z.mean(), z.std(ddof=1)
    upper = np.linspace(CLIP_SIGMAS * sd / N_BINS, CLIP_SIGMAS * sd, (N_BINS + 1) // 2)
    offsets = np.concatenate([-upper[::-1], upper])
    edges = (0.0 if abs(mean) <= 1e-12 * sd else mean) + offsets
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, N_BINS - 1)
    counts = np.bincount(idx[:-1] * N_BINS + idx[1:], minlength=N_BINS * N_BINS)
    counts = counts.reshape(N_BINS, N_BINS)
    support = counts.sum(axis=1)
    keep = support >= MIN_COUNT
    s = centers[keep]
    abs_mean = (counts[keep] @ np.abs(centers)) / support[keep]
    pos = s >= 0.0
    return {
        "dvc_p": _ols_slope(s[pos], abs_mean[pos]),
        "dvc_n": _ols_slope(s[~pos], abs_mean[~pos]),
        "n_points_pos": int(pos.sum()),
        "n_points_neg": int((~pos).sum()),
    }


# ---------------------------------------------------------------- checks
# Each check returns None when the output is right, else what is wrong.


def check_analyze(out_dir: Path, expected: dict) -> str | None:
    try:
        got = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
        errors = {key: abs(got[key] - expected[key]) for key in ("dvc_p", "dvc_n")}
        counts = {key: got[key] for key in ("n_points_pos", "n_points_neg")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable result.json: {exc!r}"
    for key, error in errors.items():
        if not error <= DVC_TOLERANCE:
            return f"{key}={got[key]!r}, reference {expected[key]!r}"
    for key, count in counts.items():
        if count != expected[key]:
            return f"{key}={count!r}, reference {expected[key]!r}"
    return None


def check_simulate(csv_path: Path, expected_returns: np.ndarray) -> str | None:
    try:
        prices = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=1)
    except (OSError, ValueError) as exc:
        return f"unreadable price file: {exc}"
    if len(prices) != len(expected_returns) + 1:
        return f"{len(prices)} prices, expected {len(expected_returns) + 1}"
    error = float(np.max(np.abs(np.diff(np.log(prices)) - expected_returns)))
    if not error <= RETURN_TOLERANCE:
        return f"log returns differ from the reference recursion by {error!r}"
    return None


def check_experiment(out_dir: Path, kind: str, seeds: list[int]) -> str | None:
    """Acceptance criteria 2 (raw series) and 3 or 4 (transformed series)."""
    try:
        payload = json.loads((out_dir / "experiment.json").read_text(encoding="utf-8"))
        rows = payload["rows"]
        raw_p = [row["dvc_raw"]["p"] for row in rows]
        raw_n = [row["dvc_raw"]["n"] for row in rows]
        tr_p = [abs(row["dvc_transformed"]["p"]) for row in rows]
        tr_n = [abs(row["dvc_transformed"]["n"]) for row in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable experiment.json: {exc}"
    if payload.get("failures") or [row.get("seed") for row in rows] != seeds:
        return f"seeds {[row.get('seed') for row in rows]}, failures {payload.get('failures')}"
    med_p, med_n = statistics.median(raw_p), statistics.median(raw_n)
    signs = sum(p > 0.0 and n < 0.0 for p, n in zip(raw_p, raw_n))
    if not (med_p > 0.1 and med_n < -0.1 and signs >= 0.9 * len(rows)):
        return f"criterion 2: raw medians p={med_p} n={med_n}, signs {signs}/{len(rows)}"
    if kind == "garch-filter":
        limit_p = 0.25 * statistics.median(abs(v) for v in raw_p)
        limit_n = 0.25 * statistics.median(abs(v) for v in raw_n)
        if not (statistics.median(tr_p) <= limit_p and statistics.median(tr_n) <= limit_n):
            return f"criterion 3: filtered medians {statistics.median(tr_p)}, {statistics.median(tr_n)}"
    else:
        med = statistics.median(tr_p + tr_n)
        if not med < 0.05:
            return f"criterion 4: median |dvc| of shuffled series {med}"
    return None


# ------------------------------------------------------------- op runner


@dataclass
class Op:
    """One CLI process, timed from spawn to exit."""

    wall_s: float
    exit_code: int
    peak_rss_mb: float
    message: str  # last stderr line of a failed process, or what its check found wrong
    rows: int = 0
    ok: bool = False
    traced: bool = False
    spans: dict | None = None  # the tracer's payload, for traced ops


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], env: dict, cwd: Path, stderr_path: Path) -> Op:
    """Run argv to completion, timed from spawn to exit; peak RSS comes from its rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    message = ""
    if proc.returncode != 0:
        lines = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        message = lines[-1] if lines else f"exit code {proc.returncode}"
    return Op(wall, proc.returncode, usage.ru_maxrss / 1024.0, message)
