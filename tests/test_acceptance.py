"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds 1..10).
"""

import json
import time

import numpy as np
import pytest

from volclust.cli import main
from volclust.dvc import (
    DvcProfile,
    analyze,
    dvc_profile,
    fit_dvc,
    transition_counts,
)
from volclust.experiment import SHUFFLE_SEED_OFFSET
from volclust.garch import GarchParams, filter_returns, fit, simulate
from volclust.surrogate import iid_gaussian, shuffle
from volclust.symbolize import BinningScheme, SymbolicSeries

SEEDS = tuple(range(1, 11))
GARCH = GarchParams(omega=0.05, alpha=0.10, beta=0.85)
N_LONG = 200_000
N_FIT = 50_000

THREE_SYMBOL_SCHEME = BinningScheme(edges=np.array([-1.5, -0.5, 0.5, 1.5]))


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} | {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def garch_sims():
    return {seed: simulate(GARCH, N_LONG, seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def raw_results(garch_sims):
    return {seed: analyze(series) for seed, series in garch_sims.items()}


def test_criterion_1_null_flatness():
    start = time.perf_counter()
    p_slopes, n_slopes = [], []
    for seed in SEEDS:
        result = analyze(iid_gaussian(N_LONG, 1.0, seed))
        p_slopes.append(result.dvc_p)
        n_slopes.append(result.dvc_n)
    elapsed = time.perf_counter() - start
    med_p = float(np.median(np.abs(p_slopes)))
    med_n = float(np.median(np.abs(n_slopes)))
    ok = med_p < 0.05 and med_n < 0.05 and elapsed < 30.0
    report(1, "null flatness", ok,
           f"median |dvc_p|={med_p:.4f} median |dvc_n|={med_n:.4f} "
           f"(limits 0.05) runtime={elapsed:.1f}s (limit 30s)")


def test_criterion_2_clustering_detection(raw_results):
    p_slopes = [raw_results[s].dvc_p for s in SEEDS]
    n_slopes = [raw_results[s].dvc_n for s in SEEDS]
    med_p = float(np.median(p_slopes))
    med_n = float(np.median(n_slopes))
    correct_signs = sum(1 for p, n in zip(p_slopes, n_slopes) if p > 0.0 and n < 0.0)
    ok = med_p > 0.1 and med_n < -0.1 and correct_signs >= 9
    report(2, "clustering detection", ok,
           f"median dvc_p={med_p:.4f} (>0.1) median dvc_n={med_n:.4f} (<-0.1) "
           f"signs={correct_signs}/10 (>=9)")


def test_criterion_3_filtering_collapse(garch_sims, raw_results):
    start = time.perf_counter()
    filtered_p, filtered_n = [], []
    for seed in SEEDS:
        series = garch_sims[seed]
        result = analyze(filter_returns(series, fit(series)))
        filtered_p.append(abs(result.dvc_p))
        filtered_n.append(abs(result.dvc_n))
    elapsed = time.perf_counter() - start
    raw_p = float(np.median([abs(raw_results[s].dvc_p) for s in SEEDS]))
    raw_n = float(np.median([abs(raw_results[s].dvc_n) for s in SEEDS]))
    med_p = float(np.median(filtered_p))
    med_n = float(np.median(filtered_n))
    ok = med_p <= 0.25 * raw_p and med_n <= 0.25 * raw_n and elapsed < 180.0
    report(3, "filtering collapse", ok,
           f"median |dvc| filtered p={med_p:.4f} n={med_n:.4f} vs "
           f"0.25*raw p={0.25 * raw_p:.4f} n={0.25 * raw_n:.4f} "
           f"runtime={elapsed:.1f}s (limit 180s)")


def test_criterion_4_surrogate_collapse(garch_sims, raw_results):
    shuffled_abs = []
    strict_wins = 0
    for seed in SEEDS:
        result = analyze(shuffle(garch_sims[seed], seed + SHUFFLE_SEED_OFFSET))
        raw = raw_results[seed]
        shuffled_abs.extend([abs(result.dvc_p), abs(result.dvc_n)])
        if abs(result.dvc_p) < abs(raw.dvc_p) and abs(result.dvc_n) < abs(raw.dvc_n):
            strict_wins += 1
    med = float(np.median(shuffled_abs))
    ok = strict_wins == 10 and med < 0.05
    report(4, "surrogate collapse", ok,
           f"per-seed |dvc(shuffled)| < |dvc(raw)|: {strict_wins}/10 (need 10) "
           f"median |dvc(shuffled)|={med:.4f} (<0.05)")


def test_criterion_5_mle_self_consistency():
    errors = []
    for seed in SEEDS:
        fitted = fit(simulate(GARCH, N_FIT, seed)).params
        errors.append((
            abs(fitted.omega - GARCH.omega) / GARCH.omega,
            abs(fitted.alpha - GARCH.alpha) / GARCH.alpha,
            abs(fitted.beta - GARCH.beta) / GARCH.beta,
        ))
    med = np.median(np.array(errors), axis=0)
    ok = bool(np.all(med <= 0.20))
    report(5, "MLE self-consistency", ok,
           f"median relative errors omega={med[0]:.3f} alpha={med[1]:.3f} "
           f"beta={med[2]:.3f} (each <=0.20)")


def brute_force_transitions(indices, n_symbols):
    """Oracle: the n_symbols x n_symbols count matrix, counted pair by pair."""
    counts = [[0] * n_symbols for _ in range(n_symbols)]
    prev = indices[0]
    for cur in indices[1:]:
        counts[prev][cur] += 1
        prev = cur
    return counts


def check_against_oracle(series, oracle, min_count):
    """Exact count-matrix / 1e-12-profile comparison for one symbolic series."""
    assert np.array_equal(transition_counts(series), oracle)

    centers = series.scheme.centers
    abs_centers = [abs(float(c)) for c in centers]
    expected = []
    for symbol, row in enumerate(oracle):
        support = sum(row)
        if support >= min_count:
            abs_mean = sum(a * c for a, c in zip(abs_centers, row)) / support
            expected.append((float(centers[symbol]), abs_mean, support))
    if not expected:
        with pytest.raises(ValueError):
            dvc_profile(series, min_count)
        return
    profile = dvc_profile(series, min_count)
    assert len(profile.s_values) == len(expected)
    for i, (s_value, abs_mean, count) in enumerate(expected):
        assert profile.s_values[i] == s_value
        assert profile.counts[i] == count
        assert abs(profile.abs_means[i] - abs_mean) <= 1e-12


def test_criterion_6a_oracle_equivalence_exhaustive():
    checked = 0
    for length in range(1, 13):
        total = 3**length
        for start in range(0, total, 100_000):
            codes = np.arange(start, min(start + 100_000, total))
            block = np.empty((len(codes), length), dtype=np.int64)
            for j in range(length):
                block[:, length - 1 - j] = (codes // (3**j)) % 3
            for row in block.tolist():
                series = SymbolicSeries(
                    indices=np.asarray(row, dtype=np.int64),
                    scheme=THREE_SYMBOL_SCHEME,
                )
                check_against_oracle(series, brute_force_transitions(row, 3), 1)
                checked += 1
    ok = checked == sum(3**length for length in range(1, 13))
    report("6a", "oracle equivalence (exhaustive)", ok,
           f"all {checked} sequences of length <= 12 over 3 symbols match exactly")


def test_criterion_6b_oracle_equivalence_randomized():
    rng = np.random.default_rng(987654321)
    scheme = BinningScheme(edges=np.linspace(-3.0, 3.0, 42))
    for _ in range(1000):
        indices = rng.integers(0, 41, size=10_000)
        series = SymbolicSeries(indices=indices, scheme=scheme)
        oracle = brute_force_transitions(indices.tolist(), 41)
        check_against_oracle(series, oracle, 100)
    report("6b", "oracle equivalence (randomized)", True,
           "1000 random sequences of length 10000 over 41 symbols match exactly")


def test_criterion_7_exact_slope_recovery():
    cases = [(0.5, 0.6), (1.0, 1.0), (0.123456789, 2.71828), (3.0, 0.001)]
    xs = np.array([-2.5, -1.0, -0.5, 0.0, 0.5, 1.5, 2.0])
    worst = 0.0
    for pos_slope, neg_slope in cases:
        means = [pos_slope * x if x >= 0 else -neg_slope * x for x in xs.tolist()]
        result = fit_dvc(DvcProfile(xs, means, [7] * len(xs)))
        worst = max(worst, abs(result.dvc_p - pos_slope), abs(result.dvc_n + neg_slope))
    ok = worst < 1e-12
    report(7, "exact slope recovery", ok,
           f"max |slope error| = {worst:.2e} over {len(cases)} exact lines "
           "incl. the y=|x| limit (limit 1e-12)")


def test_criterion_8_determinism(tmp_path):
    # library surface
    series_a = simulate(GARCH, 20_000, 5)
    series_b = simulate(GARCH, 20_000, 5)
    library_ok = (
        np.array_equal(series_a.values, series_b.values)
        and analyze(series_a).to_json() == analyze(series_b).to_json()
        and np.array_equal(shuffle(series_a, 9).values, shuffle(series_b, 9).values)
        and fit(series_a).to_json_dict() == fit(series_b).to_json_dict()
    )

    # every command, rerun: byte-identical outputs
    sim_args = ["simulate", "--omega", "0.05", "--alpha", "0.10", "--beta", "0.85",
                "--n", "20000", "--seed", "1"]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*sim_args, "--out", str(csv_a)]) == 0
    assert main([*sim_args, "--out", str(csv_b)]) == 0

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    assert main(["analyze", str(csv_a), "--out", str(run_a)]) == 0
    assert main(["analyze", str(csv_a), "--out", str(run_b)]) == 0

    exp_a, exp_b = tmp_path / "exp_a", tmp_path / "exp_b"
    exp_args = ["experiment", "--kind", "surrogate", "--n", "20000", "--seeds", "1,2"]
    assert main([*exp_args, "--out", str(exp_a)]) == 0
    assert main([*exp_args, "--out", str(exp_b)]) == 0

    rep_a, rep_b = tmp_path / "rep_a", tmp_path / "rep_b"
    assert main(["report", str(run_a / "result.json"), "--out", str(rep_a)]) == 0
    assert main(["report", str(run_a / "result.json"), "--out", str(rep_b)]) == 0

    cli_ok = (
        csv_a.read_bytes() == csv_b.read_bytes()
        and (run_a / "result.json").read_bytes() == (run_b / "result.json").read_bytes()
        and (run_a / "profile.csv").read_bytes() == (run_b / "profile.csv").read_bytes()
        and (run_a / "manifest.json").read_bytes() == (run_b / "manifest.json").read_bytes()
        and (exp_a / "experiment.json").read_bytes() == (exp_b / "experiment.json").read_bytes()
        and (rep_a / "report.csv").read_bytes() == (rep_b / "report.csv").read_bytes()
    )
    file_result = json.loads((run_a / "result.json").read_text())
    memory_result = analyze(simulate(GARCH, 20_000, 1))
    compose_ok = (
        abs(file_result["dvc_p"] - memory_result.dvc_p) < 1e-12
        and abs(file_result["dvc_n"] - memory_result.dvc_n) < 1e-12
    )
    ok = library_ok and cli_ok and compose_ok
    report(8, "determinism", ok,
           f"library rerun identical: {library_ok}; command reruns byte-identical: "
           f"{cli_ok}; simulate->analyze composes to 1e-12: {compose_ok}")
