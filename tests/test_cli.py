import csv
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from volclust import experiment
from volclust.cli import main
from volclust.dvc import AnalysisConfig, analyze
from volclust.experiment import run_experiment
from volclust.garch import GarchParams, evaluate, simulate
from volclust.ingest import PriceSeries, compute_returns, load_prices

PARAMS = ["--omega", "0.05", "--alpha", "0.10", "--beta", "0.85"]


def _simulate_csv(tmp_path, n=20_000, seed=1, name="prices.csv"):
    out = tmp_path / name
    code = main(["simulate", *PARAMS, "--n", str(n), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out


# --- simulate -----------------------------------------------------------------


def test_simulate_row_count_and_manifest(tmp_path):
    out = _simulate_csv(tmp_path, n=500, seed=2)
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp,price"
    assert len(lines) == 502  # header + n + 1 prices
    manifest = json.loads((tmp_path / "prices.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == [2]
    assert manifest["config"]["n"] == 500
    assert manifest["config"]["initial_price"] == 100.0
    assert lines[1] == "0,100.0"
    assert set(manifest) == {"command", "version", "config", "seeds", "inputs"}


def test_simulate_rejects_nonstationary_params(tmp_path, capsys):
    code = main(["simulate", "--omega", "0.05", "--alpha", "0.5", "--beta", "0.5",
                 "--n", "100", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: config: alpha + beta must be < 1 for stationarity" in capsys.readouterr().err


def test_simulate_failures_name_their_stage(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    code = main(["simulate", "--omega", "1e308", "--alpha", "0.1", "--beta", "0.85",
                 "--n", "100", "--seed", "1", "--out", out])
    assert code == 1
    assert "error: simulate: returns must be finite" in capsys.readouterr().err
    # a unit variance of 1000 makes the log prices span more than the float range
    wide = ["--omega", "50", "--alpha", "0.1", "--beta", "0.85"]
    assert main(["simulate", *wide, "--n", "20000", "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: prices_from_returns: simulated prices exceed the floating-point range" in err
    assert "more than 1414.2" in err


@pytest.mark.parametrize("seed", [4, 1_030_959_717])
def test_simulate_keeps_a_path_that_leaves_the_range_from_100_exact(tmp_path, seed):
    # from 100, seed 4 overflows and seed 1030959717 falls to subnormal prices
    out = _simulate_csv(tmp_path, n=200_000, seed=seed)
    prices = load_prices(out).prices
    manifest = json.loads((tmp_path / "prices.csv.manifest.json").read_text())
    assert manifest["config"]["initial_price"] == prices[0] != 100.0
    assert prices.min() >= np.finfo(float).tiny
    expected = simulate(GarchParams(omega=0.05, alpha=0.10, beta=0.85), 200_000, seed).values
    assert np.max(np.abs(np.diff(np.log(prices)) - expected)) <= 1e-12


def test_simulate_is_byte_deterministic(tmp_path):
    a = _simulate_csv(tmp_path, n=1_000, seed=3, name="a.csv")
    b = _simulate_csv(tmp_path, n=1_000, seed=3, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


# --- analyze ------------------------------------------------------------------


def test_analyze_outputs_and_determinism(tmp_path):
    csv_path = _simulate_csv(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["analyze", str(csv_path), "--out", str(out1)]) == 0
    assert main(["analyze", str(csv_path), "--out", str(out2)]) == 0
    for name in ("result.json", "profile.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    result = json.loads((out1 / "result.json").read_text())
    assert result["dvc_p"] > 0.0
    assert result["dvc_n"] < 0.0
    profile_lines = (out1 / "profile.csv").read_text().splitlines()
    assert profile_lines[0] == "s_value,abs_mean,count"
    assert profile_lines[1:] == [
        f"{p['s_value']!r},{p['abs_mean']!r},{p['count']}" for p in result["profile"]
    ]


def test_analyze_garch_file_detects_clustering(tmp_path):
    csv_path = _simulate_csv(tmp_path, n=100_000, seed=1)
    assert len(csv_path.read_text().splitlines()) == 100_002  # header + n + 1 prices
    out = tmp_path / "run"
    assert main(["analyze", str(csv_path), "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["dvc_p"] > 0.1
    assert result["dvc_n"] < -0.1


def test_analyze_composes_losslessly_with_simulate(tmp_path):
    # analyzing the exported price file matches the in-memory pipeline
    csv_path = _simulate_csv(tmp_path, n=20_000, seed=1)
    out = tmp_path / "run"
    assert main(["analyze", str(csv_path), "--out", str(out)]) == 0
    from_file = json.loads((out / "result.json").read_text())
    in_memory = analyze(simulate(GarchParams(0.05, 0.10, 0.85), 20_000, 1))
    assert abs(from_file["dvc_p"] - in_memory.dvc_p) < 1e-12
    assert abs(from_file["dvc_n"] - in_memory.dvc_n) < 1e-12


def test_analyze_short_input_names_failing_stage(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    rows = "".join(f"{i},{100.0 + i}\n" for i in range(10))
    path.write_text("timestamp,price\n" + rows)
    code = main(["analyze", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "dvc_profile" in capsys.readouterr().err
    # csv's own errors (here a lone CR) are input errors of the load stage too
    path.write_bytes(b"timestamp,price\n1,1.0\r2,2.0\n")
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "load_prices: line 2:" in capsys.readouterr().err


def test_analyze_bin_span_too_narrow_to_split(tmp_path, capsys):
    csv_path = _simulate_csv(tmp_path, n=500)
    returns = compute_returns(load_prices(csv_path))
    code = main(["analyze", str(csv_path), "--no-standardize", "--clip-sigmas", "1e-300",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: build_bins: clip_sigmas 1e-300 times stdev {returns.stdev} is too narrow "
        f"to split into 41 bins around mean {returns.mean}\n"
    )


def _tick_csv(path, zero_share, n=200_000, seed=5):
    """Prices where a ``zero_share`` of the n steps leave the price unchanged."""
    rng = np.random.default_rng(seed)
    moves = rng.permutation(n) >= int(zero_share * n)
    steps = np.where(moves, rng.normal(0.0, 0.01, n), 0.0)
    prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    PriceSeries(range(n + 1), prices).write_csv(path)
    return path


def test_analyze_mostly_zero_returns_names_fit_stage(tmp_path, capsys):
    # tick data: with 99% of returns exactly zero, the nonzero ones
    # standardize far outside the clip range, so the profile keeps only the
    # middle and the edge bins and one side has too few points to fit
    path = _tick_csv(tmp_path / "ticks99.csv", 0.99)
    assert main(["analyze", str(path), "--out", str(tmp_path / "out99")]) == 1
    assert "fit_dvc: need >= 2 profile points" in capsys.readouterr().err
    path = _tick_csv(tmp_path / "ticks50.csv", 0.50)
    assert main(["analyze", str(path), "--out", str(tmp_path / "out50")]) == 0


def test_analyze_missing_input(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: load_prices: [Errno" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert "error: load_prices: [Errno" in capsys.readouterr().err


def test_analyze_flag_and_config_merge(tmp_path):
    csv_path = _simulate_csv(tmp_path, n=5_000)
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "bins = 21\nmin-count = 50\nclip-sigmas = 2.5\n# comment\nstandardize_first = true\n"
    )
    out = tmp_path / "cfgrun"
    code = main(["analyze", str(csv_path), "--out", str(out),
                 "--config", str(config_file), "--bins", "11"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_bins"] == 11       # flag wins
    assert manifest["config"]["min_count"] == 50    # file value survives
    assert manifest["config"]["clip_sigmas"] == 2.5  # hyphenated key maps to the field
    assert manifest["config"]["standardize_first"] is True
    assert manifest["inputs"][0]["path"] == str(csv_path)
    assert len(manifest["inputs"][0]["sha256"]) == 64


def test_analyze_rejects_unknown_config_key(tmp_path, capsys):
    csv_path = _simulate_csv(tmp_path, n=2_000)
    config_file = tmp_path / "bad.cfg"
    config_file.write_text("bogus = 1\n")
    code = main(["analyze", str(csv_path), "--out", str(tmp_path / "o"),
                 "--config", str(config_file)])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    csv_path = _simulate_csv(tmp_path, n=5_000)
    config_file = tmp_path / "bom.cfg"
    config_file.write_bytes(b"\xef\xbb\xbfbins = 21\n")
    out = tmp_path / "bomrun"
    assert main(["analyze", str(csv_path), "--out", str(out), "--config", str(config_file)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["n_bins"] == 21


def test_config_and_output_failures_name_their_stage(tmp_path, capsys):
    csv_path = _simulate_csv(tmp_path, n=2_000)
    code = main(["analyze", str(csv_path), "--out", str(tmp_path / "o"),
                 "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error: config: [Errno 2]" in capsys.readouterr().err
    code = main(["experiment", "--kind", "surrogate", "--n", "2000", "--seeds", "1",
                 "--out", str(tmp_path / "e"), "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error: config: [Errno 2]" in capsys.readouterr().err
    # --out naming an existing file, not a directory
    code = main(["analyze", str(csv_path), "--out", str(csv_path), "--bins", "5",
                 "--min-count", "1"])
    assert code == 1
    assert "error: write_outputs: [Errno 17]" in capsys.readouterr().err
    code = main(["experiment", "--kind", "surrogate", "--n", "2000", "--seeds", "1",
                 "--bins", "5", "--min-count", "1", "--out", str(csv_path)])
    assert code == 1
    assert "error: write_outputs: [Errno 17]" in capsys.readouterr().err


# --- experiment -----------------------------------------------------------------


def test_experiment_surrogate_shape(tmp_path):
    out = tmp_path / "exp"
    code = main(["experiment", "--kind", "surrogate", "--n", "20000",
                 "--seeds", "1,2", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "experiment.json").read_text())
    assert payload["kind"] == "surrogate"
    assert [row["seed"] for row in payload["rows"]] == [1, 2]
    for row in payload["rows"]:
        assert set(row) == {"seed", "dvc_raw", "dvc_transformed"}
        assert set(row["dvc_raw"]) == {"p", "n"}
    medians = payload["medians"]
    assert set(medians) == {"dvc_raw", "dvc_transformed", "abs_dvc_raw", "abs_dvc_transformed"}
    assert medians["abs_dvc_transformed"]["p"] < medians["abs_dvc_raw"]["p"]
    assert (out / "manifest.json").exists()


def test_experiment_single_seed(tmp_path):
    out = tmp_path / "exp1"
    code = main(["experiment", "--kind", "surrogate", "--n", "5000",
                 "--seeds", "4", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "experiment.json").read_text())
    assert len(payload["rows"]) == 1
    assert payload["medians"]["dvc_raw"]["p"] == payload["rows"][0]["dvc_raw"]["p"]


def test_experiment_garch_filter(tmp_path):
    out = tmp_path / "expf"
    code = main(["experiment", "--kind", "garch-filter", "--n", "5000",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "experiment.json").read_text())
    row = payload["rows"][0]
    assert abs(row["dvc_transformed"]["p"]) < abs(row["dvc_raw"]["p"])


def test_experiment_flags_non_converged_fits(tmp_path, capsys, monkeypatch):
    def unconverged_fit(returns):
        return replace(evaluate(GarchParams(0.05, 0.10, 0.85), returns), converged=False)

    monkeypatch.setattr("volclust.experiment.fit", unconverged_fit)
    out = tmp_path / "expnc"
    code = main(["experiment", "--kind", "garch-filter", "--n", "5000",
                 "--seeds", "1,2", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "seed 1: GARCH fit did not converge" in err
    assert "seed 2: GARCH fit did not converge" in err
    payload = json.loads((out / "experiment.json").read_text())
    assert set(payload) == {"kind", "n", "params", "config", "rows", "failures", "medians"}
    assert [row["seed"] for row in payload["rows"]] == [1, 2]


def test_experiment_records_per_seed_failures(tmp_path):
    # n too small for the default min_count: every seed fails, exit nonzero
    out = tmp_path / "expbad"
    code = main(["experiment", "--kind", "surrogate", "--n", "50",
                 "--seeds", "1,2", "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "experiment.json").read_text())
    assert payload["rows"] == []
    assert [f["seed"] for f in payload["failures"]] == [1, 2]
    assert "dvc_profile" in payload["failures"][0]["error"]
    # a series long enough to analyze but too short to fit fails at fit
    code = main(["experiment", "--kind", "garch-filter", "--n", "400", "--bins", "5",
                 "--min-count", "1", "--seeds", "1", "--out", str(out)])
    assert code == 1
    (failure,) = json.loads((out / "experiment.json").read_text())["failures"]
    assert failure["error"].startswith("fit: need at least 500 returns")


def test_experiment_with_overflowing_variance_fails_at_simulate(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["experiment", "--kind", "surrogate", "--n", "5000", "--seeds", "1",
            "--omega", "1e306", "--out", str(tmp_path / "e")]
    done = subprocess.run([sys.executable, "-m", "volclust.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == ("seed 1 failed: simulate: the sample mean or variance of the "
                           "returns overflows\nerror: all seeds failed\n")


def test_experiment_rejects_bad_seeds(tmp_path, capsys):
    code = main(["experiment", "--kind", "surrogate", "--n", "5000",
                 "--seeds", "1,x", "--out", str(tmp_path / "e")])
    assert code == 1
    assert "error: config: seeds must be comma-separated integers" in capsys.readouterr().err


def test_run_experiment_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        run_experiment("fourier", GarchParams(0.05, 0.1, 0.85), 1000, [1], AnalysisConfig())


def test_run_experiment_shuffles_the_largest_seed():
    # the shuffle seed wraps around 2**64 rather than leaving the seed range
    payload, _ = run_experiment("surrogate", GarchParams(0.05, 0.1, 0.85), 5000,
                                [2**64 - 1], AnalysisConfig())
    assert payload["failures"] == []
    assert [row["seed"] for row in payload["rows"]] == [2**64 - 1]


@pytest.mark.parametrize("kind, fit_fails", [("surrogate", False), ("garch-filter", False),
                                             ("garch-filter", True)])
def test_run_experiment_frees_each_seed_before_simulating_the_next(monkeypatch, kind, fit_fails):
    # a seed's objects kept into the next simulate would split the heap holes
    # it reuses, and peak memory would then depend on the heap layout
    made, alive_at_simulate = [], []

    def watch(name):
        original = getattr(experiment, name)

        def watched(*args):
            if name == "simulate":
                alive_at_simulate.append([type(r()).__name__ for r in made if r() is not None])
            if name == "fit" and fit_fails and len(alive_at_simulate) == 2:
                raise ValueError("no fit")
            result = original(*args)
            made.append(weakref.ref(result))
            return result

        monkeypatch.setattr(experiment, name, watched)

    for name in ("simulate", "symbolize_returns", "analyze_symbols", "shuffle_symbols", "fit",
                 "filter_returns", "analyze"):
        watch(name)
    payload, _ = run_experiment(kind, GarchParams(0.05, 0.1, 0.85), 5000, [1, 2, 3],
                                AnalysisConfig())
    assert alive_at_simulate == [[], [], []]
    assert len(made) == 3 * (5 if kind == "surrogate" else 6) - 3 * fit_fails
    assert [f["seed"] for f in payload["failures"]] == ([2] if fit_fails else [])
    assert all(r() is None for r in made)


def test_run_experiment_flags_an_unconverged_fit_whose_seed_then_fails(monkeypatch):
    def unconverged_fit(returns):
        return replace(evaluate(GarchParams(0.05, 0.10, 0.85), returns), converged=False)

    def failing_filter(returns, fitted):
        raise ValueError("no filter")

    monkeypatch.setattr(experiment, "fit", unconverged_fit)
    monkeypatch.setattr(experiment, "filter_returns", failing_filter)
    payload, not_converged = run_experiment("garch-filter", GarchParams(0.05, 0.1, 0.85), 5000,
                                            [1], AnalysisConfig())
    assert not_converged == [1]
    assert payload["failures"] == [{"seed": 1, "error": "filter_returns: no filter"}]


# --- report ---------------------------------------------------------------------


def _result_file(tmp_path, name, dvc_p, dvc_n):
    path = tmp_path / name
    path.write_text(json.dumps({
        "dvc_p": dvc_p, "dvc_n": dvc_n,
        "n_points_pos": 5, "n_points_neg": 4,
        "profile": [], "config": None,
    }))
    return path


def test_report_tabulates_results(tmp_path, capsys):
    files = [
        _result_file(tmp_path, "a.json", 0.5, -0.5),
        _result_file(tmp_path, "b.json", 0.3, -0.2),
        _result_file(tmp_path, "c.json", 0.1, -0.7),
    ]
    out = tmp_path / "rep"
    code = main(["report", *[str(f) for f in files], "--out", str(out)])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "input,dvc_p,dvc_n,abs_dvc_n,n_points_pos,n_points_neg,status"
    assert len(lines) == 4
    # dvc_n = -0.5 is reported alongside |dvc_n| = 0.5
    assert lines[1].split(",")[2] == "-0.5"
    assert lines[1].split(",")[3] == "0.5"
    stdout = capsys.readouterr().out
    assert "a.json" in stdout and "ok" in stdout


def test_report_flags_invalid_inputs(tmp_path, capsys):
    good = _result_file(tmp_path, "good.json", 0.4, -0.3)
    quoted = _result_file(tmp_path, 'a,"b.json', 0.4, -0.3)
    empty = tmp_path / "empty.json"
    empty.write_text("")
    out = tmp_path / "rep"
    code = main(["report", str(good), str(empty), str(tmp_path / "missing.json"),
                 str(quoted), "--out", str(out)])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    statuses = [line.split(",")[-1] for line in lines[1:]]
    assert statuses[0] == "ok"
    assert all("error" in s for s in statuses[1:3])
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[4][0] == str(quoted)
    assert rows[4][-1] == "ok"


def test_report_all_invalid_exits_nonzero(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["report", str(empty), "--out", str(tmp_path / "rep")]) == 1


# --- usage ------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["experiment", "--kind", "bogus", "--n", "10",
                 "--seeds", "1", "--out", "x"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "volclust" in capsys.readouterr().out


def test_public_names_resolve():
    import volclust

    for name in volclust.__all__:
        assert hasattr(volclust, name), name
    namespace = {}
    exec("from volclust import *", namespace)
    assert set(volclust.__all__) <= set(namespace)


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py wraps these by name; a hook that no longer resolves
    # would silently empty its per-layer metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("volclust_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # imports volclust.cli; install() is not called
    for module, attr in tracer.FUNCTIONS:
        assert callable(getattr(sys.modules.get(module), attr, None)), f"{module}.{attr}"
    for module, cls, attr in tracer.METHODS:
        owner = getattr(sys.modules.get(module), cls, None)
        assert owner is not None and attr in vars(owner), f"{module}.{cls}.{attr}"
