import csv
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from volclust import experiment, ingest
from volclust.cli import main
from volclust.dvc import AnalysisConfig, analyze
from volclust.experiment import run_experiment
from volclust.garch import GarchParams, evaluate, simulate
from volclust.ingest import PriceSeries, compute_returns, load_prices

_CPUS = ingest._cpus
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
    assert "more than 1418.2" in err


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


def test_simulate_forks_once_to_write_its_prices(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch, 2)
    forked = _simulate_csv(tmp_path, n=200_000, name="forked.csv")
    assert forks == [1]
    _assert_no_child_left()
    monkeypatch.setattr(ingest, "_cpus", lambda: 1)
    one = _simulate_csv(tmp_path, n=200_000, name="one.csv")
    assert forks == [1]
    assert forked.read_bytes() == one.read_bytes()


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


def _count_forks(monkeypatch, cpus):
    """Patch the CPU count that ``_fork_share`` sees; the returned list gets one
    item for each ``os.fork`` call."""
    forks, fork = [], os.fork
    monkeypatch.setattr(ingest, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("path", ["one CPU", "forked"])
@pytest.mark.parametrize("kind, fit_fails", [("surrogate", False), ("garch-filter", False),
                                             ("garch-filter", True)])
def test_run_experiment_frees_each_seed_before_simulating_the_next(monkeypatch, kind, fit_fails,
                                                                  path):
    # a seed's objects kept into the next simulate would split the heap holes
    # it reuses, and peak memory would then depend on the heap layout
    made, alive_at_simulate, simulated = [], [], []
    forks = _count_forks(monkeypatch, 1 if path == "one CPU" else 2)

    def watch(name):
        original = getattr(experiment, name)

        def watched(*args):
            if name == "simulate":
                alive = [type(r()).__name__ for r in made if r() is not None]
                alive_at_simulate.append(alive)
                if alive:  # raised in the forked child too, which hands it to the parent
                    raise AssertionError(f"seed {args[2]} simulated while {alive} live")
                simulated.append(args[2])
            if name == "fit" and fit_fails and simulated[-1] == 2:
                raise ValueError("no fit")
            result = original(*args)
            made.append(weakref.ref(result))
            return result

        monkeypatch.setattr(experiment, name, watched)

    for name in ("simulate", "symbolize_returns", "analyze_symbols", "shuffle_symbols", "fit",
                 "filter_returns", "analyze"):
        watch(name)
    # the forked child runs seeds 2 and 4, so it too simulates after a seed of its own
    seeds = [1, 2, 3] if path == "one CPU" else [1, 2, 3, 4]
    payload, _ = run_experiment(kind, GarchParams(0.05, 0.1, 0.85), 5000, seeds,
                                AnalysisConfig())
    # this process sees only its own seeds
    assert forks == ([] if path == "one CPU" else [1])
    assert alive_at_simulate == ([[], [], []] if path == "one CPU" else [[], []])
    here_failed = fit_fails and path == "one CPU"
    assert len(made) == len(simulated) * (5 if kind == "surrogate" else 6) - 3 * here_failed
    assert [f["seed"] for f in payload["failures"]] == ([2] if fit_fails else [])
    assert all(r() is None for r in made)
    _assert_no_child_left()


def _experiment_with_faults(monkeypatch, kind, seeds):
    """``run_experiment`` where seed 2's fit raises ValueError and seed 4's fit
    does not converge; both are in the forked child's share."""
    simulated, original_simulate, original_fit = [], experiment.simulate, experiment.fit

    def simulate(params, n, seed):
        simulated.append(seed)
        return original_simulate(params, n, seed)

    def fit(returns):
        if simulated[-1] == 2:
            raise ValueError("no fit")
        fitted = original_fit(returns)
        return replace(fitted, converged=False) if simulated[-1] == 4 else fitted

    monkeypatch.setattr(experiment, "simulate", simulate)
    monkeypatch.setattr(experiment, "fit", fit)
    return run_experiment(kind, GarchParams(0.05, 0.1, 0.85), 5000, seeds, AnalysisConfig())


@pytest.mark.parametrize("kind", ["surrogate", "garch-filter"])
def test_run_experiment_forked_and_in_one_process_give_equal_payloads(kind, monkeypatch):
    seeds = [1, 2, 3, 4, 5]
    forks = _count_forks(monkeypatch, 1)
    alone = _experiment_with_faults(monkeypatch, kind, seeds)
    assert forks == []
    forks = _count_forks(monkeypatch, 2)
    forked = _experiment_with_faults(monkeypatch, kind, seeds)
    assert forks == [1]
    assert json.dumps(forked) == json.dumps(alone)
    payload, not_converged = forked
    if kind == "garch-filter":
        assert payload["failures"] == [{"seed": 2, "error": "fit: no fit"}]
        assert not_converged == [4]
        assert [row["seed"] for row in payload["rows"]] == [1, 3, 4, 5]
    else:
        assert (payload["failures"], not_converged) == ([], [])
        assert [row["seed"] for row in payload["rows"]] == seeds
    _assert_no_child_left()


def _fork_fails():
    raise OSError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("reason", ["one CPU", "thread", "no fork", "fork fails", "one seed"])
def test_run_experiment_runs_in_one_process_where_it_may_not_fork(reason, monkeypatch):
    seeds = [7] if reason == "one seed" else [7, 8, 9]
    params, config = GarchParams(0.05, 0.1, 0.85), AnalysisConfig()
    expected = run_experiment("garch-filter", params, 5000, seeds, config)
    forks = _count_forks(monkeypatch, 2)
    if reason == "one CPU":
        monkeypatch.setattr(ingest, "_cpus", _CPUS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if reason == "no fork":
        monkeypatch.delattr(os, "fork")
    elif reason == "fork fails":
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _fork_fails())
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10,))
    if reason == "thread":
        thread.start()
    try:
        result = run_experiment("garch-filter", params, 5000, seeds, config)
    finally:
        stop.set()
        if reason == "thread":
            thread.join(10)
    assert not thread.is_alive()
    assert forks == ([1] if reason == "fork fails" else [])
    assert json.dumps(result) == json.dumps(expected)


def test_run_experiment_raises_when_the_forked_child_dies(monkeypatch):
    parent, run_seed = os.getpid(), experiment._run_seed

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return run_seed(*args)

    _count_forks(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_run_seed", dying)
    with pytest.raises(RuntimeError, match="ended without its results"):
        run_experiment("surrogate", GarchParams(0.05, 0.1, 0.85), 5000, [1, 2], AnalysisConfig())
    _assert_no_child_left()


def test_run_experiment_kills_and_reaps_the_child_when_its_own_share_fails(monkeypatch):
    parent = os.getpid()

    def failing(*args):
        if os.getpid() == parent:
            raise RuntimeError("the parent's share failed")
        time.sleep(60)  # only the parent's SIGKILL ends this in time

    forks = _count_forks(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_run_seed", failing)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="the parent's share failed"):
        run_experiment("surrogate", GarchParams(0.05, 0.1, 0.85), 5000, [1, 2], AnalysisConfig())
    assert forks == [1]
    assert time.monotonic() - started < 30
    _assert_no_child_left()


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
