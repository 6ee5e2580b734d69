"""Tests of the benchmark's failure accounting and output checks.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

import json
from pathlib import Path

import pytest

import benchlib
import run

ENV = benchlib.child_env(run.ROOT)
ONE_BLOCK = 1e-9  # --seconds small enough that run_loop runs exactly one block


def simulate_spec(seed: int, n: int) -> run.OpSpec:
    returns = benchlib.garch_returns(seed, n)
    return run.OpSpec(
        lambda out: ["simulate", *run.SIMULATE_PARAMS, "--n", str(n), "--seed", str(seed),
                     "--out", str(out / "prices.csv")],
        n,
        lambda out: benchlib.check_simulate(out / "prices.csv", returns),
    )


def test_overflow_op_is_recorded_as_failed(tmp_path):
    # Seed 4 at n = 2e5 with the README parameters leaves the float range;
    # that is a property of the input, so the benchmark's recursion sees it too.
    assert benchlib.price_range(benchlib.garch_returns(4, 200_000)) == "overflow"
    block = [simulate_spec(4, 200_000), simulate_spec(1, 200_000)]
    overflow, clean = run.run_loop(iter([block]), ONE_BLOCK, False, ENV, tmp_path)
    if overflow.exit_code == 0:
        pytest.skip("volclust simulate no longer overflows for seed 4")
    assert overflow.exit_code == 1 and not overflow.ok
    assert benchlib.OVERFLOW_MESSAGE in overflow.message
    assert clean.ok, clean.message

    lines = []
    metrics = run.end_to_end([overflow, clean], 0.5, lines.append)
    assert "metric error_rate 0.5 ratio (1 of 2 ops failed)" in lines
    assert metrics["op_p50_s"] == clean.wall_s
    assert metrics["rows_per_s"] == 200_000 / (overflow.wall_s + clean.wall_s)


def test_traced_overflow_is_attributed_to_cli(tmp_path):
    (op,) = run.run_loop(iter([[simulate_spec(4, 200_000)]]), ONE_BLOCK, True, ENV, tmp_path)
    if op.exit_code == 0:
        pytest.skip("volclust simulate no longer overflows for seed 4")
    assert op.traced and op.spans is not None
    assert [s["name"] for s in op.spans["spans"]][:2] == ["cli.main", "garch.simulate"]
    assert run._failing_layer(op) == "cli"


def test_subnormal_prices_fail_the_simulate_check(tmp_path):
    # This seed's log price falls to about -734: volclust writes subnormal
    # prices whose log returns no longer match the simulated ones.
    seed = 1_030_959_717
    assert benchlib.price_range(benchlib.garch_returns(seed, 200_000)) == "subnormal"
    (op,) = run.run_loop(iter([[simulate_spec(seed, 200_000)]]), ONE_BLOCK, False, ENV, tmp_path)
    if op.ok:
        pytest.skip("volclust simulate now keeps subnormal prices exact")
    assert op.exit_code == 0
    assert op.message.startswith("log returns differ from the reference recursion")


def test_usage_error_is_recorded_as_failed(tmp_path):
    spec = run.OpSpec(lambda out: ["simulate", "--n", "ten"], 10, lambda out: None)
    (op,) = run.run_loop(iter([[spec]]), ONE_BLOCK, False, ENV, tmp_path)
    assert op.exit_code == 1 and not op.ok
    assert "invalid int value" in op.message
    assert not list(tmp_path.glob("op*"))  # the op's directory is removed


def test_wrong_dvc_fails_analyze_check(tmp_path):
    path = tmp_path / "prices.csv"
    returns = benchlib.garch_returns(7, 19_999)
    prices = benchlib.prices_from_returns(benchlib.PRICE_RETURN_SCALE * returns)
    benchlib.write_price_csv(path, benchlib.timestamps(1_600_000_000, 20_000, iso=True), prices)
    expected = benchlib.reference_dvc(path)

    def tamper_then_check(out: Path):
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        result["dvc_p"] += 1e-6
        (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return benchlib.check_analyze(out, expected)

    args = lambda out: ["analyze", str(path), "--out", str(out)]  # noqa: E731
    block = [run.OpSpec(args, 20_000, lambda out: benchlib.check_analyze(out, expected)),
             run.OpSpec(args, 20_000, tamper_then_check)]
    right, wrong = run.run_loop(iter([block]), ONE_BLOCK, False, ENV, tmp_path)
    assert right.ok, right.message
    assert wrong.exit_code == 0 and not wrong.ok
    assert wrong.message.startswith("dvc_p=")

