"""volclust benchmark: whole CLI processes in a closed loop with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``volclust`` process, timed from spawn to exit; the next op
starts only after the previous one has exited. Every op writes into a new
directory under a per-run work directory, its output is checked against
the benchmark's own reference, and the directory is removed. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` blocks of ops alternate between the tracer
(``tracer.py``) and plain processes, and the JSON holds the per-layer
metrics and the tracing overhead. BENCHMARK.json at the repository root
names the metrics and units; DESIGN.md beside this file explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import benchlib

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK_ROOT = ROOT / ".perfbench_work"
PYTHON = sys.executable
# What the ``volclust`` console script runs.
CLI_LAUNCHER = "import sys; from volclust.cli import main; sys.exit(main())"

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many ops above it

ANALYZE_ROWS = 1_000_000
SIMULATE_N = 200_000
SIMULATE_BLOCK = 5  # simulate-csv: one overflowing seed in every block of five
SIMULATE_PARAMS = ["--omega", "0.05", "--alpha", "0.10", "--beta", "0.85"]
EXPERIMENT_SEEDS = 5
LAYERS = ("cli", "ingest", "symbolize", "dvc", "garch", "surrogate")


@dataclass
class OpSpec:
    """What one op runs (arguments given its output directory) and how it is checked."""

    args: Callable[[Path], list[str]]
    rows: int
    check: Callable[[Path], str | None]


# ------------------------------------------------------------- workloads
# Each workload yields blocks of ops forever; the loop stops between blocks.


def analyze_csv(rng: np.random.Generator, work: Path, log) -> Iterator[list[OpSpec]]:
    """Alternate a file with integer timestamps and one with ISO-8601 timestamps."""
    block = []
    for iso in (False, True):
        path = work / f"prices-{'iso' if iso else 'int'}.csv"
        returns = benchlib.garch_returns(int(rng.integers(2**63)), ANALYZE_ROWS - 1)
        prices = benchlib.prices_from_returns(benchlib.PRICE_RETURN_SCALE * returns)
        start = int(rng.integers(1_500_000_000, 1_700_000_000))
        benchlib.write_price_csv(path, benchlib.timestamps(start, ANALYZE_ROWS, iso), prices)
        expected = benchlib.reference_dvc(path)
        log(f"input {path.name} rows={ANALYZE_ROWS} bytes={path.stat().st_size} "
            f"sha256={benchlib.sha256(path)}")
        block.append(OpSpec(
            lambda out, p=path: ["analyze", str(p), "--out", str(out)],
            ANALYZE_ROWS,
            lambda out, e=expected: benchlib.check_analyze(out, e),
        ))
    while True:
        yield block


def simulate_csv(rng: np.random.Generator, work: Path, log) -> Iterator[list[OpSpec]]:
    """Fresh seeds, README parameters; one seed per block overflows the price range.

    Seeds whose prices go subnormal are left out: volclust writes them
    without error but with log returns that fail the output check.
    """
    while True:
        normal, overflow = [], None
        while len(normal) < SIMULATE_BLOCK - 1 or overflow is None:
            seed = int(rng.integers(1, 2**31))
            returns = benchlib.garch_returns(seed, SIMULATE_N)
            kind = benchlib.price_range(returns)
            if kind == "subnormal":
                log(f"input seed {seed} left out: its prices go subnormal")
            elif kind == "overflow":
                overflow = overflow or (seed, returns)
            elif len(normal) < SIMULATE_BLOCK - 1:
                normal.append((seed, returns))
        normal.insert(int(rng.integers(SIMULATE_BLOCK)), overflow)
        log(f"input seeds {' '.join(str(seed) for seed, _ in normal)} "
            f"(overflowing: {overflow[0]})")
        yield [
            OpSpec(
                lambda out, s=seed: ["simulate", *SIMULATE_PARAMS, "--n", str(SIMULATE_N),
                                     "--seed", str(s), "--out", str(out / "prices.csv")],
                SIMULATE_N,
                lambda out, r=returns: benchlib.check_simulate(out / "prices.csv", r),
            )
            for seed, returns in normal
        ]


def experiment(kind: str, n: int):
    def workload(rng: np.random.Generator, work: Path, log) -> Iterator[list[OpSpec]]:
        seed = int(rng.integers(1, 2**31))
        log(f"input seeds {seed}.. in runs of {EXPERIMENT_SEEDS}, n={n}")
        while True:
            seeds = list(range(seed, seed + EXPERIMENT_SEEDS))
            seed += EXPERIMENT_SEEDS
            yield [OpSpec(
                lambda out, s=seeds: ["experiment", "--kind", kind, "--n", str(n),
                                      "--seeds", ",".join(map(str, s)), "--out", str(out)],
                n * EXPERIMENT_SEEDS,
                lambda out, s=seeds: benchlib.check_experiment(out, kind, s),
            )]

    return workload


WORKLOADS = {
    "analyze-csv": analyze_csv,
    "simulate-csv": simulate_csv,
    "experiment-filter": experiment("garch-filter", 200_000),
    "experiment-surrogate": experiment("surrogate", 1_000_000),
}


# ------------------------------------------------------------------ loop


def run_loop(blocks: Iterator[list[OpSpec]], seconds: float, trace: bool,
             env: dict, work: Path) -> list[benchlib.Op]:
    """Run whole blocks until the ops' total wall time reaches ``seconds``.

    A traced loop alternates traced and plain blocks and runs at least one of
    each, unless ``blocks`` runs out first.
    """
    ops: list[benchlib.Op] = []
    busy = 0.0
    index = 0
    while busy < seconds or (trace and index < 2):
        traced = trace and index % 2 == 0
        index += 1
        block = next(blocks, None)
        if block is None:
            break
        for spec in block:
            out = work / f"op{len(ops):04d}"
            out.mkdir()
            spans_path = work / "spans.json"
            args = spec.args(out)
            if traced:
                argv = [PYTHON, str(TRACER), str(spans_path), *args]
            else:
                argv = [PYTHON, "-c", CLI_LAUNCHER, *args]
            op = benchlib.run_process(argv, env, ROOT, work / "stderr.txt")
            op.rows, op.traced = spec.rows, traced
            if op.exit_code == 0:
                problem = spec.check(out)
                op.ok = problem is None
                op.message = problem or ""
            if traced and spans_path.exists():
                op.spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            shutil.rmtree(out)
            ops.append(op)
            busy += op.wall_s
    return ops


def measure_setup(env: dict, work: Path) -> float:
    """Median wall time of a fresh interpreter importing volclust.cli."""
    argv = [PYTHON, "-c", "import volclust.cli"]
    walls = []
    for sample in range(SETUP_SAMPLES + 1):
        op = benchlib.run_process(argv, env, ROOT, work / "stderr.txt")
        if op.exit_code != 0:
            raise SystemExit(f"import volclust.cli failed: {op.message}")
        if sample:  # the first import may compile bytecode; users do not pay that per run
            walls.append(op.wall_s)
    return statistics.median(walls)


def scipy_import_s(env: dict, work: Path) -> float:
    """Median cumulative time of the outermost scipy imports under -X importtime."""
    argv = [PYTHON, "-X", "importtime", "-c", "import volclust.cli"]
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        benchlib.run_process(argv, env, ROOT, work / "importtime.txt")
        lines = (work / "importtime.txt").read_text(encoding="utf-8").splitlines()
        samples.append(_outer_scipy_us(lines) / 1e6)
    return statistics.median(samples)


def _outer_scipy_us(lines: list[str]) -> int:
    # importtime prints a module after the modules it imported, indented
    # two spaces per level; read backwards, each module follows its parent.
    total, parents = 0, []
    for line in reversed(lines):
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2][1:]
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip())
        while parents and parents[-1][0] >= depth:
            parents.pop()
        parent = parents[-1][1] if parents else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += int(fields[1])
        parents.append((depth, name))
    return total


# --------------------------------------------------------------- metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[benchlib.Op], setup_s: float, log) -> dict:
    walls = sorted(op.wall_s for op in ops if op.ok)
    count = len(walls)
    if count > TAIL_BEYOND:
        rank = count - TAIL_BEYOND
        tail, percentile = walls[rank - 1], 100.0 * rank / count
    else:
        tail, percentile = walls[-1], 100.0
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "rows_per_s": sum(op.rows for op in ops if op.ok) / sum(op.wall_s for op in ops),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops if op.ok),
    }
    log(f"note op_p50_s over {count} successful ops; op_tail_s is p{percentile:.1f} "
        f"of {count}, with {count - round(percentile * count / 100)} ops beyond it")
    log(f"metric error_rate {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops failed)")
    return metrics


def _profile(op: benchlib.Op) -> dict:
    """Per-op totals from one traced op's spans."""
    payload = op.spans
    spans = payload["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    main = max(i for i, s in enumerate(spans) if s["name"] == "cli.main")
    prof = {
        "import_s": payload["import_s"],
        "main_s": dur[main],
        "main_self_s": dur[main] - sum(d for s, d in zip(spans, dur) if s["parent"] == main),
        "overhead_s": op.wall_s - payload["import_s"] - dur[main],
        "time": defaultdict(float), "calls": Counter(), "rows": Counter(), "bytes": Counter(),
        "fits": {},
    }
    for i, (s, d) in enumerate(zip(spans, dur)):
        prof["time"][s["name"]] += d
        prof["calls"][s["name"]] += 1
        prof["rows"][s["name"]] += s["rows"]
        prof["bytes"][s["name"]] += s["bytes"]
        if s["name"] == "garch.fit":  # a span precedes its children in the list
            prof["fits"][i] = [0, s.get("converged", False)]
        elif s["name"] == "garch.variance_path":
            parent = s["parent"]
            while parent >= 0 and spans[parent]["name"] != "garch.fit":
                parent = spans[parent]["parent"]
            if parent >= 0:
                prof["fits"][parent][0] += 1
    return prof


def _failing_layer(op: benchlib.Op) -> str:
    """The module whose call raised innermost; cli when no traced call raised."""
    if op.spans is None:
        return "cli"
    spans = op.spans["spans"]
    raised = [i for i, s in enumerate(spans) if s["error"]]
    inner = [i for i in raised if not any(spans[j]["parent"] == i for j in raised)]
    return spans[inner[-1]]["name"].split(".")[0] if inner else "cli"


def per_layer(ops: list[benchlib.Op], scipy_s: float, log) -> dict:
    traced = [op for op in ops if op.traced]
    ok = [op for op in traced if op.ok and op.spans is not None]
    if not ok or not any(op.ok for op in ops if not op.traced):
        raise SystemExit("too few successful ops to compare traced and untraced runs")
    missing = sorted({m for op in ok for m in op.spans["missing"]})
    if missing:
        log(f"note functions not found, so not traced: {', '.join(missing)}")
    profs = [_profile(op) for op in ok]
    first = profs[0]  # counts come from the first successful traced op, fixed by the seed

    def time_s(name):
        return _median(p["time"][name] for p in profs)

    def rate(name, key, scale):
        seconds = sum(p["time"][name] for p in profs)
        return sum(p[key][name] for p in profs) / seconds / scale if seconds else 0.0

    fits = [fit for p in profs for fit in p["fits"].values()]
    metrics = {
        "error_rate": sum(not op.ok for op in ops) / len(ops),
        "cli.import_s": _median(p["import_s"] for p in profs),
        "cli.import_scipy_s": scipy_s,
        "cli.main_self_s": _median(p["main_self_s"] for p in profs),
        "cli.process_overhead_s": _median(p["overhead_s"] for p in profs),
    }
    errors = Counter(_failing_layer(op) for op in traced if not op.ok)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    metrics.update({
        "ingest.load_prices_s": time_s("ingest.load_prices"),
        "ingest.load_prices_mb_per_s": rate("ingest.load_prices", "bytes", 1e6),
        "ingest.compute_returns_s": time_s("ingest.compute_returns"),
        "ingest.write_csv_s": time_s("ingest.write_csv"),
        "ingest.write_csv_mb_per_s": rate("ingest.write_csv", "bytes", 1e6),
        "ingest.from_values_calls": first["calls"]["ingest.from_values"],
        "ingest.from_values_s": time_s("ingest.from_values"),
        "ingest.standardize_s": time_s("ingest.standardize"),
        "symbolize.build_bins_s": time_s("symbolize.build_bins"),
        "symbolize.symbolize_s": time_s("symbolize.symbolize"),
        "dvc.analyze_calls": first["calls"]["dvc.analyze"],
        "dvc.analyze_s": time_s("dvc.analyze"),
        "dvc.dvc_profile_s": time_s("dvc.dvc_profile"),
        "dvc.fit_dvc_s": time_s("dvc.fit_dvc"),
        "garch.simulate_s": time_s("garch.simulate"),
        "garch.simulate_rows_per_s": rate("garch.simulate", "rows", 1.0),
        "garch.fit_s": time_s("garch.fit"),
        "garch.fit_nfev": _median(nfev for nfev, _ in first["fits"].values()),
        "garch.fit_converged_ratio": sum(c for _, c in fits) / len(fits) if fits else 0.0,
        "garch.variance_path_s": time_s("garch.variance_path"),
        "garch.filter_returns_s": time_s("garch.filter_returns"),
        "surrogate.shuffle_s": time_s("surrogate.shuffle"),
    })
    traced_p50 = _median(op.wall_s for op in ok)
    plain_p50 = _median(op.wall_s for op in ops if not op.traced and op.ok)
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    log(f"note traced op_p50_s {traced_p50:.6f} s over {len(ok)} ops, untraced "
        f"{plain_p50:.6f} s; per-op times are medians over the traced ops")
    return metrics


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "volclust" / "cli.py").is_file():
        print(f"error: no volclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    def log(line):
        print(line, flush=True)

    log(f"env python={platform.python_version()} numpy={np.__version__} "
        f"scipy={metadata.version('scipy')} nproc={os.cpu_count()} "
        f"loop=closed clients=1 workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    env = benchlib.child_env(ROOT)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        blocks = WORKLOADS[args.workload](rng, work, log)
        if args.trace:
            scipy_s = scipy_import_s(env, work)
        else:
            setup_s = measure_setup(env, work)
        ops = run_loop(blocks, args.seconds, bool(args.trace), env, work)
        failures = Counter(op.message for op in ops if not op.ok)
        for message, count in failures.items():
            log(f"failed {count} op(s): {message}")
        if not any(op.ok for op in ops):
            print("error: no op succeeded", file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer(ops, scipy_s, log)
        else:
            metrics = end_to_end(ops, setup_s, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        log(f"metric {name} {value:.6g} {units[name]}")
    checks_failed = any(op.exit_code == 0 and not op.ok for op in ops)
    print(json.dumps({
        "correct": not checks_failed,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
