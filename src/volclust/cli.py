"""Command-line front end: analyze price files, simulate GARCH data, run the
surrogate / filtering validation experiments, and tabulate results.

Exit codes: 0 success, 1 usage or input validation error, 2 unexpected
internal error. Every successful run writes a manifest recording the
resolved configuration, seeds, and input digests next to its outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .dvc import PROFILE_COLUMNS, AnalysisConfig, _run_stage, analyze
from .experiment import KINDS, run_experiment
from .garch import GarchParams, simulate
from .ingest import compute_returns, load_prices, prices_from_returns

REPORT_COLUMNS = (
    "input",
    "dvc_p",
    "dvc_n",
    "abs_dvc_n",
    "n_points_pos",
    "n_points_neg",
    "status",
)
_SLOPE_NOTE = (
    "dvc_p / dvc_n: least-squares slope of the mean absolute successor "
    "symbol value against the conditioning symbol value (nonnegative / "
    "negative side)."
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path: str | Path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _manifest(command: str, config: dict, seeds: list[int], inputs: list) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "seeds": [int(s) for s in seeds],
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
    }


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# AnalysisConfig's fields: a bool reads as a yes/no word, any other as its default's type
_CONFIG_KEYS = {
    f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
    for f in fields(AnalysisConfig)
}
_CONFIG_ALIASES = {"bins": "n_bins"}


def _read_config_file(path: str | Path) -> dict:
    """Parse a key = value config file (one pair per line, # comments)."""
    options = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        key = _CONFIG_ALIASES.get(key, key)
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            options[key] = _CONFIG_KEYS[key](value.strip().strip("\"'"))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return options


def _resolve_config(args) -> AnalysisConfig:
    """Merge config file and flags into an AnalysisConfig; flags win."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((k, getattr(args, k)) for k in _CONFIG_KEYS if getattr(args, k) is not None)
    return AnalysisConfig(**values)


def cmd_analyze(args) -> int:
    config = _run_stage("config", _resolve_config, args)
    prices = _run_stage("load_prices", load_prices, args.input)
    returns = _run_stage("compute_returns", compute_returns, prices)
    result = analyze(returns, config)

    def write(out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(result.to_json(), encoding="utf-8")
        _write_csv(out / "profile.csv", PROFILE_COLUMNS, result.profile.rows())
        _write_json(
            out / "manifest.json",
            _manifest("analyze", config.to_json_dict(), [], [args.input]),
        )

    out = Path(args.out)
    _run_stage("write_outputs", write, out)
    print(
        f"dvc_p={result.dvc_p:.6f} dvc_n={result.dvc_n:.6f} "
        f"points={result.n_points_pos}+{result.n_points_neg} -> {out}"
    )
    return 0


def cmd_simulate(args) -> int:
    params = _run_stage("config", GarchParams, args.omega, args.alpha, args.beta)
    returns = _run_stage("simulate", simulate, params, args.n, args.seed)
    prices = _run_stage("prices_from_returns", prices_from_returns, returns)

    def write(out: Path) -> None:
        out.parent.mkdir(parents=True, exist_ok=True)
        prices.write_csv(out)
        config = {**params.to_json_dict(), "n": args.n,
                  "initial_price": float(prices.prices[0])}
        _write_json(
            Path(f"{out}.manifest.json"),
            _manifest("simulate", config, [args.seed], []),
        )

    out = Path(args.out)
    _run_stage("write_outputs", write, out)
    print(f"wrote {len(prices)} prices -> {out}")
    return 0


def cmd_experiment(args) -> int:
    params = _run_stage("config", GarchParams, args.omega, args.alpha, args.beta)
    config = _run_stage("config", _resolve_config, args)
    seeds = _run_stage("config", _parse_seeds, args.seeds)
    payload, not_converged = run_experiment(args.kind, params, args.n, seeds, config)
    for seed in not_converged:
        print(f"seed {seed}: GARCH fit did not converge", file=sys.stderr)

    def write(out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "experiment.json", payload)
        _write_json(
            out / "manifest.json",
            _manifest("experiment", {**payload["params"], "kind": args.kind,
                                     "n": args.n, **config.to_json_dict()}, seeds, []),
        )

    _run_stage("write_outputs", write, Path(args.out))
    for failure in payload["failures"]:
        print(f"seed {failure['seed']} failed: {failure['error']}", file=sys.stderr)
    if not payload["rows"]:
        print("error: all seeds failed", file=sys.stderr)
        return 1
    med = payload["medians"]
    print(
        f"{args.kind}: median |dvc| raw p={med['abs_dvc_raw']['p']:.4f} "
        f"n={med['abs_dvc_raw']['n']:.4f} -> transformed "
        f"p={med['abs_dvc_transformed']['p']:.4f} n={med['abs_dvc_transformed']['n']:.4f}"
    )
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise ValueError("at least one seed is required")
    return seeds


def cmd_report(args) -> int:
    rows = []  # one tuple per input, in REPORT_COLUMNS order
    for path in args.inputs:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            dvc_n = float(data["dvc_n"])
            rows.append((str(path), float(data["dvc_p"]), dvc_n, abs(dvc_n),
                         int(data["n_points_pos"]), int(data["n_points_neg"]), "ok"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rows.append((str(path), *[""] * (len(REPORT_COLUMNS) - 2), f"error: {exc}"))

    def write(out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "report.csv", REPORT_COLUMNS, rows)
        _write_json(out / "manifest.json", _manifest("report", {}, [], list(args.inputs)))

    _run_stage("write_outputs", write, Path(args.out))

    table = [REPORT_COLUMNS, *([_cell(value) for value in row] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        print("  ".join(text.ljust(width) for text, width in zip(line, widths)))
    print(_SLOPE_NOTE)
    return 0 if any(row[-1] == "ok" for row in rows) else 1


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _add_analysis_flags(parser) -> None:
    parser.add_argument("--bins", dest="n_bins", metavar="BINS", type=_CONFIG_KEYS["n_bins"],
                        default=None, help="number of bins, odd and >= 3 (default 41)")
    parser.add_argument("--clip-sigmas", dest="clip_sigmas", type=_CONFIG_KEYS["clip_sigmas"],
                        default=None, help="binning half-range in sample stdevs (default 3)")
    parser.add_argument("--min-count", dest="min_count", type=_CONFIG_KEYS["min_count"],
                        default=None, help="minimum transitions per profile point (default 100)")
    parser.add_argument("--standardize", dest="standardize_first",
                        action=argparse.BooleanOptionalAction, default=None,
                        help="standardize returns before binning (default on)")
    parser.add_argument("--config", default=None,
                        help="key = value config file; explicit flags override it")


def _build_parser() -> _Parser:
    parser = _Parser(prog="volclust", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a timestamp,price CSV")
    p.set_defaults(handler=cmd_analyze)
    p.add_argument("input", help="input price CSV")
    p.add_argument("--out", required=True, help="output directory")
    _add_analysis_flags(p)

    p = sub.add_parser("simulate", help="simulate a GARCH(1,1) price CSV")
    p.set_defaults(handler=cmd_simulate)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="number of returns (writes n+1 prices)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("experiment", help="raw vs transformed comparison over seeds")
    p.set_defaults(handler=cmd_experiment)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True, help="returns per simulated series")
    p.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p.add_argument("--omega", type=float, default=0.05)
    p.add_argument("--alpha", type=float, default=0.10)
    p.add_argument("--beta", type=float, default=0.85)
    p.add_argument("--out", required=True, help="output directory")
    _add_analysis_flags(p)

    p = sub.add_parser("report", help="tabulate result.json files")
    p.set_defaults(handler=cmd_report)
    p.add_argument("inputs", nargs="+", help="result.json files")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
