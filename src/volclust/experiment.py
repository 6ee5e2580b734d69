"""The validation experiments: raw GARCH series against the same series with
the clustering removed, by shuffling (``surrogate``) or by dividing out the
fitted conditional stdev (``garch-filter``), seed by seed, with medians.

The surrogate kind symbolizes each raw series once. Its transformed series
is the raw series' symbols permuted by ``shuffle_symbols``, with the draws
that ``shuffle`` would apply to the returns, so it keeps the raw series'
bins rather than re-deriving them from a shuffled copy. Memory holds one seed's
series at a time: each seed runs in one call, which frees them before the next.
"""

from __future__ import annotations

import statistics

from .dvc import AnalysisConfig, _run_stage, analyze, analyze_symbols, symbolize_returns
from .garch import GarchParams, filter_returns, fit, simulate
from .surrogate import shuffle_symbols

KINDS = ("surrogate", "garch-filter")

# surrogate streams must not reuse the simulation streams of nearby seeds
SHUFFLE_SEED_OFFSET = 2**32


def _run_seed(kind: str, params: GarchParams, n: int, seed: int, config: AnalysisConfig,
              not_converged: list[int]) -> dict:
    """One seed's ``experiment.json`` row; the seed joins ``not_converged`` if its fit
    does not converge. All it made is freed on return: buffers kept alive would split
    the heap holes the next ``simulate`` reuses, making peak memory depend on the layout.
    """
    raw = _run_stage("simulate", simulate, params, n, seed)
    symbols = symbolize_returns(raw, config)
    raw_result = analyze_symbols(symbols, config)
    if kind == "surrogate":
        shuffle_seed = (seed + SHUFFLE_SEED_OFFSET) % 2**64
        shuffled = _run_stage("shuffle", shuffle_symbols, symbols, shuffle_seed)
        transformed_result = analyze_symbols(shuffled, config)
    else:
        del symbols  # not held through the fit
        fitted = _run_stage("fit", fit, raw)
        if not fitted.converged:
            not_converged.append(int(seed))
        transformed = _run_stage("filter_returns", filter_returns, raw, fitted)
        transformed_result = analyze(transformed, config)
    return {
        "seed": int(seed),
        "dvc_raw": {"p": raw_result.dvc_p, "n": raw_result.dvc_n},
        "dvc_transformed": {"p": transformed_result.dvc_p, "n": transformed_result.dvc_n},
    }


def run_experiment(
    kind: str, params: GarchParams, n: int, seeds: list[int], config: AnalysisConfig
) -> tuple[dict, list[int]]:
    """Per-seed comparison of raw vs transformed (shuffled or GARCH-filtered) series.

    Returns the ``experiment.json`` payload and the seeds whose GARCH fit
    did not converge (always empty for ``surrogate``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    rows, failures, not_converged = [], [], []
    for seed in seeds:
        try:
            rows.append(_run_seed(kind, params, n, seed, config, not_converged))
        except ValueError as exc:
            failures.append({"seed": int(seed), "error": str(exc)})

    def _median(group: str, side: str, absolute: bool) -> float:
        values = (row[group][side] for row in rows)
        return statistics.median(abs(v) if absolute else v for v in values)

    medians = {}
    if rows:
        for group in ("dvc_raw", "dvc_transformed"):
            medians[group] = {s: _median(group, s, False) for s in ("p", "n")}
            medians[f"abs_{group}"] = {s: _median(group, s, True) for s in ("p", "n")}
    return {
        "kind": kind,
        "n": int(n),
        "params": params.to_json_dict(),
        "config": config.to_json_dict(),
        "rows": rows,
        "failures": failures,
        "medians": medians,
    }, not_converged
