"""The validation experiments: raw GARCH series against the same series with
the clustering removed, by shuffling (``surrogate``) or by dividing out the
fitted conditional stdev (``garch-filter``), seed by seed, with medians.

The surrogate kind symbolizes each raw series once. Its transformed series
is the raw series' symbols permuted by ``shuffle_symbols``, with the draws
that ``shuffle`` would apply to the returns, so it keeps the raw series'
bins rather than re-deriving them from a shuffled copy. Each seed runs in one
call, which frees its series before the next. Where ``ingest._fork_share`` may
fork (two CPUs allowed, one thread), the seeds run in two processes: a forked
child runs every other seed and the results are merged back in seed order, so
the outputs are identical. Each process still holds one seed's series at a
time: the two together hold two seeds' arrays, and each one's peak is unchanged.
"""

from __future__ import annotations

import pickle
import statistics

from .dvc import AnalysisConfig, _run_stage, analyze, analyze_symbols, symbolize_returns
from .garch import GarchParams, filter_returns, fit, simulate
from .ingest import _fork_share
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
    did not converge (always empty for ``surrogate``). Where ``_fork_share``
    forks, its child runs every other seed and sends back their outcomes, or the
    exception other than a seed's ValueError that stopped it, which is raised here.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")

    def run(share: list[int]) -> list[tuple[dict | None, dict | None, list[int]]]:
        """Each seed's row or failure, the other None, and the seed if its fit did
        not converge."""
        outcomes = []
        for seed in share:
            row = failure = None
            not_converged = []
            try:
                row = _run_seed(kind, params, n, seed, config, not_converged)
            except ValueError as exc:
                failure = {"seed": int(seed), "error": str(exc)}
            outcomes.append((row, failure, not_converged))
        return outcomes

    def child() -> bytes:
        try:
            outcomes = run(seeds[1::2])
        except BaseException as exc:  # the parent raises it
            outcomes = exc
        return pickle.dumps(outcomes)

    forked = _fork_share(child, lambda: run(seeds[0::2])) if len(seeds) > 1 else None
    if forked is None:
        outcomes = run(seeds)
    else:
        outcomes = [None] * len(seeds)
        outcomes[0::2], theirs = forked
        if theirs is None:
            raise RuntimeError("the process running every other seed ended without its results")
        theirs = pickle.loads(theirs)
        if isinstance(theirs, BaseException):
            raise theirs
        outcomes[1::2] = theirs
    rows = [row for row, _, _ in outcomes if row is not None]
    failures = [failure for _, failure, _ in outcomes if failure is not None]
    not_converged = [seed for _, _, flagged in outcomes for seed in flagged]

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
