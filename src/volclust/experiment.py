"""The validation experiments: raw GARCH series against the same series with
the clustering removed, by shuffling (``surrogate``) or by dividing out the
fitted conditional stdev (``garch-filter``), seed by seed, with medians.
"""

from __future__ import annotations

import statistics

from .dvc import AnalysisConfig, analyze
from .garch import GarchParams, filter_returns, fit, simulate
from .surrogate import shuffle

KINDS = ("surrogate", "garch-filter")

# surrogate streams must not reuse the simulation streams of nearby seeds
SHUFFLE_SEED_OFFSET = 2**32


def run_experiment(
    kind: str, params: GarchParams, n: int, seeds: list[int], config: AnalysisConfig
) -> tuple[dict, list[int]]:
    """Per-seed comparison of raw vs transformed (shuffled or GARCH-filtered) series.

    Returns the ``experiment.json`` payload and the seeds whose GARCH fit
    did not converge (always empty for ``surrogate``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if kind == "garch-filter":
        # fit needs scipy; loaded here, before the first series is simulated,
        # rather than inside the first fit, each fit page-faults about a third
        # as often (163 k against 465 k minor faults for 5 seeds at n=2e5)
        import scipy.signal  # noqa: F401
    rows, failures, not_converged = [], [], []
    for seed in seeds:
        try:
            raw = simulate(params, n, seed)
            raw_result = analyze(raw, config)
            if kind == "surrogate":
                transformed = shuffle(raw, seed + SHUFFLE_SEED_OFFSET)
            else:
                fitted = fit(raw)
                if not fitted.converged:
                    not_converged.append(int(seed))
                transformed = filter_returns(raw, fitted)
            transformed_result = analyze(transformed, config)
            rows.append(
                {
                    "seed": int(seed),
                    "dvc_raw": {"p": raw_result.dvc_p, "n": raw_result.dvc_n},
                    "dvc_transformed": {
                        "p": transformed_result.dvc_p,
                        "n": transformed_result.dvc_n,
                    },
                }
            )
        except ValueError as exc:
            failures.append({"seed": int(seed), "error": str(exc)})
        # drop this seed's series before the next one is simulated, so that
        # memory holds one seed's series at a time, not two
        raw = fitted = transformed = None

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
