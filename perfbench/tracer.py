"""Run one volclust CLI command with a span around each call into a module.

Usage: python3 tracer.py SPANS_JSON ARG...

ARG... are the arguments of the ``volclust`` command. The tracer times
``import volclust.cli``, then wraps each public function below at every
volclust attribute that refers to it, which is the attribute its callers
resolve (``volclust.cli.load_prices`` is what ``cmd_analyze`` calls,
``volclust.dvc.symbolize`` is what ``analyze`` calls). The program itself
is not changed. Spans stay in memory and are written to SPANS_JSON once,
at exit. Each span has a name, start, end, parent index, row and byte
counts, and the exception that left it, if any.
"""

import json
import os
import sys
import time

_clock = time.perf_counter
_t0 = _clock()
import volclust.cli  # noqa: E402

IMPORT_S = _clock() - _t0

# (module, attribute) of each traced function; the span is named after the
# module that defines it.
FUNCTIONS = [
    ("volclust.ingest", "load_prices"),
    ("volclust.ingest", "compute_returns"),
    ("volclust.ingest", "standardize"),
    ("volclust.symbolize", "build_bins"),
    ("volclust.symbolize", "symbolize"),
    ("volclust.dvc", "analyze"),
    ("volclust.dvc", "dvc_profile"),
    ("volclust.dvc", "fit_dvc"),
    ("volclust.garch", "simulate"),
    ("volclust.garch", "fit"),
    ("volclust.garch", "filter_returns"),
    ("volclust.garch", "variance_path"),
    ("volclust.surrogate", "shuffle"),
]
# (module, class, method) of traced methods.
METHODS = [
    ("volclust.ingest", "PriceSeries", "write_csv"),
    ("volclust.ingest", "ReturnSeries", "from_values"),
]

spans = []
_stack = []


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _measure(name, args, result, span):
    """Row and byte counts, taken after the span has ended."""
    if name == "ingest.write_csv":
        span["rows"] = len(args[0])
        span["bytes"] = _file_size(args[1])
        return
    if name == "ingest.load_prices":
        span["bytes"] = _file_size(args[0])
    if name == "garch.fit":
        span["converged"] = bool(result.converged)
    elif hasattr(result, "__len__"):
        span["rows"] = len(result)


def _wrap(name, func):
    def traced(*args, **kwargs):
        span = {"name": name, "start": _clock(), "end": None,
                "parent": _stack[-1] if _stack else -1, "rows": 0, "bytes": 0, "error": None}
        _stack.append(len(spans))
        spans.append(span)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            span["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span["end"] = _clock()
            _stack.pop()
        _measure(name, args, result, span)
        return result

    return traced


def install():
    """Replace each traced function at every volclust attribute bound to it."""
    missing = []
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "volclust"]
    for module_name, attr in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = _wrap(f"{module_name.rsplit('.', 1)[1]}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for module_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, _wrap(name, raw))
    return missing


def main(spans_path, argv):
    missing = install()
    run = _wrap("cli.main", volclust.cli.main)
    code = 2
    try:
        code = run(argv)
    finally:
        payload = {"import_s": IMPORT_S, "missing": missing, "spans": spans}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
