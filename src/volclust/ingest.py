"""Price CSV ingestion, log-return computation, and standardization.

The input format is a UTF-8 CSV with header ``timestamp,price``, one tick
per line. Timestamps are opaque ordering keys: if every value parses as an
integer the column is ordered numerically, otherwise lexically. Only the
ordering is ever used downstream; time deltas play no role.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, Union

import numpy as np

Source = Union[str, Path, bytes, IO[bytes], IO[str]]


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _OrderError(ValueError):
    """Timestamps fail to increase strictly at ``position`` (0-based row)."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"timestamps must be strictly increasing (position {position})")


@dataclass(frozen=True)
class PriceSeries:
    """An ordered tick series: strictly increasing timestamps, positive prices."""

    timestamps: tuple
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "prices", _frozen_array(self.prices, float))
        if len(self.timestamps) != len(self.prices):
            raise ValueError("timestamps and prices have different lengths")
        if len(self.prices) < 2:
            raise ValueError("price series needs at least 2 rows")
        if not np.all(np.isfinite(self.prices)):
            raise ValueError("prices must be finite (no NaN or inf)")
        if np.any(self.prices <= 0.0):
            raise ValueError("prices must be strictly positive")
        ts = self.timestamps
        if not all(map(operator.lt, ts, islice(ts, 1, None))):
            raise _OrderError(next(i for i in range(1, len(ts)) if not ts[i - 1] < ts[i]))

    def __len__(self) -> int:
        return len(self.prices)

    def write_csv(self, path: str | Path) -> None:
        """Write ``timestamp,price`` CSV with full-precision prices."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "price"])
            for ts, price in zip(self.timestamps, self.prices):
                writer.writerow([ts, repr(float(price))])


@dataclass(frozen=True)
class ReturnSeries:
    """Finite log returns with their sample mean and stdev (n-1 denominator).

    Both statistics are computed once, at construction, from the values.
    """

    values: np.ndarray
    mean: float = field(init=False)
    stdev: float = field(init=False)

    def __post_init__(self):
        values = _frozen_array(self.values, float)
        if len(values) < 1:
            raise ValueError("return series must be nonempty")
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mean", float(np.mean(values)))
        # stdev of a single observation is defined as 0 (cannot be standardized)
        stdev = float(np.std(values, ddof=1)) if len(values) >= 2 else 0.0
        object.__setattr__(self, "stdev", stdev)

    @classmethod
    def from_values(cls, values) -> "ReturnSeries":
        return cls(values=values)

    def __len__(self) -> int:
        return len(self.values)


def _open_text(source: Source) -> io.StringIO:
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return io.StringIO(data)


def load_prices(source: Source) -> PriceSeries:
    """Parse a ``timestamp,price`` CSV into a validated PriceSeries.

    ``source`` may be a path, raw bytes, or an open file object. Errors
    (malformed rows, non-positive prices, out-of-order timestamps) report
    the 1-based line number of the offending row.
    """
    reader = csv.reader(_open_text(source))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty input: expected header 'timestamp,price'")
    if [h.strip() for h in header] != ["timestamp", "price"]:
        raise ValueError(
            f"line 1: expected header 'timestamp,price', got {','.join(header)!r}"
        )

    raw_ts: list[str] = []
    prices: list[float] = []
    linenos: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"line {lineno}: expected 2 fields, got {len(row)}")
        ts, price_text = row[0].strip(), row[1].strip()
        try:
            price = float(price_text)
        except ValueError:
            raise ValueError(f"line {lineno}: unparseable price {price_text!r}") from None
        if not math.isfinite(price):
            raise ValueError(f"line {lineno}: price must be finite, got {price_text!r}")
        if price <= 0.0:
            raise ValueError(f"line {lineno}: price must be positive, got {price_text!r}")
        raw_ts.append(ts)
        prices.append(price)
        linenos.append(lineno)

    if len(prices) < 2:
        raise ValueError(f"need at least 2 data rows, got {len(prices)}")

    try:
        return PriceSeries(timestamps=_order_keys(raw_ts), prices=prices)
    except _OrderError as exc:
        i = exc.position
        raise ValueError(
            f"line {linenos[i]}: timestamp {raw_ts[i]!r} does not increase "
            f"after {raw_ts[i - 1]!r}"
        ) from None


def _order_keys(raw: list[str]) -> tuple:
    # integer column -> numeric order; anything else -> lexical order
    try:
        return tuple(map(int, raw))
    except ValueError:
        return tuple(raw)


def compute_returns(prices: PriceSeries) -> ReturnSeries:
    """Log-difference returns: values[i] = ln(prices[i+1]) - ln(prices[i])."""
    return ReturnSeries.from_values(np.diff(np.log(prices.prices)))


def standardize(returns: ReturnSeries) -> ReturnSeries:
    """Affinely rescale to sample mean 0 and sample stdev 1.

    Raises ValueError for zero-variance input.
    """
    if returns.stdev <= 0.0:
        raise ValueError("cannot standardize a zero-variance return series")
    return ReturnSeries.from_values((returns.values - returns.mean) / returns.stdev)
