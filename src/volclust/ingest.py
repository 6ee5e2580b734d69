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

_COMMA, _NEWLINE = ord(","), ord("\n")
_INITIAL_PRICE = 100.0


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
            writer.writerows(zip(self.timestamps, map(repr, self.prices.tolist())))


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


def _read_text(source: Source) -> str:
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    # Excel prefixes UTF-8 CSVs with a byte-order mark
    return text.removeprefix("\ufeff")


def load_prices(source: Source) -> PriceSeries:
    """Parse a ``timestamp,price`` CSV into a validated PriceSeries.

    ``source`` may be a path, raw bytes, or an open file object. Errors
    (malformed rows, non-positive prices, out-of-order timestamps) report
    the 1-based line number of the offending row.
    """
    text = _read_text(source)
    try:
        return _read_plain(text)
    except ValueError:
        # quoted fields, or any input the row loop rejects: it reads the
        # text again and reports the first problem with its line number
        return _read_rows(text)


def _read_plain(text: str) -> PriceSeries:
    """Read an unquoted CSV with LF or CRLF line ends in one vectorized pass.

    It accepts only input that ``_read_rows`` accepts too, with the same
    result, and raises ValueError for the rest: quotes, NULs, lone CRs, a
    line without exactly one comma, a field at csv's size limit, a bad
    header, price or timestamp.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    # csv before Python 3.11 rejects NUL, so NULs go to the row loop too
    if '"' in text or "\r" in text or "\0" in text:
        raise ValueError("not a plain CSV")
    fields = _split_fields(text)
    if fields is None or [f.strip() for f in fields[:2]] != ["timestamp", "price"]:
        raise ValueError("not one comma per line, or a bad header")
    # np.array converts each string with float(), which strips whitespace itself
    prices = np.array(fields[3::2], dtype=float)
    return PriceSeries(timestamps=_order_keys(list(map(str.strip, fields[2::2]))), prices=prices)


def _split_fields(text: str) -> list[str] | None:
    """The fields of ``text`` in order, or None unless each line holds one
    comma and each field is shorter than csv's size limit."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    at = np.flatnonzero((raw == _COMMA) | (raw == _NEWLINE))
    seps = raw[at]
    # the separators read , \n , \n ... , and then at most one \n, at the end
    final_newline = len(seps) % 2 == 0
    if (
        (final_newline and (len(at) == 0 or at[-1] != len(raw) - 1))
        or np.any(seps[0::2] != _COMMA)
        or np.any(seps[1::2] != _NEWLINE)
        or np.diff(at, prepend=-1, append=len(raw)).max() > csv.field_size_limit()
    ):
        return None
    fields = text.replace("\n", ",").split(",")
    if final_newline:
        fields.pop()
    return fields


def _read_rows(text: str) -> PriceSeries:
    """The reference row loop: the only reader of quoted CSV, and the source
    of every ``load_prices`` error message."""
    reader = csv.reader(io.StringIO(text))
    raw_ts: list[str] = []
    prices: list[float] = []
    linenos: list[int] = []
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty input: expected header 'timestamp,price'")
        if [h.strip() for h in header] != ["timestamp", "price"]:
            raise ValueError(
                f"line 1: expected header 'timestamp,price', got {','.join(header)!r}"
            )
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
    except csv.Error as exc:
        # a lone CR inside a line, or a field over csv.field_size_limit()
        raise ValueError(f"line {reader.line_num}: {exc}") from None

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


def prices_from_returns(returns: ReturnSeries) -> PriceSeries:
    """Invert ``compute_returns``: n+1 prices from 100, timestamps 0..n."""
    log_prices = np.concatenate([[0.0], np.cumsum(returns.values)])
    with np.errstate(over="ignore"):  # an overflow is reported below
        prices = _INITIAL_PRICE * np.exp(log_prices)
    if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
        raise ValueError(
            "simulated prices exceed the floating-point range; "
            "reduce n or the variance scale"
        )
    return PriceSeries(timestamps=tuple(range(len(prices))), prices=prices)


def standardize(returns: ReturnSeries) -> ReturnSeries:
    """Affinely rescale to sample mean 0 and sample stdev 1.

    Raises ValueError for zero-variance input.
    """
    if returns.stdev <= 0.0:
        raise ValueError("cannot standardize a zero-variance return series")
    return ReturnSeries.from_values((returns.values - returns.mean) / returns.stdev)
