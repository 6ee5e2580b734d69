"""Price CSV ingestion, log-return computation, and standardization.

The input format is a UTF-8 CSV with header ``timestamp,price``, one tick
per line. Timestamps are opaque ordering keys: an integer column becomes an
int64 array (object beyond int64) ordered numerically, any other a str array
ordered lexically; time deltas play no role. A plain ASCII file is parsed by
numpy's C reader and any other file row by row. Only a regular file named by
its path is read in chunks. One of 2 MiB or more is read by two processes
where ``_fork_share`` may fork: a forked child parses the lines after a split
point while this one parses those before it. From any other source numpy's
reader parses in one call and still makes one Python ``str`` per line.
``PriceSeries.write_csv`` writes a series of ``_WRITE_SPLIT_MIN_ROWS`` rows or
more in two processes too: a forked child formats the second half of the rows.
``_fork_share`` holds the fork policy that its three users share, this reader,
``experiment.run_experiment`` and ``PriceSeries.write_csv``: two or more CPUs,
by the affinity mask and any cgroup quota, and one thread.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Union

import numpy as np

Source = Union[str, Path, bytes, IO[bytes], IO[str]]

_COMMA, _NEWLINE = ord(","), ord("\n")
# the bytes of a file the columnar reader may take: printable ASCII but the quote, CR, LF
_PLAIN = bytes(range(32, 127)).replace(b'"', b"") + b"\r\n"
_PACKED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes that np.loadtxt decompresses
# the share of a file's body the parent parses; the child skips those lines before parsing
_PARENT_SHARE = 0.58
# the smallest body worth a fork: on a 2-vCPU VM a fork and wait cost about 1.7 ms,
# and the two processes first save that much on a body of about 1 MB
_SPLIT_MIN_BYTES = 1 << 21
# the fewest rows worth a fork in write_csv: on a 2-vCPU VM, in three series of 10
# alternating trials, the fork won 9 or 10 of 10 at 2**15 rows (40-69 -> 26-40 ms),
# the smallest power of two where it always did; 8 or 9 at 2**14, 5 to 9 at 2**13
_WRITE_SPLIT_MIN_ROWS = 1 << 15
_CGROUP = Path("/sys/fs/cgroup")  # where _cpus looks for a CPU quota
_INITIAL_PRICE = 100.0
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# Where a shifted price path must fit: the logs of the normal floats, whose exp
# stays finite and normal, 2**-41 in from either end. prices_from_returns's span
# check and shift round numbers below 2048 by at most 2**-43 each, which moves a
# shifted log price less than 2**-41 past the centred span.
_LOG_PRICE_RANGE = (math.log(_TINY) + 2.0**-41, math.log(float(np.finfo(float).max)) - 2.0**-41)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _OrderError(ValueError):
    """Timestamps fail to increase strictly at ``position`` (0-based row)."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"timestamps must be strictly increasing (position {position})")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A tick series: read-only arrays of strictly increasing timestamps and positive prices."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        timestamps = np.array(self.timestamps)  # a copy, so no caller can write it later
        if timestamps.dtype.kind == "f" and all(isinstance(t, int) for t in self.timestamps):
            # Python ints no one integer dtype holds, such as -1 with 2**63: keep them exact
            timestamps = np.array(self.timestamps, dtype=object)
        self._set(timestamps, self.prices)

    @classmethod
    def _of_table(cls, table: np.ndarray) -> "PriceSeries":
        """The series of a read-only ``t``, ``p`` table that the caller hands over and
        no one else holds, the columnar reader's: its timestamps view the table."""
        series = object.__new__(cls)
        series._set(table["t"], table["p"])
        return series

    def _set(self, timestamps: np.ndarray, prices) -> None:
        timestamps.setflags(write=False)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "prices", _frozen_array(prices, float))
        if len(self.timestamps) != len(self.prices):
            raise ValueError("timestamps and prices have different lengths")
        if len(self.prices) < 2:
            raise ValueError("price series needs at least 2 rows")
        if not np.all(np.isfinite(self.prices)):
            raise ValueError("prices must be finite (no NaN or inf)")
        if np.any(self.prices <= 0.0):
            raise ValueError("prices must be strictly positive")
        increasing = timestamps[:-1] < timestamps[1:]
        if not increasing.all():
            raise _OrderError(int(np.argmin(increasing)) + 1)

    def __len__(self) -> int:
        return len(self.prices)

    def write_csv(self, path: str | Path) -> None:
        """Write ``timestamp,price`` CSV with full-precision prices.

        A series of ``_WRITE_SPLIT_MIN_ROWS`` rows or more is formatted in two
        processes where ``_fork_share`` forks: a forked child formats the second
        half of the rows in this writer's csv dialect while this process writes
        the first half, and the child's text follows it in the file. A child that
        ends without its text raises ValueError."""

        def rows(start: int, stop: int):
            return zip(self.timestamps[start:stop].tolist(),
                       map(repr, self.prices[start:stop].tolist()))

        n = len(self)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "price"])

            def child() -> bytes:
                text = io.StringIO(newline="")
                csv.writer(text, writer.dialect).writerows(rows(n // 2, n))
                return text.getvalue().encode("utf-8")

            forked = (_fork_share(child, lambda: writer.writerows(rows(0, n // 2)))
                      if n >= _WRITE_SPLIT_MIN_ROWS else None)
            if forked is None:
                writer.writerows(rows(0, n))
            elif forked[1] is None:
                raise ValueError("the process formatting the second half of the rows "
                                 "ended without them")
            else:
                fh.flush()
                fh.buffer.write(forked[1])


@dataclass(frozen=True, eq=False)
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            mean = float(np.mean(values))
            # stdev of a single observation is defined as 0 (cannot be standardized)
            stdev = float(np.std(values, ddof=1)) if len(values) >= 2 else 0.0
        if len(values) >= 2 and stdev < math.sqrt(_TINY / (len(values) - 1)):
            # Below this bound every squared deviation underflowed, so the stdev
            # may read 0 for values that differ: take the moments of the values
            # scaled by their largest magnitude. A constant series keeps them.
            scale = float(np.max(np.abs(values)))
            if scale > 0.0:
                scaled = values / scale
                mean = float(np.mean(scaled)) * scale
                stdev = float(np.std(scaled, ddof=1)) * scale
        if not (math.isfinite(mean) and math.isfinite(stdev)):
            raise ValueError("the sample mean or variance of the returns overflows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stdev", stdev)

    @classmethod
    def from_values(cls, values) -> "ReturnSeries":
        return cls(values=values)

    def __len__(self) -> int:
        return len(self.values)


def _read_bytes(source: Source) -> bytes:
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    data = data.encode("utf-8") if isinstance(data, str) else data
    # Excel prefixes UTF-8 CSVs with a byte-order mark
    return data.removeprefix(b"\xef\xbb\xbf")


def load_prices(source: Source) -> PriceSeries:
    """Parse a ``timestamp,price`` CSV into a validated PriceSeries.

    ``source`` may be a path, raw bytes, or an open file object. Errors
    (malformed rows, non-positive prices, out-of-order timestamps) report
    the 1-based line number of the offending row.
    """
    data = _read_bytes(source)
    try:
        return _read_columns(data, source if isinstance(source, (str, Path)) else None)
    except ValueError:
        # the row loop reads what the columnar reader declines, naming the first bad line
        return _read_rows(data.decode("utf-8"))


def _read_columns(data: bytes, path: str | Path | None = None) -> PriceSeries:
    """Read a plain ASCII CSV with numpy's C reader. It accepts only input that
    ``_read_rows`` accepts, with the same result, and raises ValueError for the rest.
    ``path`` is the file ``data`` came from, if any. Only a regular file's path lets
    numpy read in chunks, with no Python object per row, and ``_read_split`` then
    parses a large one in two processes; bytes, file objects, FIFOs and compressed
    names reach numpy in one call, through a text wrapper, one ``str`` per line."""
    header_end = data.find(b"\n")
    first_comma = data.find(b",", header_end)
    header = [name.strip() for name in data[: header_end + 1].split(b",")]
    if (data.translate(None, _PLAIN) or first_comma < 0 or header != [b"timestamp", b"price"]
            or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))):
        raise ValueError("not a plain ASCII CSV with a header and a data row")
    body = np.frombuffer(data, np.uint8, offset=header_end + 1)
    at = np.flatnonzero((body == _COMMA) | (body == _NEWLINE))
    sizes = np.diff(at, prepend=-1, append=len(body)) - 1
    if sizes.max() >= csv.field_size_limit():
        raise ValueError("a field at csv's size limit")
    try:
        int(data[header_end + 1 : first_comma])
        ts_dtype = "i8"
    except ValueError:
        # csv strips every field, loadtxt keeps the spaces around a string
        if data.find(b" ", header_end) >= 0 and any(
                data.find(pad, header_end) >= 0 for pad in (b" ,", b"\n ")):
            raise ValueError("padded string timestamps") from None
        # a U field without a width reads as "", and one too narrow truncates
        ts_dtype = f"U{sizes[:-1][body[at] == _COMMA].max()}"
    dtype = np.dtype([("t", ts_dtype), ("p", "f8")])
    # loadtxt reads a regular file again, in chunks, but would unpack one named *.gz and the like
    if path is not None and Path(path).is_file() and Path(path).suffix not in _PACKED:
        table = _read_split(path, dtype, body, at)
    else:
        table = _loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"), dtype)
    table.setflags(write=False)
    return PriceSeries._of_table(table)


def _loadtxt(source, dtype: np.dtype, skiprows: int = 0, max_rows: int | None = None):
    """The data rows of ``source`` after its header and ``skiprows`` more lines."""
    return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, skiprows=1 + skiprows,
                      max_rows=max_rows, ndmin=1, encoding="utf-8")


def _read_split(path: str | Path, dtype: np.dtype, body: np.ndarray,
                at: np.ndarray) -> np.ndarray:
    """Parse the file at ``path``, whose body is ``body`` with commas and LFs at
    ``at``, in two processes through ``_fork_share``. The parent parses the lines
    up to a split point and the child the lines after it, each into its rows of
    one shared table. Either side's failure, or a row count other than the line
    count, raises ValueError. One call parses it all where the body is under
    ``_SPLIT_MIN_BYTES``, where a line is blank (``max_rows`` does not count a
    blank line, and numpy warns about it) and where ``_fork_share`` does not fork;
    ``_may_fork`` is asked first, so that no split is prepared where it would not."""
    if len(body) < _SPLIT_MIN_BYTES or not _may_fork():
        return _loadtxt(path, dtype)
    newlines = at[body[at] == _NEWLINE]
    lines = len(newlines) + int(body[-1] != _NEWLINE)
    # a blank line, LF or CRLF, ends 1 or 2 bytes after the previous one; so does a
    # line of one byte, which holds no row and fails in either way of parsing
    if lines < 2 or np.diff(newlines, prepend=-1).min() <= 2:
        return _loadtxt(path, dtype)
    split = int(np.clip(np.searchsorted(newlines, _PARENT_SHARE * len(body)), 1, lines - 1))
    shared = mmap.mmap(-1, lines * dtype.itemsize)
    table = np.frombuffer(shared, dtype)

    def child() -> bytes:
        tail = _loadtxt(path, dtype, skiprows=split)
        if len(tail) != lines - split:
            raise ValueError("the child did not read one row per line")
        table[split:] = tail
        return b""

    def parent() -> None:
        head = _loadtxt(path, dtype, max_rows=split)
        if len(head) != split:
            raise ValueError("the parent did not read one row per line")
        table[:split] = head

    forked = _fork_share(child, parent)
    if forked is None:
        return _loadtxt(path, dtype)
    if forked[1] is None:
        raise ValueError("the child did not read one row per line")
    # the same memory, through a buffer that no view of it can make writable again
    return np.frombuffer(memoryview(shared).toreadonly(), dtype)


def _fork_share(child_share: Callable[[], bytes],
                parent_share: Callable[[], object]) -> tuple[object, bytes | None] | None:
    """Run ``child_share`` in a forked child while this process runs ``parent_share``.

    Returns what ``parent_share`` returned with the bytes ``child_share``
    returned, which come through a pipe, or with None in their place where the
    child ended otherwise: by an exception, a signal or an exit of its own.
    Returns None, having run neither share, where ``_may_fork`` says no and
    where the pipe or the fork raises OSError. The child runs without the cyclic
    garbage collector, as the parent's garbage is the parent's to finalize, and
    ends in ``os._exit``, so it runs no exit handler and flushes no buffer it
    inherited. A ``parent_share`` that raises kills the child; either way the
    child is reaped before this returns.
    """
    if not _may_fork():
        return None
    ends = ()
    try:
        ends = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare, or no memory for one
        for end in ends:
            os.close(end)
        return None
    if pid == 0:
        status = 1
        try:
            gc.disable()
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(child_share())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            mine = parent_share()
            theirs = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # its share is of no use once this one fails
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    return mine, theirs if status == 0 else None


def _may_fork() -> bool:
    """Whether ``os.fork`` is there, this process may run on two or more CPUs, and
    no other thread runs: a forked child could deadlock on a lock that thread holds."""
    return hasattr(os, "fork") and _cpus() >= 2 and threading.active_count() == 1


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, capped
    by a cgroup CPU quota if one is set."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _cpu_quota() -> int | None:
    """The whole CPUs, at least 1, that a quota under ``_CGROUP`` grants: cgroup
    v2's ``cpu.max``, else cgroup v1's CFS quota and period. None where neither
    file is there, where the quota reads ``max`` or ``-1``, or where it does not parse."""
    try:
        try:
            quota, period = (_CGROUP / "cpu.max").read_text().split()
        except FileNotFoundError:
            quota, period = ((_CGROUP / "cpu" / name).read_text()
                             for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
        quota = quota.strip()
        if quota in ("max", "-1"):
            return None
        return max(1, int(quota) // int(period))
    except (OSError, ValueError, ZeroDivisionError):
        return None


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
            if "\0" in ts:
                # a str array drops trailing NULs, so "a" and "a\0" would compare equal
                raise ValueError(f"line {lineno}: timestamp {ts!r} holds a NUL character")
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


def _order_keys(raw: list[str]) -> np.ndarray:
    # integer column -> numeric order (object beyond int64); anything else -> lexical order
    try:
        return np.array(list(map(int, raw)), dtype=np.int64)
    except OverflowError:
        return np.array(list(map(int, raw)), dtype=object)
    except ValueError:
        return np.array(raw)


def compute_returns(prices: PriceSeries) -> ReturnSeries:
    """Log-difference returns: values[i] = ln(prices[i+1]) - ln(prices[i])."""
    return ReturnSeries.from_values(np.diff(np.log(prices.prices)))


def prices_from_returns(returns: ReturnSeries) -> PriceSeries:
    """Invert ``compute_returns``: n+1 prices, timestamps 0..n.

    The path starts at 100 when every price then is a normal float.
    Otherwise it starts at the price that centres its logs in the normal
    float range, 2**-41 in from either end; a path wider than that range raises.
    """
    log_prices = np.concatenate([[0.0], np.cumsum(returns.values)])
    with np.errstate(over="ignore"):  # a price out of range is handled below
        prices = _INITIAL_PRICE * np.exp(log_prices)
    if not (np.all(np.isfinite(prices)) and np.all(prices >= _TINY)):
        low, high = _LOG_PRICE_RANGE
        lowest, highest = float(log_prices.min()), float(log_prices.max())
        if not highest - lowest <= high - low:
            raise ValueError(
                "simulated prices exceed the floating-point range: the log prices "
                f"span {highest - lowest:.1f}, more than {high - low:.1f}; "
                "reduce n or the variance scale"
            )
        prices = np.exp(log_prices + 0.5 * (low + high - lowest - highest))
    return PriceSeries(timestamps=np.arange(len(prices)), prices=prices)


def standardize(returns: ReturnSeries) -> ReturnSeries:
    """Affinely rescale to sample mean 0 and sample stdev 1.

    Raises ValueError for zero-variance input.
    """
    if returns.stdev <= 0.0:
        raise ValueError("cannot standardize a zero-variance return series")
    return ReturnSeries.from_values((returns.values - returns.mean) / returns.stdev)
