import csv
import io
import math
import os
import statistics
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volclust import ingest
from volclust.dvc import AnalysisConfig, analyze
from volclust.ingest import (
    PriceSeries,
    ReturnSeries,
    compute_returns,
    load_prices,
    prices_from_returns,
    standardize,
)

_SPLIT_MIN_BYTES, _CPUS = ingest._SPLIT_MIN_BYTES, ingest._cpus
_WRITE_SPLIT_MIN_ROWS = ingest._WRITE_SPLIT_MIN_ROWS


@pytest.fixture(autouse=True, scope="module")
def _split_every_file():
    """Read and write every file of two or more rows in two processes, however
    small and whatever the CPU count, so that each reader and writer test here
    runs through the split."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_SPLIT_MIN_BYTES", 0)
        patch.setattr(ingest, "_WRITE_SPLIT_MIN_ROWS", 0)
        patch.setattr(ingest, "_cpus", lambda: 2)
        yield


def test_load_minimal_csv():
    series = load_prices(b"timestamp,price\n1,100.0\n2,101.0\n")
    assert len(series) == 2
    assert series.timestamps.tolist() == [1, 2]
    assert np.allclose(series.prices, [100.0, 101.0])


def test_load_accepts_path_and_file_object(tmp_path):
    path = tmp_path / "ticks.csv"
    path.write_text("timestamp,price\n1,10.0\n2,11.0\n")
    from_path = load_prices(path)
    with open(path, "rb") as fh:
        from_file = load_prices(fh)
    from_text = load_prices(io.StringIO(path.read_text()))
    assert np.array_equal(from_path.prices, from_file.prices)
    assert np.array_equal(from_path.prices, from_text.prices)


def test_load_rejects_negative_price_with_line_number():
    with pytest.raises(ValueError, match="line 3"):
        load_prices(b"timestamp,price\n1,100.0\n2,-5.0\n")


def test_load_rejects_zero_price():
    with pytest.raises(ValueError, match="line 2.*positive"):
        load_prices(b"timestamp,price\n1,0.0\n2,100.0\n")


def test_load_rejects_nan_price():
    with pytest.raises(ValueError, match="line 2.*finite"):
        load_prices(b"timestamp,price\n1,nan\n2,100.0\n")


def test_load_rejects_malformed_row():
    with pytest.raises(ValueError, match="line 3.*2 fields"):
        load_prices(b"timestamp,price\n1,100.0\n2,100.0,junk\n")
    with pytest.raises(ValueError, match="line 2.*unparseable"):
        load_prices(b"timestamp,price\n1,abc\n2,100.0\n")
    # csv.Error is not a ValueError: a lone CR, and a field over csv's size limit
    with pytest.raises(ValueError, match="^line 2: new-line character"):
        load_prices(b"timestamp,price\n1,1.0\r2,2.0\n")
    with pytest.raises(ValueError, match="^line 3: field larger than field limit"):
        load_prices(b"timestamp,price\n1,1.0\n2," + b"1" * 140_000 + b"\n")


def test_load_rejects_non_increasing_timestamps():
    with pytest.raises(ValueError, match="line 3.*increase"):
        load_prices(b"timestamp,price\n5,100.0\n5,101.0\n")
    with pytest.raises(ValueError, match="line 4"):
        load_prices(b"timestamp,price\n1,100.0\n2,101.0\n2,102.0\n")
    # blank rows are skipped but still counted in the reported line number
    with pytest.raises(ValueError, match="^line 6: timestamp '2' does not increase after '3'$"):
        load_prices(b"timestamp,price\n1,100.0\n\n3,101.0\n\n2,102.0\n")


def test_load_integer_timestamps_ordered_numerically():
    # "9" < "10" holds numerically even though it fails lexically
    series = load_prices(b"timestamp,price\n9,100.0\n10,101.0\n")
    assert series.timestamps.tolist() == [9, 10]


def test_load_string_timestamps_ordered_lexically():
    load_prices(b"timestamp,price\n2024-01-01T00:00,1.0\n2024-01-01T00:05,2.0\n")
    with pytest.raises(ValueError, match="increase"):
        load_prices(b"timestamp,price\na9,1.0\na10,2.0\n")


def test_load_requires_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        load_prices(b"timestamp,price\n1,100.0\n")


def test_load_requires_header():
    with pytest.raises(ValueError, match="line 1.*header"):
        load_prices(b"time,price\n1,100.0\n2,101.0\n")
    with pytest.raises(ValueError, match="empty"):
        load_prices(b"")


def test_large_file_roundtrips_through_export(tmp_path):
    rng = np.random.default_rng(20240917)
    prices = np.exp(rng.normal(0.0, 0.2, size=1001).cumsum()) * 50.0
    original = PriceSeries(timestamps=tuple(range(1001)), prices=prices)
    path = tmp_path / "big.csv"
    original.write_csv(path)
    parsed = load_prices(path)
    assert len(parsed) == 1001
    assert parsed.timestamps.tolist() == original.timestamps.tolist()
    # full-precision export: every price survives the round trip bit-for-bit
    assert np.array_equal(parsed.prices, original.prices)
    # string timestamps holding "," or '"' are quoted as csv.writer quotes them
    quoted = PriceSeries(timestamps=('a"2', "a,1", "b"), prices=np.array([1.5, 2.0, 0.25]))
    path = tmp_path / "quoted.csv"
    quoted.write_csv(path)
    text = path.read_bytes().decode()
    assert text == 'timestamp,price\r\n"a""2",1.5\r\n"a,1",2.0\r\nb,0.25\r\n'
    with pytest.raises(ValueError):
        ingest._read_columns(text.encode())
    back = load_prices(path)
    assert back.timestamps.tolist() == quoted.timestamps.tolist()
    assert np.array_equal(back.prices, quoted.prices)


def _no_row_loop(text):
    raise AssertionError("the row loop ran")


def test_lf_and_exported_files_take_the_vectorized_path(tmp_path, monkeypatch):
    exported = PriceSeries(timestamps=(1, 2, 3), prices=np.array([1.0, 2.5, 0.125]))
    path = tmp_path / "exported.csv"
    exported.write_csv(path)
    assert path.read_bytes().count(b"\r\n") == 4
    monkeypatch.setattr(ingest, "_read_rows", _no_row_loop)
    assert load_prices(b"timestamp,price\n1,100.0\n2,101.5\n").timestamps.tolist() == [1, 2]
    parsed = load_prices(path)
    assert parsed.timestamps.tolist() == exported.timestamps.tolist()
    assert np.array_equal(parsed.prices, exported.prices)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_load_skips_utf8_byte_order_mark(eol):
    body = eol.join(["timestamp,price", "1,100.0", "2,101.5", ""]).encode()
    plain = load_prices(body)
    with_bom = load_prices(b"\xef\xbb\xbf" + body)
    assert with_bom.timestamps.tolist() == plain.timestamps.tolist()
    assert np.array_equal(with_bom.prices, plain.prices)


@pytest.mark.parametrize(
    "numeral, outcome",
    [
        ("1_000", 1000.0),
        ("\u0661\u0662", 12.0),  # Arabic-Indic digits
        (" 1.5 ", 1.5),
        ("+inf", "line 2: price must be finite, got '+inf'"),
        ("1e400", "line 2: price must be finite, got '1e400'"),
        ("0x10", "line 2: unparseable price '0x10'"),
    ],
)
def test_price_numerals_follow_float(numeral, outcome, monkeypatch):
    data = f"timestamp,price\n1,{numeral}\n2,1.0\n".encode()
    if isinstance(outcome, float):
        assert float(numeral) == outcome
        if "_" in numeral or not numeral.isascii():
            # loadtxt's parser rejects "1_000" and non-ASCII digits, so the row loop reads them
            texts, read_rows = [], ingest._read_rows
            monkeypatch.setattr(ingest, "_read_rows", lambda t: read_rows(texts.append(t) or t))
            assert load_prices(data).prices[0] == outcome
            assert texts == [data.decode()]
            return
        # accepted by the vectorized pass on its own
        monkeypatch.setattr(ingest, "_read_rows", _no_row_loop)
        assert load_prices(data).prices[0] == outcome
    else:
        with pytest.raises(ValueError) as err:
            load_prices(data)
        assert str(err.value) == outcome


def test_price_series_validation():
    with pytest.raises(ValueError, match="positive"):
        PriceSeries(timestamps=(1, 2), prices=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="increasing"):
        PriceSeries(timestamps=(2, 1), prices=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"increasing \(position 2\)"):
        PriceSeries(timestamps=(1, 2, 2), prices=np.ones(3))
    # integers beyond int64 keep their exact order
    big = PriceSeries(timestamps=(10**20, 10**20 + 1), prices=np.ones(2))
    assert big.timestamps.tolist() == [10**20, 10**20 + 1]
    with pytest.raises(ValueError, match="increasing"):
        PriceSeries(timestamps=(10**20 + 1, 10**20), prices=np.ones(2))
    # numpy makes this mix float64, in which 2**63 and 2**63 + 1 are equal
    mixed = PriceSeries(timestamps=(-1, 2**63, 2**63 + 1), prices=np.ones(3))
    assert mixed.timestamps.tolist() == [-1, 2**63, 2**63 + 1]
    with pytest.raises(ValueError, match=r"increasing \(position 2\)"):
        PriceSeries(timestamps=(-1, 2**63 + 1, 2**63), prices=np.ones(3))
    # strings order lexically, integers numerically
    with pytest.raises(ValueError, match="increasing"):
        PriceSeries(timestamps=("9", "10"), prices=np.ones(2))
    assert PriceSeries(timestamps=(9, 10), prices=np.ones(2)).timestamps.tolist() == [9, 10]
    with pytest.raises(ValueError, match="at least 2"):
        PriceSeries(timestamps=(1,), prices=np.array([1.0]))
    with pytest.raises(ValueError, match="lengths"):
        PriceSeries(timestamps=(1, 2, 3), prices=np.array([1.0, 1.0]))


def test_compute_returns_log_difference():
    prices = PriceSeries(timestamps=(1, 2, 3), prices=np.array([1.0, math.e, math.e]))
    returns = compute_returns(prices)
    assert len(returns) == 2
    assert np.allclose(returns.values, [1.0, 0.0], atol=1e-15)


def test_compute_returns_constant_prices():
    prices = PriceSeries(timestamps=tuple(range(5)), prices=np.full(5, 42.0))
    assert np.all(compute_returns(prices).values == 0.0)


def test_compute_returns_inverts_exponentiated_cumsum():
    rng = np.random.default_rng(7)
    known = rng.normal(0.0, 0.05, size=2000)
    prices = PriceSeries(
        timestamps=tuple(range(2001)),
        prices=np.exp(np.concatenate([[0.0], np.cumsum(known)])),
    )
    recovered = compute_returns(prices)
    assert np.max(np.abs(recovered.values - known)) < 1e-12


def test_prices_from_returns_reports_overflow_without_warning():
    returns = ReturnSeries.from_values([1500.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exceed the floating-point range: the log "
                                             "prices span 1501.0, more than 1418.2"):
            prices_from_returns(returns)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
def test_prices_from_returns_takes_the_widest_span_and_no_wider(sign):
    low, high = ingest._LOG_PRICE_RANGE
    log_tiny, log_max = math.log(ingest._TINY), math.log(float(np.finfo(float).max))
    # the margins keep the logs of the normal floats, the last whose exp is in range
    assert (low - 2.0**-41, high + 2.0**-41) == (log_tiny, log_max)
    with np.errstate(over="ignore"):
        assert np.isfinite(np.exp(log_max)) and np.exp(np.nextafter(log_max, np.inf)) == np.inf
    assert np.exp(log_tiny) >= ingest._TINY > np.exp(np.nextafter(log_tiny, -np.inf))
    span = high - low
    prices = prices_from_returns(ReturnSeries.from_values([sign * span])).prices
    assert np.all(np.isfinite(prices)) and prices.min() >= ingest._TINY
    assert prices.min() < 1e-307 and prices.max() > 1e307
    wider = ReturnSeries.from_values([sign * np.nextafter(span, np.inf)])
    with pytest.raises(ValueError, match="more than 1418.2"):
        prices_from_returns(wider)


@given(st.floats(0.0, 1.0))
def test_prices_from_returns_keeps_every_path_it_takes_normal(share):
    """A path of the widest span, split at ``share`` below the start, rounds in
    the shift; its prices still come out finite and normal."""
    low, high = ingest._LOG_PRICE_RANGE
    returns = ReturnSeries.from_values([-share * (high - low), high - low])
    log_prices = np.cumsum([0.0, *returns.values])
    if log_prices.max() - log_prices.min() > high - low:
        with pytest.raises(ValueError, match="exceed the floating-point range"):
            prices_from_returns(returns)
    else:
        prices = prices_from_returns(returns).prices
        assert np.all(np.isfinite(prices)) and prices.min() >= ingest._TINY


def test_return_series_caches_match_recomputation():
    values = np.array([0.1, -0.2, 0.3])
    series = ReturnSeries.from_values(values)
    assert math.isclose(series.mean, sum(values) / 3, abs_tol=1e-15)
    assert math.isclose(series.stdev, statistics.stdev(values), abs_tol=1e-15)
    assert ReturnSeries.from_values([0.5]).stdev == 0.0
    with pytest.raises(TypeError):
        ReturnSeries(values=values, mean=series.mean, stdev=series.stdev)


def test_return_series_keeps_the_variance_of_tiny_returns():
    # squaring these deviations underflows to 0, which read as a zero variance
    values = np.random.default_rng(0).normal(size=600)
    tiny = ReturnSeries.from_values(values * 1e-170)
    unit = ReturnSeries.from_values(values)
    assert tiny.stdev > 0.0
    assert math.isclose(tiny.stdev, unit.stdev * 1e-170, rel_tol=1e-12)
    assert math.isclose(tiny.mean, unit.mean * 1e-170, rel_tol=1e-12)
    config = AnalysisConfig(n_bins=5, min_count=10)  # 600 returns fill few bins
    tiny_result, unit_result = analyze(tiny, config), analyze(unit, config)
    assert tiny_result.profile.counts.tolist() == unit_result.profile.counts.tolist()
    assert math.isclose(tiny_result.dvc_p, unit_result.dvc_p, rel_tol=1e-12)
    assert math.isclose(tiny_result.dvc_n, unit_result.dvc_n, rel_tol=1e-12)
    # constant series stay constant, whatever their scale
    for value in (1e-170, -3e-300, 0.5):
        assert ReturnSeries.from_values([value] * 4).stdev == 0.0
        assert ReturnSeries.from_values([value] * 4).mean == value


def test_return_series_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        ReturnSeries.from_values([0.1, np.nan])


@pytest.mark.parametrize(
    "values", [np.array([1.0, -2.0, 3.0]) * 1e160, np.full(10, 1e308)], ids=["variance", "mean"]
)
def test_return_series_rejects_overflowing_moments(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sample mean or variance of the returns overflows"):
            ReturnSeries.from_values(values)


def test_standardize_two_point_series():
    out = standardize(ReturnSeries.from_values([-1.0, 1.0]))
    assert out.values[0] == -out.values[1]
    assert math.isclose(out.stdev, 1.0, abs_tol=1e-12)
    assert math.isclose(out.mean, 0.0, abs_tol=1e-12)


def test_standardize_moments_against_fsum_oracle():
    rng = np.random.default_rng(11)
    out = standardize(ReturnSeries.from_values(rng.normal(3.0, 2.5, size=5000)))
    # independent moment computation via exact summation
    vals = [float(v) for v in out.values]
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    assert abs(mean) < 1e-10
    assert abs(math.sqrt(var) - 1.0) < 1e-10


def test_standardize_is_idempotent():
    rng = np.random.default_rng(13)
    once = standardize(ReturnSeries.from_values(rng.normal(0.4, 1.7, size=1000)))
    twice = standardize(once)
    assert np.max(np.abs(twice.values - once.values)) < 1e-10


def test_standardize_preserves_affine_order():
    series = ReturnSeries.from_values([0.3, -0.1, 0.9, 0.2])
    out = standardize(series)
    assert np.array_equal(np.argsort(out.values), np.argsort(series.values))


def test_standardize_zero_variance_error():
    with pytest.raises(ValueError, match="zero-variance"):
        standardize(ReturnSeries.from_values([0.5, 0.5, 0.5]))


@st.composite
def _valid_csv(draw):
    """CSV lines (header first, blank lines possible), a line end, whether
    the text ends with one, and the timestamps and prices the lines hold."""
    n = draw(st.integers(min_value=2, max_value=30))
    steps = draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=n, max_size=n)
    )
    timestamps = np.cumsum(steps)
    prices = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    row = draw(st.sampled_from(["{},{}", " {} , {} ", '"{}",{}']))  # plain, padded, quoted
    lines = ["timestamp,price"] + [row.format(t, repr(p)) for t, p in zip(timestamps, prices)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return lines, eol, draw(st.booleans()), list(timestamps), prices


def _join(lines, eol, final_eol):
    return (eol.join(lines) + (eol if final_eol else "")).encode()


@given(_valid_csv())
@settings(max_examples=60)
def test_load_accepts_every_valid_csv(case):
    lines, eol, final_eol, timestamps, prices = case
    series = load_prices(_join(lines, eol, final_eol))
    assert list(series.timestamps) == timestamps
    assert np.array_equal(series.prices, np.array(prices))


@given(
    _valid_csv(),
    st.sampled_from(["negative", "zero", "nan", "dup_ts", "truncate"]),
    st.data(),
)
@settings(max_examples=60)
def test_load_rejects_every_invalid_mutation(case, kind, data):
    lines, eol, final_eol, _, _ = case
    lines = list(lines)
    rows = [i for i, line in enumerate(lines) if i and line]
    if kind == "truncate":
        lines = lines[: rows[0] + 1]
    else:
        row = data.draw(st.sampled_from(rows))
        ts, _ = lines[row].split(",", 1)
        if kind == "negative":
            lines[row] = f"{ts},-1.0"
        elif kind == "zero":
            lines[row] = f"{ts},0.0"
        elif kind == "nan":
            lines[row] = f"{ts},nan"
        elif kind == "dup_ts":
            lines.insert(row, lines[row])
    text = _join(lines, eol, final_eol)
    with pytest.raises(ValueError) as loaded:
        load_prices(text)
    # the message, line number included, is the row loop's
    with pytest.raises(ValueError) as looped:
        ingest._read_rows(text.decode())
    assert str(loaded.value) == str(looped.value)


# --- the columnar reader against the row loop ----------------------------------


def _columns_agree(raw: bytes, path) -> bool:
    """Whether the columnar reader takes ``raw``, read in memory and from
    ``path``; wherever it does, it gives what the row loop gives."""
    path.write_bytes(raw)
    data = ingest._read_bytes(raw)
    try:
        rows = ingest._read_rows(data.decode("utf-8"))
    except ValueError:
        rows = None
    taken = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body with no data
        for source in (None, path):
            try:
                columns = ingest._read_columns(data, source)
            except ValueError:
                taken.append(False)
                continue
            taken.append(True)
            assert rows is not None, "the columnar reader took input the row loop rejects"
            assert columns.timestamps.dtype == rows.timestamps.dtype
            assert columns.timestamps.tolist() == rows.timestamps.tolist()
            assert columns.prices.tobytes() == rows.prices.tobytes()
    assert taken[0] == taken[1]
    return taken[0]


_LIMIT_FIELD = b"1." + b"0" * 140_000  # 1.0, in a field over csv's size limit


@pytest.mark.parametrize(
    "body, columnar",
    [
        (b"a#1,1.0\na#2,2.0\n", True),  # '#' inside a field
        (b"1,1.0\n2,2.0#\n", False),
        (b"1_000,1.0\n2_000,2.0\n", False),  # int() reads 1_000, loadtxt does not
        (b"1,1_000\n2,2.0\n", False),
        ("1,١٢\n2,2.0\n".encode(), False),  # Arabic-Indic digits
        ("١,1.0\n٢,2.0\n".encode(), False),
        (b" 1 , 1.5 \n2 ,  2.0\n", True),  # padded numeric fields
        (b" +1,1.0\n002,2.0\n", True),
        (b" a ,1.0\nb,2.0\n", False),  # padded string timestamps
        (b"a ,1.0\nb,2.0\n", False),
        (b"a b,1.0\na c,2.0\n", True),
        (b"\n1,1.0\n\n\n2,2.0\n\n", True),  # blank lines
        (b"1,1.0\n \n2,2.0\n", False),  # a whitespace-only line
        (b"1,1.0\n\t\n2,2.0\n", False),
        (b"1,1.0\r\n\r\n2,2.0\r\n", True),  # CRLF
        (b"1,1.0\r2,2.0\n", False),  # a lone CR
        (b"1,1.0\n2,2.0\r", False),
        (b'"1",1.0\n2,"2.0"\n', False),  # quoted fields
        (b'"a,1",1.0\n"a""2",2.0\n', False),
        (b"9223372036854775807,1.0\n9223372036854775808,2.0\n", False),  # beyond int64
        (b"-9223372036854775809,1.0\n1,2.0\n", False),
        (b"1,1.0\n1.5,2.0\n", False),  # an integer first row, then a non-integer row
        (b"1,1.0\na,2.0\n", False),
        (b"1,1.0\n", False),  # one data row
        (b"", False),  # a header-only file
        (b"\n\n", False),
        (b"a,1.0\nab,2.0\nb,3.0\n", True),  # string timestamps of mixed lengths
        (b"2024-01-01T00:00:00Z,1.0\n2024-01-01T00:00:01Z,2.0\n", True),
        (b"a,1.0\na\0,2.0\n", False),  # a NUL
        (b"1," + _LIMIT_FIELD + b"\n2,2.0\n", False),  # a field over csv's size limit
        (b"1,nan\n2,2.0\n", False),
        (b"2,1.0\n1,2.0\n", False),
        (b",1.0\na,2.0\n", True),  # an empty string timestamp
        (b"1,1.0\n,2.0\n", False),
        (b"1,1.0,\n2,2.0\n", False),
        (b"1,.5\n2,3.\n3,+1e-3\n", True),
    ],
)
@pytest.mark.parametrize("header", [b"timestamp,price\n", b"\xef\xbb\xbf timestamp , price\r\n"])
def test_columnar_reader_agrees_with_row_loop(header, body, columnar, tmp_path):
    assert _columns_agree(header + body, tmp_path / "prices.csv") == columnar


def test_columnar_reader_needs_the_header_on_line_one(tmp_path):
    for raw in (b"\ntimestamp,price\n1,1.0\n2,2.0\n", b"time,price\n1,1.0\n2,2.0\n"):
        assert not _columns_agree(raw, tmp_path / "prices.csv")


@pytest.mark.parametrize("name", ["prices.csv.gz", "prices.bz2", "prices.xz", "prices.lzma"])
def test_plain_file_with_a_compression_suffix_loads(name, tmp_path):
    # np.loadtxt would decompress a path by its suffix, so these are read from memory
    assert _columns_agree(b"timestamp,price\n1,1.0\n2,2.0\n", tmp_path / name)


_TIMESTAMP_TOKENS = ["1", "+7", "007", "1_000", "1.5", "-3", "9223372036854775808", "a",
                     "a b", "a#", "2024-01-01T00:00:00Z", "", "١", '"q"', "a\0", "Z"]
_PRICE_TOKENS = ["1.5", "1_000", "١", "nan", "inf", "-1", "0", "1e400", "", "0x10",
                 "1.", ".5", "+2", "1e-5", '"3"', "4#"]


@st.composite
def _fuzzed_csv(draw):
    """Mostly well-formed price CSVs, in sorted order, with the field and
    line shapes on which csv and loadtxt might part ways."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(-(2**64), 2**64), min_size=n, max_size=n, unique=True))
        stamps = [str(k) for k in sorted(keys)]
    else:
        text = st.text(alphabet="abT:-0123456789 #_.", max_size=6)
        stamps = sorted(draw(st.lists(text, min_size=n, max_size=n, unique=True)))
    prices = [repr(p) for p in draw(st.lists(
        st.floats(min_value=1e-300, max_value=1e300), min_size=n, max_size=n))]
    for column, tokens in ((stamps, _TIMESTAMP_TOKENS), (prices, _PRICE_TOKENS)):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            column[draw(st.integers(0, n - 1))] = draw(st.sampled_from(tokens))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    lines = [f"{pad}{t}{pad},{pad}{p}" for t, p in zip(stamps, prices)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", ","])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(["timestamp,price", *lines]) + draw(st.sampled_from(["", eol, "\r"]))
    return (draw(st.sampled_from(["", "﻿"])) + text).encode()


@given(raw=_fuzzed_csv())
@settings(max_examples=300, deadline=None)
def test_columnar_reader_never_departs_from_row_loop(raw, tmp_path_factory):
    _columns_agree(raw, tmp_path_factory.getbasetemp() / "fuzzed.csv")


def test_load_rejects_nul_in_timestamp():
    with pytest.raises(ValueError, match=r"^line 3: timestamp 'a\\x00' holds a NUL character$"):
        load_prices(b"timestamp,price\na,1.0\na\x00,2.0\n")


@pytest.mark.parametrize(
    "timestamps",
    [np.arange(3), np.array(["a", "ab", "b"]), np.array([10**20, 10**20 + 1, 10**21], object)],
    ids=["int64", "str", "beyond-int64"],
)
def test_write_csv_roundtrips_array_timestamps(timestamps, tmp_path):
    original = PriceSeries(timestamps=timestamps, prices=np.array([1.5, 2.0, 0.1]))
    path = tmp_path / "prices.csv"
    original.write_csv(path)
    back = load_prices(path)
    assert back.timestamps.dtype == timestamps.dtype
    assert back.timestamps.tolist() == timestamps.tolist()
    assert back.prices.tobytes() == original.prices.tobytes()
    assert not back.timestamps.flags.writeable


def test_iso_file_reexports_as_its_crlf_form(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    stamps = np.datetime_as_string(np.arange(1_600_000_000, 1_600_000_500).astype("datetime64[s]"))
    prices = np.exp(rng.normal(0.0, 0.01, size=500).cumsum()) * 100.0
    lf = "".join(f"{t}Z,{p!r}\n" for t, p in zip(stamps, prices.tolist()))
    source = tmp_path / "iso.csv"
    source.write_text("timestamp,price\n" + lf)
    monkeypatch.setattr(ingest, "_read_rows", _no_row_loop)
    exported = tmp_path / "exported.csv"
    load_prices(source).write_csv(exported)
    assert exported.read_bytes() == source.read_bytes().replace(b"\n", b"\r\n")


def test_price_series_keeps_the_callers_array_writable():
    stamps = np.arange(3)
    series = PriceSeries(timestamps=stamps, prices=np.ones(3))
    assert stamps.flags.writeable and not series.timestamps.flags.writeable


def test_price_series_timestamps_ignore_later_writes_by_the_caller():
    stamps = np.arange(3)
    read_only_view = stamps[:]
    read_only_view.setflags(write=False)
    read_only = np.arange(3)
    read_only.setflags(write=False)
    read_only_owner = np.arange(3)
    read_only_owner.setflags(write=False)
    for given, owner in ((stamps, stamps), (read_only_view, stamps), (read_only, read_only),
                         (read_only_owner[:], read_only_owner)):
        series = PriceSeries(given, [1.0, 2.0, 3.0])
        owner.setflags(write=True)
        owner[0] = 5
        assert series.timestamps.tolist() == [0, 1, 2]
        owner[0] = 0
    # nothing else can write np.loadtxt's table, so the columnar reader's timestamps view it
    assert load_prices(b"timestamp,price\n1,1.0\n2,2.0\n").timestamps.base is not None


# --- the columnar reader in two processes ----------------------------------------


def _write_rows(path, count, bad_row=None, bad_line=""):
    """A file of ``count`` rows; row ``bad_row`` (0-based), if given, is ``bad_line``."""
    rows = [f"{i},{1.0 + i % 7}" for i in range(count)]
    if bad_row is not None:
        rows[bad_row] = bad_line
    path.write_text("timestamp,price\n" + "\n".join(rows) + "\n")
    return path


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """The returned list gets one item for each ``os.fork`` call."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("bad_row", [100, 4900], ids=["parent's lines", "child's lines"])
@pytest.mark.parametrize("bad_line", ["{i},x", "{i},1.0,2.0", "{i}", "{i},-1.0"])
def test_split_reader_failure_gives_the_row_loops_message(bad_row, bad_line, tmp_path):
    path = _write_rows(tmp_path / "prices.csv", 5000, bad_row, bad_line.format(i=bad_row))
    with pytest.raises(ValueError) as loaded:
        load_prices(path)
    with pytest.raises(ValueError) as looped:
        ingest._read_rows(path.read_text())
    assert str(loaded.value) == str(looped.value)
    assert str(loaded.value).startswith(f"line {bad_row + 2}:")
    _assert_no_child_left()


def test_split_reader_forks_once_and_leaves_no_child(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    series = load_prices(_write_rows(tmp_path / "prices.csv", 5000))
    assert forks == [1]
    assert series.timestamps.tolist() == list(range(5000))
    # the timestamps view the table the two processes wrote, with no copy, and stay read-only
    assert series.timestamps.base is not None and not series.timestamps.flags.writeable
    with pytest.raises(ValueError):
        series.timestamps.setflags(write=True)
    _assert_no_child_left()
    # a file of two rows is split too
    two = tmp_path / "two.csv"
    two.write_bytes(b"timestamp,price\n1,1.0\n2,2.0")
    assert load_prices(two).timestamps.tolist() == [1, 2]
    assert forks == [1, 1]
    _assert_no_child_left()


def _no_fork():
    raise AssertionError("the reader forked")


def _fork_fails():
    raise OSError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize(
    "reason", ["thread", "no fork", "fork fails", "blank line", "small file", "one CPU"])
def test_reader_parses_in_one_call_where_it_may_not_fork(reason, tmp_path, monkeypatch):
    path = _write_rows(tmp_path / "prices.csv", 5000)
    expected = load_prices(path)
    monkeypatch.setattr(ingest, "_read_rows", _no_row_loop)
    if reason == "blank line":
        path.write_bytes(path.read_bytes().replace(b"\n4000,", b"\n\n4000,"))
    elif reason == "small file":
        monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", _SPLIT_MIN_BYTES)
        assert path.stat().st_size < _SPLIT_MIN_BYTES
    elif reason == "one CPU":
        monkeypatch.setattr(ingest, "_cpus", _CPUS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if reason == "no fork":
        monkeypatch.delattr(os, "fork")
    elif reason == "fork fails":
        monkeypatch.setattr(os, "fork", _fork_fails)
    else:
        monkeypatch.setattr(os, "fork", _no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10,))
    if reason == "thread":
        thread.start()
    try:
        series = load_prices(path)
    finally:
        stop.set()
        if reason == "thread":
            thread.join(10)
    assert not thread.is_alive()
    assert series.timestamps.tolist() == expected.timestamps.tolist()
    assert series.prices.tobytes() == expected.prices.tobytes()
    with pytest.raises(ValueError):
        series.timestamps.setflags(write=True)


# --- the writer in two processes -------------------------------------------------


def _one_process_bytes(series, path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_cpus", lambda: 1)
        series.write_csv(path)
    return path.read_bytes()


@pytest.mark.parametrize("timestamps", [
    np.arange(2),
    np.arange(3),
    np.arange(1001),
    np.array([10**20 + i for i in range(5)], dtype=object),
    np.array(['a"2', "a,1", "a,2", "b", "c"]),
    np.array(["2024-01-01T00:00:00Z", "é,1", 'ü"2', "ü3", "€"]),
], ids=["n=2", "n=3", "n=1001", "beyond-int64", "quoted", "non-ASCII"])
def test_forked_writer_writes_the_bytes_of_one_process(timestamps, tmp_path, monkeypatch):
    prices = np.exp(np.random.default_rng(7).normal(0.0, 0.1, len(timestamps)).cumsum())
    series = PriceSeries(timestamps, prices)
    forks = _count_forks(monkeypatch)
    path = tmp_path / "forked.csv"
    series.write_csv(path)
    assert forks == [1]
    _assert_no_child_left()
    assert path.read_bytes() == _one_process_bytes(series, tmp_path / "one.csv")
    assert forks == [1]
    back = load_prices(path)
    assert back.timestamps.tolist() == timestamps.tolist()
    assert back.prices.tobytes() == series.prices.tobytes()


def test_writer_forks_from_its_gate_up(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_WRITE_SPLIT_MIN_ROWS", _WRITE_SPLIT_MIN_ROWS)
    forks = _count_forks(monkeypatch)
    for rows, expected in ((_WRITE_SPLIT_MIN_ROWS - 1, []), (_WRITE_SPLIT_MIN_ROWS, [1])):
        series = PriceSeries(np.arange(rows), np.linspace(1.0, 2.0, rows))
        path = tmp_path / f"{rows}.csv"
        series.write_csv(path)
        assert forks == expected
        assert path.read_bytes() == _one_process_bytes(series, tmp_path / "one.csv")
    _assert_no_child_left()


@pytest.mark.parametrize("reason", ["one CPU", "thread", "no fork", "fork fails"])
def test_writer_writes_in_one_process_where_it_may_not_fork(reason, tmp_path, monkeypatch):
    series = PriceSeries(np.arange(5000), np.linspace(1.0, 2.0, 5000))
    expected = _one_process_bytes(series, tmp_path / "expected.csv")
    forks = _count_forks(monkeypatch)
    if reason == "one CPU":
        monkeypatch.setattr(ingest, "_cpus", _CPUS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif reason == "no fork":
        monkeypatch.delattr(os, "fork")
    elif reason == "fork fails":
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _fork_fails())
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10,))
    if reason == "thread":
        thread.start()
    try:
        series.write_csv(tmp_path / "prices.csv")
    finally:
        stop.set()
        if reason == "thread":
            thread.join(10)
    assert not thread.is_alive()
    assert forks == ([1] if reason == "fork fails" else [])
    assert (tmp_path / "prices.csv").read_bytes() == expected
    _assert_no_child_left()


def test_writer_raises_when_the_forked_child_dies(tmp_path, monkeypatch):
    parent, writer = os.getpid(), csv.writer

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return writer(*args)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(csv, "writer", dying)
    with pytest.raises(ValueError, match="ended without them"):
        PriceSeries(np.arange(100), np.ones(100)).write_csv(tmp_path / "prices.csv")
    assert forks == [1]
    _assert_no_child_left()


@pytest.mark.parametrize("files, quota", [
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "250000 100000\n"}, 2),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "300000\n"}, None),
    ({"cpu.max": "lots\n"}, None),
    ({}, None),
], ids=["v2 max", "v2 2.5", "v2 0.5", "v1 -1", "v1 3", "v1 no period", "v2 garbled", "none"])
def test_cpus_counts_a_cgroup_quota(files, quota, tmp_path, monkeypatch):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(ingest, "_CGROUP", tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert ingest._cpu_quota() == quota
    assert _CPUS() == (4 if quota is None else quota)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _CPUS() == 1
