"""The CSV formatter against Python's own formatting: every float cell is
"%.17g" % v and every integer cell str(v), byte for byte, for values
that reach each branch of the formatter (notation, exponent digits,
trailing zeros, carries, ties, the Python fallback)."""

import itertools
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decminimax import csvtext
from decminimax.csvtext import row_blocks, text_blocks

RNG_SEED = 20261021


def cells(values) -> list:
    """The cells of values as text_blocks writes them: floats as a row's
    one float column, int64s as its count column."""
    values = np.asarray(values)
    n, floats = values.size, values.dtype.kind == "f"
    text = b"".join(t for *_, t in text_blocks(
        values.reshape(1, n, 1) if floats else np.zeros((1, n, 1)),
        np.zeros((1, n), np.int64) if floats else values.reshape(1, n),
        np.array([0]), 0)).decode()
    lines = text.split("\r\n")
    assert lines.pop() == "" and len(lines) == n
    return [line.split(",")[1 if floats else 2] for line in lines]


def near_tie(v) -> bool:
    """Whether |v| scaled to 17 significant digits, or to 18 (the digits
    that decide a carry into the next power of ten), is within 1e-5 of a
    rounding tie."""
    exact = abs(Decimal(v))
    for digits in (16, 17):
        scaled = exact.scaleb(digits - exact.adjusted())
        if abs(scaled - int(scaled) - Decimal("0.5")) <= Decimal("1e-5"):
            return True
    return False


def assert_like_python(values):
    """The cells of values are Python's, and numpy left to Python only
    values outside [LOW, HIGH] and values next to a rounding tie."""
    values = np.asarray(values, dtype=float)
    assert cells(values) == ["%.17g" % v for v in values.tolist()]
    out = np.empty(values.shape + (4,), np.uint64)
    for v in values[csvtext.float_cells(values, out)].tolist():
        assert not csvtext.LOW <= abs(v) <= csvtext.HIGH or near_tie(v), v


def ulps_around(centres, steps):
    """Each centre and the doubles up to steps ulps away on either side."""
    out = [np.asarray(centres, dtype=float)]
    for direction in (np.inf, -np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=300))
@settings(max_examples=150, deadline=None)
def test_hypothesis_floats(values):
    assert_like_python(values)


def test_special_values_and_signed_zeros():
    assert cells(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])) \
        == ["0", "-0", "inf", "-inf", "nan", "nan"]


def test_raw_bit_patterns():
    bits = np.random.default_rng(RNG_SEED).integers(
        0, 2**64, size=40000, dtype=np.uint64)
    assert_like_python(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_like_python(ulps_around(np.concatenate([powers, -powers]), 3))


def test_integers_around_2_53_and_10_17():
    rng = np.random.default_rng(RNG_SEED)
    centres = np.array([2.0**53, 1e16, 1e17, 9.999999999999998e16])
    offsets = np.concatenate([np.arange(-3000, 3000),
                              rng.integers(-10**6, 10**6, 3000)])
    assert_like_python((centres[:, None] + offsets).ravel())
    assert_like_python(ulps_around(centres, 2000))


def test_rounding_ties():
    """k + 0.5 is exact below 2^52; an odd m / 4 near 2^51 has 18
    significant digits, its last a 5, so rounding it to 17 is a true tie,
    which Python rounds half to even."""
    rng = np.random.default_rng(RNG_SEED)
    k = rng.integers(0, 2**52, 20000).astype(float)
    assert_like_python(k + 0.5)
    m = 2 * rng.integers(2**51, 2**52, 20000) + 1
    ties = m / 4.0
    assert_like_python(np.concatenate([ties, -ties, ties * 2.0**-40]))
    assert sum(len(("%.18g" % t).rstrip("0").replace(".", "")) == 18
               for t in ties.tolist()) > 1000


def test_notation_edges():
    """Fixed notation from 1e-4 up to below 1e17, exponent notation
    outside, and values that round up across an edge."""
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 0.1, 1.0, 10.0])
    assert_like_python(ulps_around(np.concatenate([edges, -edges]), 2000))
    rng = np.random.default_rng(RNG_SEED)
    assert_like_python(10.0 ** rng.uniform(-6, 18, 40000))


def test_exponent_digits_and_the_fallback_range():
    """Two- and three-digit exponents, and magnitudes outside [LOW, HIGH],
    which Python formats."""
    rng = np.random.default_rng(RNG_SEED)
    values = 10.0 ** rng.uniform(-330, 308.2, 40000)
    assert ((values < csvtext.LOW) | (values > csvtext.HIGH)).any()
    assert_like_python(np.concatenate([values, -values]))


def test_integer_cells_are_exact():
    big = np.iinfo(np.int64).max
    values = np.array([0, 1, 9, 10, 99, 2**53 + 1, 10**16, 10**17 - 1,
                       10**17 + 1, 10**18, big, -1, -big - 1], dtype=np.int64)
    rng = np.random.default_rng(RNG_SEED)
    values = np.concatenate([values, rng.integers(-big - 1, big, 20000),
                             10 ** rng.integers(0, 19, 2000)])
    assert cells(values) == [str(v) for v in values.tolist()]


def assert_blocks_cover(seeds, rounds, slots):
    blocks = list(row_blocks(seeds, rounds, slots))
    covered = np.zeros((seeds, rounds), int)
    for part, start, stop in blocks:
        assert (part.stop - part.start) * (stop - start) * slots \
            * csvtext.CELL <= csvtext.BLOCK_BYTES
        covered[part, start:stop] += 1
    assert (covered == 1).all()
    # a seed's blocks come in order of rounds, so they can be appended
    order = [(part.start, start) for part, start, _ in blocks]
    assert order == sorted(order)


@pytest.mark.parametrize("seeds, rounds", [(5, 1), (3, 700), (1, 10**5)])
def test_blocks_cover_each_row_once_within_the_budget(seeds, rounds):
    assert_blocks_cover(seeds, rounds, 11)


@pytest.mark.parametrize("seeds, rounds, slots", [
    (8, 501, 8), (8, 501, 10), (3, 20001, 8), (2, 4001, 8)])
def test_blocks_of_present_cells_cover_each_row_once(seeds, rounds, slots):
    """The budget counts the slots a row takes, its present cells (8 for
    a diagnostics-off row, 10 with the ehat columns)."""
    assert_blocks_cover(seeds, rounds, slots)


def test_blocks_are_as_large_as_the_budget_allows():
    """A row of the storm_online workload (T=500) without its two ehat
    columns takes 8 slots, so a block holds 2 seeds, where 10 slots
    would hold 1; a long seed's parts take 1024 rounds each."""
    assert {p.stop - p.start for p, _, _ in row_blocks(8, 501, 8)} == {2}
    assert {p.stop - p.start for p, _, _ in row_blocks(8, 501, 10)} == {1}
    assert [(start, stop) for _, start, stop in row_blocks(1, 2500, 8)] \
        == [(0, 1024), (1024, 2048), (2048, 2500)]


def reference_text(floats, counts, row, absent) -> str:
    """Python's text of a row's lines: the round, its floats, absent
    empty cells and its count."""
    return "".join(",".join([str(r), *("%.17g" % v for v in f), *[""] * absent,
                             str(c)]) + "\r\n"
                   for r, (f, c) in enumerate(zip(floats[row].tolist(),
                                                  counts[row].tolist())))


def test_rows_of_mixed_columns():
    """Both of a run's row formats, diagnostics off (six floats and two
    absent ehat cells) and on (eight floats), against Python's text: rows
    gathered out of order into one block, or each split across blocks."""
    rng = np.random.default_rng(RNG_SEED)
    for (k, absent), (rounds, split) in itertools.product(
            [(6, 2), (8, 0)], [(9, False), (2500, True)]):
        floats = rng.standard_normal((4, rounds, k)) * 10.0 ** rng.integers(
            -8, 8, (4, rounds, k))
        floats[1, 0] = [np.nan, -np.inf, -0.0, 1e300, 5e-300, 0.5, 1e17,
                        1e-5][:k]
        counts = rng.integers(0, 10**18, (4, rounds))
        spans, texts = {}, {}
        for row, start, stop, text in text_blocks(
                floats, counts, np.array([3, 1, 0]), absent):
            spans.setdefault(row, []).append((start, stop))
            texts[row] = texts.get(row, "") + bytes(text).decode()
        assert list(spans) == [3, 1, 0]
        for row, parts in spans.items():
            assert (len(parts) > 1) == split, (k, rounds)
            assert texts[row] == reference_text(floats, counts, row, absent), \
                (k, rounds, row)


def test_a_diagnostics_off_row_gives_the_ehat_columns_no_slot(monkeypatch):
    """A row of round, six floats, two absent ehat cells and a count
    takes 8 slots: the two absent commas follow the last float's cell."""
    slots, original = [], csvtext.row_blocks

    def spy(seeds, rounds, n):
        slots.append(n)
        return original(seeds, rounds, n)

    monkeypatch.setattr(csvtext, "row_blocks", spy)
    [(_, _, _, text)] = text_blocks(np.ones((1, 1, 6)),
                                    np.ones((1, 1), np.int64), np.array([0]), 2)
    assert slots == [8]
    assert bytes(text) == b"0,1,1,1,1,1,1,,,1\r\n"


def test_a_shared_column_is_formatted_once_per_span(monkeypatch):
    """12 seeds of 500 rounds of 4 slots take 3 blocks of 4 seeds, one
    span of rounds: the round cells are made once, the counts per
    block."""
    calls = []
    original = csvtext.int_cells

    def counted(v, out):
        calls.append(v.ndim)
        return original(v, out)

    monkeypatch.setattr(csvtext, "int_cells", counted)
    texts = [bytes(t) for *_, t in text_blocks(
        np.ones((12, 500, 2)), np.ones((12, 500), np.int64), np.arange(12),
        0)]
    assert calls == [1, 2, 2, 2]
    assert len(texts) == 12 and len(set(texts)) == 1


def test_exponent_found_from_either_side():
    """However far floor(log10 |v|) is off, by one either way, _settle
    finds the exponent and digits that Python prints, carries into the
    next power of ten included (10^-14's double, below 10^-14, prints as
    1e-14)."""
    values = ulps_around([float(f"1e{k}") for k in range(-270, 270)], 2)
    n, x, _ = csvtext._digits(values)
    for shift in (-1, 1):
        guess = x + shift
        got = csvtext._settle(values, guess.copy(), *csvtext._scaled(values,
                                                                    guess))
        assert (got[0] == n).all() and (got[1] == x).all()
    carried = float("1e-14")
    assert "%.17g" % carried == "1e-14" and Decimal(carried) < Decimal("1e-14")
    assert cells([carried]) == ["1e-14"]


def test_a_tie_at_the_next_lower_exponent_is_left_to_python():
    """10^16 - 0.05 at exponent x is 10^17 - 0.5 at x - 1, a tie between
    x and x - 1: numpy does not decide it."""
    n, x, rest = csvtext._settle(np.array([1.0]), np.array([0]),
                                 np.array([10**16]), np.array([-0.05]))
    assert rest[0] == 0.5
