"""The text of a run's CSV rows, made by numpy in blocks of bounded size.

A float cell is the text Python's "%.17g" gives it, found without
formatting it in Python. The value times 10^(16-x), with x its decimal
exponent, is taken in double-double arithmetic: 10^k is held as a pair
(hi, lo) of doubles whose sum is within 2^-106 of it (Adams, "Ryu
revisited: printf floating point conversion", OOPSLA 2019), and the
product's error is exact (Dekker's two-product). Rounded to an integer,
it is the value's 17 significant digits; the error is far below TIE of a
unit, so a cell whose rounding is more than TIE from a tie rounds as the
exact value does. An integer cell is its integer's digits, exact at any
size.

Each present cell is written into a slot of CELL bytes, four
little-endian 64-bit words made by integer operations on whole blocks of
cells: a sign byte, the prefix "0." and zeros of fixed notation below 1,
an 18-byte digit field (bytes 6 to 23), the exponent "e+dd" or "e-ddd"
and, in the three spare bytes at the end (_SEP onwards), the separators
that follow the cell, with NUL in every byte the cell does not use.
Digits go in through a table of 4-digit groups, and a frame row, chosen
by the cell's exponent (or special value) and sign, is XORed over them.
The point goes in as one more digit, a zero, that the frame turns into
"."; a mask row keeps a prefix of the digit field, so trailing zeros, and
a point with no digits after it, are cut. An integer's field (bytes 4 to
23) keeps its digits from the first nonzero one. Deleting the NULs
(bytes.translate) leaves the rows' text.

A run's CSV has one row format (text_blocks): the round, k floats, the
absent ehat cells and the sample count. Its separators are fixed: a
comma after each cell, one more per absent cell in the spare bytes of
the last float's slot, and CR LF after the count. A block's rows are
one bytes buffer of (row, round, slot) slots; the floats are formatted
in one pass on a view of the batch's array, and the round cells, the
same in every row, once per span of rounds.

Python's "%.17g" formats the cells numpy does not decide: |v| outside
[LOW, HIGH], where the double-double products leave the normal range, and
values within TIE of a rounding tie. inf, -inf and nan are written as
Python writes them.
"""

import numpy as np

CELL = 32                      # bytes of one cell's slot
BLOCK_BYTES = 256 * 1024       # slot bytes of one block (see row_blocks)
LOW, HIGH = 1e-280, 1e280      # the magnitudes that numpy formats
TIE = 1e-6                     # distance from a rounding tie, in units

_XLIM = 283                    # decimal exponents of the tables: |x| <= _XLIM
_SPLIT = 134217729.0           # 2^27 + 1, Dekker's splitting constant
_SEP = 29                      # a slot's 3 separator bytes: _SEP onwards,
                               # which no cell's text reaches
_ZERO, _INF, _NAN = 2 * _XLIM + 1, 2 * _XLIM + 2, 2 * _XLIM + 3  # frame rows
_NEG = 2 * _XLIM + 4           # frame rows of a negative cell: row + _NEG


# 10^k for k = 16 - x (row _XLIM - x) as hi + lo: hi the double nearest
# it and lo the double nearest the rest, from exact integers (CPython's
# int / int rounds correctly); hi's halves (_HH, _HL) for Dekker's product
_pairs = []
for _k in range(16 - _XLIM, 17 + _XLIM):
    _num, _den = (10 ** _k, 1) if _k >= 0 else (1, 10 ** -_k)
    _m, _e = (_num / _den).as_integer_ratio()
    _pairs.append((_m / _e, (_num * _e - _m * _den) / (_den * _e)))
_HI, _LO = np.array(_pairs).T
_HH = _HI * _SPLIT
_HH -= _HH - _HI
_HL = _HI - _HH

# per decimal exponent x (row x + _XLIM), special cell (rows _ZERO, _INF,
# _NAN) and sign (the same rows again from _NEG for a negative cell): _FL,
# the digits after the point (17 if there is none), and _FRAME, the 4
# words that a cell's digits are XORed with. A frame holds the sign, the
# prefix "0." and -x-1 zeros for -4 <= x < 0, the exponent for x < -4 or
# x >= 17, a special cell's text, and the bits that turn the zero digit in
# the point's place into "."
_xs = range(-_XLIM, _XLIM + 1)
_FL = np.array([17 if -4 <= x < 0 else 16 if x < -4 or x >= 17 else 16 - x
                for x in _xs] + [17] * 3)
_texts = [(b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"",
           b"" if -4 <= x < 17 else b"e%+03d" % x) for x in _xs] \
    + [(b"0", b""), (b"inf", b""), (b"nan", b"")]
_FRAME = np.frombuffer(b"".join(
    sign + head.ljust(23, b"\0") + tail.ljust(8, b"\0")
    for sign in (b"\0", b"-") for head, tail in _texts), np.uint8).reshape(
        2, _FL.size, CELL).copy()
_FRAME[1, _NAN, 0] = 0
_rows = np.flatnonzero(_FL < 17)
_FRAME[:, _rows, 23 - _FL[_rows]] = ord("0") ^ ord(".")
_FRAME = _FRAME.reshape(-1, CELL).view("<u8").T.copy()

_P10 = 10 ** np.arange(19)
_SCALE = _P10[_FL]
# a group's 4 digits in bytes 0-3 of a word (_G4) and its trailing zeros
# (_TZ4); 2 digits in bytes 6-7 of a word, with no leading 0 (_T2)
_g = np.arange(10000)
_G4 = sum((48 + _g // 10 ** (3 - i) % 10) << 8 * i for i in range(4)).view(
    "<u8")
_TZ4 = sum((_g % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
_T2 = (np.where(_g[:100] >= 10, 48 + _g[:100] // 10, 0) << 48
       | (48 + _g[:100] % 10) << 56).view("<u8")
# row e keeps the first e bytes of the float field (bytes 6-23), row d
# the last d bytes of the integer field (bytes 4-23), and every byte
# outside them
_byte = np.arange(CELL)
_KEEP = np.where((_byte < 6 + np.arange(19)[:, None]) | (_byte >= 24), 255,
                 0).astype(np.uint8).view("<u8").T.copy()
_KEEP_INT = np.where(_byte >= 24 - np.arange(20)[:, None], 255, 0).astype(
    np.uint8).view("<u8").T.copy()
del _pairs, _k, _num, _den, _m, _e, _xs, _texts, _rows, _g, _byte


def _scaled(a, x):
    """round(a 10^(16-x)) as int64 and the rest, a 10^(16-x) less it,
    for positive a, from the double-double product a (hi + lo). In place
    where it can, to keep few block-sized arrays alive."""
    k = _XLIM - x
    p = a * _HI[k]
    hh, hl = _HH[k], _HL[k]
    ah = a * _SPLIT
    ah -= ah - a
    t = ah * hh
    t -= p
    t += ah * hl
    al = np.subtract(a, ah, out=ah)
    t += al * hh
    t += al * hl
    del al, ah, hh, hl
    t += a * _LO[k]
    r = np.rint(p)
    p -= r
    p += t
    del t
    q = np.rint(p)
    p -= q
    n = r.astype(np.int64)
    del r
    n += q.astype(np.int64)
    return n, p


def _settle(a, x, n, rest):
    """_digits's (n, x, rest) for the cells whose n, from x = floor(log10
    a), is not strictly inside (10^16, 10^17); a rest of 0.5 marks one
    that numpy cannot tell."""
    for _ in range(3):
        # x is too large if a 10^(16-x) is below 10^16 - 0.05 (above it,
        # a 10^(17-x) rounds up to 10^17 and carries back into x), too
        # small if a 10^(16-x) rounds to 10^17 or more
        low = (n < 10 ** 16) | ((n == 10 ** 16) & (rest < -0.05))
        redo = low | (n >= 10 ** 17)
        if not redo.any():
            break
        x[redo] += np.where(low[redo], -1, 1)
        n[redo], rest[redo] = _scaled(a[redo], x[redo])
    else:
        rest[redo] = 0.5
    # within TIE of the tie at x - 1 that decides between x and x - 1
    rest[(n == 10 ** 16) & (np.abs(rest + 0.05) <= TIE)] = 0.5
    return n, x, rest


def _digits(a):
    """(n, x, undecided) for positive a in [LOW, HIGH]: n the 17
    significant digits of a as an int64 in [10^16, 10^17), x the decimal
    exponent of a rounded to them, and undecided true where numpy cannot
    tell them."""
    x = np.floor(np.log10(a)).astype(np.intp)
    n, rest = _scaled(a, x)
    odd = np.flatnonzero((n <= 10 ** 16) | (n >= 10 ** 17))
    if odd.size:
        n[odd], x[odd], rest[odd] = _settle(a[odd], x[odd], n[odd],
                                            rest[odd])
    return n, x, np.abs(rest) >= 0.5 - TIE


def _groups(m):
    """The digits of the int64s m >= 0 above their low 16, and the low 16
    as four 4-digit groups, the highest first; m is overwritten."""
    top = m // 10 ** 16
    m -= top * 10 ** 16
    high = m // 10 ** 8
    m -= high * 10 ** 8
    groups = []
    for part in (high, m):
        first = part // 10000
        part -= first * 10000
        groups += [first, part]
    return top, groups


def _store(out, shape, top, groups, frame, keep, end):
    """Set the words of each cell of out (shape + (4,) words): word 0 to
    top, words 1 and 2 to the four 4-digit groups, each XORed with word i
    of the cell's frame row (frame; None for an integer cell) and ANDed
    with word i of row end of keep; word 3 to the frame's last word, or
    0."""
    for i in range(3):
        word = top if i == 0 else \
            _G4[groups[2 * i - 2]] | _G4[groups[2 * i - 1]] << 32
        if frame is not None:
            word ^= _FRAME[i][frame]
        word &= keep[i][end]
        out[..., i] = word.reshape(shape)
    out[..., 3] = 0 if frame is None else _FRAME[3][frame].reshape(shape)


def float_cells(v, out):
    """Write the cells of the floats v into out, an array of shape
    v.shape + (4,) of uint64 words, all but their separators; returns the
    flat indices of the cells that numpy does not decide."""
    shape, v = v.shape, v.reshape(-1)
    a = np.abs(v)
    special = np.flatnonzero(~((a >= LOW) & (a <= HIGH)))
    a[special] = 1.0
    n, frame, undecided = _digits(a)
    del a
    s = v[special]
    undecided[special] = np.isfinite(s) & (s != 0)
    frame += _XLIM
    frame[special] = np.where(np.isnan(s), _NAN,
                              np.where(np.isinf(s), _INF, _ZERO))
    # the point goes in as a zero digit after digit x (fixed notation,
    # x >= 0) or digit 0 (exponent notation), fl digits from the end
    scale = _SCALE[frame]
    point = n // scale
    point *= scale
    n += 9 * point
    del scale, point
    top, groups = _groups(n)
    # the field keeps its digits to the last nonzero one after the point,
    # and those before the point
    tz = _TZ4[groups[3]]
    zero = np.flatnonzero(groups[3] == 0)
    if zero.size:
        more = np.ones(zero.size, bool)
        for g in groups[2::-1]:
            g = g[zero]
            tz[zero] += np.where(more, _TZ4[g], 0)
            more &= g == 0
    fl = _FL[frame]
    end = np.where(tz >= fl, 17 - fl, 18 - tz)
    del tz, fl
    end[special] = 0
    frame[np.signbit(v)] += _NEG
    _store(out, shape, _T2[top], groups, frame, _KEEP, end)
    return np.flatnonzero(undecided)


def int_cells(v, out):
    """Write the cells of the int64s v into out, an array of shape
    v.shape + (4,) of uint64 words, all but their separators; returns the
    flat indices of the negative ones, which numpy does not decide."""
    shape, v = v.shape, v.reshape(-1)
    top, groups = _groups(np.maximum(v, 0))
    digits = np.maximum(np.searchsorted(_P10, v, side="right"), 1)
    _store(out, shape, _G4[top] << 32, groups, None, _KEEP_INT, digits)
    return np.flatnonzero(v < 0)


def _python_cells(cells, index, values, template):
    """Replace the cells of the flat indices index in cells, an array of
    shape values.shape + (CELL,) of bytes, by template % value: Python's
    formatting of what numpy does not decide."""
    for i, value in zip(index.tolist(), values.reshape(-1)[index].tolist()):
        text = template % value
        cell = cells[np.unravel_index(i, values.shape)]
        cell[:_SEP] = 0
        cell[:len(text)] = np.frombuffer(text, np.uint8)


def _format(values, out):
    """Write the cells of values, floats or int64s, into out, an array of
    shape values.shape + (4,) of uint64 words, all but their separators."""
    formatter, template = (float_cells, b"%.17g") if values.dtype.kind == "f" \
        else (int_cells, b"%d")
    _python_cells(out.view(np.uint8), formatter(values, out), values,
                  template)


def row_blocks(seeds: int, rounds: int, slots: int):
    """(seed slice, first round, end round) of blocks whose slots, slots
    per row, take at most BLOCK_BYTES: as many whole seeds as fit, or one
    seed's rounds in parts that fit (at least one round)."""
    per_round = slots * CELL
    fit = max(1, BLOCK_BYTES // per_round)
    if fit >= rounds:
        step = BLOCK_BYTES // (per_round * rounds)
        for s in range(0, seeds, step):
            yield slice(s, min(s + step, seeds)), 0, rounds
    else:
        for s in range(seeds):
            for r in range(0, rounds, fit):
                yield slice(s, s + 1), r, min(r + fit, rounds)


def text_blocks(floats, counts, rows, absent: int):
    """(row, first round, end round, text) of each block of row_blocks
    over rows, a row's blocks in order of rounds and each block's rows in
    the order of rows. A line of round r of row `row` is r, the k floats
    floats[row, r], absent empty cells and the int64 counts[row, r], and
    ends in CR LF. A row takes k + 2 slots: an absent cell is one more
    comma in the spare bytes of the last float's slot."""
    rounds, k = floats.shape[1:]
    # the separators after each slot's cell, as words to OR into its last
    # word: at its end, in bytes _SEP onwards, which a cell leaves NUL
    seps = np.frombuffer(b"".join(s.rjust(8, b"\0") for s in [b","] * k + [
        b"," * (1 + absent), b"\r\n"]), "<u8")
    text, span = b"", None
    for part, start, stop in row_blocks(len(rows), rounds, k + 2):
        block, n = rows[part], stop - start
        size = len(block) * n * (k + 2) * CELL
        if len(text) != size:
            text = bytearray(size)
        words = np.frombuffer(text, "<u8").reshape(len(block), n, k + 2, 4)
        # the round cells are every row's: made once per span of rounds
        if span != (start, stop):
            span, round_cells = (start, stop), np.empty((n, 4), np.uint64)
            _format(np.arange(start, stop), round_cells)
        words[:, :, 0] = round_cells
        # consecutive rows are a view of each array; others are gathered
        take = slice(block[0], block[-1] + 1) \
            if (np.diff(block) == 1).all() else block
        _format(floats[take, start:stop], words[:, :, 1:k + 1])
        _format(counts[take, start:stop], words[:, :, k + 1])
        words[..., 3] |= seps
        size //= len(block)
        for i, row in enumerate(block):
            yield row, start, stop, text[i * size:(i + 1) * size].translate(
                None, b"\0")
