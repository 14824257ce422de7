"""The exact '%.17g' text of float64 values by array arithmetic, and the one
CSV writer, which lays that text out with no Python object per value.

The decimal exponent e comes from log10, the value times 10^(16-e) is a
double-double (Dekker's product with a table of correctly rounded powers of
ten), its 17 digits are rounded and cut into 4-digit groups read from a
table, and one gather through a table of text layouts gives each value's 24
NUL-padded bytes.  A value the arithmetic cannot certify is formatted by
'%.17g' % v itself.  csv_bytes places every column's text in one byte matrix
and drops the NULs.  cli imports this module on its first CSV, so a run that
writes none never builds the tables.
"""
from __future__ import annotations

import numpy as np

# values per pass of g17_rows: its temporaries grow with it, the largest a
# gather index of 24 entries per value
CHUNK = 4096
# The magnitudes g17_rows formats itself: 1e-280 <= |v| <= 1e280 keeps every
# product and split of _scaled clear of overflow and subnormals.
_MIN, _MAX = 1e-280, 1e280
# the tables cover the decimal exponents -_E.._E, those of that range and the
# one-off guesses of log10 around it
_E = 282
# bytes 16-23 of a value's source row (see _chunk) less its first digit
_MIDDLE = int.from_bytes(b"0.0-\0\0\0\0", "little")


def _tables() -> tuple[np.ndarray, ...]:
    """The tables of g17_rows:

    - pow10: for each exponent e, 10^(16-e) as the correctly rounded pair
      hi + lo, and the Dekker split of hi (rows hi, hi's high and low part, lo);
    - dig4: the four ASCII digits of 0..9999, as a uint32 each;
    - tz4: the trailing zeros of 0..9999 as four digits (4 for 0);
    - expo: the %g exponent text of each e ("e+17", "e-05", "e-281"), as 8
      NUL-padded bytes in a uint64;
    - templates: 24 source-row positions per text layout, NUL-padded.  Row
      (e + 4) * 17 + k - 1 lays out k significant digits in fixed notation
      (-4 <= e < 17), row 357 + k - 1 in exponent notation, row 374 is zero,
      and row 375 + i is row i behind a minus sign.
    """
    pos = [1]
    for _ in range(16 + _E):
        pos.append(pos[-1] * 10)
    hi = [float(p) for p in pos]
    lo = [float(p - int(h)) for p, h in zip(pos, hi)]
    for p in pos[1:_E - 15]:
        # int / int is correctly rounded, h is num / den exactly, and den is a
        # power of two
        h = 1 / p
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((den - num * p) / p / den)
    # from 10^(16+_E) down to 10^(16-_E), so that column e + _E is 10^(16-e)
    order = np.r_[16 + _E:-1:-1, 17 + _E:len(hi)]
    hi, lo = np.array(hi)[order], np.array(lo)[order]
    c = 134217729.0 * hi
    hi_h = c - (c - hi)
    pow10 = np.stack([hi, hi_h, hi - hi_h, lo])
    dig4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        dig4[..., i] = np.arange(48, 58).reshape([10 if j == i else 1 for j in range(4)])
    z = np.arange(10) == 0
    tz4 = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    expo = np.array([b"e%+03d" % e for e in range(-_E, _E + 1)], "S8").view(np.uint64)
    # positions in a source row (see _chunk): digits 2-17 at 0-15, the first
    # digit at 16, then ".", "0", "-" and NUL, and the exponent's text from 24
    digit, point, zero, minus, nul = bytes([16, *range(16)]), b"\x11", b"\x12", b"\x13", b"\x14"
    rows = [digit[:e + 1] + (point + digit[e + 1:k] if k > e + 1 else b"") if e >= 0
            else zero + point + zero * (-e - 1) + digit[:k]
            for e in range(-4, 17) for k in range(1, 18)]
    rows += [digit[:1] + (point + digit[1:k] if k > 1 else b"") + bytes(range(24, 29))
             for k in range(1, 18)]
    rows.append(zero)
    rows += [minus + row for row in rows]
    templates = np.frombuffer(b"".join(row.ljust(24, nul) for row in rows), np.uint8)
    return (pow10, dig4.reshape(10000, 4).view(np.uint32).ravel(), tz4.ravel(), expo,
            templates.reshape(-1, 24).astype(np.int32))


_POW10, _DIG4, _TZ4, _EXPO, _TEMPLATES = _tables()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16-e) as a double-double s + r, |r| <= ulp(s) / 2: Dekker's
    product of a and hi (Numer. Math. 18, 224 (1971)) plus a * lo."""
    hi, hi_h, hi_l, lo = _POW10[:, e + _E]
    p = a * hi
    c = 134217729.0 * a
    a_h = c - (c - a)
    a_l = a - a_h
    t = (((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l) + a * lo
    s = p + t
    return s, t - (s - p)


def _off_range(s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as floor(s + r) lies below, in or above [10^16, 10^17)."""
    return (((s > 1e17) | ((s == 1e17) & (r >= 0))).astype(np.intp)
            - ((s < 1e16) | ((s == 1e16) & (r < 0))))


def _exact(v: float) -> bytes:
    """The '%.17g' text of one value that _chunk cannot certify."""
    return b"%.17g" % v


def _chunk(v: np.ndarray, rows: np.ndarray) -> None:
    """The g17_rows of at most CHUNK values, written into rows."""
    a = np.abs(v)
    zero = a == 0
    ok = (a >= _MIN) & (a <= _MAX)
    a[~ok] = 1.0
    # the 17 significant digits are floor(s) rounded by the fraction, where
    # s = |v| * 10^(16-e) and e, the decimal exponent, puts floor(s) in
    # [10^16, 10^17); log10 can miss e by one near a power of ten
    e = np.floor(np.log10(a)).astype(np.intp)
    s, r = _scaled(a, e)
    off = np.flatnonzero((s <= 1e16) | (s >= 1e17))
    e[off] += _off_range(s[off], r[off])
    s[off], r[off] = _scaled(a[off], e[off])
    ok[off[_off_range(s[off], r[off]) != 0]] = False
    # s >= 10^16 > 2^53 is an integer and |r| <= 8.  A value within 1e-6 of a
    # rounding tie goes to _exact, so the rest round by frac > 0.5
    floor_r = np.floor(r)
    frac = r - floor_r
    ok &= np.abs(frac - 0.5) >= 1e-6
    # n = q * 10^8 + rem, each part exact in a float
    q = np.floor(s / 1e8)
    rem = s - q * 1e8 + floor_r + (frac > 0.5)
    carry = np.floor(rem / 1e8)
    q += carry
    rem -= carry * 1e8
    # n = 10^17 is 10^16 at the next exponent
    top = q >= 1e9
    q[top] = 1e8
    e += top
    h = np.floor(q / 1e4)
    lead = np.floor(h / 1e4)
    low = np.floor(rem / 1e4)
    groups = np.stack([h - lead * 1e4, q - h * 1e4, low, rem - low * 1e4]).astype(np.intp)
    z = groups == 0
    k = 17 - (_TZ4[groups[3]] + z[3] * (_TZ4[groups[2]]
                                         + z[2] * (_TZ4[groups[1]] + z[1] * _TZ4[groups[0]])))
    key = np.where((e >= -4) & (e < 17), (e + 4) * 17, 357) + k - 1
    key[zero] = 374
    key += 375 * np.signbit(v)
    # the source row of a value: its digits after the first as four groups,
    # the first digit, ".0-", NUL and its exponent's text
    n = len(v)
    source = np.empty((n, 32), np.uint8)
    words = source.view(np.uint64)
    source.view(np.uint32)[:, :4] = _DIG4[groups].T
    words[:, 2] = lead.astype(np.uint64) + _MIDDLE
    words[:, 3] = _EXPO[e + _E]
    index = np.take(_TEMPLATES, key, axis=0)
    index += np.arange(0, 32 * n, 32, dtype=np.int32)[:, None]
    np.take(source.ravel(), index, out=rows, mode="clip")  # in range: no checked copy
    exact = np.flatnonzero(~ok & ~zero)
    for i, value in zip(exact.tolist(), v[exact].tolist()):
        rows[i] = np.frombuffer(_exact(value).ljust(24, b"\0"), np.uint8)


def g17_rows(values: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each float64 value as 24 bytes, NUL-padded
    (-2.2250738585072014e-308 fills them), in shape values.shape + (24,).
    _exact formats nan, inf, 0 < |v| < 1e-280, |v| > 1e280, a value within
    1e-6 of a rounding tie, and one whose exponent both guesses put outside
    the range, as an exact power of ten above 1e16 can.  Works through CHUNK
    values at a time."""
    flat = np.ravel(values)
    rows = np.empty((len(flat), 24), np.uint8)
    for start in range(0, len(flat), CHUNK):
        _chunk(flat[start:start + CHUNK], rows[start:start + CHUNK])
    return rows.reshape(*np.shape(values), 24)


def csv_bytes(header: str, columns: list[np.ndarray]) -> bytes:
    """A CSV: the header line, then one line per cell of the grid that the
    columns broadcast over.  Each entry of columns holds k consecutive
    columns, an array (..., k) of floats, written as g17_rows, or of bools,
    written 0 or 1.  One byte matrix holds every line, each column's text
    followed by a "," or, at the line's end, a newline; the NULs are dropped."""
    texts = [g17_rows(c) if c.dtype == np.float64 else (c.astype(np.uint8) + 48)[..., None]
             for c in columns]
    grid = np.broadcast_shapes(*(t.shape[:-2] for t in texts))
    spans = [t.shape[-2] * (t.shape[-1] + 1) for t in texts]
    matrix = np.full((*grid, sum(spans)), ord(","), np.uint8)
    for t, stop, span in zip(texts, np.cumsum(spans), spans):
        matrix[..., stop - span:stop].reshape(*grid, t.shape[-2], -1)[..., :-1] = t
    matrix[..., -1] = ord("\n")
    return (header + "\n").encode() + matrix.tobytes().translate(None, b"\0")
