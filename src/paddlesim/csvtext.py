"""Telemetry CSV text, built with numpy and byte-identical to '%.9g'/'%d'.

Imported on the first CSV write, so a run that only reports metrics never
builds these tables.
"""

import numpy as np

# The rows are formatted as whole arrays.  Each float's text is laid out in a
# 16-byte slot of two 64-bit words, byte k of a word being bits 8k..8k+7:
# the sign and any leading "0.000", then the 9 significant digits with their
# point and trailing zeros cut, "e+XX" at bytes 11..14 in exponent form, and
# ',' at byte 15.  A row is 14 such slots and one word for the index and
# '\n'.  The words are copied out as bytes, and one bytes.translate call
# drops the NUL bytes left between the texts.  Values outside the proven
# range get a 0x01 marker, which is replaced by their '%.9g' or '%d' text.

_U = np.uint64
# the fast path: 1e-99 <= |x| < 1e99 and zero, so every exponent has 2 digits
_FAST_MIN, _FAST_MAX, _X_MIN, _X_MAX = 1e-99, 1e99, -99, 99
# correctly rounded 10**k for |k| <= 110, at index k + 110
_POW10_MID = 110
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_MID, _POW10_MID + 1)])
# the scaled value p = |x| * 10**(8 - X) is off by at most 2.3e-7 (two
# roundings of 2**-53 relative, at p below about 1e9), so a p this close to
# a rounding tie is left to '%.9g'
_TIE_MARGIN = 1e-6


def _words(chars) -> np.ndarray:
    """Rows of byte values (0 for none) as one little-endian word each."""
    chars = np.asarray(chars)
    shifts = _U(8) * np.arange(chars.shape[-1], dtype=_U)
    return np.bitwise_or.reduce(chars.astype(_U) << shifts, axis=-1)


_v = np.arange(10_000)
_pairs = _words(np.stack([48 + _v[:100] // 10, 48 + _v[:100] % 10], axis=1))
# each of 0000..9999 as four ASCII digits
_DIGITS4 = _pairs[_v // 100] | _pairs[_v % 100] << _U(16)
# the digit count up to the last nonzero digit of m, as the larger of two
# lookups: by its low four digits lo (5 and their count, none for 0000) and
# by its high four hi (1 and their count)
_significant4 = sum((_v % k != 0).astype(int) for k in (10, 100, 1000, 10_000))
_LO_DIGITS = np.where(_v != 0, 5 + _significant4, 0)
_HI_DIGITS = 1 + _significant4
# each index 0..9999 in '%d' form, leading zeros cut, then '\n' at byte 7
_zeros = _U(8) * sum((_v < k).astype(_U) for k in (10, 100, 1000))
_INDEX_TEXT = _DIGITS4 >> _zeros << _zeros | _U(10 << 56)

# per decimal exponent X of the rounded value, at row X + 99: the digit
# after which the point goes (9: none, the point is in the leading "0."),
# the digits always shown, "e+XX," and the leading text per sign
_X = np.arange(_X_MIN, _X_MAX + 1)
_fixed, _small = (_X >= 0) & (_X <= 8), (_X >= -4) & (_X < 0)
_POINT_AFTER = np.where(_fixed, _X, np.where(_small, 9, 0))
_MIN_DIGITS = np.where(_fixed, _X + 1, 1)
_exp = np.zeros((len(_X), 7), int)
_exp[:, 3:] = np.stack([np.full_like(_X, 101), np.where(_X < 0, 45, 43),
                        48 + abs(_X) // 10, 48 + abs(_X) % 10], axis=1)
# at index 2 row + negative, as the leading text: one "e+XX," per sign
_EXP_WORD = np.repeat(np.where(_fixed | _small, _U(0), _words(_exp)) | _U(44 << 56), 2)
_lead_len = np.where(_small, 1 - _X, 0)
_lead = np.where(np.arange(5) < _lead_len[:, None],
                 np.where(np.arange(5) == 1, 46, 48), 0)
# at index 2 row + negative
_LEAD_WORD = np.stack([_words(_lead), _words(np.pad(_lead, ((0, 0), (1, 0)),
                                                    constant_values=45))], axis=1).ravel()
_LEAD_BITS = (_U(8) * (_lead_len[:, None] + np.arange(2))).astype(_U).ravel()

# the 9 digits are bytes 0..7 of word a and byte 0 of word b, 16 bytes in
# all; masks keeping the first k = 0..9 of them
_k = np.arange(10)[:, None]
_byte = np.arange(16)
_keep = np.where(_byte < _k, 0xFF, 0)
_KEEP_A, _KEEP_B = _words(_keep[:, :8]), _words(_keep[:, 8:])
# a point after digit k = 0..7 keeps bytes 0..k and moves the rest one byte
# up; k = 9 puts none
_POINT_LOW = _words(np.where(_byte[:8] <= _k, 0xFF, 0))
_point = np.where((_byte == _k + 1) & (_k <= 7), 46, 0)
_POINT_A, _POINT_B = _words(_point[:, :8]), _words(_point[:, 8:])
_POINT_BITS = np.where(_k[:, 0] <= 7, _U(8), _U(0))
# the module keeps only the tables the formatter reads
del (_v, _pairs, _significant4, _zeros, _X, _fixed, _small, _exp, _lead_len, _lead,
     _k, _byte, _keep, _point)


def _scaled(mag: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """mag * 10**(8 - exp10)."""
    p = _POW10[_POW10_MID + 8 - exp10]
    p *= mag
    return p


# The three stages below return only what the next one reads, and work in
# place where they can, so that a chunk's temporaries are freed as soon as
# they are dead: the writer then reuses the same few pages chunk after chunk.

def _round9(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each |x| rounded to 9 significant digits m, 1e8 <= m < 1e9 (0 for a
    zero), the row of its exponent in the per-X tables, and where '%.9g'
    must write it."""
    mag = np.abs(x)
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    zero = x == 0.0  # scaled as 1, then m is made 0, so its digit is "0"
    mag[~fast] = 1.0
    # the exponent from log10, corrected once so that p lies in [1e8, 1e9)
    exp10 = np.log10(mag)
    exp10 = np.floor(exp10, out=exp10).astype(np.int64)
    p = _scaled(mag, exp10)
    exp10 += p >= 1e9
    exp10 -= p < 1e8
    p = _scaled(mag, exp10)
    del mag
    m = np.rint(p)
    p -= m
    slow = (~(fast | zero) | (np.abs(p, out=p) > 0.5 - _TIE_MARGIN)
            | (m < 1e8) | (m > 1e9))
    del p
    m = m.astype(np.int64)
    m[zero] = 0
    carry = m == 10**9  # 9.999999995e(X) rounds to 1e(X + 1)
    m[carry] = 10**8
    exp10 += carry
    row = np.clip(exp10, _X_MIN, _X_MAX, out=exp10)
    row -= _X_MIN
    return m, row, slow


def _digit_words(m: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two words of each m's digits with its point, before the sign,
    leading text and exponent.  m's buffer is reused: the caller must not
    read m after."""
    # m >= 0, so floor division and a subtraction split it as divmod would;
    # m's place holds the rest and then the low four digits, and a lookup's
    # text takes its index's place (take buffers an output that overlaps)
    first = m // 10**8
    m -= first * 10**8
    hi = m // 10_000
    m -= hi * 10_000
    lo = m
    digits = _LO_DIGITS[lo]
    np.maximum(digits, _HI_DIGITS[hi], out=digits)
    np.maximum(digits, _MIN_DIGITS[row], out=digits)
    a = first.view(_U)
    a += _U(48)
    hi_text = np.take(_DIGITS4, hi, out=hi.view(_U))
    hi_text <<= _U(8)
    a |= hi_text
    del hi, hi_text
    b = np.take(_DIGITS4, lo, out=lo.view(_U))
    del lo
    a |= b << _U(40)
    a &= _KEEP_A[digits]
    b >>= _U(24)
    b &= _KEEP_B[digits]
    point = _POINT_AFTER[row]
    digits -= 1
    point[digits <= point] = 9
    del digits
    low = _POINT_LOW[point]
    moved = ~low
    moved &= a
    a &= low
    del low
    b <<= _POINT_BITS[point]
    b |= moved >> _U(56)
    b |= _POINT_B[point]
    moved <<= _U(8)
    a |= moved
    a |= _POINT_A[point]
    return a, b


def _float_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two words of each float's slot, and where '%.9g' must write it."""
    m, row, slow = _round9(x)
    a, b = _digit_words(m, row)
    del m
    # the sign and leading text shift the text up to 6 bytes, partly into
    # word 1; in two shifts, so that none reaches 64 bits
    lead = row  # row's place, as the tables read 2 row + negative
    lead *= 2
    lead += np.signbit(x)
    bits = _LEAD_BITS[lead]
    b <<= bits
    b |= _EXP_WORD[lead]
    spill = _U(63) - bits
    np.right_shift(a, spill, out=spill)
    spill >>= _U(1)
    b |= spill
    del spill
    a <<= bits
    a |= _LEAD_WORD[lead]
    return a, b, slow


def csv_rows(floats: np.ndarray, index: np.ndarray) -> bytes:
    """The CSV text of rows of 14 floats and a waypoint index."""
    n, n_floats = floats.shape
    slot_0, slot_1, slow = _float_slots(floats.reshape(-1))
    words = np.empty((n, 2 * n_floats + 1), _U)
    words[:, 0:-1:2] = slot_0.reshape(n, n_floats)
    words[:, 1:-1:2] = slot_1.reshape(n, n_floats)
    del slot_0, slot_1
    slow_index = (index < 0) | (index >= 10_000)
    words[:, -1] = _INDEX_TEXT[np.where(slow_index, 0, index)]
    slow = np.concatenate([slow.reshape(n, n_floats), slow_index[:, None]], axis=1)
    any_slow = slow.any()
    if any_slow:
        words[:, 0:-1:2][slow[:, :-1]] = 1
        words[:, 1:-1:2][slow[:, :-1]] = 44 << 56
        words[slow_index, -1] = 1 | 10 << 56
    text = words.astype("<u8", copy=False).tobytes()
    del words
    text = text.translate(None, b"\0")
    if not any_slow:
        return text
    rows, cols = np.nonzero(slow)
    parts = [None] * (2 * len(rows) + 1)
    parts[0::2] = text.split(b"\x01")
    parts[1::2] = [(b"%d" % index[r] if c == n_floats else b"%.9g" % floats[r, c])
                   for r, c in zip(rows.tolist(), cols.tolist())]
    return b"".join(parts)
