"""Row-wise CSV encoding with numpy, one chunk of rows at a time.

`encode_rows` turns a chunk of columns into the chunk's CSV rows, as one
uint8 array ready for a single write.  It allocates one (rows, width)
buffer in which every column has a slot as wide as its widest cell,
followed by the cell's comma or newline, and stores each column straight
into its slot through a strided (and possibly unaligned) view of the
buffer:

- an integer cell as its magnitude's decimal digits, right-aligned and
  zero-padded to the slot width, in 4-digit groups of LUT4 viewed as
  uint32.  The top group stores only the digits left in the slot (1 to
  4), so no store reaches past the slot's start; a 4-byte store there
  would write into the previous cell, or in column 0 into the previous
  row's last cell.  A negative cell gets a '-' at its slot's start.
- a hex cell as HEX2 viewed as uint16, two digits per byte.

When every cell of each column is as wide as its slot, a property of the
chunk's values found from their digit counts, the buffer is the output.
Otherwise one boolean keep mask drops the padding zeros of short cells
and the sign slot of non-negative ones, so the kept characters are
exactly str(int(v)), and one compress yields the rows.

Writers take their chunks from `chunk_bounds(total, row_bytes)`, which
holds a chunk to CHUNK_BYTES of rows, so the temporaries stay within a
few megabytes per chunk whatever the table's length and width.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UsageError

# Rows per chunk.  For the orbit recipe at n = 10**6 and 128 bits (2-core
# x86_64, Python 3.11, numpy 2.4, one process per size), results.csv took
# 0.29 s at 2**10 rows, 0.20-0.22 s at 2**12, 0.19-0.29 s at 2**14 and
# 0.36-0.48 s at 2**16, and the recipe's peak RSS was 87.8, 88.0, 93.7 and
# 112.5 MB: bigger chunks leave more freed heap behind.
CHUNK_ROWS = 1 << 12
# Row bytes per chunk for writers that give `chunk_bounds` a row width.
# The CSV writer budgets a two-step 128-bit orbit row at 159 bytes, so it
# keeps CHUNK_ROWS rows; at 65536 bits a chunk has 254 rows.  Each orbit
# writer sums its chunk's ceil(B/64) limbs one at a time, so a wide
# orbit's run time falls as its chunks grow and its peak rises.  For
# `multirot run` of a random orbit at n = 19000 and 65536 bits (2-core
# x86_64, Python 3.11, numpy 2.4, a process of its own, VmHWM), 1, 4 and
# 16 MB chunks peaked at 46, 70-73 and 178 MB in 2.9-3.5, 1.7-2.0 and
# 1.9-2.0 s: 4 MB runs as fast as 16 MB at well under half the peak.
CHUNK_BYTES = 1 << 22

# LUT4[v] is the ASCII of f"{v:04d}", HEX2[b] that of f"{b:02x}".  They are
# built from small pieces: int64 temporaries of LUT4's size cost 1 MB of RSS.
_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_LUT2 = _DIGITS[np.stack(np.divmod(np.arange(100, dtype=np.uint8), 10), axis=1)]
LUT4 = np.hstack([np.repeat(_LUT2, 100, axis=0), np.tile(_LUT2, (100, 1))])
HEX2 = _DIGITS[np.stack(np.divmod(np.arange(256, dtype=np.uint16), 16), axis=1)]
_HEX_PAIR = HEX2.view(np.uint16).reshape(-1)
_HEX_LOW = HEX2[:, 1].copy()
# 10**1 .. 10**19; the digit count of a magnitude m is 1 + #{p <= m}.
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_GROUP = np.uint64(10_000)
_MINUS, _COMMA, _NEWLINE = ord("-"), ord(","), ord("\n")


def _lut_tail(dtype, offset: int) -> np.ndarray:
    """The bytes offset.. of each LUT4 entry, read as dtype (an unaligned view)."""
    return np.ndarray((len(LUT4),), dtype, buffer=LUT4, offset=offset, strides=(4,))


_LUT4_WORDS = _lut_tail(np.uint32, 0)
# The stores of a top group of t digits: (LUT4 view, offset into the slot).
_TOP = {
    1: ((_lut_tail(np.uint8, 3), 0),),
    2: ((_lut_tail(np.uint16, 2), 0),),
    3: ((_lut_tail(np.uint8, 1), 0), (_lut_tail(np.uint16, 2), 1)),
    4: ((_LUT4_WORDS, 0),),
}


@functools.cache
def _keep_table(width: int) -> np.ndarray:
    """Row ndigits + (width + 1) * negative: the keep mask of a width-wide integer slot.

    Digits are right-aligned and a sign takes the slot's first byte, so a
    negative cell's digits never reach it.  Built on first use, not at
    import: the broadcasting pages in numpy code that every other command
    would pay for in RSS.
    """
    ndigits = np.arange(width + 1)
    rows = np.zeros((2, width + 1, width), dtype=bool)
    rows[:] = np.arange(width) >= width - ndigits[:, None]
    rows[1, :, 0] = True
    return rows.reshape(2 * (width + 1), width)


def chunk_bounds(total: int, row_bytes: int = 0):
    """(start, stop) of consecutive row chunks of at most CHUNK_ROWS rows.

    Given a row width in bytes, a chunk also holds at most CHUNK_BYTES of
    rows, and at least one row.
    """
    step = CHUNK_ROWS
    if row_bytes:
        step = max(1, min(step, CHUNK_BYTES // row_bytes))
    return ((s, min(s + step, total)) for s in range(0, total, step))


def _integer_column(values):
    """(magnitudes as uint64, negative mask or None, slot width, per-row digit counts or None).

    The digit counts are None when every cell, its digits and its sign, is
    as wide as the slot.
    """
    v = np.asarray(values)
    if v.ndim != 1 or v.dtype.kind not in "iu":
        raise UsageError("integer cells need a 1-d integer array")
    neg = None
    if v.dtype.kind == "i" and v.min() < 0:
        mag = v.astype(np.int64).view(np.uint64)
        neg = v < 0
        # two's complement negation in uint64 is exact, -2**63 included
        np.negative(mag, out=mag, where=neg)
        if not neg.all():
            ndigits = np.searchsorted(_POW10, mag, side="right") + 1
            length = ndigits + neg
            width = int(length.max())
            return mag, neg, width, None if int(length.min()) == width else ndigits
    else:
        mag = v.astype(np.uint64)
    # all of one sign: a cell's width grows with its magnitude
    low, high = len(str(int(mag.min()))), len(str(int(mag.max())))
    ndigits = None if low == high else np.searchsorted(_POW10, mag, side="right") + 1
    return mag, neg, high + (neg is not None), ndigits


def _strided(buf: np.ndarray, dtype, offset: int) -> np.ndarray:
    """A view of one dtype item per row of buf at byte offset (a subarray dtype adds its axes)."""
    return np.ndarray(buf.shape[:1], dtype, buffer=buf, offset=offset, strides=buf.strides[:1])


def _store_integers(buf, start, mag, neg, width) -> None:
    """Zero-padded width-digit magnitudes at buf[:, start:start + width], '-' where neg."""
    rest = mag
    end = start + width
    while end - start > 4:
        rest, low = np.divmod(rest, _GROUP)
        end -= 4
        _strided(buf, np.uint32, end)[...] = np.take(_LUT4_WORDS, low, mode="clip")
    for lut, at in _TOP[end - start]:
        _strided(buf, lut.dtype, start + at)[...] = np.take(lut, rest, mode="clip")
    if neg is not None:
        _strided(buf, np.uint8, start)[neg] = _MINUS


def _store_hex(buf, start, raw, digits) -> None:
    """digits lower-case hex digits of each row's big-endian bytes raw at buf[:, start:]."""
    if digits % 2:
        # the surplus leading digit of an odd count is always 0
        _strided(buf, np.uint8, start)[...] = np.take(_HEX_LOW, raw[:, 0], mode="clip")
        start, raw = start + 1, raw[:, 1:]
    _strided(buf, (np.uint16, raw.shape[1]), start)[...] = np.take(_HEX_PAIR, raw, mode="clip")


def encode_rows(columns: list) -> np.ndarray:
    """CSV rows of comma-separated cells, each row ending in a newline, as uint8.

    A column is a 1-d integer array, whose cells are str(int(v)), or a
    pair (raw, bits), whose cells are (bits + 3) // 4 lower-case hex
    digits of B-bit integers, raw being (rows, ceil(bits / 8)) uint8 of
    each integer's big-endian bytes as `fixedpoint.point_bytes` gives
    them.  Every column has the same number of rows.
    """
    slots = [(col[0], None, (col[1] + 3) // 4, None) if isinstance(col, tuple)
             else _integer_column(col) for col in columns]
    rows = len(slots[0][0])
    total = sum(width + 1 for _, _, width, _ in slots)
    buf = np.empty((rows, total), dtype=np.uint8)
    keep = None
    start = 0
    for values, neg, width, ndigits in slots:
        if values.ndim == 2:
            _store_hex(buf, start, values, width)
        else:
            _store_integers(buf, start, values, neg, width)
        if ndigits is not None:
            if keep is None:
                keep = np.ones((rows, total), dtype=bool)
            index = ndigits if neg is None else ndigits + (width + 1) * neg
            keep[:, start:start + width] = np.take(_keep_table(width), index, axis=0)
        start += width + 1
        buf[:, start - 1] = _COMMA
    buf[:, -1] = _NEWLINE
    return buf.reshape(-1) if keep is None else buf[keep]
