"""Column-wise CSV encoding with numpy, one chunk of rows at a time.

Each column of a chunk becomes a (rows, width) uint8 block of ASCII
characters plus a boolean keep mask of the same shape.  Integer cells are
right-aligned digit blocks from a base-10**4 lookup table with a sign slot
in front; the mask drops the sign slot of non-negative values and the
leading zeros, so the kept characters are exactly str(int(v)).  Hex cells
are fixed width and kept whole.  `join_cells` lays the blocks side by side
with comma and newline columns and applies one boolean compress, which
yields the chunk's rows as one uint8 array, ready for a single write.

Writers loop over `chunk_bounds`, so the temporaries stay under a
megabyte per chunk whatever the table length.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UsageError

# Rows per chunk.  For the orbit recipe at n = 10**6 and 128 bits (2-core
# x86_64, Python 3.11, numpy 2.4), 2**12 to 2**16 rows took the same time,
# but bigger chunks left more freed heap behind: peak RSS rose by 0.6 MB
# over the row-by-row writer at 2**12 and by 2.4 MB at 2**16.
CHUNK_ROWS = 1 << 12

# LUT4[v] is the ASCII of f"{v:04d}", HEX2[b] that of f"{b:02x}".  They are
# built from small pieces: int64 temporaries of LUT4's size cost 1 MB of RSS.
_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_LUT2 = _DIGITS[np.stack(np.divmod(np.arange(100, dtype=np.uint8), 10), axis=1)]
LUT4 = np.hstack([np.repeat(_LUT2, 100, axis=0), np.tile(_LUT2, (100, 1))])
HEX2 = _DIGITS[np.stack(np.divmod(np.arange(256, dtype=np.uint16), 16), axis=1)]
# 10**1 .. 10**19; the digit count of a magnitude m is 1 + #{p <= m}.
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_MINUS, _COMMA, _NEWLINE = ord("-"), ord(","), ord("\n")


@functools.cache
def _keep_table(width: int) -> np.ndarray:
    """Row ndigits + (width + 1) * negative: the keep mask of a sign slot and width digits.

    Built on first use, not at import: the broadcasting pages in numpy code
    that every other command would pay for in RSS.
    """
    ndigits = np.arange(width + 1)
    rows = np.zeros((2, width + 1, width + 1), dtype=bool)
    rows[:, :, 1:] = np.arange(width) >= width - ndigits[:, None]
    rows[1, :, 0] = True
    return rows.reshape(2 * (width + 1), width + 1)


def chunk_bounds(total: int):
    """(start, stop) of consecutive row chunks of at most CHUNK_ROWS rows."""
    step = CHUNK_ROWS
    return ((s, min(s + step, total)) for s in range(0, total, step))


def int_cells(values) -> tuple[np.ndarray, np.ndarray]:
    """Decimal cells of a 1-d integer array, every int64 and uint64 exactly."""
    v = np.asarray(values)
    if v.ndim != 1 or v.dtype.kind not in "iu":
        raise UsageError("integer cells need a 1-d integer array")
    if v.dtype.kind == "u":
        mag = v.astype(np.uint64)
        neg = np.zeros(v.shape, dtype=bool)
    else:
        s = v.astype(np.int64)
        neg = s < 0
        mag = s.view(np.uint64)
        # two's complement negation in uint64 is exact, -2**63 included
        np.negative(mag, out=mag, where=neg)
    ndigits = np.searchsorted(_POW10, mag, side="right") + 1
    top = int(ndigits.max()) if v.size else 1
    groups = -(-top // 4)
    width = 4 * groups
    chars = np.empty((v.size, width + 1), dtype=np.uint8)
    chars[:, 0] = _MINUS
    rest = mag
    for g in range(groups - 1, -1, -1):
        rest, low = np.divmod(rest, np.uint64(10_000))
        chars[:, 1 + 4 * g:5 + 4 * g] = np.take(LUT4, low, axis=0)
    keep = np.take(_keep_table(width), ndigits + (width + 1) * neg, axis=0)
    # columns that no cell keeps cost copying and compressing; drop them
    first = 0 if neg.any() else 1 + width - top
    return chars[:, first:], keep[:, first:]


def hex_cells(raw: np.ndarray, bits: int) -> tuple[np.ndarray, None]:
    """Fixed-width lower-case hex cells, (bits + 3) // 4 digits, of B-bit ints.

    raw is (rows, ceil(bits / 8)) uint8, each row an integer's big-endian
    bytes, as `fixedpoint.point_bytes` gives them.
    """
    digits = np.take(HEX2, raw, axis=0).reshape(raw.shape[0], 2 * raw.shape[1])
    # for bits not a multiple of 8 the surplus leading digit is always 0
    return digits[:, 2 * raw.shape[1] - (bits + 3) // 4:], None


def join_cells(cells: list[tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
    """Rows of comma-separated cells, each row ending in a newline, as uint8.

    A cell block is (chars, keep) as from `int_cells`; keep None keeps
    every character.  All blocks have the same number of rows.
    """
    rows = cells[0][0].shape[0]
    total = sum(chars.shape[1] + 1 for chars, _ in cells)
    out = np.full((rows, total), _COMMA, dtype=np.uint8)
    keep = np.ones((rows, total), dtype=bool)
    col = 0
    for chars, mask in cells:
        width = chars.shape[1]
        out[:, col:col + width] = chars
        if mask is not None:
            keep[:, col:col + width] = mask
        col += width + 1
    out[:, -1] = _NEWLINE
    return out[keep]
