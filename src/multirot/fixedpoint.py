"""B-bit fixed-point fractions on the circle.

A point of the circle is an integer v in [0, 2**bits); it stands for the
rational v / 2**bits.  Addition mod 2**bits is exact, so rounding error
enters only when a real number is first quantized.

A sequence of points is an (m, L) uint64 array with L = ceil(bits / 64)
limbs per point, most significant limb first.  Values are left-aligned:
row k holds v_k << (64 L - bits).  So column 0 is the 64-bit truncation
of every point whatever bits is, and a sum of left-aligned values mod
2**(64 L) is the left-aligned sum mod 2**bits.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import table

_LOW32 = np.uint64(0xFFFFFFFF)
_THIRTY_TWO = np.uint64(32)


def fp_from_fraction(x: Fraction, bits: int) -> int:
    """Quantize the fractional part of x to a B-bit circle point (floor)."""
    num, den = x.numerator, x.denominator
    return ((num << bits) // den) % (1 << bits)


def limbs(bits: int) -> int:
    """64-bit limbs per point of a B-bit sequence."""
    return -(-bits // 64)


def accumulate(omega: np.ndarray, step_values, bits: int) -> np.ndarray:
    """x_0 = 0 and x_k = x_{k-1} + step_values[omega[k-1] - 1] mod 2**bits, k = 1..n.

    omega holds symbols 1..ell and step_values one B-bit integer per
    symbol; the result is the (n+1, L) limb array.  Every step is split
    into 32-bit sub-limbs, which np.cumsum adds up one chunk of
    `table.CHUNK_ROWS` rows at a time, starting from the previous chunk's
    last row.  A chunk's sub-limb sums stay below (CHUNK_ROWS + 1) * 2**32,
    far from overflow; the carries then go up from the least significant
    sub-limb, and the carry out of the top one is dropped (mod 2**bits).
    """
    n, L = len(omega), limbs(bits)
    pad, subs = 64 * L - bits, 2 * L
    sub_limbs = np.array(
        [[((v << pad) >> (32 * (subs - 1 - j))) & 0xFFFFFFFF for j in range(subs)]
         for v in step_values],
        dtype=np.uint64,
    )
    out = np.zeros((n + 1, L), dtype=np.uint64)
    last = np.zeros(subs, dtype=np.uint64)
    for s, e in table.chunk_bounds(n):
        acc = np.cumsum(sub_limbs[omega[s:e] - 1], axis=0)
        acc += last
        for j in range(subs - 1, 0, -1):
            acc[:, j - 1] += acc[:, j] >> _THIRTY_TWO
            acc[:, j] &= _LOW32
        acc[:, 0] &= _LOW32
        last = acc[-1]
        out[s + 1:e + 1] = (acc[:, 0::2] << _THIRTY_TWO) | acc[:, 1::2]
    return out


def pack(values, bits: int) -> np.ndarray:
    """The (len(values), L) limb array of a list of B-bit integers."""
    L = limbs(bits)
    pad = 64 * L - bits
    out = np.empty((len(values), L), dtype=np.uint64)
    for s, e in table.chunk_bounds(len(values)):
        raw = b"".join((v << pad).to_bytes(8 * L, "big") for v in values[s:e])
        out[s:e] = np.frombuffer(raw, dtype=">u8").reshape(e - s, L)
    return out


def to_int(row: np.ndarray, bits: int) -> int:
    """The B-bit integer of one point (one row of a limb array)."""
    pad = 64 * len(row) - bits
    return int.from_bytes(np.asarray(row, dtype=">u8").tobytes(), "big") >> pad


def point_bytes(points: np.ndarray, bits: int) -> np.ndarray:
    """Each point's integer as ceil(bits / 8) big-endian bytes: (m, ceil(bits / 8)) uint8."""
    m, L = points.shape
    pad = 64 * L - bits
    right = points
    if pad:
        right = points >> np.uint64(pad)
        right[:, 1:] |= points[:, :-1] << np.uint64(64 - pad)
    nbytes = -(-bits // 8)
    return right.astype(">u8").view(np.uint8).reshape(m, 8 * L)[:, 8 * L - nbytes:]


def points_from_bytes(raw: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of `point_bytes` for bits a multiple of 8: (m, bits / 8) uint8 to limbs."""
    m, L = raw.shape[0], limbs(bits)
    # left-aligned big-endian bytes: the value's bytes, then the zero pad bytes
    be = np.zeros((m, 8 * L), dtype=np.uint8)
    be[:, :bits // 8] = raw
    return be.view(">u8").astype(np.uint64)
