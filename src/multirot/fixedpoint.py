"""B-bit fixed-point fractions on the circle.

A point of the circle is an integer v in [0, 2**bits); it stands for the
rational v / 2**bits.  Addition mod 2**bits is exact, so rounding error
enters only when a real number is first quantized.

A point takes L = ceil(bits / 64) uint64 limbs, most significant limb
first, and is left-aligned: its limbs hold v << (64 L - bits).  So limb
0 is the 64-bit truncation of the point whatever bits is, and a sum of
left-aligned values mod 2**(64 L) is the left-aligned sum mod 2**bits.
`pack` lays points out point-major, (m, L), one row a point;
`limb_chunks` yields them limb-major, (L, m), one row a limb.

A word's points come from one routine, `limb_chunks`, one chunk at a
time, and no (n+1, L) array of them is ever built: `top64` keeps only
each chunk's limb 0, so a reader of the 64-bit truncation never holds
the other limbs, and the orbit export turns each chunk into bytes
(`point_bytes`) and writes it before the next chunk is summed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import table

_ONES = np.uint64(2**64 - 1)


def fp_from_fraction(x: Fraction, bits: int) -> int:
    """Quantize the fractional part of x to a B-bit circle point (floor)."""
    num, den = x.numerator, x.denominator
    return ((num << bits) // den) % (1 << bits)


def limbs(bits: int) -> int:
    """64-bit limbs per point of a B-bit sequence."""
    return -(-bits // 64)


def limb_chunks(omega: np.ndarray, step_values, bits: int, row_bytes: int = 0):
    """x_0 = 0 and x_k = x_{k-1} + step_values[omega[k-1] - 1] mod 2**bits, chunk by chunk.

    omega holds symbols 1..ell and step_values one B-bit integer per symbol.
    Yields (s, e, rows) for each `table.chunk_bounds(len(omega), row_bytes)`
    chunk, rows being the (L, e - s) limb-major array of x_{s+1}..x_e.
    Each chunk starts from the previous chunk's last row, so only one chunk
    of limbs exists at a time.  Whole 64-bit limbs are summed by np.cumsum,
    least significant first, which wraps mod 2**64.  The carry into a limb
    at row k is 0 or 1, so the limb's addend at row k is its step limb plus
    that carry, at most 2**64; the limb carries out at row k when its
    running value falls below row k-1's, or when the addend is 2**64 (an
    all-ones step limb plus a carry in), which wraps to 0 and leaves the
    running value where it was.  The carry out of the top limb is dropped
    (mod 2**bits).
    """
    L = limbs(bits)
    # column 0 is a zero step, so the symbols 1..ell index the table as they are
    steps = np.zeros((L, len(step_values) + 1), dtype=np.uint64)
    steps[:, 1:] = pack(step_values, bits).T
    # only a limb with an all-ones step limb can take an addend of 2**64
    full = (steps == _ONES).any(axis=1).tolist()
    last = np.zeros(L, dtype=np.uint64)
    for s, e in table.chunk_bounds(len(omega), row_bytes):
        acc = np.empty((L, e - s + 1), dtype=np.uint64)  # column 0: the previous chunk's last row
        acc[:, 0] = last
        # mode="clip" lets take write into the strided out unbuffered; no symbol is out of range
        np.take(steps, omega[s:e], axis=1, out=acc[:, 1:], mode="clip")
        wrapped = None
        for j in range(L - 1, -1, -1):
            limb = acc[j]
            if j < L - 1:
                limb[1:] += carry
                wrapped = carry & (limb[1:] == 0) if full[j] else None
            np.cumsum(limb, out=limb)
            if j:
                carry = limb[1:] < limb[:-1]
                if wrapped is not None:
                    carry |= wrapped
        last = acc[:, -1].copy()
        yield s, e, acc[:, 1:]


def top64(omega: np.ndarray, step_values, bits: int) -> np.ndarray:
    """The points' 64-bit truncations, x_0 = 0 first: a fresh (n+1,) uint64
    column filled from each `limb_chunks` chunk's top limb."""
    out = np.zeros(len(omega) + 1, dtype=np.uint64)
    for s, e, rows in limb_chunks(omega, step_values, bits):
        out[s + 1:e + 1] = rows[0]
    return out


def pack(values, bits: int) -> np.ndarray:
    """The (len(values), L) limb array of a list of B-bit integers, one `bytes` each."""
    L = limbs(bits)
    pad = 64 * L - bits
    raw = b"".join((v << pad).to_bytes(8 * L, "big") for v in values)
    return np.frombuffer(raw, dtype=">u8").reshape(len(values), L).astype(np.uint64)


def point_bytes(rows: np.ndarray, bits: int) -> np.ndarray:
    """Each point's integer as ceil(bits / 8) big-endian bytes: (m, ceil(bits / 8)) uint8
    of the (L, m) limb-major rows that `limb_chunks` yields."""
    L, m = rows.shape
    pad = 64 * L - bits
    right = rows
    if pad:
        right = rows >> np.uint64(pad)
        right[1:] |= rows[:-1] << np.uint64(64 - pad)
    nbytes = -(-bits // 8)
    # a transposing copy, then a byte swap of contiguous memory: at 128 bits
    # twice as fast as one strided, byte-swapping copy
    be = np.ascontiguousarray(right.T).astype(">u8")
    return be.view(np.uint8).reshape(m, 8 * L)[:, 8 * L - nbytes:]


def points_from_bytes(raw: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of `point_bytes` for bits a multiple of 8: (m, bits / 8) uint8 to the
    (m, L) point-major limb array, one row a point."""
    m, L = raw.shape[0], limbs(bits)
    # left-aligned big-endian bytes: the value's bytes, then the zero pad bytes
    be = np.zeros((m, 8 * L), dtype=np.uint8)
    be[:, :bits // 8] = raw
    return be.view(">u8").astype(np.uint64)
