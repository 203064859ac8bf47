"""B-bit fixed-point fractions on the circle.

A point of the circle is an integer v in [0, 2**bits); it stands for the
rational v / 2**bits.  Addition mod 2**bits is exact, so rounding error
enters only when a real number is first quantized.

A sequence of points is an (m, L) uint64 array with L = ceil(bits / 64)
limbs per point, most significant limb first.  Values are left-aligned:
row k holds v_k << (64 L - bits).  So column 0 is the 64-bit truncation
of every point whatever bits is, and a sum of left-aligned values mod
2**(64 L) is the left-aligned sum mod 2**bits.

A word's points come from one routine, `limb_chunks`, one chunk of rows
at a time: `accumulate` gathers them into the (n+1, L) array, and `top64`
keeps only column 0, so a reader of the 64-bit truncation never holds the
other limbs.
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


def limb_chunks(omega: np.ndarray, step_values, bits: int):
    """x_0 = 0 and x_k = x_{k-1} + step_values[omega[k-1] - 1] mod 2**bits, chunk by chunk.

    Yields (s, e, rows) for each `table.chunk_bounds(len(omega))` chunk, rows
    being the (L, e - s) limb-major array of x_{s+1}..x_e.  Each chunk
    starts from the previous chunk's last row, so only one chunk of limbs
    exists at a time.  Whole 64-bit limbs are summed by np.cumsum, least
    significant first, which wraps mod 2**64.  The carry into a limb at row
    k is 0 or 1, so the limb's addend at row k is its step limb plus that
    carry, at most 2**64; the limb carries out at row k when its running
    value falls below row k-1's, or when the addend is 2**64 (an all-ones
    step limb plus a carry in), which wraps to 0 and leaves the running
    value where it was.  The carry out of the top limb is dropped (mod
    2**bits).
    """
    L = limbs(bits)
    # column 0 is a zero step, so the symbols 1..ell index the table as they are
    steps = np.zeros((L, len(step_values) + 1), dtype=np.uint64)
    steps[:, 1:] = pack(step_values, bits).T
    # only a limb with an all-ones step limb can take an addend of 2**64
    full = (steps == _ONES).any(axis=1).tolist()
    last = np.zeros(L, dtype=np.uint64)
    for s, e in table.chunk_bounds(len(omega)):
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


def accumulate(omega: np.ndarray, step_values, bits: int) -> np.ndarray:
    """The (n+1, L) limb array of the points `limb_chunks` yields, x_0 = 0 first.

    omega holds symbols 1..ell and step_values one B-bit integer per symbol.
    """
    out = np.zeros((len(omega) + 1, limbs(bits)), dtype=np.uint64)
    for s, e, rows in limb_chunks(omega, step_values, bits):
        out[s + 1:e + 1] = rows.T
    return out


def top64(omega: np.ndarray, step_values, bits: int) -> np.ndarray:
    """accumulate(omega, step_values, bits)[:, 0], the points' 64-bit truncations,
    without the (n+1, L) array: an (n+1,) uint64 column filled chunk by chunk."""
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
