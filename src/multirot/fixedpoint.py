"""B-bit fixed-point fractions on the circle.

A point of the circle is stored as an integer v in [0, 2**bits); it stands
for the rational v / 2**bits.  Addition mod 2**bits is exact, so rounding
error enters only when a real number is first quantized.
"""

from __future__ import annotations

from fractions import Fraction


def fp_from_fraction(x: Fraction, bits: int) -> int:
    """Quantize the fractional part of x to a B-bit circle point (floor)."""
    num, den = x.numerator, x.denominator
    return ((num << bits) // den) % (1 << bits)


def fp_top64(v: int, bits: int) -> int:
    """Truncate a B-bit circle point to the 64 most significant bits."""
    if bits == 64:
        return v
    if bits < 64:
        return v << (64 - bits)
    return v >> (bits - 64)
