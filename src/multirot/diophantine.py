"""Pigeonhole simultaneous approximation and the orbit separation diagnostic.

pigeonhole_approx finds, for reals beta_1..beta_r, the smallest k with
||k beta_j|| <= 1/(mn) for every j; existence inside [1, (mn)^r + 1] is
the pigeonhole argument on the (mn)^r subcubes of [0,1]^r.  The scan path
screens candidates with exact 64-bit fixed-point arithmetic and then
adjudicates each candidate with exact rational arithmetic, so the
returned k is truly minimal.  When the scan budget is exceeded, the
subcube-collision construction runs instead: it returns |k' - k|, which
satisfies the bound but need not be minimal (the result says which path
ran).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .exact.symbolic import SymbolicReal
from .fixedpoint import fp_from_fraction

K_SPACE_GUARD = 1 << 40
DEFAULT_SCAN_BUDGET = 1 << 23


def norm_dist(x):
    """Distance from x to the nearest integer, in [0, 1/2]; exact on rationals."""
    if isinstance(x, Fraction):
        frac = x - (x.numerator // x.denominator)
        return min(frac, 1 - frac)
    xf = float(x)
    frac = xf % 1.0
    return min(frac, 1.0 - frac)


def _as_fraction(beta) -> Fraction:
    if isinstance(beta, SymbolicReal):
        return beta.value()
    return Fraction(beta)


@dataclass(frozen=True)
class ApproxResult:
    k: int
    m: int
    n: int
    r: int
    achieved: tuple[Fraction, ...]   # ||k beta_j||, exact
    path: str                        # "scan" or "bucket"
    minimal: bool                    # scan path guarantees minimality
    bits: int

    def bound(self) -> Fraction:
        return Fraction(1, self.m * self.n)

    def k_space(self) -> int:
        return (self.m * self.n) ** self.r + 1


def pigeonhole_approx(
    betas,
    m: int,
    n: int,
    bits: int = 128,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
) -> ApproxResult:
    """Smallest k in [1, (mn)^r + 1] with ||k beta_j|| <= 1/(mn) for all j."""
    if m < 1 or n < 1:
        raise UsageError("m and n must be positive integers")
    fracs = [_as_fraction(b) for b in betas]
    r = len(fracs)
    if r < 1:
        raise UsageError("need at least one beta")
    mn = m * n
    k_max = mn**r + 1
    if k_max > K_SPACE_GUARD:
        raise UsageError(f"(mn)^r + 1 = {k_max} exceeds the 2^40 guard")
    if Fraction(1, 1 << (bits - 4)) >= Fraction(1, mn):
        raise UsageError("bits too small for the requested 1/(mn) target")
    bound = Fraction(1, mn)

    if k_max <= scan_budget:
        k = _scan_minimal(fracs, bound, k_max)
        path, minimal = "scan", True
    else:
        k = _bucket_collision(fracs, mn, r, k_max, bits)
        path, minimal = "bucket", False

    achieved = tuple(norm_dist(k * b) for b in fracs)
    slack = Fraction(1, 1 << (bits - 4))
    assert all(a <= bound + slack for a in achieved), "pigeonhole bound violated"
    return ApproxResult(k, m, n, r, achieved, path, minimal, bits)


def _scan_minimal(fracs: list[Fraction], bound: Fraction, k_max: int) -> int:
    """Linear scan with exact adjudication; screens in 64-bit fixed point.

    The screen threshold is inflated by the worst-case truncation drift
    k * 2**-64, so no true solution is screened out; every screened-in
    candidate is verified exactly in increasing order.
    """
    fp = np.array([fp_from_fraction(b, 64) for b in fracs], dtype=np.uint64)
    thr_exact = (bound.numerator << 64) // bound.denominator + 1 + k_max
    thr = np.uint64(min(thr_exact, 1 << 63))  # 2**63 accepts everything
    block = 1 << 18
    for start in range(1, k_max + 1, block):
        stop = min(start + block, k_max + 1)
        ks = np.arange(start, stop, dtype=np.uint64)
        # screen on the first beta, then test only the survivors
        v = ks * fp[0]  # uint64 wrap-around: exact mod 1 at 64 bits
        cand = ks[np.minimum(v, np.uint64(0) - v) <= thr]
        for f in fp[1:]:
            if cand.size == 0:
                break
            v = cand * f
            cand = cand[np.minimum(v, np.uint64(0) - v) <= thr]
        for k in cand:
            k = int(k)
            if all(norm_dist(k * b) <= bound for b in fracs):
                return k
    raise AssertionError("pigeonhole existence violated within (mn)^r + 1")


def _bucket_collision(fracs, mn: int, r: int, k_max: int, bits: int) -> int:
    """Subcube bucketing: first repeated cube index yields k = |k' - k''|.

    Runs at bits+48 working precision so the returned k meets the bound
    within the documented evaluation slack.
    """
    w = bits + 48
    mod = 1 << w
    fps = [fp_from_fraction(b, w) for b in fracs]
    state = [0] * r
    seen: dict[tuple, int] = {tuple(0 for _ in range(r)): 0}
    for k in range(1, k_max + 1):
        for j in range(r):
            state[j] = (state[j] + fps[j]) % mod
        idx = tuple((s * mn) >> w for s in state)
        if idx in seen:
            return k - seen[idx]
        seen[idx] = k
    raise AssertionError("pigeonhole collision missing within (mn)^r + 1")


# -- separation diagnostic -----------------------------------------------------

@dataclass(frozen=True)
class SeparationRow:
    k: int
    sup_norm: float
    n_argmax: int
    below_one_fifth: bool


@dataclass(frozen=True)
class SeparationReport:
    rows: tuple[SeparationRow, ...]
    n_points: int

    def flagged(self) -> list[int]:
        return [row.k for row in self.rows if row.below_one_fifth]


def kxn_separation(top: np.ndarray, k_min: int, k_max: int) -> SeparationReport:
    """For each k, max_n ||k x~_n|| over the available sequence.

    top is the sequence at 64-bit resolution, a uint64 array such as
    `ReducedOrbit.top64()`.  A finite-n maximum can only understate the
    true supremum, so entries below 1/5 are flagged as diagnostics, never
    as refutations.
    """
    top = np.asarray(top)
    if top.dtype != np.uint64 or top.ndim != 1:
        raise UsageError("separation needs a 1-d uint64 array of 64-bit points")
    if top.size == 0:
        raise UsageError("empty sequence")
    if k_min < 1 or k_min > k_max:
        raise UsageError("bad k range")
    rows = []
    scale = float(1 << 64)
    for k in range(k_min, k_max + 1):
        v = top * np.uint64(k)  # exact mod 2**64
        norms = np.minimum(v, np.uint64(0) - v)
        arg = int(norms.argmax())
        sup = float(norms[arg]) / scale
        rows.append(SeparationRow(k, sup, arg, sup < 0.2))
    return SeparationReport(tuple(rows), int(top.size))


def write_separation_csv(report: SeparationReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,sup_norm,n_argmax\n")
        for row in report.rows:
            fh.write(f"{row.k},{repr(row.sup_norm)},{row.n_argmax}\n")
