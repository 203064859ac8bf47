"""Self-similar iterated function systems in dimension 1 and 2.

Dimension 1 is fully exact over the rationals.  Depth samples and cylinder
covers are integer numerators over one denominator, from one routine;
strong-separation certificates and affine containment scans compare those
integers and make a Fraction only for a result.  `CoverScreen` decides most
containment scans in float64 under a proven error bound, handing the rest
to the exact `scan_cover`.

Dimension 2 supports rotations (rational or declared-irrational turns).
Their cos and sin are the exact floors to multiples of 2**-192, from
integer brackets (a Machin pi and a Taylor series with its remainder)
widened until the floor is decided, and are then used as if exact.
Square roots are bracketed, but no radius absorbs the flooring error, so
planar separation certificates and containment checks are not yet
one-sided.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt, lcm, log
from operator import itemgetter

import numpy as np

from .errors import DomainError, GuardError, UsageError
from .exact.linalg import solve

SQRT_PREC_BITS = 96
# ell**depth guard of cylinder covers.  At the guard (middle thirds, depth 16),
# each in a process of its own, ssc_check took 0.10-0.12 s and line_cover
# 0.06-0.10 s, both at 40 MB peak RSS (2-core x86_64, Python 3.11).
MAX_CYLINDERS = 1 << 16
# ell**depth guard of attractor samples.  At 2**21 points (middle thirds at
# depth 21; for embed, an 8-map F at depth 7), each recipe in a process of its
# own (2-core x86_64, Python 3.11, numpy 2.4), the ifs recipe peaked at 902 MB
# in 15.3 s, boxdim's IFS route at 199 MB in 1.2 s and embed's F sample at
# 243 MB in 1.0 s.  At 2**22 the ifs recipe peaked at 1.8 GB in 31.6 s.
MAX_SAMPLE_POINTS = 1 << 21


# Deepest level any IFS recipe reaches.  ell**depth bounds every ell >= 2 far
# below it, but a one-map IFS has one point at every depth while its grid's
# denominator grows as q**depth for a ratio p/q: with the map 1/3:1/7, one
# process each (2-core x86_64, Python 3.11), the ifs recipe at sample_depth
# 2*10**5 and boxdim's IFS route at depth 2*10**5 each took 4-8 s, and
# boxdim's route at depth 10**6 took 97 s.
MAX_DEPTH = 64


def guard_power(ell: int, depth: int, limit: int, what: str) -> None:
    """GuardError when ell**depth, the count of `what`, exceeds limit, a power
    of two, or when depth exceeds MAX_DEPTH.

    The exponent is capped at MAX_DEPTH so a huge depth costs nothing: past
    64 levels every ell >= 2 exceeds both guards, and a one-map IFS, whose
    count never does, meets the depth guard.
    """
    if ell ** min(depth, MAX_DEPTH) > limit:
        raise GuardError(f"{ell}**{depth} {what} exceed 2**{limit.bit_length() - 1}")
    if depth > MAX_DEPTH:
        raise GuardError(f"depth {depth} of {what} exceeds the guard of {MAX_DEPTH}")


def sqrt_down(q: Fraction) -> Fraction:
    """floor(sqrt(q) 2**SQRT_PREC_BITS) / 2**SQRT_PREC_BITS."""
    if q < 0:
        raise DomainError("sqrt of a negative value")
    return Fraction(isqrt((q.numerator << (2 * SQRT_PREC_BITS)) // q.denominator),
                    1 << SQRT_PREC_BITS)


def sqrt_up(q: Fraction) -> Fraction:
    """Upper bound for sqrt(q): sqrt_down(q), or one step of 2**-SQRT_PREC_BITS above it."""
    down = sqrt_down(q)
    return down if down * down == q else down + Fraction(1, 1 << SQRT_PREC_BITS)


# -- orthogonal parts ---------------------------------------------------------

@dataclass(frozen=True)
class Turn:
    """Planar rotation angle as a fraction of a full turn.

    rational + sum(coeff * value(decimal)) turns; decimal components are
    declared irrational.  Exact addition keeps compositions honest.
    """

    rational: Fraction = Fraction(0)
    irrational: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, turn) -> "Turn":
        if isinstance(turn, Turn):
            return turn
        if isinstance(turn, str):
            return cls(Fraction(0), ((turn, 1),))
        return cls(Fraction(turn) % 1, ())

    def __add__(self, other: "Turn") -> "Turn":
        acc = dict(self.irrational)
        for label, c in other.irrational:
            acc[label] = acc.get(label, 0) + c
            if acc[label] == 0:
                del acc[label]
        return Turn((self.rational + other.rational) % 1, tuple(sorted(acc.items())))

    @property
    def is_rational(self) -> bool:
        return not self.irrational

    def value(self) -> Fraction:
        v = self.rational
        for label, c in self.irrational:
            v += c * Fraction(label)
        return v % 1

    def cos_sin(self) -> tuple[Fraction, Fraction]:
        """floor(cos(2 pi v) 2**192) / 2**192 and the same for sin, v = self.value()."""
        v = self.value()
        return _cos_floor(v), _cos_floor((Fraction(1, 4) - v) % 1)


# cos(2 pi t) at the t in [0, 1/2] where it is rational (Niven): these floors
# lie on the grid, so no bracket decides them
_RATIONAL_COS = {Fraction(0): 1, Fraction(1, 6): Fraction(1, 2), Fraction(1, 4): 0,
                 Fraction(1, 3): Fraction(-1, 2), Fraction(1, 2): -1}


@lru_cache(maxsize=1024)
def _cos_floor(turns: Fraction) -> Fraction:
    """floor(cos(2 pi turns) 2**192) / 2**192 for turns in [0, 1), from brackets
    twice as fine until both ends have the same floor."""
    t = min(turns, 1 - turns)
    if t in _RATIONAL_COS:
        return Fraction(_RATIONAL_COS[t])
    w = 256
    while True:
        lo, hi = (v >> (w - 192) for v in cos_bracket(t, w))
        if lo == hi:
            return Fraction(lo, 1 << 192)
        w *= 2


def pi_bracket(w: int) -> tuple[int, int]:
    """(lo, hi) around pi 2**w, from Machin's pi = 16 atan(1/5) - 4 atan(1/239).

    Each floored atan term is within 1 of the exact one, and once
    2**w / m**(2k+1) < 1 the alternating tail is below 1.
    """
    total = err = 0
    for coeff, m in ((16, 5), (-4, 239)):
        power, k = (1 << w) // m, 0
        while power:
            total += (-coeff if k % 2 else coeff) * (power // (2 * k + 1))
            power, k = power // (m * m), k + 1
        err += abs(coeff) * (k + 1)
    return total - err, total + err


def cos_bracket(t: Fraction, w: int) -> tuple[int, int]:
    """(lo, hi) around cos(2 pi t) 2**w for t in [0, 1/2].

    Brackets of x = 2 pi t and x**2 give each Taylor term x**(2k) / (2k)!
    from the last, floored below and ceiled above.  The sum stops at the
    first term bounded by k units; Lagrange's remainder, at most that term,
    widens both ends.
    """
    x_lo, x_hi = (2 * t.numerator * p for p in pi_bracket(w))
    x_lo, x_hi = x_lo // t.denominator, -(-x_hi // t.denominator)
    sq_lo, sq_hi = x_lo * x_lo >> w, -(-x_hi * x_hi >> w)
    a = b = lo = hi = 1 << w
    k = 1
    while True:
        div = (2 * k - 1) * 2 * k << w
        a, b = a * sq_lo // div, -(-b * sq_hi // div)
        if b <= k:
            return lo - b, hi + b
        lo, hi = (lo - b, hi - a) if k % 2 else (lo + a, hi + b)
        k += 1


# -- similitudes ---------------------------------------------------------------

@dataclass(frozen=True)
class Similitude:
    """x -> ratio * P x + shift with P a sign (d=1) or rotation (d=2)."""

    ratio: Fraction
    ortho: "int | Turn"
    shift: tuple[Fraction, ...]

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise DomainError(f"contraction ratio {self.ratio} outside (0,1)")
        if self.dimension == 1 and self.ortho not in (1, -1):
            raise UsageError("1-d orthogonal part must be +1 or -1")
        if self.dimension == 2 and not isinstance(self.ortho, Turn):
            raise UsageError("2-d orthogonal part must be a Turn")

    @property
    def dimension(self) -> int:
        return len(self.shift)

    @classmethod
    def line(cls, ratio, shift, sign: int = 1) -> "Similitude":
        return cls(Fraction(ratio), sign, (Fraction(shift),))

    @classmethod
    def plane(cls, ratio, turn, shift) -> "Similitude":
        return cls(Fraction(ratio), Turn.of(turn), (Fraction(shift[0]), Fraction(shift[1])))

    def apply(self, x: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        if self.dimension == 1:
            return (self.ratio * self.ortho * x[0] + self.shift[0],)
        c, s = self.ortho.cos_sin()
        rx = self.ratio * (c * x[0] - s * x[1]) + self.shift[0]
        ry = self.ratio * (s * x[0] + c * x[1]) + self.shift[1]
        return (rx, ry)

    def compose(self, inner: "Similitude") -> "Similitude":
        """self after inner: (self . inner)(x) = self(inner(x))."""
        if self.dimension != inner.dimension:
            raise UsageError("dimension mismatch")
        ratio = self.ratio * inner.ratio
        if self.dimension == 1:
            ortho = self.ortho * inner.ortho
        else:
            ortho = self.ortho + inner.ortho
        return Similitude(ratio, ortho, self.apply(inner.shift))

    def power(self, k: int) -> "Similitude":
        if k < 1:
            raise UsageError("power expects k >= 1")
        out = self
        for _ in range(k - 1):
            out = out.compose(self)
        return out

    def fixed_point(self) -> tuple[Fraction, ...]:
        if self.dimension == 1:
            return (self.shift[0] / (1 - self.ratio * self.ortho),)
        c, s = self.ortho.cos_sin()
        a, b = 1 - self.ratio * c, self.ratio * s
        det = a * a + b * b
        bx, by = self.shift
        return ((a * bx - b * by) / det, (b * bx + a * by) / det)


def orthogonal_power_period(part) -> int:
    """Smallest k with the closure of {P**(k j)} connected (d <= 2).

    d=1: +1 -> 1, -1 -> 2.  d=2: a rational turn p/q in lowest terms has
    order q; powers of an irrational turn are already dense in the rotation
    circle, so k = 1.
    """
    if part == 1:
        return 1
    if part == -1:
        return 2
    if isinstance(part, Turn):
        if not part.is_rational:
            return 1
        t = part.rational % 1
        return t.denominator if t != 0 else 1
    raise UsageError("orthogonal parts are supported for d <= 2 only")


# -- balls and IFSs -------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """Closed ball; in d=1 the interval [center - radius, center + radius]."""

    center: tuple[Fraction, ...]
    radius: Fraction

    @property
    def diameter(self) -> Fraction:
        return 2 * self.radius

    def interval(self) -> tuple[Fraction, Fraction]:
        (c,) = self.center
        return (c - self.radius, c + self.radius)

    def distance(self, point: tuple[Fraction, ...]) -> Fraction:
        """Distance from point to the ball: exact in d=1, rounded up in d=2."""
        if len(self.center) == 1:
            return max(Fraction(0), abs(point[0] - self.center[0]) - self.radius)
        d2 = sum((a - c) ** 2 for a, c in zip(point, self.center))
        return max(Fraction(0), sqrt_up(d2) - self.radius)


class SimilarIFS:
    """A finite family of contracting similitudes in dimension 1 or 2."""

    def __init__(self, maps: list[Similitude]):
        if not maps:
            raise UsageError("an IFS needs at least one map")
        d = maps[0].dimension
        if d not in (1, 2):
            raise UsageError("only dimensions 1 and 2 are supported")
        if any(m.dimension != d for m in maps):
            raise UsageError("all maps must share one dimension")
        self.maps = tuple(maps)
        self.dimension = d
        self.rho_star = max(m.ratio for m in maps)
        self._hull: Ball | None = None

    @classmethod
    def line_maps(cls, specs) -> "SimilarIFS":
        """specs: iterable of (ratio, shift) or (ratio, shift, sign)."""
        return cls([Similitude.line(*spec) for spec in specs])

    @property
    def ell(self) -> int:
        return len(self.maps)

    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(m.ratio for m in self.maps)

    def hull(self) -> Ball:
        if self._hull is None:
            self._hull = self._tight_interval() if self.dimension == 1 else self._invariant_ball()
        return self._hull

    def _tight_interval(self) -> Ball:
        """Exact attractor hull [m, M] = [min E, max E] by attainment-pattern search.

        m is the least low end and M the greatest high end of the images
        phi_i([m, M]).  Each choice of the two maps attaining them is a 2x2
        linear system in (m, M); the first solution with m <= M that every
        map keeps inside [m, M] is the hull, the unique interval so fixed.
        """
        def ends(mp):
            # ((a, b), (c, d)): phi([m, M]) = [a m + b M, c m + d M] + shift
            r, zero = mp.ratio, Fraction(0)
            return ((r, zero), (zero, r)) if mp.ortho > 0 else ((zero, -r), (-r, zero))

        for lo_map, hi_map in product(self.maps, repeat=2):
            (a, b), _ = ends(lo_map)
            _, (c, d) = ends(hi_map)
            sol = solve([[1 - a, -b], [-c, 1 - d]], [lo_map.shift[0], hi_map.shift[0]])
            if sol is None:
                continue
            m, big_m = sol
            if m <= big_m and all(m <= mp.apply((x,))[0] <= big_m
                                  for mp in self.maps for x in (m, big_m)):
                return Ball(((m + big_m) / 2,), (big_m - m) / 2)
        raise AssertionError("tight hull pattern search failed")

    def _invariant_ball(self) -> Ball:
        center = self.maps[0].fixed_point()
        radius = Fraction(0)
        for mp in self.maps:
            img = mp.apply(center)
            d2 = sum((a - b) ** 2 for a, b in zip(img, center))
            r = sqrt_up(d2) / (1 - mp.ratio)
            radius = max(radius, r)
        return Ball(center, radius)

    def _word_block(self, depth: int) -> int:
        """ell**(depth - 1): word i of the given depth starts with symbol i // block + 1."""
        if depth < 1:
            raise UsageError("depth must be >= 1")  # the empty word has no first symbol
        guard_power(self.ell, depth, MAX_CYLINDERS, "cylinders")
        return self.ell ** (depth - 1)

    def cylinder_balls(self, depth: int) -> list[tuple[int, Ball]]:
        """(first symbol, phi_w of the hull ball) for each word w of the given depth, in
        attractor_sample's order: centre phi_w(hull centre), radius rho_w * hull radius."""
        block = self._word_block(depth)
        hull = self.hull()
        radii = [hull.radius]
        for _ in range(depth):
            radii = [mp.ratio * r for mp in self.maps for r in radii]
        centres = _images(self.maps, hull.center, depth)
        return [(i // block + 1, Ball(c, r)) for i, (c, r) in enumerate(zip(centres, radii))]

    def line_cover(self, depth: int) -> tuple[list[tuple[int, int, int]], int]:
        """d=1: ((low, high, first symbol) of phi_w(hull) = [low / q, high / q] for each word
        w of the given depth, sorted; q); phi_w([lo, hi]) lies between phi_w(lo) and
        phi_w(hi), and both run on one grid (1/q) Z, so the sort compares integers."""
        block = self._word_block(depth)
        lo, hi = self.hull().interval()
        den = lcm(lo.denominator, hi.denominator)
        los, q = _line_numerators(self.maps, lo.numerator * (den // lo.denominator), den, depth)
        his, _ = _line_numerators(self.maps, hi.numerator * (den // hi.denominator), den, depth)
        return sorted((min(a, b), max(a, b), i // block + 1)
                      for i, (a, b) in enumerate(zip(los, his))), q

    def line_sample(self, depth: int) -> tuple[list[int], int]:
        """d=1: (xs, p) with x / p for x in xs the points attractor_sample(self, depth) lists."""
        guard_power(self.ell, depth, MAX_SAMPLE_POINTS, "points")
        (x0,) = self.maps[0].fixed_point()
        return _line_numerators(self.maps, x0.numerator, x0.denominator, depth)


# -- operations ------------------------------------------------------------------

def similarity_dimension(rhos) -> float:
    """The root s of sum rho_i**s = 1 (Moran equation), by bisection to 1e-14."""
    rhos = [Fraction(r) for r in rhos]
    if not rhos:
        raise UsageError("need at least one ratio")
    if any(not (0 < r < 1) for r in rhos):
        raise DomainError("ratios must lie in (0,1)")
    vals = [float(r) for r in rhos]
    lo = 0.0
    hi = max(1.0, log(len(vals)) / log(1.0 / max(vals)) + 1.0)

    def f(s):
        return sum(v**s for v in vals) - 1.0

    for _ in range(200):
        mid = (lo + hi) / 2
        if hi - lo < 1e-15:
            break
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class SSCResult:
    certified: bool
    delta: Fraction | None   # positive lower bound for the separation gap
    depth: int


def ssc_check(ifs: SimilarIFS, depth: int) -> SSCResult:
    """Certify strong separation from depth-refined cylinder covers.

    The reported delta lower-bounds min_{i != j} dist(phi_i(E), phi_j(E));
    it is nondecreasing in depth.  A non-positive gap at this depth is
    inconclusive, not a refutation.
    """
    if depth < 1:
        raise UsageError("depth must be >= 1")
    if ifs.ell == 1:
        return SSCResult(True, ifs.hull().diameter, depth)
    gap = None
    if ifs.dimension == 1:
        ends, q = ifs.line_cover(depth)
        last_hi: dict[int, int] = {}
        for lo, hi, g in ends:
            for other, ohi in last_hi.items():
                if other != g and (gap is None or lo - ohi < gap):
                    gap = lo - ohi
            last_hi[g] = max(last_hi.get(g, hi), hi)
        gap = None if gap is None else Fraction(gap, q)
    else:
        balls = ifs.cylinder_balls(depth)
        for a in range(len(balls)):
            ga, ba = balls[a]
            for b in range(a + 1, len(balls)):
                gb, bb = balls[b]
                if ga == gb:
                    continue
                d2 = sum((x - y) ** 2 for x, y in zip(ba.center, bb.center))
                cand = sqrt_down(d2) - ba.radius - bb.radius
                if gap is None or cand < gap:
                    gap = cand
    if gap is not None and gap > 0:
        return SSCResult(True, gap, depth)
    return SSCResult(False, None, depth)


def attractor_sample(ifs: SimilarIFS, depth: int) -> list[tuple[Fraction, ...]]:
    """{phi_w(x0) : |w| = depth} for x0 the first map's fixed point.

    x0 lies in the attractor, so every sample is a genuine attractor point;
    coordinates are exact when inputs are rational.  The points come level
    by level, map-major: level L + 1 lists phi_1 of every level-L point,
    then phi_2 of every one, and so on.  `SimilarIFS.line_sample` is the
    d = 1 grid form.
    """
    guard_power(ifs.ell, depth, MAX_SAMPLE_POINTS, "points")
    return _images(ifs.maps, ifs.maps[0].fixed_point(), depth)


def _images(maps, x0: tuple[Fraction, ...], depth: int) -> list[tuple[Fraction, ...]]:
    """{phi_w(x0) : |w| = depth}, level by level and map-major, as attractor_sample lists them:
    d=2 applies each map to each point, d=1 makes one Fraction per point of _line_numerators."""
    if maps[0].dimension == 2:
        pts = [x0]
        for _ in range(depth):
            pts = [mp.apply(x) for mp in maps for x in pts]
        return pts
    nums, q = _line_numerators(maps, x0[0].numerator, x0[0].denominator, depth)
    return [(Fraction(n, q),) for n in nums]


def _line_numerators(maps, num: int, den: int, depth: int) -> tuple[list[int], int]:
    """d=1: (ns, q) with n / q for n in ns the points _images lists from x0 = num / den.

    With B the lcm of the ratios' denominators and D that of the shifts',
    level L lies on the grid (1/Q_L) Z for Q_L = den D B**L:
    phi_i(n / Q_L) = (sign_i a_i (B / b_i) n + c_i (D / d_i) den B**(L+1)) / Q_(L+1)
    for ratio a_i / b_i and shift c_i / d_i.
    """
    big_b = lcm(*(mp.ratio.denominator for mp in maps))
    big_d = lcm(*(mp.shift[0].denominator for mp in maps))
    slopes = [mp.ortho * mp.ratio.numerator * (big_b // mp.ratio.denominator) for mp in maps]
    offsets = [mp.shift[0].numerator * (big_d // mp.shift[0].denominator) for mp in maps]
    unit = den                               # Q_L / D
    nums = [num * big_d]
    for _ in range(depth):
        unit *= big_b
        nums = [a * n + t for a, t in zip(slopes, [c * unit for c in offsets]) for n in nums]
    return nums, unit * big_d


@dataclass(frozen=True)
class EmbeddingCheck:
    contained: bool
    witness: tuple[Fraction, ...] | None   # first sample point breaking the tolerance
    max_distance: Fraction                 # to the depth-refined cover of E
    tol: Fraction


def check_affine_embedding(m, b, f_ifs: SimilarIFS, e_ifs: SimilarIFS,
                           depth: int, tol: Fraction | None = None) -> EmbeddingCheck:
    """Does M x + b map F into E, as far as depth-refined covers can tell?

    Every depth-sample of F is mapped and measured against E's depth
    cylinder covers.  "Contained" is resolution-limited evidence; any
    sample at positive distance from the cover proves non-containment,
    because the cover contains E.  Default tolerance is one refinement
    cell of E.  The witness is, in d=1, the first sample farther than tol
    from the cover (scan_cover) and, in d=2, the farthest sample.
    """
    d = e_ifs.dimension
    if f_ifs.dimension != d:
        raise UsageError("dimension mismatch between F and E")
    if d == 1:
        m, b = Fraction(m), Fraction(b)
        det = m
    else:
        ((m00, m01), (m10, m11)) = [[Fraction(x) for x in row] for row in m]
        b0, b1 = Fraction(b[0]), Fraction(b[1])
        det = m00 * m11 - m01 * m10
    if det == 0:
        raise DomainError("M must be invertible")

    if tol is None:
        tol = e_ifs.rho_star**depth * e_ifs.hull().diameter
    if d == 1:
        return scan_cover(m, b, f_ifs.line_sample(depth), e_ifs.line_cover(depth), tol)

    samples = attractor_sample(f_ifs, depth)
    covers = e_ifs.cylinder_balls(depth)
    max_dist = Fraction(0)
    witness = None
    for x in samples:
        y = (m00 * x[0] + m01 * x[1] + b0, m10 * x[0] + m11 * x[1] + b1)
        best = min(ball.distance(y) for _, ball in covers)
        if best > max_dist:
            max_dist, witness = best, y
    return EmbeddingCheck(max_dist <= tol, witness if max_dist > tol else None, max_dist, tol)


def scan_cover(m: Fraction, b: Fraction, sample, cover, tol: Fraction) -> EmbeddingCheck:
    """d=1: each point x / p of sample = (xs, p) mapped by m x + b and measured against
    the two intervals of cover = (ends, q), [lo / q, hi / q] for (lo, hi, _) in sorted
    ends, whose low ends bracket it.  The witness is the first point farther than tol.

    On the grid 1/(q t), t = p times the denominators of m and b, an image is
    a x + c and a low end lo t, and lo t <= a x + c exactly when lo <= (a x + c) // t.
    """
    (xs, p), (ends, q) = sample, cover
    t = p * m.denominator * b.denominator
    a, c = q * m.numerator * b.denominator, q * b.numerator * m.denominator * p
    bound = tol.numerator * q * t // tol.denominator  # dist / (q t) > tol iff dist > bound
    far, witness = 0, None
    for x in xs:
        y = a * x + c
        i = bisect_right(ends, y // t, key=itemgetter(0))
        dist = min(max(0, lo * t - y, y - hi * t) for lo, hi, _ in ends[max(i - 1, 0):i + 1])
        far = max(far, dist)
        if witness is None and dist > bound:
            witness = (Fraction(y, q * t),)
    return EmbeddingCheck(far <= bound, witness, Fraction(far, q * t), tol)


# Unit roundoff of float64 (round to nearest), the smallest normal float64,
# and the range of magnitudes CoverScreen works in: above it a sum could
# overflow, below it an underflowing product's error would not be negligible.
_UNIT = 2.0**-53
_MIN_NORMAL = 2.0**-1022
_MIN_SCALE, _MAX_SCALE = 2.0**-960, 2.0**1000


def _floats(nums: list[int], den: int) -> np.ndarray | None:
    """float64 of each n / den, each within _UNIT |n / den| (int / int is one correctly
    rounded division); None when one overflows or is subnormal."""
    try:
        out = np.array([n / den for n in nums], dtype=np.float64)
    except OverflowError:
        return None
    if any(nums[i] != 0 for i in np.flatnonzero(np.abs(out) < _MIN_NORMAL)):
        return None
    return out


class CoverScreen:
    """d=1: scan_cover's `contained` verdict for many maps of one sample, in float64.

    The sample and the cover, as scan_cover takes them, are converted once;
    `contained(m, b)` converts m and b, maps every point with one multiply-add
    and one searchsorted over the low ends, and takes the two-bracket distance
    in floats.  It returns True or False only where the exact verdict is
    proven equal, and None, for the caller to run scan_cover, everywhere else.

    The proof.  Let u = 2**-53 and S the float sum |m| max|x| + |b| +
    max|cover end| + tol, computed from the converted values; err = 16 u S.
    Every input converts within u (1 + u) of its own float magnitude (none
    is subnormal), and S >= 2**-960 keeps an underflowing product's error
    below 2**-1075 <= 2**-115 S.  Then the computed y = fl(fl(m x) + b)
    lies within 4.1 u (|m| |x| + |b|) + 2**-1074 of the exact image, and
    each computed difference fl(y - hi), fl(lo - y) within 5.3 u S + 3 *
    2**-1075 <= 5.4 u S of the exact one; max and min add nothing, so the
    float distance is within e = 5.4 u S <= err / 2 of the exact distance
    whenever the float bracket is the exact one.  The float bracket is the
    exact one unless y is within e of a low end (its float distance to the
    nearest low end is at most e); then both distances are at most 2 e,
    because the exact two-bracket distance is at most the distance to the
    nearest low end.  With tol > 4 err, fl(tol + err) - e > tol and
    fl(tol - err) + e < tol, the rounding of tol and of both sums included.
    So a float maximum above fl(tol + err) belongs to an exactly bracketed
    point farther than tol (not contained), and one below fl(tol - err)
    puts every point within tol (contained).  Overflow, a subnormal input,
    S outside [2**-960, 2**1000] and tol <= 4 err all return None.
    """

    def __init__(self, sample, cover, tol: Fraction):
        ends, q = cover
        self.xs = _floats(*sample)
        self.los = _floats([lo for lo, _, _ in ends], q)
        his = _floats([hi for _, hi, _ in ends], q)
        tol_f = _floats([tol.numerator], tol.denominator)
        self.ok = (self.xs is not None and self.los is not None and his is not None
                   and tol_f is not None and tol > 0)
        if not self.ok:
            return
        self.tol = float(tol_f[0])
        # sentinels: past the last low end and before the first high end
        self.lo_next = np.append(self.los, np.inf)
        self.hi_prev = np.insert(his, 0, -np.inf)
        self.x_max = float(np.abs(self.xs).max())
        self.fixed = max(float(np.abs(self.los).max()), float(np.abs(his).max())) + self.tol

    def contained(self, m: Fraction, b: Fraction) -> bool | None:
        map_f = _floats([m.numerator * b.denominator, b.numerator * m.denominator],
                        m.denominator * b.denominator) if self.ok else None
        if map_f is None:
            return None
        mf, bf = float(map_f[0]), float(map_f[1])
        scale = abs(mf) * self.x_max + abs(bf) + self.fixed
        err = 16 * _UNIT * scale
        if not (_MIN_SCALE <= scale <= _MAX_SCALE and self.tol > 4 * err):
            return None
        y = mf * self.xs + bf
        i = np.searchsorted(self.los, y, side="right")
        far = float(np.minimum(np.maximum(y - self.hi_prev[i], 0.0), self.lo_next[i] - y).max())
        if far > self.tol + err:
            return False
        if far < self.tol - err:
            return True
        return None
