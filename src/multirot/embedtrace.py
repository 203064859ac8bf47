"""From an affine embedding of one self-similar set into another to a
multi-rotation orbit.

Given M(F) + b inside an SSC-certified E, the embedded fixed point of
F's first map is coded inside E's cylinder tree; s_n is the least power
of psi_1 whose image, mapped by (M, b), fits in the depth-n coded
cylinder.  The ratios gamma_1**s_n / rho_word then live in an explicit
two-sided interval, and normalizing log-contraction ratios by log gamma_1
turns the coding into a circle orbit whose steps are exactly analyzable
by the independence machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import floor, log, log2, prod

from .boxdim import CirclePoints, box_dim_estimate, covering_profile
from .errors import DomainError, GuardError, NotInAttractorError, UsageError
from .exact.commensurability import log_rows
from .exact.linalg import common_denominator, hermite_row_basis, integer_coordinates, rank_rational
from .exact.symbolic import BasisEntry, BasisTable, SymbolicReal
from .ifs import (Ball, CoverScreen, SimilarIFS, Similitude, orthogonal_power_period,
                  scan_cover, sqrt_down, sqrt_up)
from .orbit.generate import Orbit, generate_orbit
from .orbit.steps import StepSystem, build_step_system
from .orbit.strategies import ExplicitWord

# Longest s_n trace; it also codes n_max levels of E.  With the float screen
# the default pair's trace took 0.005, 0.01, 0.03-0.06 and 0.07 s at n_max 24,
# 128, 512 and 1024 (2-core x86_64, Python 3.11); the same trace with every
# candidate left to the exact scan (E moved to [2**60, 2**60 + 1]) took 1.1 s.
MAX_TRACE_N = 1024
# Most trace_work a trace may estimate.  These are exact-scan costs, timed on
# that host with the screen declining every candidate: the default pair at
# n_max 1024 (4.3e8) 1.0 s, at depth 9 (8.5e8) 1.8 s; F = {99/100 x, 99/100 x
# + 1/100} at depth 4, n_max 16 (6.5e8) 0.9 s, n_max 24 (1.5e9) 1.7 s.
# Tests and the benchmark trace at most 2e5.
MAX_TRACE_WORK = 10**9
SSC_DEPTH = 6  # the depth of the SSC certificate build_instance asks of E


def matrix_norms(m, dimension: int) -> tuple[Fraction, Fraction]:
    """(largest, smallest) singular value; exact in d=1, bracketed in d=2.

    The large norm is rounded up and the small norm down, so downstream
    two-sided ratio bounds only ever widen.
    """
    if dimension == 1:
        v = abs(Fraction(m))
        if v == 0:
            raise DomainError("M must be invertible")
        return v, v
    ((a, b), (c, d)) = [[Fraction(x) for x in row] for row in m]
    det = a * d - b * c
    if det == 0:
        raise DomainError("M must be invertible")
    trace_gram = a * a + b * b + c * c + d * d
    disc = trace_gram * trace_gram - 4 * det * det
    lam_max = (trace_gram + sqrt_up(disc)) / 2
    lam_min = (trace_gram - sqrt_up(disc)) / 2
    return sqrt_up(lam_max), sqrt_down(max(lam_min, Fraction(0)))


# -- point coding --------------------------------------------------------------

def coding_of_point(e_ifs: SimilarIFS, y, n: int) -> tuple[int, ...]:
    """The word i_1..i_n with y inside each successive cylinder hull.

    Membership is tested with one refinement cell of slack; under SSC the
    surviving child is unique beyond that slack (ties pick the closer
    child, then the smaller symbol).  Raises NotInAttractorError with the
    failing depth when y escapes every child.
    """
    if isinstance(y, (tuple, list)):
        point = tuple(Fraction(c) for c in y)
    else:
        point = (Fraction(y),)
    hull = e_ifs.hull()
    word: list[int] = []
    comp: Similitude | None = None
    for depth in range(1, n + 1):
        # one refinement cell: a child cell of the depth-level cylinder
        slack = e_ifs.rho_star ** (depth + 1) * hull.diameter
        near = []
        for i, mp in enumerate(e_ifs.maps, 1):
            cand = mp if comp is None else comp.compose(mp)
            dist = Ball(cand.apply(hull.center), cand.ratio * hull.radius).distance(point)
            if dist <= slack:
                near.append((dist, i, cand))
        if not near:
            raise NotInAttractorError(depth)
        _, best, comp = min(near, key=lambda c: c[:2])
        word.append(best)
    return tuple(word)


# -- the embedding instance ------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingInstance:
    e_ifs: SimilarIFS
    f_ifs: SimilarIFS
    m: object                     # Fraction (d=1) or 2x2 rational matrix (d=2)
    b: tuple[Fraction, ...]
    ell_power: int                # l with psi_1 replaced by psi_1**l
    psi1: Similitude              # already the l-th power
    gamma1: Fraction
    delta: Fraction               # certified separation gap of E
    norm_upper: Fraction          # ||M||
    norm_lower: Fraction          # [[M]]
    diam_e: Fraction
    diam_f: Fraction
    y: tuple[Fraction, ...]
    coding: tuple[int, ...]

    def ratio_lower_bound(self) -> Fraction:
        """gamma_1 delta / (rho* ||M|| diam F); valid whenever s_n >= 1."""
        return self.gamma1 * self.delta / (self.e_ifs.rho_star * self.norm_upper * self.diam_f)

    def ratio_upper_bound(self) -> Fraction:
        return self.diam_e / (self.norm_lower * self.diam_f)


def build_instance(
    e_ifs: SimilarIFS,
    f_ifs: SimilarIFS,
    m,
    b,
    coding_len: int = 64,
) -> EmbeddingInstance:
    """Assemble the trace data for M(F) + b inside E (E must certify SSC)."""
    from .ifs import ssc_check

    if e_ifs.dimension != f_ifs.dimension:
        raise UsageError("E and F must share a dimension")
    # a one-point E has no separation gap for the trace to reach, and a
    # one-point F has no diameter to take ratios against
    for name, ifs in (("E", e_ifs), ("F", f_ifs)):
        if ifs.hull().diameter == 0:
            raise DomainError(f"{name} is a single point (its hull has diameter 0)")
    cert = ssc_check(e_ifs, SSC_DEPTH)
    if not cert.certified:
        raise UsageError("E must be SSC-certified for unique codings")
    ell_power = orthogonal_power_period(f_ifs.maps[0].ortho)
    psi1 = f_ifs.maps[0].power(ell_power)
    norm_upper, norm_lower = matrix_norms(m, e_ifs.dimension)
    b_vec = tuple(Fraction(c) for c in (b if isinstance(b, (tuple, list)) else (b,)))
    x = psi1.fixed_point()
    if e_ifs.dimension == 1:
        y = (Fraction(m) * x[0] + b_vec[0],)
    else:
        ((m00, m01), (m10, m11)) = [[Fraction(v) for v in row] for row in m]
        y = (m00 * x[0] + m01 * x[1] + b_vec[0], m10 * x[0] + m11 * x[1] + b_vec[1])
    coding = coding_of_point(e_ifs, y, coding_len)
    return EmbeddingInstance(
        e_ifs=e_ifs,
        f_ifs=f_ifs,
        m=m,
        b=b_vec,
        ell_power=ell_power,
        psi1=psi1,
        gamma1=psi1.ratio,
        delta=cert.delta,
        norm_upper=norm_upper,
        norm_lower=norm_lower,
        diam_e=e_ifs.hull().diameter,
        diam_f=f_ifs.hull().diameter,
        y=y,
        coding=coding,
    )


# -- the s_n trace ----------------------------------------------------------------

@dataclass(frozen=True)
class SnEntry:
    n: int
    i_n: int
    s_n: int
    ratio: Fraction               # gamma_1**s_n / rho_{i_1..i_n}
    lower_ok: bool                # vacuously true when s_n = 0
    upper_ok: bool


@dataclass(frozen=True)
class SnTrace:
    entries: tuple[SnEntry, ...]
    lower_bound: Fraction
    upper_bound: Fraction
    # candidates the float screen left to the exact scan_cover; no artifact holds it
    exact_fallbacks: int = field(default=0, compare=False, repr=False)

    def s_values(self) -> list[int]:
        return [e.s_n for e in self.entries]

    def all_within_bounds(self) -> bool:
        return all(e.lower_ok and e.upper_ok for e in self.entries)


def _then(g: Fraction, h: Fraction, mp: Similitude) -> tuple[Fraction, Fraction]:
    """(g', h') with g' x + h' = g mp(x) + h: x -> g x + h after the d=1 map mp."""
    return g * mp.ratio * mp.ortho, g * mp.shift[0] + h


def _log(q: Fraction) -> float:
    """log q from the logs of its numerator and denominator, which do not underflow."""
    return log(q.numerator) - log(q.denominator)


def trace_work(inst: EmbeddingInstance, n: int, depth: int) -> tuple[int, float]:
    """(K, work): a bound K on s_n, and about the bit operations of the trace up to n.

    K is the least k with ||M|| gamma_1**k diam F < rho_{i_1..i_{n-1}} delta, the
    diameter criterion, solved in logs (floats underflow) and so maybe off by one.
    Up to K scans each map F's ell**depth points by numbers as long as gamma_1**K
    and rho_{i_1..i_{n-1}} together; work is that product.
    """
    prefix = prod((inst.e_ifs.maps[i - 1].ratio for i in inst.coding[:n - 1]), start=Fraction(1))
    excess = _log(inst.norm_upper * inst.diam_f / (prefix * inst.delta))
    k = max(0, floor(excess / -_log(inst.gamma1)) + 1)
    points = inst.f_ifs.ell ** min(depth, 64)  # past 64 levels attractor_sample's guard trips
    bits = k * log2(inst.gamma1.numerator * inst.gamma1.denominator)
    return k, k * points * (bits + log2(prefix.numerator * prefix.denominator))


def sn_sequence(inst: EmbeddingInstance, n_max: int, depth: int = 8) -> SnTrace:
    """s_1..s_{n_max} with exact ratio bound verdicts.

    For each n the search resumes at s_{n-1} (cylinders are nested, so s_n
    is nondecreasing); each candidate k first tries the sufficient
    diameter criterion diam(M psi_1^k(F)) < rho_{i_1..i_{n-1}} delta, then
    the sample containment check against depth-refined cylinder hulls with
    one cell of slack: F's sample and E's cover are built once per trace,
    psi_1^k and the cylinder map are carried from step to step, and each
    candidate's exact map is decided by the float CoverScreen, or by
    scan_cover where the screen cannot prove the verdict (counted in
    exact_fallbacks).  A trace whose trace_work passes MAX_TRACE_WORK
    raises GuardError first.
    """
    if inst.e_ifs.dimension != 1:
        raise UsageError("the s_n trace is implemented for d = 1 instances")
    if n_max > MAX_TRACE_N:
        raise GuardError(f"trace length n_max={n_max} exceeds the guard of {MAX_TRACE_N}")
    if n_max > len(inst.coding):
        raise UsageError("coding shorter than requested trace length")
    steps, work = trace_work(inst, n_max, depth)
    if work > MAX_TRACE_WORK:
        raise GuardError(f"trace work: s_{n_max} <= {steps} steps over {inst.f_ifs.ell}**{depth} "
                         f"points of F come to {work:.3g} bit operations, past the guard of "
                         f"{MAX_TRACE_WORK:.0e}")
    sample, cover = inst.f_ifs.line_sample(depth), inst.e_ifs.line_cover(depth)
    tol = inst.e_ifs.rho_star**depth * inst.diam_e
    screen = CoverScreen(sample, cover, tol)
    fallbacks = 0

    m = Fraction(inst.m)
    lower, upper = inst.ratio_lower_bound(), inst.ratio_upper_bound()
    entries = []
    g, h = Fraction(1), Fraction(0)    # psi_1^k(x) = g x + h
    c_w, d_w = Fraction(1), Fraction(0)  # phi_{i_1..i_n}(x) = c_w x + d_w
    k = 0
    for n in range(1, n_max + 1):
        symbol = inst.coding[n - 1]
        rho_prefix = abs(c_w)          # rho_{i_1..i_{n-1}}
        c_w, d_w = _then(c_w, d_w, inst.e_ifs.maps[symbol - 1])

        # the sufficient diameter criterion, else containment with one cell of slack
        while inst.norm_upper * abs(g) * inst.diam_f >= rho_prefix * inst.delta:
            # pull M . psi_1^k into E-coordinates through the cylinder map
            slope, intercept = m * g / c_w, (m * h + inst.b[0] - d_w) / c_w
            contained = screen.contained(slope, intercept)
            if contained is None:
                fallbacks += 1
                contained = scan_cover(slope, intercept, sample, cover, tol).contained
            if contained:
                break
            k += 1
            g, h = _then(g, h, inst.psi1)
        ratio = abs(g / c_w)           # gamma_1**s_n / rho_{i_1..i_n}
        entries.append(SnEntry(n=n, i_n=symbol, s_n=k, ratio=ratio,
                               lower_ok=(k == 0) or ratio >= lower, upper_ok=ratio <= upper))
    return SnTrace(tuple(entries), lower, upper, fallbacks)


# -- induced orbit -----------------------------------------------------------------

# Working digits of the induced betas, and the significant digits written.
LOG_PRECISION = 70
BETA_DIGITS = 60


def log_real_value(key: tuple, tables: dict) -> Decimal:
    """The real number a log coordinate stands for, to LOG_PRECISION digits."""
    with localcontext(Context(prec=LOG_PRECISION)):
        if key == ("1",):
            return Decimal(1)
        if key[0] == "p":
            return Decimal(key[1]).ln()
        if key[0] == "b":
            v = tables[key[1]].value(key[1])
            return Decimal(v.numerator) / v.denominator
    raise AssertionError(f"unknown log coordinate {key}")


def beta_string(x: Decimal) -> str:
    """x rounded to BETA_DIGITS significant digits, trailing zeros kept, in plain
    decimal notation."""
    x = Context(prec=BETA_DIGITS).plus(x)
    return format(x, f".{max(0, BETA_DIGITS - 1 - x.adjusted())}f")


def induced_step_system(rhos, gamma1) -> StepSystem:
    """Steps alpha_i = log rho_i / log gamma_1 with exact expansion data.

    In log space every rational relation among 1, alpha_1..alpha_ell is a
    linear relation among the exponent vectors of gamma_1, rho_1..rho_ell,
    so the basis selection and all rank data are computed exactly; the
    beta values themselves are evaluated to LOG_PRECISION digits and
    written with BETA_DIGITS for the numeric lane.  (Division of two
    negative logarithms makes the alphas positive; gamma_1 = prod
    rho_i**t_i with t >= 0 nonzero is exactly the statement
    sum t_i alpha_i = 1.)
    """
    tables = {}
    for r in list(rhos) + [gamma1]:
        if isinstance(r, SymbolicReal):
            for label in r.coeffs:
                tables[label] = r.table
    keys, (v0, *vs) = log_rows([gamma1, *rhos])
    lead = next(i for i, c in enumerate(v0) if c != 0)

    qs = [v[lead] / v0[lead] for v in vs]
    ws = [[c - q * c0 for c, c0 in zip(v, v0)] for q, v in zip(qs, vs)]

    denom, int_rows = common_denominator(ws)
    hermite = hermite_row_basis(int_rows)

    with localcontext(Context(prec=LOG_PRECISION)):
        key_reals = {k: log_real_value(k, tables) for k in keys}
        log_gamma = sum(Decimal(c.numerator) / c.denominator * key_reals[k]
                        for c, k in zip(v0, keys) if c)
        # orient each basis row so the associated beta is positive
        beta_strs = []
        for j, row in enumerate(hermite):
            beta = sum(c * key_reals[k] for c, k in zip(row, keys) if c) / denom / log_gamma
            if beta < 0:
                hermite[j], beta = [-x for x in row], -beta
            beta_strs.append(beta_string(beta))

    labels = [f"beta{j+1}" for j in range(len(hermite))]
    table = BasisTable(BasisEntry(l, s, True) for l, s in zip(labels, beta_strs))
    alphas = []
    for q, row in zip(qs, int_rows):
        coords = integer_coordinates(hermite, row)
        if coords is None:
            # orientation flipped some rows; coordinates flip sign with them
            raise AssertionError("induced expansion must be integral")
        alphas.append(SymbolicReal(table, q, dict(zip(labels, coords))))
    return build_step_system(alphas)


def induced_rank(rhos) -> int:
    """dim span_Q(log rho_1..log rho_ell), exactly, from log vectors."""
    return rank_rational(log_rows(rhos)[1])


def induced_orbit(inst: EmbeddingInstance, length: int | None = None,
                  bits: int = 128) -> tuple[StepSystem, Orbit]:
    """The step system of the instance plus the orbit along its coding."""
    if length is None:
        length = len(inst.coding)
    if length > len(inst.coding):
        raise UsageError("coding shorter than requested orbit length")
    steps = induced_step_system([mp.ratio for mp in inst.e_ifs.maps], inst.gamma1)
    orbit = generate_orbit(steps, ExplicitWord(inst.coding[:length]), length, bits)
    return steps, orbit


# -- threshold and the dimension chain ----------------------------------------------

def threshold_c(ell: int, lam: int) -> Fraction:
    """The embedding-dimension threshold: 1/4, 1/4, or 1/(2 lambda + 2)."""
    if ell < 2 or lam < 1:
        raise UsageError("threshold needs ell >= 2 and lambda >= 1")
    if ell == 2 or lam == 1:
        return Fraction(1, 4)
    return Fraction(1, 2 * lam + 2)


@dataclass(frozen=True)
class ChainReport:
    dim_e_similarity: float
    half_upper_box_estimate: float
    inequality_satisfied: bool
    tolerance: float
    orbit_points: int
    caveat: str = (
        "similarity dimension equals Hausdorff dimension under OSC only; "
        "box estimates at finite n carry the stated tolerance"
    )


def dimension_chain_report(
    inst: EmbeddingInstance,
    orbit_length: int,
    k_min: int = 2,
    k_max: int = 12,
    tolerance: float = 0.1,
) -> ChainReport:
    """Compare dim E (similarity) against half the orbit's upper box estimate."""
    from .ifs import similarity_dimension

    dim_e = similarity_dimension(inst.e_ifs.ratios())
    _, orbit = induced_orbit(inst, orbit_length)
    pts = CirclePoints.from_orbit(orbit)
    est = box_dim_estimate(covering_profile(pts, k_min, k_max))
    half = est.upper_est / 2
    return ChainReport(
        dim_e_similarity=dim_e,
        half_upper_box_estimate=half,
        inequality_satisfied=dim_e >= half - tolerance,
        tolerance=tolerance,
        orbit_points=orbit.n,
    )
