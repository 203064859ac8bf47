"""Self-similar IFSs: dimensions, separation, samples, embeddings, periods."""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import lcm, log

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    PI_250,
    REF_DIGITS,
    decimal_floor,
    exact_cos_sin_floor,
    grid_fractions,
    reference_attractor_sample,
    reference_check_affine_embedding_1d,
    reference_cos_sin,
    reference_cylinder_balls,
    reference_scan_cover,
    reference_unit_reals,
    turn_near_cos_grid,
)
from multirot import boxdim as bx
from multirot.errors import DomainError, GuardError, UsageError
from multirot.ifs import (
    CoverScreen,
    MAX_CYLINDERS,
    MAX_SAMPLE_POINTS,
    SimilarIFS,
    Similitude,
    Turn,
    attractor_sample,
    check_affine_embedding,
    cos_bracket,
    guard_power,
    orthogonal_power_period,
    pi_bracket,
    scan_cover,
    similarity_dimension,
    sqrt_down,
    sqrt_up,
    ssc_check,
)

F = Fraction

MIDDLE_THIRD = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 3), F(2, 3))])
NINTH_PAIR = SimilarIFS.line_maps([(F(1, 9), 0), (F(1, 9), F(8, 9))])


def in_middle_third_cantor(x: F, digits: int = 64) -> bool:
    """Base-3 digit membership oracle for the classical Cantor set."""
    if not (0 <= x <= 1):
        return False
    for _ in range(digits):
        x *= 3
        d = x.numerator // x.denominator
        if d == 1 and x != 1:
            return False
        x -= d
        if x == 0:
            return True
    return True  # undecided at depth; treat as inside for dyadic-free tests


# -- similarity dimension -----------------------------------------------------


def test_similarity_dimension_cantor():
    assert abs(similarity_dimension([F(1, 3), F(1, 3)]) - log(2) / log(3)) < 1e-13


def test_similarity_dimension_full_interval():
    assert abs(similarity_dimension([F(1, 2), F(1, 2)]) - 1.0) < 1e-13


def test_similarity_dimension_golden_case():
    # (1/4, 1/2): 2**-s solves x**2 + x = 1, so s = log2((1+sqrt5)/2)
    want = 0.6942419136306173
    assert abs(similarity_dimension([F(1, 4), F(1, 2)]) - want) < 1e-12


def test_similarity_dimension_residual_and_homogeneous():
    import random

    rng = random.Random(14)
    for _ in range(100):
        ell = rng.randint(1, 5)
        rhos = [F(rng.randint(1, 8), rng.randint(9, 24)) for _ in range(ell)]
        s = similarity_dimension(rhos)
        assert abs(sum(float(r) ** s for r in rhos) - 1) <= 1e-12
    for _ in range(50):
        rho = F(rng.randint(1, 6), rng.randint(7, 20))
        ell = rng.randint(1, 6)
        s = similarity_dimension([rho] * ell)
        assert abs(s - log(ell) / log(1 / float(rho))) <= 1e-12


def test_similarity_dimension_guards():
    with pytest.raises(UsageError):
        similarity_dimension([])
    with pytest.raises(DomainError):
        similarity_dimension([F(3, 2)])


# -- hulls and separation ---------------------------------------------------------


def test_middle_third_hull_and_ssc():
    lo, hi = MIDDLE_THIRD.hull().interval()
    assert (lo, hi) == (F(0), F(1))
    cert = ssc_check(MIDDLE_THIRD, 1)
    assert cert.certified and cert.delta == F(1, 3)


def test_touching_images_not_certified():
    ifs = SimilarIFS.line_maps([(F(1, 2), 0), (F(1, 2), F(1, 2))])
    for depth in (1, 3, 6):
        assert not ssc_check(ifs, depth).certified


def test_quarter_system_hull_and_gap():
    ifs = SimilarIFS.line_maps([(F(1, 4), 0), (F(1, 4), F(1, 2))])
    lo, hi = ifs.hull().interval()
    assert (lo, hi) == (F(0), F(2, 3))
    cert = ssc_check(ifs, 6)
    assert cert.certified and cert.delta >= F(1, 4)
    assert cert.delta == F(1, 3)  # exact gap between [0,1/6] and [1/2,2/3]


def test_ssc_delta_monotone_in_depth():
    ifs = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 4), F(3, 4))])
    deltas = [ssc_check(ifs, d).delta for d in range(1, 7)]
    assert all(d is not None for d in deltas)
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))


def test_reflected_map_hull():
    ifs = SimilarIFS.line_maps([(F(1, 3), F(1, 2), -1), (F(1, 3), F(2, 3))])
    lo, hi = ifs.hull().interval()
    img_lo = min(-F(1, 3) * hi + F(1, 2), F(1, 3) * lo + F(2, 3))
    assert img_lo >= lo and lo <= hi


# -- sampling ----------------------------------------------------------------------


def test_sample_middle_third_depths():
    assert [p[0] for p in attractor_sample(MIDDLE_THIRD, 1)] == [F(0), F(2, 3)]
    got = sorted(p[0] for p in attractor_sample(MIDDLE_THIRD, 2))
    assert got == [F(0), F(2, 9), F(2, 3), F(8, 9)]


def test_sample_counts_and_uniqueness_under_ssc():
    pts = attractor_sample(MIDDLE_THIRD, 10)
    assert len(pts) == 2**10
    assert len(set(pts)) == 2**10


def test_sample_guard():
    with pytest.raises(GuardError):
        attractor_sample(MIDDLE_THIRD, 25)


def test_depth_guards_cap_the_exponent():
    """A huge depth is refused without forming ell**depth (2**(10**9) would take 125 MB),
    and a one-map IFS, whose count stays 1, is refused past depth 64."""
    guard_power(1, 64, 1, "points")
    with pytest.raises(GuardError, match=r"^depth 65 of points exceeds the guard of 64$"):
        guard_power(1, 65, 1, "points")
    with pytest.raises(GuardError, match=r"^depth 1000000000 of points exceeds the guard of 64$"):
        guard_power(1, 10**9, 1, "points")
    guard_power(2, 16, MAX_CYLINDERS, "cylinders")
    log2 = MAX_SAMPLE_POINTS.bit_length() - 1
    with pytest.raises(GuardError, match=rf"^2\*\*1000000000 points exceed 2\*\*{log2}$"):
        guard_power(2, 10**9, MAX_SAMPLE_POINTS, "points")
    with pytest.raises(GuardError, match=r"^2\*\*17 cylinders exceed 2\*\*16$"):
        guard_power(2, 17, MAX_CYLINDERS, "cylinders")
    with pytest.raises(GuardError):
        attractor_sample(MIDDLE_THIRD, 10**9)
    with pytest.raises(GuardError):
        MIDDLE_THIRD.cylinder_balls(10**9)
    with pytest.raises(UsageError):
        MIDDLE_THIRD.cylinder_balls(0)  # the empty word has no first symbol


def test_sample_box_estimate_near_cantor_dimension():
    pts = [p[0] for p in attractor_sample(MIDDLE_THIRD, 12)]
    est = bx.box_dim_estimate(
        bx.covering_profile(bx.CirclePoints.from_unit_reals(pts), 4, 12)
    )
    assert abs(est.slope_global - log(2) / log(3)) < 0.05


# -- affine embedding checks --------------------------------------------------------


def test_embedding_ninth_pair_into_middle_third():
    """Digit oracle: the 1/9-pair writes base-3 digit pairs 00/22, inside E."""
    for p in attractor_sample(NINTH_PAIR, 6):
        assert in_middle_third_cantor(p[0])
    res = check_affine_embedding(1, 0, NINTH_PAIR, MIDDLE_THIRD, 8, tol=F(1, 3**8))
    assert res.contained and res.max_distance == 0


def test_embedding_shift_violates():
    res = check_affine_embedding(1, F(1, 2), MIDDLE_THIRD, MIDDLE_THIRD, 8)
    assert not res.contained
    assert res.witness is not None
    assert not in_middle_third_cantor(res.witness[0])


def test_embedding_identity_reflexive():
    for ifs in (MIDDLE_THIRD, NINTH_PAIR):
        res = check_affine_embedding(1, 0, ifs, ifs, 6)
        assert res.contained and res.max_distance == 0


def test_embedding_singular_matrix_rejected():
    with pytest.raises(DomainError):
        check_affine_embedding(0, 0, MIDDLE_THIRD, MIDDLE_THIRD, 4)


# ratio 1/q, shift p/d, sign
LINE_MAPS = st.lists(st.tuples(st.integers(2, 7), st.integers(-4, 4), st.integers(1, 5),
                               st.sampled_from([1, -1])), min_size=2, max_size=3)
NONZERO = st.builds(F, st.integers(1, 5).flatmap(lambda p: st.sampled_from([p, -p])),
                    st.integers(1, 5))


def line_ifs(specs):
    return SimilarIFS.line_maps([(F(1, q), F(p, d), sign) for q, p, d, sign in specs])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f_specs=LINE_MAPS, e_specs=LINE_MAPS, m=NONZERO,
       b=st.builds(F, st.integers(-5, 5), st.integers(1, 5)), depth=st.integers(1, 6),
       tol=st.sampled_from([None, F(0), F(1, 50), F(1, 3), F(-1, 7)]))
def test_line_embedding_check_matches_the_two_scan_reference(f_specs, e_specs, m, b, depth, tol):
    """The one scan gives the first offender as witness, as the second scan did."""
    f_ifs, e_ifs = line_ifs(f_specs), line_ifs(e_specs)
    got = check_affine_embedding(m, b, f_ifs, e_ifs, depth, tol)
    want = reference_check_affine_embedding_1d(m, b, f_ifs, e_ifs, depth, tol)
    assert got == want and repr(got) == repr(want)


# ratio p/q, shift, sign: signs and numerators other than 1 move the grid
GRID_MAPS = st.lists(
    st.tuples(st.integers(2, 9).flatmap(lambda q: st.builds(F, st.integers(1, q - 1), st.just(q))),
              st.builds(F, st.integers(-6, 6), st.integers(1, 7)), st.sampled_from([1, -1])),
    min_size=1, max_size=3)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(specs=GRID_MAPS, depth=st.integers(0, 8))
def test_line_sample_matches_the_per_map_reference(specs, depth):
    """The integer grid gives the Similitude.apply loop's points, in its order."""
    ifs = SimilarIFS.line_maps(specs)
    got = attractor_sample(ifs, depth)
    want = reference_attractor_sample(ifs, depth)
    assert got == want
    assert all(len(p) == 1 and type(p[0]) is F for p in got)
    xs, p = ifs.line_sample(depth)  # the grid form of the same points
    assert [(F(x, p),) for x in xs] == want


@settings(derandomize=True, max_examples=120, deadline=None)
@given(specs=GRID_MAPS, depth=st.integers(0, 7), rescale=st.booleans())
def test_line_sample_points_match_the_fraction_formula(specs, depth, rescale):
    """Unequal ratios and reflections: the integer floors of the grid sample are the
    Fraction formula's on attractor_sample's points, mod 1 and rescaled."""
    ifs = SimilarIFS.line_maps(specs)
    got = bx.CirclePoints.from_grid(*ifs.line_sample(depth), rescale).values.tolist()
    assert got == reference_unit_reals([p[0] for p in attractor_sample(ifs, depth)], rescale)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(specs=GRID_MAPS, depth=st.integers(1, 6))
def test_line_cylinders_match_the_per_word_reference(specs, depth):
    """The images of the hull's centre give the composed maps' balls, in word order, and
    the images of its ends their intervals and the SSC gap between first symbols."""
    ifs = SimilarIFS.line_maps(specs)
    want = reference_cylinder_balls(ifs, depth)
    assert ifs.cylinder_balls(depth) == want
    grid, den = ifs.line_cover(depth)
    assert [(F(lo, den), F(hi, den)) for lo, hi, _ in grid] == sorted(b.interval() for _, b in want)
    q = lcm(*(x.denominator for _, ball in want for x in ball.interval()))  # integer ends
    ends = [(g, *(x.numerator * (q // x.denominator) for x in ball.interval())) for g, ball in want]
    gaps = [max(lo, lo2) - min(hi, hi2) for g, lo, hi in ends for g2, lo2, hi2 in ends if g < g2]
    if gaps:  # with one map, ssc_check certifies the hull's diameter
        assert ssc_check(ifs, depth).delta == (F(min(gaps), q) if min(gaps) > 0 else None)


IRRATIONAL_TURN = "0.12724225184316786509" + "4" * 40
PLANAR_PAIRS = [
    [Similitude.plane(F(1, 4), F(0), (F(0), F(0))),
     Similitude.plane(F(1, 4), F(1, 4), (F(3, 4), F(0)))],
    [Similitude.plane(F(1, 3), IRRATIONAL_TURN, (F(0), F(0))),
     Similitude.plane(F(1, 4), F(1, 4), (F(3, 4), F(1, 5)))],
    # overlapping hull balls: inconclusive at depths 1 and 3, certified at 5
    [Similitude.plane(F(1, 2), IRRATIONAL_TURN, (F(0), F(0))),
     Similitude.plane(F(1, 2), F(1, 3), (F(1, 4), F(0)))],
]


@pytest.mark.parametrize("maps", PLANAR_PAIRS)
@pytest.mark.parametrize("depth", [1, 3, 5])
def test_planar_cylinders_match_the_per_word_reference(maps, depth):
    """Planar centres move only by cos and sin floored per map, not per composed
    turn: within 2**-180 of the composed maps', and the SSC verdict holds."""
    ifs, composed = SimilarIFS(maps), SimilarIFS(maps)
    want = reference_cylinder_balls(ifs, depth)
    got = ifs.cylinder_balls(depth)
    assert [(g, ball.radius) for g, ball in got] == [(g, ball.radius) for g, ball in want]
    for (_, a), (_, b) in zip(got, want):
        assert all(abs(x - y) <= F(1, 2**180) for x, y in zip(a.center, b.center))
    composed.cylinder_balls = lambda d: reference_cylinder_balls(composed, d)
    assert ssc_check(ifs, depth).certified == ssc_check(composed, depth).certified


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f_specs=LINE_MAPS, e_specs=LINE_MAPS, m=NONZERO,
       b=st.builds(F, st.integers(-5, 5), st.integers(1, 5)), depth=st.integers(1, 5),
       nudge=st.sampled_from([None, (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]))
def test_cover_screen_verdict_is_the_exact_one_or_none(f_specs, e_specs, m, b, depth, nudge):
    """Whenever the float screen answers, scan_cover agrees, also with tol at the
    exact largest distance or 2**-80 from it, or 2**-40 of it."""
    f_ifs, e_ifs = line_ifs(f_specs), line_ifs(e_specs)
    sample, cover = f_ifs.line_sample(depth), e_ifs.line_cover(depth)
    tol = e_ifs.rho_star**depth * e_ifs.hull().diameter
    if nudge is not None:
        far = scan_cover(m, b, sample, cover, tol).max_distance
        tol = far + F(nudge[0], 2**80) + far * F(nudge[1], 2**40)
    verdict = CoverScreen(sample, cover, tol).contained(m, b)
    assert verdict is None or verdict == scan_cover(m, b, sample, cover, tol).contained


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f_specs=LINE_MAPS, e_specs=LINE_MAPS, m=NONZERO,
       b=st.builds(F, st.integers(-5, 5), st.integers(1, 5)), depth=st.integers(1, 4),
       k=st.integers(0, 200), moves=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       nudge=st.sampled_from([None, 0, 1, -1]))
@example(f_specs=[(9, 0, 1, 1), (9, 8, 9, 1)], e_specs=[(3, 0, 1, 1), (3, 2, 3, 1)], m=F(1),
         b=F(0), depth=4, k=200, moves=(-1, 1), nudge=None)   # contained
@example(f_specs=[(9, 0, 1, 1), (9, 8, 9, 1)], e_specs=[(3, 0, 1, 1), (3, 2, 3, 1)], m=F(1),
         b=F(1, 2), depth=4, k=200, moves=(-1, 1), nudge=None)  # not contained
@example(f_specs=[(9, 0, 1, 1), (9, 8, 9, 1)], e_specs=[(3, 0, 1, 1), (3, 2, 3, 1)], m=F(1),
         b=F(1, 2), depth=4, k=200, moves=(-1, 1), nudge=0)   # the same, tol at its distance
def test_grid_scan_matches_the_fraction_scan(f_specs, e_specs, m, b, depth, k, moves, nudge):
    """The integer grid gives the Fraction scan's verdict, witness and largest distance
    for maps with denominators up to 9**200, also with tol at the exact largest
    distance or 2**-80 from it."""
    f_ifs, e_ifs = line_ifs(f_specs), line_ifs(e_specs)
    m, b = m + F(moves[0], 9**k), b + F(moves[1], 9**k)
    assume(m != 0)
    sample, cover = f_ifs.line_sample(depth), e_ifs.line_cover(depth)
    xs, intervals = grid_fractions(sample, cover)
    tol = e_ifs.rho_star**depth * e_ifs.hull().diameter
    if nudge is not None:
        tol = reference_scan_cover(m, b, xs, intervals, tol).max_distance + F(nudge, 2**80)
    got = scan_cover(m, b, sample, cover, tol)
    want = reference_scan_cover(m, b, xs, intervals, tol)
    assert got == want and repr(got) == repr(want)


# -- orthogonal parts -----------------------------------------------------------------


def test_period_signs():
    assert orthogonal_power_period(1) == 1
    assert orthogonal_power_period(-1) == 2


def test_period_rational_turns():
    assert orthogonal_power_period(Turn.of(F(1, 4))) == 4
    assert orthogonal_power_period(Turn.of(F(3, 5))) == 5
    assert orthogonal_power_period(Turn.of(F(0))) == 1


def test_period_irrational_turn():
    irr = "0.12724225184316786509" + "4" * 40
    assert orthogonal_power_period(Turn.of(irr)) == 1


# -- cos and sin floors ----------------------------------------------------------------

ULP = F(1, 1 << 192)
TURNS = st.fractions(0, 1, max_denominator=10**40).filter(lambda t: t < 1)


def reference_floors(t):
    return tuple(decimal_floor(v, 192) * ULP for v in reference_cos_sin(t % 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=TURNS)
def test_cos_sin_floors_match_the_decimal_reference(t):
    if (12 * t).denominator == 1:   # on the grid: only the exact values decide
        c, s = exact_cos_sin_floor(int(12 * t), 12)
        assert Turn.of(t).cos_sin() == (c * ULP, s * ULP)
    else:
        assert Turn.of(t).cos_sin() == reference_floors(t)


@pytest.mark.parametrize("n", [8, 12])
def test_cos_sin_floors_are_exact_at_eighth_and_twelfth_turns(n):
    """The rational values (Niven) and the square roots, from isqrt, on every lap."""
    for k in range(-n, 2 * n):
        c, s = exact_cos_sin_floor(k, n)
        assert Turn.of(F(k, n)).cos_sin() == (c * ULP, s * ULP), (k, n)


@pytest.mark.parametrize("t", [F(1, 7), F(3, 11), F(5, 9), F(7, 10)])
@pytest.mark.parametrize("offset", [F(1, 2**100), -F(1, 2**100), F(1, 2**180), -F(1, 2**180)])
def test_cos_sin_floors_just_off_the_grid(t, offset):
    """cos 2**192 within 2**-180 of an integer on either side, which the first
    bracket cannot decide, and sin at the mirrored turn."""
    near = turn_near_cos_grid(t, offset)
    want = reference_floors(near)[0]
    assert Turn.of(near).cos_sin()[0] == want
    assert Turn.of(F(1, 4) - near).cos_sin()[1] == want


NEXT_TO_RATIONAL = [base + sign * F(1, 2**k) for base in (F(0), F(1, 6), F(1, 4), F(1, 2))
                    for sign in (1, -1) for k in (3, 40, 100, 200)]


@pytest.mark.parametrize("t", NEXT_TO_RATIONAL, ids=str)
def test_cos_sin_floors_next_to_the_rational_values(t):
    """Near a rational value the Taylor remainder is most of the bracket."""
    assert Turn.of(t).cos_sin() == reference_floors(t)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(t=TURNS, w=st.sampled_from([64, 100, 256, 512]))
def test_cos_and_pi_brackets_hold_the_reference(t, w):
    t = min(t, 1 - t)
    lo, hi = cos_bracket(t, w)
    pi_lo, pi_hi = pi_bracket(w)
    with localcontext(Context(prec=REF_DIGITS + 10)):
        assert lo <= reference_cos_sin(t)[0] * 2**w <= hi and hi - lo < 2**15
        assert pi_lo <= Decimal(PI_250) * 2**w <= pi_hi and pi_hi - pi_lo < 2**13


def test_sqrt_brackets_are_one_sided():
    """floor(q 2**192) a perfect square with q above it: the upper bound still holds."""
    q = 4 + F(1, 2**193)
    assert sqrt_down(q) == 2 and sqrt_up(q) ** 2 >= q
    assert sqrt_down(F(9, 4)) == sqrt_up(F(9, 4)) == F(3, 2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(specs=GRID_MAPS)
def test_line_hull_is_the_interval_the_maps_fix(specs):
    """[m, M] = [min, max] of the maps' images of m and M, which only the hull satisfies."""
    ifs = SimilarIFS.line_maps(specs)
    m, big_m = ifs.hull().interval()
    images = [mp.apply((x,))[0] for mp in ifs.maps for x in (m, big_m)]
    assert (min(images), max(images)) == (m, big_m)


def test_planar_similitude_roundtrip():
    quarter = Similitude.plane(F(1, 2), F(1, 4), (F(1), F(0)))
    x = (F(1), F(1))
    y = quarter.apply(x)
    # quarter turn of (1,1) scaled by 1/2 then shifted: (1 - 1/2, 1/2)
    assert abs(y[0] - F(1, 2)) < F(1, 1 << 80)
    assert abs(y[1] - F(1, 2)) < F(1, 1 << 80)
    fourth = quarter.power(4)
    assert abs(fourth.ortho.value() - 0) < F(1, 1 << 80)
    fp = quarter.fixed_point()
    img = quarter.apply(fp)
    assert abs(img[0] - fp[0]) < F(1, 1 << 80)
    assert abs(img[1] - fp[1]) < F(1, 1 << 80)


def test_planar_ifs_ball_and_ssc():
    ifs = SimilarIFS(
        [
            Similitude.plane(F(1, 4), F(0), (F(0), F(0))),
            Similitude.plane(F(1, 4), F(1, 4), (F(3, 4), F(0))),
        ]
    )
    ball = ifs.hull()
    assert ball.radius > 0
    cert = ssc_check(ifs, 3)
    assert cert.certified and cert.delta > 0


def test_embedding_check_planar_reflexive_and_shifted():
    ifs = SimilarIFS(
        [
            Similitude.plane(F(1, 4), F(0), (F(0), F(0))),
            Similitude.plane(F(1, 4), F(0), (F(3, 4), F(0))),
        ]
    )
    ident = ((1, 0), (0, 1))
    res = check_affine_embedding(ident, (0, 0), ifs, ifs, 4)
    assert res.contained
    far = check_affine_embedding(ident, (50, 0), ifs, ifs, 4)
    assert not far.contained and far.witness is not None


def test_embedding_check_planar_singular():
    ifs = SimilarIFS([Similitude.plane(F(1, 4), F(0), (F(0), F(0)))])
    with pytest.raises(DomainError):
        check_affine_embedding(((1, 1), (2, 2)), (0, 0), ifs, ifs, 2)
