"""Point coding, the s_n trace, induced orbits, and the threshold table."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import ceil, log

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reference_sn_sequence
from multirot.cli.config import ExperimentConfig
from multirot.cli.runner import run_config
from multirot.embedtrace import (
    MAX_TRACE_N,
    MAX_TRACE_WORK,
    beta_string,
    build_instance,
    coding_of_point,
    dimension_chain_report,
    induced_orbit,
    induced_rank,
    induced_step_system,
    matrix_norms,
    sn_sequence,
    threshold_c,
    trace_work,
)
from multirot.errors import DomainError, GuardError, NotInAttractorError, UsageError
from multirot.exact.independence import qplus_independent_mod1
from multirot.exact.symbolic import BasisEntry, BasisTable
from multirot.ifs import CoverScreen, SimilarIFS, scan_cover

F = Fraction

MIDDLE_THIRD = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 3), F(2, 3))])
NINTH_PAIR = SimilarIFS.line_maps([(F(1, 9), 0), (F(1, 9), F(8, 9))])


def cantor_pair_instance(n_max=40):
    return build_instance(MIDDLE_THIRD, NINTH_PAIR, F(1), F(0), coding_len=n_max)


# -- coding ------------------------------------------------------------------


def test_coding_of_fixed_point_zero():
    assert coding_of_point(MIDDLE_THIRD, F(0), 6) == (1,) * 6


def test_coding_of_two_thirds():
    assert coding_of_point(MIDDLE_THIRD, F(2, 3), 3) == (2, 1, 1)


def test_coding_of_gap_point_errors():
    with pytest.raises(NotInAttractorError) as err:
        coding_of_point(MIDDLE_THIRD, F(1, 2), 4)
    assert err.value.depth == 1


def test_coding_right_endpoint():
    assert coding_of_point(MIDDLE_THIRD, F(1), 4) == (2, 2, 2, 2)


# -- instance building ------------------------------------------------------------


def test_instance_constants():
    inst = cantor_pair_instance()
    assert inst.gamma1 == F(1, 9)
    assert inst.ell_power == 1
    assert inst.delta == F(1, 3)
    assert inst.diam_e == 1 and inst.diam_f == 1
    assert inst.norm_upper == inst.norm_lower == 1
    assert inst.coding[:8] == (1,) * 8
    assert inst.ratio_lower_bound() == F(1, 9) * F(1, 3) / F(1, 3)  # = 1/9
    assert inst.ratio_upper_bound() == 1


def test_instance_requires_ssc():
    touching = SimilarIFS.line_maps([(F(1, 2), 0), (F(1, 2), F(1, 2))])
    with pytest.raises(UsageError):
        build_instance(touching, NINTH_PAIR, F(1), F(0))


def test_matrix_norms_planar():
    up, down = matrix_norms(((F(2), F(0)), (F(0), F(1, 2))), 2)
    assert abs(up - 2) < F(1, 1 << 64)
    assert abs(down - F(1, 2)) < F(1, 1 << 64)


# -- the s_n trace -----------------------------------------------------------------


def test_sn_is_ceil_n_over_two():
    """Digit oracle: 9**-k F fits in the depth-n cylinder iff 2k >= n."""
    inst = cantor_pair_instance()
    trace = sn_sequence(inst, 40, depth=6)
    assert trace.s_values() == [ceil(n / 2) for n in range(1, 41)]


def test_sn_ratios_and_bounds():
    inst = cantor_pair_instance()
    trace = sn_sequence(inst, 40, depth=6)
    for e in trace.entries:
        assert e.ratio == (F(1, 3) if e.n % 2 else F(1))
        assert e.lower_ok and e.upper_ok
    assert trace.all_within_bounds()
    assert trace.lower_bound == F(1, 9) and trace.upper_bound == 1


def test_sn_nondecreasing_on_other_instances():
    e_ifs = SimilarIFS.line_maps([(F(1, 4), 0), (F(1, 3), F(2, 3))])
    f_ifs = SimilarIFS.line_maps([(F(1, 16), 0), (F(1, 16), F(15, 16))])
    inst = build_instance(e_ifs, f_ifs, F(1, 2), F(0), coding_len=24)
    trace = sn_sequence(inst, 24, depth=7)
    s = trace.s_values()
    assert all(b >= a for a, b in zip(s, s[1:]))
    assert trace.all_within_bounds()


def test_sn_identity_instance_is_n():
    """F = E, M = 1, b = 0, psi_1 = phi_1: the cylinder equals the image."""
    inst = build_instance(MIDDLE_THIRD, MIDDLE_THIRD, F(1), F(0), coding_len=16)
    trace = sn_sequence(inst, 16, depth=5)
    assert trace.s_values() == list(range(1, 17))
    assert all(e.ratio == 1 for e in trace.entries)


def test_sn_coding_too_short():
    inst = cantor_pair_instance(n_max=10)
    with pytest.raises(UsageError):
        sn_sequence(inst, 11)


def word_map(ifs: SimilarIFS, word) -> tuple[F, F]:
    """(g, h) with phi_{w_1} o ... o phi_{w_k}(x) = g x + h, 0-based symbols."""
    g, h = F(1), F(0)
    for i in word:
        mp = ifs.maps[i]
        g, h = g * mp.ratio * mp.ortho, g * mp.shift[0] + h
    return g, h


@st.composite
def trace_instances(draw):
    """(instance, n_max, depth) of a d = 1 trace with ±1 signs in E and F.

    E has 2-3 maps, each inside its own slot of [0, 1), so E certifies SSC.
    Either F is made of E's length-2 words and M x + b is an E-word map, so
    M(F) + b lies in E; or F, M and b are free, with b chosen so that the
    embedded fixed point is a point of E.
    """
    ell = draw(st.integers(2, 3))
    specs = []
    for i in range(ell):
        r, sign = F(1, draw(st.integers(ell + 1, 5))), draw(st.sampled_from([1, -1]))
        specs.append((r, F(i, ell) + (r if sign < 0 else 0), sign))
    e_ifs = SimilarIFS.line_maps(specs)
    if draw(st.booleans()):
        words = draw(st.lists(st.tuples(st.integers(0, ell - 1), st.integers(0, ell - 1)),
                              min_size=2, max_size=3, unique=True))
        f_ifs = SimilarIFS.line_maps([(abs(g), h, 1 if g > 0 else -1)
                                      for g, h in (word_map(e_ifs, w) for w in words)])
        m, b = word_map(e_ifs, draw(st.lists(st.integers(0, ell - 1), max_size=1)))
    else:
        f_ifs = SimilarIFS.line_maps([
            (F(1, draw(st.integers(2, 6))), F(draw(st.integers(-3, 3)), draw(st.integers(1, 4))),
             draw(st.sampled_from([1, -1])))
            for _ in range(draw(st.integers(2, 3)))
        ])
        assume(f_ifs.hull().diameter > 0)
        p = draw(st.integers(1, 5).flatmap(lambda p: st.sampled_from([p, -p])))
        m = F(p, draw(st.integers(1, 5)))
        g, h = word_map(e_ifs, draw(st.lists(st.integers(0, ell - 1), min_size=1, max_size=3)))
        b = h / (1 - g) - m * f_ifs.maps[0].fixed_point()[0]  # y is phi_w's fixed point
    n_max = draw(st.integers(1, 6))
    inst = build_instance(e_ifs, f_ifs, m, b, coding_len=max(n_max, 8))
    return inst, n_max, draw(st.integers(1, 6))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=trace_instances())
def test_sn_sequence_matches_the_per_step_reference(case):
    """Carried psi_1**k and one scan per candidate give the trace of full checks."""
    inst, n_max, depth = case
    got = sn_sequence(inst, n_max, depth)
    want = reference_sn_sequence(inst, n_max, depth)
    assert got == want and repr(got) == repr(want)
    assert got.entries[-1].s_n <= trace_work(inst, n_max, depth)[0] + 1  # logs: off by one


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=trace_instances())
def test_sn_sequence_on_the_exact_scan_alone_matches_the_per_step_reference(case):
    """With the float screen declining every candidate, the integer scan decides them all."""
    inst, n_max, depth = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoverScreen, "contained", lambda self, m, b: None)
        got = sn_sequence(inst, n_max, depth)
    want = reference_sn_sequence(inst, n_max, depth)
    assert got == want and repr(got) == repr(want)


# -- the float screen and its exact fallbacks ----------------------------------------


def counted_scan_cover(monkeypatch) -> list[int]:
    """Count the exact scans sn_sequence runs; returns the one-element counter."""
    import multirot.embedtrace as et

    calls = [0]

    def scan(*args):
        calls[0] += 1
        return scan_cover(*args)

    monkeypatch.setattr(et, "scan_cover", scan)
    return calls


def test_default_pair_at_the_longest_trace_needs_no_exact_scan(monkeypatch):
    calls = counted_scan_cover(monkeypatch)
    inst = build_instance(MIDDLE_THIRD, NINTH_PAIR, F(1), F(0), coding_len=MAX_TRACE_N)
    trace = sn_sequence(inst, MAX_TRACE_N, 8)
    assert trace.s_values() == [ceil(n / 2) for n in range(1, MAX_TRACE_N + 1)]
    assert trace.exact_fallbacks == 0 and calls == [0]


def test_a_distance_exactly_at_tol_takes_the_exact_path(monkeypatch):
    """F's sample {0, 4/9} maps by 3 x to {0, 4/3}, at distance exactly tol = 1/3
    from E's depth-1 cover [0, 1/3], [2/3, 1]: the screen cannot tell, the scan
    says contained."""
    f_ifs = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 3), F(4, 9))])
    sample, cover, tol = ([0, 4], 9), MIDDLE_THIRD.line_cover(1), F(1, 3)
    assert CoverScreen(sample, cover, tol).contained(F(3), F(0)) is None
    assert scan_cover(F(3), F(0), sample, cover, tol).max_distance == tol
    calls = counted_scan_cover(monkeypatch)
    inst = build_instance(MIDDLE_THIRD, f_ifs, F(1), F(0), coding_len=8)
    trace = sn_sequence(inst, 6, depth=1)
    assert trace.exact_fallbacks >= 1 and calls == [trace.exact_fallbacks]
    assert trace.s_values()[0] == 0  # contained at k = 0, scan_cover's verdict
    assert trace == reference_sn_sequence(inst, 6, 1)


def test_a_sample_past_the_float_range_takes_the_exact_path(monkeypatch):
    """F scaled by 10**310 and M by 10**-310: the same trace, every candidate exact."""
    big = F(10**310)
    f_ifs = SimilarIFS.line_maps([(F(1, 9), 0), (F(1, 9), F(8, 9) * big)])
    assert not CoverScreen(([0, 10**310], 1), MIDDLE_THIRD.line_cover(4), F(1, 81)).ok
    calls = counted_scan_cover(monkeypatch)
    trace = sn_sequence(build_instance(MIDDLE_THIRD, f_ifs, 1 / big, F(0), coding_len=8), 8, 4)
    assert trace == sn_sequence(cantor_pair_instance(8), 8, 4)
    assert trace.exact_fallbacks == calls[0] > 0


def test_a_tol_within_four_float_errors_takes_the_exact_path(monkeypatch):
    """E shifted to [2**60, 2**60 + 1]: cover ends of 2**60 make the float error
    about 2**11, far past tol = 3**-4."""
    s = F(2**60)
    e_ifs = SimilarIFS.line_maps([(F(1, 3), 2 * s / 3), (F(1, 3), F(2, 3) + 2 * s / 3)])
    screen = CoverScreen(NINTH_PAIR.line_sample(4), e_ifs.line_cover(4), F(1, 81))
    assert screen.contained(F(1), s) is None
    calls = counted_scan_cover(monkeypatch)
    trace = sn_sequence(build_instance(e_ifs, NINTH_PAIR, F(1), s, coding_len=8), 8, 4)
    assert trace == sn_sequence(cantor_pair_instance(8), 8, 4)
    assert trace.exact_fallbacks == calls[0] > 0


NEAR_ONE = SimilarIFS.line_maps([(F(99, 100), 0), (F(99, 100), F(1, 100))])


def test_trace_work_guard_refuses_a_near_one_gamma_before_any_step(monkeypatch):
    """gamma_1 = 99/100 needs about 109 steps per level of E's middle thirds."""
    monkeypatch.setattr(SimilarIFS, "line_sample", None)  # the guard trips before the sample
    inst = build_instance(MIDDLE_THIRD, NEAR_ONE, F(1), F(0), coding_len=24)
    steps, work = trace_work(inst, 24, 4)
    assert steps == 2624 and work > MAX_TRACE_WORK
    with pytest.raises(GuardError, match="s_24 <= 2624 steps over 2\\*\\*4 points of F"):
        sn_sequence(inst, 24, depth=4)


def test_trace_work_admits_the_default_pair_at_the_longest_trace():
    inst = build_instance(MIDDLE_THIRD, NINTH_PAIR, F(1), F(0), coding_len=MAX_TRACE_N)
    steps, work = trace_work(inst, MAX_TRACE_N, 8)
    assert steps == 513 and work < MAX_TRACE_WORK  # s_n = ceil(n / 2), so s_1024 = 512


def test_trace_csv(tmp_path):
    """The embed handler's default pair is cantor_pair_instance's."""
    cfg = ExperimentConfig(kind="embed", out_dir=str(tmp_path), params={"n_max": 8, "depth": 5})
    assert run_config(cfg).exit_code == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 9
    assert lines[0] == "n,i_n,s_n,ratio,lower_bound_ok,upper_bound_ok"
    assert lines[1] == "1,1,1,1/3,true,true"
    assert lines[2] == "2,1,1,1/1,true,true"


# -- induced step systems ------------------------------------------------------------


def test_induced_commensurable_pair():
    """rho = (1/3, 1/3), gamma_1 = 1/9: alpha = (1/2, 1/2), finite orbit."""
    steps = induced_step_system([F(1, 3), F(1, 3)], F(1, 9))
    assert steps.r == 0 and steps.lam == 1
    assert [a.value() for a in steps.alphas] == [F(1, 2), F(1, 2)]
    inst = cantor_pair_instance()
    st, orbit = induced_orbit(inst, 24)
    assert st.r == 0
    assert len({orbit.point_fraction(k) for k in range(25)}) == 2


def test_induced_half_third_sixth():
    """rho = (1/2, 1/3), gamma_1 = 1/6: alpha_1 + alpha_2 = 1, dependent (1,1)."""
    steps = induced_step_system([F(1, 2), F(1, 3)], F(1, 6))
    vals = [a.value() for a in steps.alphas]
    assert abs(float(vals[0]) - log(2) / log(6)) < 1e-12
    assert abs(float(vals[1]) - log(3) / log(6)) < 1e-12
    assert (steps.alphas[0] + steps.alphas[1]).is_integer()
    verdict = qplus_independent_mod1(steps)
    assert not verdict.independent
    t = verdict.witness
    assert t[0] == t[1] > 0


def test_induced_log2_log3_independent():
    """rho = (1/2, 1/2), gamma_1 = 1/3: alpha = log2/log3 twice, Q+-independent."""
    steps = induced_step_system([F(1, 2), F(1, 2)], F(1, 3))
    assert steps.r == 1 and steps.lam == 1
    vals = [a.value() for a in steps.alphas]
    assert abs(float(vals[0]) - log(2) / log(3)) < 1e-12
    assert vals[0] == vals[1]
    assert qplus_independent_mod1(steps).independent


def test_induced_lambda_matches_exponent_rank():
    cases = [
        [F(1, 2), F(1, 3)],
        [F(1, 2), F(1, 2)],
        [F(1, 4), F(1, 2)],
        [F(1, 6), F(1, 2), F(1, 3)],
        [F(2, 9), F(1, 3)],
    ]
    for rhos in cases:
        steps = induced_step_system(rhos, F(1, 5))
        assert steps.lam == induced_rank(rhos)


# The induced basis strings, 60 significant digits of log rho / log gamma_1 with
# trailing zeros kept, as the mpmath evaluation wrote them.  They are the values
# of the induced orbit's steps, so they must not move.
PINNED_BETAS = [
    (([F(1, 2), F(1, 3)], F(1, 5)),
     ["0.430676558073393050670106568763965632069791932079760449321976",
      "0.682606194485985295134566359271052253024669399873167209660057"]),
    (([F(1, 2), F(1, 2)], F(1, 3)),
     ["0.630929753571457437099527114342760854299585640131880427870655"]),
    (([F(1, 3), F(1, 5), F(1, 7)], F(1, 11)),
     ["0.458156909991326222482218233892752618924619385624817328662319",
      "0.671187741471239638139900637318996823484985702413007869596910",
      "0.811507562957248939667950592940541238093980797952915838373300"]),
    (([F(2, 3), F(1, 13)], F(1, 2)),
     ["1.58496250072115618145373894394781650875981440769248106045575",
      "3.70043971814109216039681265425669473362843640179103736953846"]),
    (([F(4, 9), F(5, 7), F(1, 11)], F(3, 13)),
     ["2.55303124600375908715389464526186290160442095641581291887934",
      "0.229464455193837891825041809430073125797955074695429111733498",
      "1.63529608834855043134077646129805592836044493730897878459632"]),
    (([F(1, 6), F(1, 10), F(1, 14), F(1, 22), F(1, 26)], F(1, 13)),
     ["0.270238154427319741294108003450642294398644202313681149402782",
      "0.199156222043908670637595314902953841179735196635859259317765",
      "0.131180849883995643043961882965785889122285650065537413683402",
      "0.176216003028759635692996512823851466905445674490949415403962",
      "0.934870415988058630365328088613555774114097449576030705404950"]),
]
LOG_BASIS = BasisTable([
    BasisEntry("b0", "0.318309886183790671537767526745028724068919291480912897495335")])


@pytest.mark.parametrize("case, want", PINNED_BETAS, ids=str)
def test_induced_beta_strings_are_pinned(case, want):
    assert [e.value for e in induced_step_system(*case).alphas[0].table.entries] == want


def test_induced_beta_strings_with_a_declared_log_basis():
    """A ratio given by its declared log, -b0, next to a prime and on its own."""
    steps = induced_step_system([LOG_BASIS.symbol("b0", -1), F(1, 3)], F(1, 2))
    assert [e.value for e in steps.alphas[0].table.entries] == [
        "0.459224094263285171244098751297601485493909355593943302409449",
        "1.58496250072115618145373894394781650875981440769248106045575"]
    steps = induced_step_system([LOG_BASIS.real(F(-1, 7), {"b0": F(-2, 3)})], F(1, 5))
    assert [e.value for e in steps.alphas[0].table.entries] == [
        "0.220613501709638013320203415741210348456898002944237898299667"]


@pytest.mark.parametrize("x, want", [
    ("0.5", "0.500000000000000000000000000000000000000000000000000000000000"),
    ("2.5", "2.50000000000000000000000000000000000000000000000000000000000"),
    ("1.234e-5", "0.0000123400000000000000000000000000000000000000000000000000000000"),
    ("123456.5", "123456.500000000000000000000000000000000000000000000000000000"),
])
def test_beta_string_keeps_sixty_significant_digits(x, want):
    assert beta_string(Decimal(x)) == want


# -- threshold --------------------------------------------------------------------


def test_threshold_examples():
    assert threshold_c(2, 1) == F(1, 4)
    assert threshold_c(2, 5) == F(1, 4)
    assert threshold_c(3, 1) == F(1, 4)
    assert threshold_c(3, 2) == F(1, 6)


def test_threshold_full_table():
    for ell in range(2, 7):
        for lam in range(1, 6):
            c = threshold_c(ell, lam)
            if ell == 2 or lam == 1:
                assert c == F(1, 4)
            else:
                assert c == F(1, 2 * lam + 2)


def test_threshold_preconditions():
    with pytest.raises(UsageError):
        threshold_c(1, 1)
    with pytest.raises(UsageError):
        threshold_c(2, 0)


# -- dimension chain ------------------------------------------------------------------


def test_chain_commensurable_instance_trivially_satisfied():
    inst = cantor_pair_instance()
    report = dimension_chain_report(inst, 32, k_min=4, k_max=10)
    assert report.half_upper_box_estimate == 0.0
    assert report.inequality_satisfied
    assert abs(report.dim_e_similarity - log(2) / log(3)) < 1e-12


def test_matrix_norms_one_dim_exact_and_singular():
    up, down = matrix_norms(F(-3, 2), 1)
    assert up == down == F(3, 2)
    with pytest.raises(DomainError):
        matrix_norms(0, 1)


def test_sn_is_ceil_n_over_three_for_27_pair():
    """Base-27 digits 00 0/22 2: 27**-k F fits the depth-n cylinder iff 3k >= n."""
    from math import ceil

    f27 = SimilarIFS.line_maps([(F(1, 27), 0), (F(1, 27), F(26, 27))])
    inst = build_instance(MIDDLE_THIRD, f27, F(1), F(0), coding_len=30)
    trace = sn_sequence(inst, 30, depth=6)
    assert trace.s_values() == [ceil(n / 3) for n in range(1, 31)]
    assert trace.all_within_bounds()


def test_sn_with_scaling_map():
    """M = 1/3 pre-shrinks F once: 3**-(2k+1) F fits iff 2k + 1 >= n."""
    from math import ceil

    inst = build_instance(MIDDLE_THIRD, NINTH_PAIR, F(1, 3), F(0), coding_len=24)
    trace = sn_sequence(inst, 24, depth=6)
    assert trace.s_values() == [ceil((n - 1) / 2) for n in range(1, 25)]
    assert trace.all_within_bounds()
