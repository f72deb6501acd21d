import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from dissdim import exponents as ex

INF = math.inf


def terms(report):
    return [value for _, value in report.terms]


class TestEulerExponent:
    def test_bounded_convention_d3(self):
        rep = ex.euler_exponent(ex.IntegrabilityClass(3, INF, INF), 1)
        assert terms(rep) == [3, 3]
        assert rep.s == 3
        assert rep.convention_applied == "q=inf,r=inf"

    def test_bounded_convention_d2(self):
        rep = ex.euler_exponent(ex.IntegrabilityClass(2, INF, INF), 1)
        assert rep.s == 2

    def test_finite_exponents(self):
        # direct re-evaluation of the two-term formula:
        # d(r-2)/r - alpha*2/q = 3*4/6 - 2*2/6 = 4/3
        # d(r-3)/r - 1 + alpha*(q-3)/q = 3*3/6 - 1 + 2*3/6 = 3/2
        rep = ex.euler_exponent(ex.IntegrabilityClass(3, F(6), F(6)), F(2))
        assert terms(rep) == [F(4, 3), F(3, 2)]
        assert rep.s == F(4, 3)

    def test_rejects_small_exponents(self):
        with pytest.raises(ex.RegimeError):
            ex.IntegrabilityClass(3, 2, 6)
        with pytest.raises(ex.RegimeError):
            ex.IntegrabilityClass(3, 6, 2.9)
        with pytest.raises(ex.RegimeError):
            ex.euler_exponent(ex.IntegrabilityClass(3, 6, 6), 0)
        with pytest.raises(ex.RegimeError):
            ex.euler_exponent(ex.IntegrabilityClass(3, 6, 6), -1)

    def test_rejects_a_dimension_below_1_and_a_nan_exponent(self):
        with pytest.raises(ex.RegimeError, match="integer >= 1, got 0"):
            ex.IntegrabilityClass(0, INF, INF)
        with pytest.raises(ex.RegimeError, match="real number or \\+inf, got nan"):
            ex.IntegrabilityClass(3, math.nan, INF)

    def test_vacuous_flag_not_error(self):
        rep = ex.euler_exponent(ex.IntegrabilityClass(2, 3, 3), F(1, 100))
        assert rep.s < 0
        assert rep.vacuous


class TestEulerOptimal:
    def test_bounded_case(self):
        for d in (2, 3, 4):
            rep = ex.euler_optimal(ex.IntegrabilityClass(d, INF, INF))
            assert rep.s == d
            assert rep.alpha == 1

    def test_uniform_in_time_case(self):
        rep = ex.euler_optimal(ex.IntegrabilityClass(3, INF, F(9, 2)))
        assert rep.alpha == F(5, 3)
        assert rep.s == F(5, 3)

    def test_d2_r6(self):
        rep = ex.euler_optimal(ex.IntegrabilityClass(2, INF, F(6)))
        assert rep.alpha == F(4, 3)
        assert rep.s == F(4, 3)

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("q", [F(3), F(4), F(6), F(9), F(100), INF])
    @pytest.mark.parametrize("r", [F(3), F(4), F(6), F(9), F(100), INF])
    def test_terms_balance_exactly(self, d, q, r):
        rep = ex.euler_optimal(ex.IntegrabilityClass(d, q, r))
        t1, t2 = terms(rep)
        assert t1 == t2
        assert rep.s == t1

    def test_monotone_in_q_and_r(self):
        grid = [F(3), F(4), F(6), F(9), F(100), INF]
        for d in range(1, 11):
            for q in grid:
                svals = [ex.euler_optimal(ex.IntegrabilityClass(d, q, r)).s for r in grid]
                assert all(a <= b for a, b in zip(svals, svals[1:]))
            for r in grid:
                svals = [ex.euler_optimal(ex.IntegrabilityClass(d, q, r)).s for q in grid]
                assert all(a <= b for a, b in zip(svals, svals[1:]))

    def test_agrees_with_conservation_law_when_bounded(self):
        for d in (1, 2, 3, 5):
            claw = ex.conservation_law_exponent(d, INF)
            assert claw.s == d
            if d >= 2:
                eo = ex.euler_optimal(ex.IntegrabilityClass(d, INF, INF))
                assert (eo.s, eo.alpha) == (claw.s, claw.alpha)


class TestUnboundedPressure:
    def test_d3_q3(self):
        rep = ex.euler_unbounded_pressure(ex.IntegrabilityClass(3, F(3), INF))
        assert rep.s == 2
        assert rep.alpha == F(3, 2)
        assert rep.open_exponent

    def test_d2_q5(self):
        rep = ex.euler_unbounded_pressure(ex.IntegrabilityClass(2, F(5), INF))
        assert rep.s == F(3, 2)
        assert rep.alpha == F(5, 4)

    def test_large_q_limit_matches_bounded_case(self):
        rep = ex.euler_unbounded_pressure(ex.IntegrabilityClass(3, 10.0 ** 9, INF))
        assert abs(rep.s - 3) < 1e-8
        assert abs(rep.alpha - 1) < 1e-8

    def test_rejects_finite_r(self):
        with pytest.raises(ex.RegimeError):
            ex.euler_unbounded_pressure(ex.IntegrabilityClass(3, 4, 6))
        with pytest.raises(ex.RegimeError):
            ex.euler_unbounded_pressure(ex.IntegrabilityClass(3, INF, INF))


class TestConservationLaw:
    def test_bounded(self):
        assert ex.conservation_law_exponent(1, INF).s == 1

    def test_d3_r3(self):
        assert ex.conservation_law_exponent(3, F(3)).s == F(5, 2)

    def test_boundary_r(self):
        assert ex.conservation_law_exponent(2, F(3, 2)).s == 0

    def test_rejects_below_boundary(self):
        with pytest.raises(ex.RegimeError):
            ex.conservation_law_exponent(2, F(149, 100))

    def test_alpha_isotropic(self):
        assert ex.conservation_law_exponent(3, F(4)).alpha == 1


class TestNavierStokes:
    def test_prodi_serrin_locus_terms_equal(self):
        # 2/q + d/r = 1 exactly: all three terms equal d - 2
        cases = [(3, F(4), F(6)), (3, F(8), F(4)), (2, F(6), F(3)), (4, F(4), F(8))]
        for d, q, r in cases:
            assert F(2, 1) / q + F(d, 1) / r == 1
            rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(d, q, r), F(2))
            assert terms(rep) == [d - 2] * 3
            assert rep.s == d - 2

    def test_bounded_convention(self):
        rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(3, INF, INF), 2)
        assert rep.s == 3
        assert min(terms(rep)) == min(3, 3 - 2 + 2)

    def test_parabolic_closed_form_crosscheck(self):
        # alpha = 2 with 2/q + d/r >= 1 collapses to d+1 - 3(d/r + 2/q)
        d, q, r = 3, F(4), F(4)
        rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(d, q, r), F(2))
        closed = d + 1 - 3 * (F(d, 1) / r + F(2, 1) / q)
        assert F(2, 1) / q + F(d, 1) / r >= 1
        assert rep.s == closed == F(1, 4)

    def test_negative_s_reported_not_raised(self):
        rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(3, F(3), F(3)), F(2))
        assert rep.vacuous
        assert rep.s < 0

    def test_laplacian_subordinate_at_optimal_alpha(self):
        # with alpha balancing the first two terms and 2/q + d/r >= 1, the
        # third (laplacian) term dominates the shared value
        grid = [F(3), F(4), F(6), F(9), INF]
        for d in (2, 3, 4):
            for q in grid:
                for r in grid:
                    two_q = 0 if q == INF else F(2, 1) / q
                    d_r = 0 if r == INF else F(d, 1) / r
                    if two_q + d_r < 1:
                        continue
                    alpha = ex._alpha_opt(d, q, r)
                    rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(d, q, r), alpha)
                    t1, t2, t3 = terms(rep)
                    assert t1 == t2
                    assert t3 >= t1

    def test_inherits_class_validation(self):
        with pytest.raises(ex.RegimeError):
            ex.navier_stokes_exponent(ex.IntegrabilityClass(3, 4, 4), 0)


def _recip(p):
    """1/p in exact arithmetic, with 1/inf := 0."""
    return F(0) if p == INF else 1 / F(p)


# integrability exponents in [3, inf]: ints, Fractions and inf
_EXPONENTS = st.one_of(st.integers(3, 60), st.fractions(3, 60, max_denominator=40), st.just(INF))


@settings(max_examples=400, deadline=None)
@given(d=st.integers(1, 7), q=_EXPONENTS, r=_EXPONENTS,
       alpha=st.fractions(F(1, 40), 8, max_denominator=40))
def test_terms_match_the_paper_formula(d, q, r, alpha):
    # the paper's terms in the reciprocal exponents, evaluated independently
    iq, ir = _recip(q), _recip(r)
    expected = [d * (1 - 2 * ir) - 2 * alpha * iq,
                d * (1 - 3 * ir) - 1 + alpha * (1 - 3 * iq),
                d * (1 - 2 * ir) - 2 + alpha * (1 - 2 * iq)]
    cls = ex.IntegrabilityClass(d, q, r)
    got = terms(ex.navier_stokes_exponent(cls, alpha))
    assert terms(ex.euler_exponent(cls, alpha)) == got[:2]
    if isinstance(q, int) or isinstance(r, int):
        # int / int is a float quotient: equal up to rounding
        assert got == pytest.approx([float(e) for e in expected], rel=1e-14, abs=1e-13)
    else:
        assert all(isinstance(v, (int, F)) for v in got)
        assert got == expected


class TestFloatRange:
    """Reports are JSON numbers: inputs beyond a float64, and terms that
    overflow to infinity, are rejected rather than printed or raised as
    OverflowError."""

    BIG = 10 ** 400

    @pytest.mark.parametrize("make", [
        lambda b: ex.euler_exponent(ex.IntegrabilityClass(3, 3, 3), b),
        lambda b: ex.navier_stokes_exponent(ex.IntegrabilityClass(3, 3, 3), b),
        lambda b: ex.euler_exponent(ex.IntegrabilityClass(3, 3, 3), F(b, 3)),
        lambda b: ex.euler_optimal(ex.IntegrabilityClass(3, b, 3)),
        lambda b: ex.euler_optimal(ex.IntegrabilityClass(3, 3, b)),
        lambda b: ex.euler_optimal(ex.IntegrabilityClass(b, INF, INF)),
        lambda b: ex.conservation_law_exponent(1, b),
        lambda b: ex.conservation_law_exponent(b, 3),
    ], ids=["euler-alpha", "ns-alpha", "fraction-alpha", "q", "r", "d", "claw-r", "claw-d"])
    def test_inputs_beyond_a_float64(self, make):
        with pytest.raises(ex.RegimeError, match="does not fit a float64"):
            make(self.BIG)

    @pytest.mark.parametrize("exponent", [ex.euler_exponent, ex.navier_stokes_exponent])
    def test_a_term_that_overflows(self, exponent):
        # 2 alpha / q: alpha * 2 overflows to inf before the division
        with pytest.raises(ex.RegimeError, match="time_cutoff is not finite"):
            exponent(ex.IntegrabilityClass(3, 3, 3), 1e308)

    def test_the_largest_inputs_that_fit(self):
        # the same alpha as an exact integer: 2 alpha / 3 stays in range
        rep = ex.euler_exponent(ex.IntegrabilityClass(3, 3, 3), 10 ** 308)
        assert [t["value"] for t in rep.to_json_dict()["terms"]] == [1 - 2 * 10 ** 308 / 3, -1.0]
        # q, r = 10**308: s = 3 - O(10**-308), which rounds to 3
        assert ex.euler_optimal(ex.IntegrabilityClass(3, 10 ** 308, 10 ** 308)).s == 3.0


class TestPurity:
    def test_bit_identical_reruns(self):
        a = ex.euler_optimal(ex.IntegrabilityClass(3, 7.0, 11.0))
        b = ex.euler_optimal(ex.IntegrabilityClass(3, 7.0, 11.0))
        assert a == b

    def test_json_dict_shape(self):
        rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(3, 4, INF), 2)
        d = rep.to_json_dict()
        assert d["r"] == "inf"
        assert set(d) == {"regime", "d", "q", "r", "alpha", "s", "terms",
                          "convention_applied", "vacuous", "open_exponent"}
