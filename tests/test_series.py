"""Tail certificates checked against closed forms and a condensation oracle.

``python tests/test_series.py`` rewrites ``tests/data/series_golden.json``
from the ``formcalc`` on the path; see :class:`TestGoldenCertificates`.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from formcalc import series
from formcalc.errors import SeriesDiverges, Uncertifiable


def condensation_oracle(fn, doublings=18):
    """Independent convergence decision via Cauchy condensation:
    sum 2^k a(2^k) has summable increments iff the series converges.
    Only used on clearly convergent / clearly divergent instances."""
    blocks = [2 ** k * fn(2 ** k) for k in range(1, doublings)]
    ratios = [blocks[i + 1] / blocks[i] for i in range(len(blocks) - 1)
              if blocks[i] > 0]
    tail_ratios = ratios[-6:]
    return max(tail_ratios) < 0.95


class TestClosedForms:
    def test_geometric_sum(self):
        # sum_{n>=1} (1/2)^n = 1
        res = series.certified_sum(series.geometric(0.5))
        assert abs(res.value - 1.0) <= res.tail + 1e-14
        assert res.certificate.kind == "ratio"

    def test_basel(self):
        res = series.certified_sum(series.polynomial(-2.0), tol=1e-10)
        assert abs(res.value - math.pi ** 2 / 6) <= res.tail + 1e-12
        assert res.certificate.kind == "integral"

    def test_p_series_power(self):
        # sum n^2 (1/4)^n = r(1+r)/(1-r)^3 with r = 1/4 -> 20/27
        res = series.certified_sum(series.power_geometric(1.0, 2.0, 0.25))
        assert abs(res.value - 20.0 / 27.0) <= res.tail + 1e-13

    def test_start_offset(self):
        # sum_{n>=3} (1/2)^n = 1/4
        res = series.certified_sum(series.power_geometric(1.0, 0.0, 0.5, start=3))
        assert abs(res.value - 0.25) <= res.tail + 1e-14


class TestTailBounds:
    def test_tail_bound_is_a_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            alpha = rng.uniform(-3.0, 3.0)
            ratio = rng.uniform(0.05, 0.9)
            rule = series.power_geometric(rng.uniform(0.1, 5.0), alpha, ratio)
            n0 = int(rng.integers(1, 50))
            bound = series.tail_bound(rule, n0)
            ns = np.arange(n0 + 1, n0 + 20001, dtype=float)
            true_tail = float(np.sum(np.abs(rule(ns))))
            assert true_tail <= bound * (1 + 1e-12)

    def test_integral_tail_bound(self):
        rule = series.polynomial(-4.0)
        bound = series.tail_bound(rule, 100)
        true_tail = float(np.sum(np.abs(rule(np.arange(101, 300000, dtype=float)))))
        assert true_tail <= bound
        assert bound <= 2 * true_tail  # not wildly loose


class TestConvergenceDecisions:
    @pytest.mark.parametrize("rule,expected", [
        (series.geometric(0.9), True),
        (series.geometric(1.5), False),
        (series.polynomial(-1.0), False),          # harmonic
        (series.polynomial(-1.5), True),
        (series.power_geometric(1.0, 2.0, math.exp(-1.5)), True),
        (series.power_geometric(1.0, -2.0, math.exp(0.5)), False),
    ])
    def test_matches_condensation_oracle(self, rule, expected):
        assert series.rule_convergent(rule) is expected
        fn = lambda n: abs(rule.at(n))
        assert condensation_oracle(fn) is expected

    def test_divergence_certificate_records_growth(self):
        ok, cert = series.decide_summable(series.polynomial(-1.0))
        assert not ok
        assert len(cert.partial_sums) >= 8
        assert all(r > 1.0 for r in cert.growth_ratios)

    def test_certified_sum_raises_on_divergent(self):
        with pytest.raises(SeriesDiverges) as exc:
            series.certified_sum(series.geometric(2.0))
        assert exc.value.certificate is not None

    def test_mixed_sign_divergent_is_uncertifiable(self):
        rule = series.geometric(2.0) + series.geometric(2.0, coef=-1.0)
        with pytest.raises(Uncertifiable):
            series.rule_convergent(rule)


class TestRuleAlgebra:
    def test_product_matches_pointwise(self):
        a = series.power_geometric(2.0, 1.0, 0.5) + series.polynomial(-2.0)
        b = series.geometric(0.25, coef=1 + 1j)
        ns = np.arange(1, 30)
        np.testing.assert_allclose((a * b)(ns), a(ns) * b(ns), rtol=1e-13)

    def test_abs_square_real_nonnegative(self):
        a = series.power_geometric(1 - 2j, 0.5, 0.5) + series.polynomial(-1.0, coef=1j)
        vals = a.abs_square()(np.arange(1, 20))
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-14)
        assert np.all(vals.real >= 0)
        np.testing.assert_allclose(vals.real, np.abs(a(np.arange(1, 20))) ** 2,
                                   rtol=1e-13)

    def test_abs_square_emits_each_cross_pair_once(self):
        rng = np.random.default_rng(21)
        ns = np.arange(1, 60)
        for count in range(1, 7):
            a = series.Rule(tuple(
                series.Term(complex(rng.normal(), rng.normal()),
                            float(rng.choice([-1.0, 0.0, 0.5, 2.0])),
                            float(rng.uniform(0.3, 1.0)), int(rng.integers(1, 6)))
                for _ in range(count)))
            sq = a.abs_square()
            assert len(sq.terms) == count * (count + 1) // 2
            assert all(complex(t.coef).imag == 0.0 for t in sq.terms)
            want = (a * a.conjugate())(ns)
            scale = series.Rule((a.majorant(),))(ns).real ** 2
            assert np.all(np.abs(sq(ns) - want) <= 1e-14 * scale)

    def test_majorant_dominates(self):
        a = series.power_geometric(-3.0, 1.0, 0.5) + series.geometric(0.7, coef=2j)
        m = series.Rule((a.majorant(),))
        ns = np.arange(1, 200)
        assert np.all(np.abs(a(ns)) <= np.abs(m(ns)) * (1 + 1e-12))


class TestLowerBound:
    def test_nondecreasing_rules(self):
        assert series.rule_lower_bound(series.polynomial(2.0)) == 1.0
        assert series.rule_lower_bound(series.geometric(math.e)) == pytest.approx(math.e)
        assert series.rule_lower_bound(series.geometric(2.0)) == 2.0

    def test_decaying_rule_gives_zero(self):
        assert series.rule_lower_bound(series.geometric(0.5)) == 0.0

    def test_late_start_gives_zero(self):
        # zero for n < 5, so the infimum over n >= 1 is 0
        late = series.power_geometric(1.0, 0.0, 1.0, start=5)
        assert series.rule_lower_bound(late) == 0.0
        assert series.rule_lower_bound(late + series.polynomial(1.0)) == 1.0


class TestTermValidation:
    @pytest.mark.parametrize("kwargs", [
        {"coef": math.nan}, {"coef": complex(1.0, math.inf)},
        {"coef": 1.0, "alpha": math.nan}, {"coef": 1.0, "alpha": -math.inf},
        {"coef": 1.0, "ratio": math.nan}, {"coef": 1.0, "ratio": math.inf},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            series.Term(**kwargs)


class TestExactRuleDecisions:
    """rules_agree and imaginary_residual decide on the whole sequence:
    pointwise before the last start, coefficientwise after it."""

    LATE = series.Rule((series.Term(1, 1, 1, 1), series.Term(1j, 0, 1, 100)))

    def test_late_term_is_seen(self):
        assert not series.rules_agree(self.LATE, series.polynomial(1.0))
        assert series.imaginary_residual(self.LATE) == 1.0
        # the first 64 values agree exactly: a sampled test cannot see it
        ns = np.arange(1, 65)
        assert np.array_equal(self.LATE(ns), series.polynomial(1.0)(ns))

    def test_like_terms_merge(self):
        a = series.polynomial(2.0) + series.polynomial(2.0, coef=2.0)
        assert series.rules_agree(a, series.polynomial(2.0, coef=3.0))
        assert not series.rules_agree(a, series.polynomial(2.0, coef=3.0 + 1e-6))

    def test_parameters_equal_up_to_rounding_merge(self):
        # 0.25 * sqrt(2)**2 is 0.5 plus one ulp
        r = 0.25 * math.sqrt(2.0) ** 2
        assert r != 0.5
        assert series.rules_agree(series.geometric(r), series.geometric(0.5))
        assert not series.rules_agree(series.geometric(0.5 + 1e-9),
                                      series.geometric(0.5))

    def test_head_is_checked_pointwise(self):
        late = series.power_geometric(1.0, 0.0, 1.0, start=3)
        assert not series.rules_agree(late, series.constant(1.0))
        split = series.Rule((series.Term(1.0, 0, 1, 1), series.Term(1.0, 0, 1, 5),
                             series.Term(-1.0, 0, 1, 5)))
        assert series.rules_agree(split, series.constant(1.0))

    def test_start_past_term_cap_is_uncertifiable(self):
        far = series.Rule((series.Term(1.0, 0, 1, 1),
                           series.Term(1j, 0, 1, series._MAX_TERMS + 1)))
        with pytest.raises(Uncertifiable):
            series.imaginary_residual(far)
        with pytest.raises(Uncertifiable):
            series.rules_agree(far, series.constant(1.0))


def exact_sum(rule):
    """sum_{n >= 1} a_n in 40-digit arithmetic from the double parameters:
    the Hurwitz zeta function for ratio 1, the geometric series for alpha
    0, and term by term past the peak until the terms fall below 1e-45
    otherwise."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for t in rule.terms:
            alpha, ratio = mpmath.mpf(t.alpha), mpmath.mpf(t.ratio)
            if t.ratio == 1.0:
                part = mpmath.zeta(-alpha, t.start)
            elif t.alpha == 0.0:
                part = ratio ** t.start / (1 - ratio)
            else:
                peak = max(t.alpha, 0.0) / -math.log(t.ratio)
                part, n = mpmath.mpf(0), t.start
                while True:
                    term = mpmath.mpf(n) ** alpha * ratio ** n
                    part += term
                    if n > peak and term < mpmath.mpf("1e-45"):
                        break
                    n += 1
            total += mpmath.mpc(t.coef) * part
        return total


def within(res, exact):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return abs(mpmath.mpc(res.value) - exact) <= res.tail


COEFS = st.one_of(
    st.floats(0.1, 3.0), st.floats(-3.0, -0.1),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                       allow_nan=False, allow_infinity=False))
TERMS = st.builds(
    lambda c, shape, start: series.Term(c, shape[0], shape[1], start),
    COEFS,
    st.one_of(st.tuples(st.floats(-2.0, 2.0), st.floats(0.2, 0.95)),
              st.tuples(st.floats(-4.0, -1.05), st.just(1.0))),
    st.integers(1, 5))
RULES = st.lists(TERMS, min_size=1, max_size=4).map(lambda ts: series.Rule(tuple(ts)))


class TestEventualSign:
    def test_dominant_group_decides_from_n(self):
        T = series.Term
        # n^2 - 20 n: the n^-1 tail of -20 n / n^2 is at most 1/2 from 64 on
        assert series.eventual_sign(series.Rule((T(1.0, 2.0), T(-20.0, 1.0)))) == (64, 1)
        # 1 - n^3 0.5^n: n^3 0.5^n decreases from ceil(3 / ln 2) = 5 on
        N, sign = series.eventual_sign(series.Rule((T(1.0), T(-1.0, 3.0, 0.5))))
        assert sign == 1 and N >= 5
        ns = np.arange(N, N + 5000)
        assert np.all(series.Rule((T(1.0), T(-1.0, 3.0, 0.5)))(ns).real > 0)

    def test_cancelled_and_empty_rules_are_zero(self):
        a = series.Rule((series.Term(2.0, 1.0, 0.9, 4), series.Term(1.0)))
        assert series.eventual_sign(a + a.scale(-1.0)) == (4, 0)
        assert series.eventual_sign(series.Rule(())) == (1, 0)

    def test_crossover_past_the_cap_is_uncertifiable(self):
        T = series.Term
        with pytest.raises(Uncertifiable):
            series.eventual_sign(series.Rule((T(1.0), T(-1.0, 100.0, 1.0 - 1e-7))))


# nonnegative convergent terms: geometric ones and p-series
POSITIVE_TERMS = st.one_of(
    st.builds(series.Term, st.floats(0.1, 3.0), st.floats(-3.0, 3.0),
              st.floats(0.05, 0.9), st.integers(1, 8)),
    st.builds(series.Term, st.floats(0.1, 3.0), st.floats(-4.0, -1.5),
              st.just(1.0), st.integers(1, 8)))


class TestCertificateOracle:
    """Sums and their bounds against 40-digit sums, so that a certificate
    is checked for the whole series and under rounding."""

    @settings(max_examples=60, deadline=None)
    @given(RULES)
    def test_random_rules_within_certificate(self, rule):
        exact = exact_sum(rule)
        try:
            res = series.certified_sum(rule)
        except Uncertifiable:
            # cancellation can put the rounding bound above the target
            ok, res = series.decide_summable(rule)
            assert ok
        else:
            assert res.tail <= 1e-12 * max(1.0, abs(res.value))
        assert within(res, exact)
        detail = res.certificate.detail
        assert res.tail == detail["truncation"] + detail["rounding"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        st.lists(POSITIVE_TERMS, min_size=1, max_size=3).map(
            lambda ts: series.Rule(tuple(ts)))), min_size=1, max_size=4))
    def test_sum_of_a_combination_is_the_combination_of_sums(self, pairs):
        """certified_sum is linear within its certificates: the sum of
        sum_i c_i r_i is sum_i c_i S(r_i) up to the bound of the
        combination plus |c_i| times each bound, and the rounding of
        combining the sums.  This is the functional criterion
        f(E xi) = E f(xi) of a weak expectation, for f = sum_i c_i e_i."""
        parts = [series.certified_sum(r) for _, r in pairs]
        combo = series.Rule(tuple(t for c, r in pairs for t in r.scale(c).terms))
        size = sum(abs(c) * abs(res.value) for (c, _), res in zip(pairs, parts))
        whole = series.certified_sum(combo, scale=max(1.0, size))
        want = sum(c * res.value for (c, _), res in zip(pairs, parts))
        allowed = whole.tail + sum(abs(c) * res.tail for (c, _), res in zip(pairs, parts))
        assert abs(whole.value - want) <= allowed + 8 * 2.0 ** -53 * size

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-6.0, -1.01), st.integers(1, 10 ** 6))
    def test_euler_maclaurin_encloses_hurwitz_zeta(self, alpha, a):
        mpmath = pytest.importorskip("mpmath")
        mid, half = series._euler_maclaurin(alpha, float(a))
        with mpmath.workdps(40):
            exact = mpmath.zeta(-mpmath.mpf(alpha), a)
            # the remainder lies between 0 and the B6 term, up to the
            # rounding of the few operations that form mid
            assert abs(mpmath.mpf(mid) - exact) <= half + 1e-15 * mid

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-1.7, -1.4), st.floats(0.1, 3.0), st.integers(1, 5))
    def test_slow_p_series_certify_in_64_terms(self, alpha, coef, start):
        rule = series.power_geometric(coef, alpha, 1.0, start)
        res = series.certified_sum(rule)
        assert res.n_used == 64
        assert res.certificate.kind == "integral"
        assert within(res, exact_sum(rule))

    def test_p_series_1_4_uses_64_terms(self):
        res = series.certified_sum(series.polynomial(-1.4))
        assert res.n_used == 64
        assert within(res, exact_sum(series.polynomial(-1.4)))

    def test_basel_rounding_is_in_the_bound(self):
        # at 64 terms the error of the computed sum of zeta(2) exceeds its
        # truncation bound alone; the rounding term covers it
        res = series.certified_sum(series.polynomial(-2.0))
        assert res.n_used == 64
        assert within(res, exact_sum(series.polynomial(-2.0)))

    def test_ratio_near_one_falls_back_to_best_effort(self):
        rule = series.geometric(0.99999)
        with pytest.raises(Uncertifiable):
            series.certified_sum(rule)
        ok, res = series.decide_summable(rule)
        assert ok
        assert res.n_used == 2 ** 16
        assert within(res, exact_sum(rule))

    def test_cancelling_rule_stops_on_rounding(self):
        # two geometric series of size 2e6 whose sum is about 0.8: rounding
        # alone exceeds 1e-12, and summing more terms would not help
        rule = series.Rule((series.Term(1e6, 0.0, 0.5), series.Term(-1e6, 0.0, 0.5000001)))
        with pytest.raises(Uncertifiable, match="rounding"):
            series.certified_sum(rule)
        ok, res = series.decide_summable(rule)
        assert ok
        assert res.n_used < 2 ** 16
        assert res.certificate.detail["truncation"] <= res.certificate.detail["rounding"]
        assert within(res, exact_sum(rule))

    def test_subnormal_sum_within_its_bound(self):
        # c 0.5^n sums to c exactly, but its terms are subnormal and round
        # absolutely: the computed sum is 2^-1074 off, which a relative
        # rounding bound of 0.0 would not cover
        c = 2.2250738585e-313
        res = series.certified_sum(series.geometric(0.5, coef=c), scale=1.0)
        assert res.value.real != c
        assert abs(Fraction(res.value.real) - Fraction(c)) <= Fraction(res.tail)
        assert res.value.imag == 0.0
        # the combination check that met this rule: c times the sum of
        # 0.5^n against the sum of c 0.5^n
        part = series.certified_sum(series.geometric(0.5))
        assert abs(res.value - c * part.value) <= res.tail + c * part.tail
        zero = series.certified_sum(series.geometric(0.5, coef=0.0))
        assert (zero.value, zero.tail) == (0.0, 0.0)

    def test_tail_bound_from_zero_counts_the_first_term(self):
        # sum_{n >= 1} n^-2 = zeta(2) > the integral from 1, which is 1
        assert series.tail_bound(series.polynomial(-2.0), 0) >= math.pi ** 2 / 6
        bound = series.tail_bound(series.power_geometric(1.0, -3.0, 1.0, start=4), 0)
        assert bound >= float(exact_sum(series.power_geometric(1.0, -3.0, 1.0, start=4)).real)


# ---------------------------------------------------------------------------
# grid evaluation against a term-by-term reference


def _ref_values(t, n):
    """One term alone: c exp(alpha log n + n log ratio), 0 before start
    and 0 for c = 0, also where the power overflows."""
    n = np.asarray(n, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = t.coef * np.exp(t.alpha * np.log(n) + n * math.log(t.ratio))
    return np.where((n >= t.start) & (t.coef != 0), out, 0.0)


def _ref_call(rule, n):
    n = np.atleast_1d(np.asarray(n, dtype=float))
    total = np.zeros(n.shape, dtype=complex)
    for t in rule.terms:
        total += _ref_values(t, n)
    return total


def _ref_partial_sum(rule, lo, hi):
    ns = np.arange(lo, hi + 1, dtype=float)
    logn = np.log(ns)
    total = 0.0 + 0.0j
    mass = evaluation = 0.0
    for t in rule.terms:
        vals = _ref_call(series.Rule((t,)), ns)
        mods = np.abs(vals)
        mass += float(np.sum(mods))
        evaluation += float(np.sum(mods * (
            4.0 * abs(t.alpha) * logn + 4.0 * abs(math.log(t.ratio)) * ns + 8.0)))
        total += complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
    return total, mass, evaluation + (len(rule.terms) + 1) * mass


def _ref_term_tail_bound(t, n_from):
    c = abs(t.coef)
    if c == 0.0:
        return 0.0
    lo = max(n_from, t.start - 1)
    extra = 0.0
    if t.ratio < 1.0:
        target = (1.0 + t.ratio) / 2.0
        ap = max(t.alpha, 0.0)
        n2 = max(lo, 1)
        while t.ratio * (1.0 + 1.0 / (n2 + 1)) ** ap > target:
            n2 *= 2
            if n2 > series._MAX_TERMS:
                raise Uncertifiable("ratio test start grew past the term cap")
        if n2 > lo:
            extra = float(np.sum(np.abs(_ref_values(t, np.arange(lo + 1, n2 + 1, dtype=float)))))
        head = abs(complex(_ref_values(t, np.array([n2 + 1.0]))[0]))
        return extra + head / (1.0 - target)
    if t.ratio == 1.0 and t.alpha < -1.0:
        return c * ((lo == 0) + max(lo, 1) ** (t.alpha + 1.0) / (-t.alpha - 1.0))
    return math.inf


def _ref_tail_bound(rule, n_from):
    return sum(_ref_term_tail_bound(t, n_from) for t in rule.terms)


def _ref_tail_estimate(rule, n_from):
    correction = 0.0 + 0.0j
    err = size = 0.0
    for t in rule.terms:
        if t.coef == 0:
            continue
        if t.ratio == 1.0 and t.alpha < -1.0:
            mid, half = series._euler_maclaurin(t.alpha, max(n_from, t.start - 1) + 1.0)
            correction += t.coef * mid
            err += abs(t.coef) * half
            size += abs(t.coef) * mid
        else:
            err += _ref_term_tail_bound(t, n_from)
    return correction, err, size


def _outcome(fn, *args):
    """The bits of what ``fn`` returns, or the exception it raises (an
    overflowed sum can overflow ``math.fsum`` as well)."""
    try:
        out = fn(*args)
    except (Uncertifiable, SeriesDiverges, OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, series.SumResult):
        out = (out.value, out.n_used, out.tail, out.certificate.as_dict())
    return _hex(out)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


GRID_COEFS = st.one_of(
    st.floats(-3.0, 3.0), st.just(0.0), st.just(0j),
    st.builds(complex, st.floats(-3.0, 3.0), st.just(0.0)),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
GRID_TERMS = st.builds(
    series.Term, GRID_COEFS,
    st.one_of(st.floats(-5.0, 5.0), st.floats(100.0, 150.0)),  # the latter overflow
    st.one_of(st.floats(0.05, 0.99), st.just(1.0), st.floats(1.0001, 3.0)),
    st.integers(1, 8))
GRID_RULES = st.lists(GRID_TERMS, min_size=1, max_size=9).map(
    lambda ts: series.Rule(tuple(ts)))
# rules whose sums stop within a few doublings
SUM_TERMS = st.builds(
    series.Term, GRID_COEFS,
    st.floats(-4.0, 3.0),
    st.one_of(st.floats(0.05, 0.9), st.just(1.0), st.floats(1.0001, 3.0)),
    st.integers(1, 8))
SUM_RULES = st.lists(SUM_TERMS, min_size=1, max_size=9).map(
    lambda ts: series.Rule(tuple(ts)))


class TestGridIsTheTermLoop:
    """The grid gives, bit for bit, what evaluating each term on its own
    gives: every value, sum, mass and bound, overflowed values included."""

    @settings(max_examples=80, deadline=None)
    @given(GRID_RULES, st.integers(1, 3000))
    def test_rule_values(self, rule, count):
        ns = np.arange(1, count + 1)
        assert _bits(rule(ns)) == _bits(_ref_call(rule, ns))
        assert _bits(rule(float(count))) == _bits(_ref_call(rule, float(count)))

    @settings(max_examples=60, deadline=None)
    @given(GRID_RULES, st.integers(1, 300), st.integers(0, 5000))
    def test_partial_sum(self, rule, lo, width):
        assert (_outcome(series._partial_sum, rule, lo, lo + width)
                == _outcome(_ref_partial_sum, rule, lo, lo + width))

    @settings(max_examples=60, deadline=None)
    @given(GRID_RULES, st.integers(0, 3000))
    # a divergent ratio-1 term: its tail is unbounded, not an
    # Euler-Maclaurin enclosure (which divides by -alpha - 1)
    @example(series.Rule((series.Term(1.0, -1.0, 1.0, 1),)), 0)
    def test_tail_bound(self, rule, n_from):
        assert (_outcome(series.tail_bound, rule, n_from)
                == _outcome(_ref_tail_bound, rule, n_from))
        assert (_outcome(series._tail_estimate, rule, n_from)
                == _outcome(_ref_tail_estimate, rule, n_from))

    @settings(max_examples=60, deadline=None)
    @given(SUM_RULES)
    def test_certified_sum(self, rule):
        got = _outcome(series.certified_sum, rule)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series.Rule, "__call__", _ref_call)
            mp.setattr(series, "_partial_sum", _ref_partial_sum)
            mp.setattr(series, "_tail_estimate", _ref_tail_estimate)
            assert got == _outcome(series.certified_sum, rule)

    def test_rows_come_in_blocks_of_the_cap(self, monkeypatch):
        rule = series.Rule(tuple(series.Term(1.0 + k * 1j, -k, 0.5, k + 1) for k in range(5)))
        ns = np.arange(1, 3001, dtype=float)
        want = (_bits(rule(ns)), _outcome(series._partial_sum, rule, 1, 3000))
        monkeypatch.setattr(series, "_CAP", 2 * 3000)
        assert [len(b) for _, b in series._blocks(rule, ns)] == [2, 2, 1]
        assert (_bits(rule(ns)), _outcome(series._partial_sum, rule, 1, 3000)) == want
        monkeypatch.setattr(series, "_CAP", 1)
        assert [b.shape for _, b in series._blocks(rule, ns)] == [(1, 3000)] * 5

    def test_one_grid_evaluation_per_doubling_chunk(self, monkeypatch):
        calls = []
        grid = series._grid

        def counting(rule, n, rows=slice(None)):
            calls.append(n.shape)
            return grid(rule, n, rows)

        monkeypatch.setattr(series, "_grid", counting)
        rule = series.Rule(tuple(series.Term(1.0 / k, k - 3.0, 0.85, k) for k in range(1, 7)))
        res = series.certified_sum(rule)
        sizes = [64]
        while sum(sizes) < res.n_used:
            sizes.append(sum(sizes))
        assert len(sizes) >= 3
        # one grid of all six terms per chunk, and one of their tail heads
        assert calls == [shape for size in sizes for shape in ((size,), (6, 1))]


# ---------------------------------------------------------------------------
# golden certificates

GOLDEN = Path(__file__).resolve().parent / "data" / "series_golden.json"


def _hex(v):
    """Floats as ``float.hex``, complex numbers as [re, im], containers
    entry by entry; exact, so equal records mean equal bits."""
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, complex):
        return [float.hex(v.real), float.hex(v.imag)]
    if isinstance(v, dict):
        return {k: _hex(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    return v


def _golden_record(rule):
    """What ``certified_sum`` and ``decide_summable`` return or raise."""
    def result(r):
        if isinstance(r, series.SumResult):
            return {"value": r.value, "n_used": r.n_used, "tail": r.tail,
                    "certificate": r.certificate.as_dict()}
        return r.as_dict()

    def run(fn):
        try:
            out = fn(rule)
        except SeriesDiverges as exc:
            return {"raises": "SeriesDiverges", "message": str(exc),
                    "certificate": exc.certificate.as_dict()}
        except Uncertifiable as exc:
            return {"raises": "Uncertifiable", "message": str(exc)}
        if isinstance(out, tuple):
            return {"summable": out[0], "result": result(out[1])}
        return result(out)

    return _hex({"certified_sum": run(series.certified_sum),
                 "decide_summable": run(series.decide_summable)})


def _rule_to_json(rule):
    """Terms as [coef, alpha, ratio, start]; a real coefficient stays a
    float, since a complex one of zero imaginary part multiplies an
    overflowed value differently."""
    return [[_hex(t.coef), t.alpha.hex(), t.ratio.hex(), t.start] for t in rule.terms]


def _rule_from_golden(terms):
    def coef(c):
        if isinstance(c, list):
            return complex(float.fromhex(c[0]), float.fromhex(c[1]))
        return float.fromhex(c)

    return series.Rule(tuple(
        series.Term(coef(c), float.fromhex(a), float.fromhex(r), s)
        for c, a, r, s in terms))


def _golden_rules():
    """About 30 seeded multi-term rules: ratio-test and p-series terms,
    real and complex coefficients, late starts, squared moduli, cancelling
    and near-one ratios, and divergent rules of one and of mixed sign."""
    rng = np.random.default_rng(7)

    def coef(kind):
        if kind == "real":
            return float(rng.normal(0.0, 2.0))
        return complex(rng.normal(0.0, 2.0), rng.normal(0.0, 2.0))

    def term(kind, decay):
        start = int(rng.integers(1, 6))
        if decay == "ratio":
            return series.Term(coef(kind), float(rng.uniform(-3.0, 3.0)),
                               float(rng.uniform(0.05, 0.95)), start)
        return series.Term(coef(kind), float(rng.uniform(-5.0, -1.2)), 1.0, start)

    rules = []
    for k in range(24):
        kind = ("real", "complex")[k % 2]
        count = int(rng.integers(2, 7))
        family = k % 4
        if family == 0:
            terms = [term(kind, "ratio") for _ in range(count)]
        elif family == 1:
            terms = [term(kind, ("ratio", "p")[i % 2]) for i in range(count)]
        elif family == 2:
            terms = [term(kind, "p") for _ in range(count)]
        else:
            terms = [term("complex", "ratio") for _ in range(min(count, 3))]
        rule = series.Rule(tuple(terms))
        rules.append(rule.abs_square() if family == 3 else rule)
    growing = series.Rule((series.Term(1.5, 1.0, 1.02), series.Term(0.5, -0.5, 1.0, 3),
                           series.Term(2.0, 2.0, 0.5)))
    rules += [
        growing,
        growing + series.power_geometric(-1.0, 0.0, 0.3),   # mixed sign
        series.Rule((series.Term(1.0, 0.0, 1.5, 2), series.Term(1j, -2.0, 1.0))),
        series.Rule((series.Term(1e6, 0.0, 0.5), series.Term(-1e6, 0.0, 0.5000001))),
        series.Rule((series.Term(1.0, 0.0, 0.99999), series.Term(0.0, 1.0, 0.5),
                     series.Term(-0.5, -3.0, 1.0, 2))),
        series.Rule((series.Term(2.0, 40.0, 0.9), series.Term(0.0, 0.0, 3.0),
                     series.Term(1.0 + 0.0j, 3.0, 0.97, 4))),
        # values overflow to inf in the divergence record, with real and
        # complex coefficients in one rule
        series.Rule((series.Term(2.0 + 0.0j, 1.0, 1.5), series.Term(3.0, -2.0, 1.2, 2))),
        series.Rule((series.Term(1.0 + 1.0j, 0.0, 2.5), series.Term(0.0, 1.0, 0.5))),
    ]
    return rules


def _golden_cases():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


class TestGoldenCertificates:
    """Sums and certificates of seeded rules, bit for bit as recorded in
    ``tests/data/series_golden.json``: a change to the series layer that
    moves any value shows here."""

    def test_golden_file_covers_the_seeded_rules(self):
        cases = _golden_cases()
        assert [c["rule"] for c in cases] == [_rule_to_json(r) for r in _golden_rules()]

    @pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: c["id"])
    def test_certificates_are_unchanged(self, case):
        assert _golden_record(_rule_from_golden(case["rule"])) == case["record"]

    def test_zero_coefficient_case_against_polylog(self):
        """rule-29 holds a zero-coefficient term 0 * 3**n, which overflows
        from n = 647 on: its recorded sums enclose the sum of the other two
        terms, 2 Li_-40(0.9) + Li_-3(0.97) - sum_{n <= 3} n^3 0.97^n."""
        mpmath = pytest.importorskip("mpmath")
        case = next(c for c in _golden_cases() if c["id"] == "rule-29")
        assert _rule_from_golden(case["rule"]).terms[1].coef == 0
        with mpmath.workdps(40):
            r1, r3 = mpmath.mpf(0.9), mpmath.mpf(0.97)
            exact = (2 * mpmath.polylog(-40, r1) + mpmath.polylog(-3, r3)
                     - sum(n ** 3 * r3 ** n for n in (1, 2, 3)))
            for rec in (case["record"]["certified_sum"],
                        case["record"]["decide_summable"]["result"]):
                value = complex(*map(float.fromhex, rec["value"]))
                assert abs(mpmath.mpc(value) - exact) <= float.fromhex(rec["tail"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        [{"id": f"rule-{k:02d}", "rule": _rule_to_json(r), "record": _golden_record(r)}
         for k, r in enumerate(_golden_rules())], indent=1) + "\n")
