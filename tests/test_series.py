"""Tail certificates checked against closed forms and a condensation oracle."""

import math

import numpy as np
import pytest

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
