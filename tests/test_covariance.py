"""Weak expectations, second-moment domains, covariance forms/operators."""

import math

import numpy as np
import pytest

from formcalc import series
from formcalc.covariance import (
    SecondMomentDomain, centered, covariance_form, covariance_operator,
    exp_poly_variable, exponential_space, finite_space, in_second_moment_domain,
    independent_sum, paired_rule_space, rule_space, second_moment_membership,
    signed_basis_variable, table_variable, weak_expectation,
)
from formcalc.duality import Functional, dense_pair, sequence_pair
from formcalc.errors import LowerBoundError, Uncertifiable
from formcalc.scenarios import _variable, run_scenario

DP2 = dense_pair(2)
SP24 = sequence_pair(24)


def two_point(x0, dp):
    """Centered +-x0 variable on two equal atoms."""
    return table_variable(finite_space([0.5, 0.5]), [x0, -np.asarray(x0)], dp)


class TestSpaces:
    def test_exponential_normalization(self):
        sp = exponential_space(1.5)
        assert sp.normalization["sum"] == pytest.approx(1.0, abs=1e-11)
        # c = e^1.5 - 1
        assert sp.rule.terms[0].coef == pytest.approx(math.exp(1.5) - 1.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            rule_space(series.geometric(0.5, coef=3.0))

    def test_finite_space(self):
        sp = finite_space([0.25, 0.75])
        assert sp.m == 2


class TestWeakExpectation:
    def test_constant_variable(self):
        x0 = np.array([1.0, 2.0])
        xi = table_variable(finite_space([0.3, 0.7]), [x0, x0], DP2)
        np.testing.assert_allclose(weak_expectation(xi).coords, x0, atol=1e-14)

    def test_symmetric_pair(self):
        xi = two_point(np.array([1.0, -1.0]), DP2)
        np.testing.assert_allclose(weak_expectation(xi).coords, 0.0, atol=1e-14)

    def test_exp_poly_first_coordinate(self):
        # coordinate k=1: sum_n c e^(-1.5 n) n, computed by partial sums
        # with a geometric tail bound as the oracle
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, SP24)
        e = weak_expectation(xi)
        c = math.exp(1.5) - 1.0
        oracle = sum(c * math.exp(-1.5 * n) * n for n in range(1, 200))
        assert e.coords[0].real == pytest.approx(oracle, rel=1e-11)
        # coordinate k=2: sum c e^(-1.5n) n^2/2
        oracle2 = sum(c * math.exp(-1.5 * n) * n ** 2 / 2 for n in range(1, 300))
        assert e.coords[1].real == pytest.approx(oracle2, rel=1e-11)

    def test_centering_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            w = rng.uniform(0.1, 1.0, size=m)
            sp = finite_space(w / w.sum())
            xi = table_variable(sp, list(rng.normal(size=(m, n))), dense_pair(n))
            e = weak_expectation(centered(xi))
            np.testing.assert_allclose(e.coords, 0.0, atol=1e-12)


class TestSecondMomentDomain:
    def test_finitely_supported_in(self):
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, SP24)
        for k in range(6):
            fc = np.zeros(24, dtype=complex)
            fc[k] = 1.0
            assert in_second_moment_domain(xi, Functional(fc, "sequence"))

    def test_zero_functional(self):
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, SP24)
        assert in_second_moment_domain(xi, Functional(np.zeros(24), "sequence"))

    def test_harmonic_functional_out(self):
        # f_k = 1/k: f(xi(w_n)) grows like e^n / n, so mu |f|^2 ~ e^(n/2):
        # the partial-sum growth oracle and the certificate must both say so
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, SP24)
        harmonic = series.polynomial(-1.0)
        f = Functional(harmonic(np.arange(1, 25)), "sequence", tail=harmonic)
        cert = second_moment_membership(xi, f)
        assert not cert.member
        assert cert.certificate["kind"] == "partial-sum-growth"
        assert all(r > 1.0 for r in cert.certificate["growth_ratios"][-3:])
        # oracle: terms mu_n (sum_k n^k/(k k!))^2 grow without bound
        c = math.exp(1.5) - 1.0
        def term(n):
            inner = sum(n ** k / (k * math.factorial(k)) for k in range(1, 80))
            return c * math.exp(-1.5 * n) * inner ** 2
        assert term(30) > term(20) > term(10)
        assert term(30) > 1e3

    def test_fast_weights_bring_harmonic_in(self):
        # with mu_n = c e^(-3n) the majorant c e^(2n) mu_n is summable
        sp = exponential_space(3.0)
        xi = exp_poly_variable(sp, SP24)
        harmonic = series.polynomial(-1.0)
        f = Functional(harmonic(np.arange(1, 25)), "sequence", tail=harmonic)
        assert in_second_moment_domain(xi, f)

    def test_unsupported_growth_rule(self):
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, SP24)
        growing = series.polynomial(2.0)   # f_k = k^2: outside certified forms
        f = Functional(growing(np.arange(1, 25)), "sequence", tail=growing)
        with pytest.raises(Uncertifiable):
            in_second_moment_domain(xi, f)

    def test_density_witness(self):
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, SP24)
        wit = SecondMomentDomain(xi).density_witness()
        assert wit["finitely_supported_members"]
        assert wit["density"] == "inferred"


class TestCovarianceForm:
    def test_single_atom_rank_one(self):
        x0 = np.array([2.0, 1.0])
        xi = table_variable(finite_space([1.0]), [x0], DP2)
        t = covariance_form(xi)
        # t(f, g) = f(x0) conj(g(x0)) on coordinate functionals
        np.testing.assert_allclose(t.gram, np.outer(np.conj(x0), x0).T, atol=1e-12)

    def test_two_atom_same_rank_one(self):
        x0 = np.array([2.0, 1.0])
        t1 = covariance_form(table_variable(finite_space([1.0]), [x0], DP2))
        t2 = covariance_form(two_point(x0, DP2))
        np.testing.assert_allclose(t1.gram, t2.gram, atol=1e-12)

    def test_three_atom_brute_force(self):
        rng = np.random.default_rng(11)
        vals = list(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        w = np.array([0.2, 0.3, 0.5])
        xi = centered(table_variable(finite_space(w), vals, DP2))
        t = covariance_form(xi)
        # brute-force double sum over atoms and coordinate functionals
        G = np.zeros((2, 2), dtype=complex)
        for a, wa in enumerate(w):
            fv = [np.vdot(xi.values[a], np.eye(2)[i]) for i in range(2)]
            for i in range(2):
                for j in range(2):
                    G[i, j] += wa * fv[i] * np.conj(fv[j])
        np.testing.assert_allclose(t.gram, G, atol=1e-12)
        assert float(np.min(np.linalg.eigvalsh(t.gram))) >= -1e-12

    def test_gram_is_the_per_entry_sum(self):
        # t(f_i, f_j) = sum_a w_a f_i(xi(w_a)) conj(f_j(xi(w_a))), entry by
        # entry, and the mean atom by atom, on random complex tables and
        # functional bases
        rng = np.random.default_rng(40)
        for _ in range(50):
            n, m, atoms = (int(k) for k in rng.integers(1, 7, size=3))
            w = rng.uniform(0.1, 1.0, size=atoms)
            values = rng.normal(size=(atoms, n)) + 1j * rng.normal(size=(atoms, n))
            basis = [Functional(rng.normal(size=n) + 1j * rng.normal(size=n))
                     for _ in range(m)]
            xi = table_variable(finite_space(w / w.sum()), values, dense_pair(n))
            G = covariance_form(xi, basis).gram
            want = np.array([[sum(p * np.vdot(v, f.coords) * np.conj(np.vdot(v, g.coords))
                                  for p, v in zip(xi.space.weights, values))
                              for g in basis] for f in basis])
            assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()
            mean = sum(p * v for p, v in zip(xi.space.weights, values))
            got = weak_expectation(xi).coords
            assert np.abs(got - mean).max() <= 1e-14 * np.abs(values).max()

    def test_signed_basis_diagonal_rule(self):
        nu = series.geometric(0.25, coef=3.0)        # sums to 1
        s = series.power_geometric(1.0, 0.0, math.sqrt(2.0) / 2)
        xi = signed_basis_variable(paired_rule_space(nu), s, SP24)
        t = covariance_form(xi)
        # rule: nu_n s_n^2 = 3 * 4^-n * 2^-n = 3 * 8^-n
        expect = series.geometric(0.125, coef=3.0)
        assert series.rules_agree(t.diagonal, expect)

    @pytest.mark.parametrize("size", [1e3, 1e6])
    def test_psd_is_the_gates_margin(self, size):
        # centred two-atom tables in dimension 4: the gram's smallest
        # eigenvalue is rounding of the size of its norm, which an absolute
        # 1e-12 refused although the constructor had accepted the form
        rng = np.random.default_rng(153)
        for _ in range(40):
            x = rng.normal(size=4) * size
            w = float(rng.uniform(0.2, 0.8))
            sc = {"op": "covariance-form", "space_pair": {"backend": "dense", "dim": 4},
                  "probability": {"weights": [w, 1.0 - w]},
                  "variable": {"values": [x.tolist(), (-w * x / (1.0 - w)).tolist()]}}
            rep = run_scenario(sc)
            assert rep.verdict == "pass"
            assert rep.residuals["psd"] == covariance_form(_variable(sc)).negativity


class TestCovarianceOperator:
    def test_orthonormal_values_scaled_identity(self):
        vals = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        xi = table_variable(finite_space([0.25] * 4), vals, DP2)
        A = covariance_operator(xi)
        np.testing.assert_allclose(A.canonical_matrix(), 0.5 * np.eye(2),
                                   atol=1e-12)
        assert A.direction == "from-dual"

    def test_independent_pm_coordinates_diagonal(self):
        # product of +-1 coordinates: 4 atoms, covariance = identity
        vals = [np.array([s1, s2]) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
        xi = table_variable(finite_space([0.25] * 4), vals, DP2)
        A = covariance_operator(xi)
        np.testing.assert_allclose(A.canonical_matrix(), np.eye(2), atol=1e-12)

    def test_degenerate_direction_rejected(self):
        dp = dense_pair(2, p=4.0)
        xi = two_point(np.array([1.0, 0.0]), dp)    # rank-one covariance
        with pytest.raises(LowerBoundError):
            covariance_operator(xi)


class TestIndependentSum:
    def test_zero_second_variable(self):
        x0 = np.array([1.0, 2.0])
        xi = two_point(x0, DP2)
        eta = table_variable(finite_space([1.0]), [np.zeros(2)], DP2)
        # Cov(xi + 0) = Cov(xi) (+) 0 needs a PD gate; use a full-rank xi
        vals = [np.array([1.0, 1.0]), np.array([-1.0, 1.0]),
                np.array([-1.0, -1.0]), np.array([1.0, -1.0])]
        xi = table_variable(finite_space([0.25] * 4), vals, DP2)
        rep = independent_sum(xi, xi)
        assert rep.residual <= 1e-10

    def test_finite_product_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            dp = dense_pair(n)
            m1, m2 = int(rng.integers(n + 1, n + 4)), int(rng.integers(n + 1, n + 4))
            w1 = rng.uniform(0.2, 1.0, size=m1)
            w2 = rng.uniform(0.2, 1.0, size=m2)
            xi = centered(table_variable(finite_space(w1 / w1.sum()),
                                         list(rng.normal(size=(m1, n))), dp))
            eta = centered(table_variable(finite_space(w2 / w2.sum()),
                                          list(rng.normal(size=(m2, n))), dp))
            rep = independent_sum(xi, eta)
            assert rep.residual <= 1e-10, rep.residual

    def test_diagonal_generator_rules(self):
        # Cov(xi) = diag(2^-n), Cov(eta) = diag(3^-n) through constructed
        # signed-basis variables; the form sum rule is the coefficient sum
        nu = series.geometric(0.25, coef=3.0)
        s_xi = series.geometric(math.sqrt(2.0), coef=1 / math.sqrt(3.0))
        s_eta = series.geometric(math.sqrt(4.0 / 3.0), coef=1 / math.sqrt(3.0))
        xi = signed_basis_variable(paired_rule_space(nu), s_xi, SP24)
        eta = signed_basis_variable(paired_rule_space(nu), s_eta, SP24)
        cov_xi = covariance_operator(xi)
        assert series.rules_agree(cov_xi.diagonal, series.geometric(0.5))
        cov_eta = covariance_operator(eta)
        assert series.rules_agree(cov_eta.diagonal, series.geometric(1.0 / 3.0))
        rep = independent_sum(xi, eta)
        assert rep.residual <= 1.0

    def test_window_is_the_signed_atom_loop(self):
        # the enumerated window against its loop over the signed atom
        # pairs ((n, sg1), (m, sg2)) of the product space
        nu, rho = series.geometric(0.25, coef=3.0), series.geometric(0.5)
        s_xi = series.geometric(math.sqrt(2.0), coef=1 / math.sqrt(3.0))
        s_eta = series.geometric(1.5, coef=0.5)
        xi = signed_basis_variable(paired_rule_space(nu), s_xi, SP24)
        eta = signed_basis_variable(paired_rule_space(rho), s_eta, SP24)
        rep = independent_sum(xi, eta)
        W = rep.details["window"]
        ns = np.arange(1, W + 1)
        a, b = np.real(nu(ns)), np.real(rho(ns))
        s, r = np.real(s_xi(ns)), np.real(s_eta(ns))
        brute = np.zeros(W)
        for i in range(W):
            for n in range(W):
                for m in range(W):
                    for sg1 in (1.0, -1.0):
                        for sg2 in (1.0, -1.0):
                            val = sg1 * s[n] * (n == i) + sg2 * r[m] * (m == i)
                            brute[i] += 0.25 * a[n] * b[m] * val * val
        rule = a * s ** 2 + b * r ** 2
        allowed = rule * rep.details["weight_tail"] + 1e-10 * rule
        assert rep.residual == pytest.approx(np.max(np.abs(brute - rule) / allowed),
                                             rel=1e-9)
