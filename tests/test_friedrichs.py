"""Friedrichs extension on both backends, with series oracles."""

import importlib
import math

import numpy as np
import pytest

from formcalc import forms, series
from formcalc.duality import (
    DOMAIN_FINITE, DOMAIN_MAXIMAL, DiagonalOperator, Vector, dense_pair,
    generated_vector, is_extension, operator_from_matrix, sequence_pair,
)
from formcalc.errors import DomainError, LowerBoundError, Uncertifiable
from formcalc.friedrichs import core_check, friedrichs, idempotent, in_extension_domain
from formcalc.ordering import in_dom_Jstar
from formcalc.scenarios import run_scenario

SP = sequence_pair(64)


def p_series_oracle(alpha):
    """Independent convergence decision for sum n^alpha via condensation."""
    blocks = [2 ** k * (2.0 ** k) ** alpha for k in range(1, 16)]
    ratios = [blocks[i + 1] / blocks[i] for i in range(len(blocks) - 1)]
    return max(ratios[-5:]) < 0.95


class TestSequenceBackend:
    def test_identity_generator(self):
        a = DiagonalOperator(series.constant(1.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        assert res.extension.domain_rule == DOMAIN_MAXIMAL
        assert res.gamma_preserved.gamma == 1.0
        assert is_extension(a, res.extension)

    def test_polynomial_generator_domain_rule(self):
        # a = diag(n^2): y_n = n^-3 in dom A_F, y_n = n^-2 not
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        assert res.gamma_preserved.gamma == 1.0
        y_in = generated_vector(series.polynomial(-3.0), SP)
        y_out = generated_vector(series.polynomial(-2.0), SP)
        assert in_extension_domain(res, y_in)
        assert not in_extension_domain(res, y_out)
        # oracle: graph series exponents 4 - 6 = -2 (conv), 4 - 4 = 0 (div)
        assert p_series_oracle(-2.0)
        assert not p_series_oracle(0.0)

    def test_exponential_generator(self):
        a = DiagonalOperator(series.geometric(math.e), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        assert res.gamma_preserved.gamma == pytest.approx(math.e)
        assert in_extension_domain(res, generated_vector(series.geometric(
            math.exp(-2.0)), SP))
        assert not in_extension_domain(res, generated_vector(series.geometric(
            math.exp(-1.0)), SP))

    def test_decaying_generator_rejected(self):
        a = DiagonalOperator(series.geometric(0.5), DOMAIN_FINITE)
        with pytest.raises(LowerBoundError):
            friedrichs(a, SP)

    def test_injectivity_degenerate_probe(self):
        # I_a y = 0 forces [y]^2 = 0: the zero vector realizes it exactly
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        y = Vector(np.zeros(SP.n), "sequence")
        energy = res.energy_space.diagonal(np.arange(1, 65)) @ np.abs(y.coords) ** 2
        assert energy == 0.0

    def test_lower_bound_preserved(self):
        for rule, gamma in [(series.polynomial(2.0), 1.0),
                            (series.geometric(2.0), 2.0)]:
            res = friedrichs(DiagonalOperator(rule, DOMAIN_FINITE), SP)
            assert res.gamma_preserved.gamma >= gamma - 1e-10

    def test_idempotent(self):
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        assert idempotent(friedrichs(a, SP), SP)



class TestSequenceExponent:
    """inf a_n bounds (Ax, x) >= gamma ||x||_p^2 for p >= 2 only."""

    @staticmethod
    def scenario(coef, alpha, p):
        return run_scenario({
            "id": "fr-p", "op": "friedrichs",
            "space": {"backend": "sequence", "truncation": 64, "p": p},
            "generator": {"terms": [{"coef": [coef, 0], "alpha": alpha,
                                     "ratio": 1, "start": 1}]}})

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_below_two_is_uncertified(self, alpha):
        # the constant generator has true gamma 0 at p = 1.5 (N leading ones
        # give the ratio N^(-1/3)), n^2 has zeta(6)^(-1/3) < 1
        dp = sequence_pair(64, p=1.5)
        a = DiagonalOperator(series.Rule((series.Term(1.0, alpha, 1.0, 1),)), DOMAIN_FINITE)
        with pytest.raises(Uncertifiable):
            friedrichs(a, dp)
        assert self.scenario(1.0, alpha, 1.5).verdict == "uncertified"

    def test_above_two_is_the_infimum(self):
        dp = sequence_pair(64, p=3.0)
        res = friedrichs(DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE), dp)
        cert = res.gamma_preserved
        assert (cert.gamma, cert.kind, cert.detail) == (1.0, "exact-inf", {"p": 3.0})
        rep = self.scenario(1.0, 2.0, 3.0)
        assert rep.verdict == "pass" and rep.details["gamma"] == 1.0

    def test_two_keeps_its_certificate(self):
        res = friedrichs(DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE), SP)
        cert = res.gamma_preserved
        assert (cert.gamma, cert.kind, cert.detail) == (1.0, "exact-p2", {"p": 2.0})


class TestDenseBackend:
    def test_already_selfadjoint(self):
        dp = dense_pair(2)
        a = operator_from_matrix([[2.0, 1.0], [1.0, 2.0]])
        res = friedrichs(a, dp)
        np.testing.assert_allclose(res.extension.effective_matrix(),
                                   [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
        assert res.gamma_preserved.gamma == pytest.approx(1.0, abs=1e-12)

    def test_extension_property_random(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            dp = dense_pair(n)
            W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = operator_from_matrix(W @ W.conj().T + 0.3 * np.eye(n))
            res = friedrichs(a, dp)
            assert is_extension(a, res.extension)
            assert res.gamma_preserved.gamma >= -1e-10

    def test_gamma_is_certified_once(self, monkeypatch):
        # associated_operator certifies gamma > 0 and friedrichs keeps
        # its certificate rather than computing another
        calls = []
        real = forms.lower_bound

        def counted(t, dp):
            calls.append(t)
            return real(t, dp)

        monkeypatch.setattr(forms, "lower_bound", counted)
        # the package exports the function friedrichs under the module's name
        monkeypatch.setattr(importlib.import_module("formcalc.friedrichs"),
                            "lower_bound", counted)
        dp = dense_pair(3)
        res = friedrichs(operator_from_matrix(np.diag([1.0, 2.0, 3.0])), dp)
        assert len(calls) == 1
        assert res.gamma_preserved.gamma == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(LowerBoundError):
            friedrichs(operator_from_matrix(np.diag([1.0, 0.0])),
                       dense_pair(2))

    def test_idempotent(self):
        dp = dense_pair(3)
        rng = np.random.default_rng(8)
        W = rng.normal(size=(3, 3))
        a = operator_from_matrix(W @ W.T + np.eye(3))
        assert idempotent(friedrichs(a, dp), dp)


class TestCoreCheck:
    def test_finitely_supported_witness_is_itself(self):
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        y = Vector(np.concatenate([[1.0, 2.0], np.zeros(62)]), "sequence")
        rep = core_check(res, [y])
        assert rep.witnesses[0].truncation == 2
        assert rep.witnesses[0].tail == 0.0

    def test_geometric_sample(self):
        # a = diag(n^2), y_n = 2^-n: certified energy tail below 1e-8 * scale
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        y = generated_vector(series.geometric(0.5), SP)
        rep = core_check(res, [y])
        w = rep.witnesses[0]
        total = sum(n ** 2 * 4.0 ** (-n) for n in range(1, 200))
        assert w.tail < 1e-8 * total * 1.01
        assert w.truncation < 60
        assert all(r < 1.0 for r in w.ratios)
        # geometric-tail oracle: true tail at the witness truncation
        true_tail = sum(n ** 2 * 4.0 ** (-n) for n in range(w.truncation + 1, 400))
        assert true_tail <= w.tail

    def test_polynomial_sample_integral_oracle(self):
        # a = diag(n^2), y_n = n^-3: energy tail ~ K^-3 / 3
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        y = generated_vector(series.polynomial(-3.0), SP)
        rep = core_check(res, [y])
        w = rep.witnesses[0]
        total = np.pi ** 4 / 90.0   # sum n^-4
        assert w.tail < 1e-8 * total * 1.01
        # integral-test oracle for the required truncation: K^-3/3 < 1e-8 * total
        k_oracle = math.ceil((1.0 / (3 * 1e-8 * total)) ** (1 / 3))
        assert 0.5 * k_oracle <= w.truncation <= 2.0 * k_oracle

    def test_sample_outside_energy_domain(self):
        a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        res = friedrichs(a, SP)
        bad = generated_vector(series.polynomial(-1.0), SP)   # sum n^2 n^-2 diverges
        assert not in_dom_Jstar(res.extension, bad)
        with pytest.raises(DomainError):
            core_check(res, [bad])
