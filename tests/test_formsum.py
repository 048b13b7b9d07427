"""Form sums, the joint factor identity, commutant lifts and spectra."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from formcalc import formsum, ordering, series, suites
from formcalc.duality import (
    DOMAIN_FINITE, ENDO, DiagonalOperator, dense_pair, generated_vector,
    identity_operator, is_extension, operator_from_matrix, restricted_operator,
    sequence_pair,
)
from formcalc.duality import TO_DUAL, DenseOperator
from formcalc.errors import DomainError, LowerBoundError, NotPositive
from formcalc.forms import DiagonalForm, form_from_gram, form_of_operator
from formcalc.friedrichs import friedrichs
from formcalc.formsum import (
    commutation_formsum, commuting_pair, form_sum, is_closed, joint_factorize,
    lift_commutant, spectrum_inclusion,
)
from formcalc.linalg import gram_inner, hermitian_residual
from formcalc.ordering import FactorizationResult, factorize
from formcalc.scenarios import OPERATIONS

DP2 = dense_pair(2)
SP = sequence_pair(48)


def random_hpd(rng, n, shift=0.4):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return W @ W.conj().T + shift * np.eye(n)


class TestIsClosed:
    def test_dense_automatic(self):
        t = form_from_gram(np.eye(2), np.eye(2))
        assert is_closed(t, None, DP2).kind == "lower-bound-automatic"

    def test_sequence_convergent_run(self):
        t = DiagonalForm(series.polynomial(2.0))
        run = generated_vector(series.polynomial(-2.0), SP)
        wit = is_closed(t, [run], SP)
        assert wit.kind == "sequential"
        rec = wit.runs[0]
        assert all(r < 1.0 for r in rec.contraction)

    def test_sequence_divergent_run_rejected(self):
        t = DiagonalForm(series.polynomial(2.0))
        run = generated_vector(series.polynomial(-1.0), SP)
        with pytest.raises(DomainError):
            is_closed(t, [run], SP)

    @pytest.mark.parametrize("runs", [None, []])
    def test_sequence_without_runs_is_closed_by_fatou(self, runs):
        wit = is_closed(DiagonalForm(series.polynomial(2.0)), runs, SP)
        assert wit.kind == "diagonal-fatou"
        assert wit.runs == ()


class TestFormSum:
    def test_scalars(self):
        dp = dense_pair(1)
        A = operator_from_matrix([[2.0]])
        B = operator_from_matrix([[3.0]])
        fs = form_sum(A, B, dp)
        np.testing.assert_allclose(fs.operator.canonical_matrix(), [[5.0]],
                                   atol=1e-13)

    def test_everywhere_defined_collapse(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        B = operator_from_matrix(np.diag([3.0, 4.0]))
        fs = form_sum(A, B, DP2)
        assert fs.collapse_exact
        np.testing.assert_allclose(fs.operator.canonical_matrix(),
                                   np.diag([4.0, 6.0]), atol=1e-12)

    def test_extension_of_plain_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            dp = dense_pair(n)
            A = operator_from_matrix(random_hpd(rng, n))
            B = operator_from_matrix(random_hpd(rng, n))
            fs = form_sum(A, B, dp)
            assert fs.extension_residual <= 1e-10
            M_sum = A.canonical_matrix() + B.canonical_matrix()
            S = operator_from_matrix(M_sum)
            assert is_extension(S, fs.operator)

    def test_restricted_b_domain(self):
        # B on a 1-dim domain: the sum lives there and extends A + B
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        B = restricted_operator(np.diag([3.0, 4.0]), np.array([1.0, 0.0]))
        fs = form_sum(A, B, DP2)
        z = fs.operator.apply(np.array([1.0, 0.0]))
        np.testing.assert_allclose(z, [4.0, 0.0], atol=1e-12)

    def test_proper_b_domain_is_the_compression(self):
        # B on a proper domain V of dimension d < n, invariant under B or
        # not: the sum is the compression P (A + B) P to V, and A + B is
        # extended as functionals on V, which is how X* identifies them
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n))
            dp = dense_pair(n)
            M_a, M_b = random_hpd(rng, n), random_hpd(rng, n)
            V = (np.linalg.eigh(M_b)[1][:, :d] if trial % 2 else
                 rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))
            A, B = operator_from_matrix(M_a), restricted_operator(M_b, V)
            fs = form_sum(A, B, dp)
            P = B.effective_projector()
            want = P @ (M_a + M_b) @ P
            got = fs.operator.effective_matrix()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert fs.extension_residual <= 1e-10 and not fs.collapse_exact
            jf = joint_factorize(A, B, dp)
            assert jf.jstar_residual <= 1e-10
            assert jf.composition_residual <= 1e-9 and jf.energy_residual <= 1e-9

    def test_restricted_a_domain_rejected(self):
        A = restricted_operator(np.diag([3.0, 4.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match="everywhere defined"):
            form_sum(A, operator_from_matrix(np.eye(2)), DP2)

    def test_gamma_gate(self):
        A = operator_from_matrix(np.diag([1.0, 0.0]))
        B = operator_from_matrix(np.eye(2))
        with pytest.raises(LowerBoundError):
            form_sum(A, B, DP2)

    def test_sequence_generator_sum(self):
        A = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        B = DiagonalOperator(series.polynomial(4.0), DOMAIN_FINITE)
        fs = form_sum(A, B, SP)
        expect = series.polynomial(2.0) + series.polynomial(4.0)
        assert series.rules_agree(fs.operator.diagonal, expect)
        # domain rule: sum (n^2 + n^4)^2 |y_n|^2 finite; n^-5 in, n^-4 out
        # oracle: exponents 8 - 10 = -2 (convergent), 8 - 8 = 0 (divergent)
        assert fs.operator.graph_contains(generated_vector(series.polynomial(-5.0), SP))
        assert not fs.operator.graph_contains(generated_vector(series.polynomial(-4.0), SP))


class TestJointFactorize:
    def test_identity_pair(self):
        A = identity_operator(DP2)
        B = identity_operator(DP2)
        jf = joint_factorize(A, B, DP2)
        np.testing.assert_allclose(jf.formsum.operator.canonical_matrix(),
                                   2 * np.eye(2), atol=1e-12)
        assert jf.jstar_residual <= 1e-10
        assert jf.composition_residual <= 1e-10

    def test_diagonal_pair_joint_gram(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        B = operator_from_matrix(np.diag([3.0, 4.0]))
        jf = joint_factorize(A, B, DP2)
        np.testing.assert_allclose(jf.formsum.operator.canonical_matrix(),
                                   np.diag([4.0, 6.0]), atol=1e-12)

    def test_offdiagonal_matrix_sum_oracle(self):
        A = operator_from_matrix([[2.0, 1.0], [1.0, 2.0]])
        B = identity_operator(DP2)
        jf = joint_factorize(A, B, DP2)
        np.testing.assert_allclose(jf.formsum.operator.canonical_matrix(),
                                   [[3.0, 1.0], [1.0, 3.0]], atol=1e-10)

    def test_energy_identity_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            dp = dense_pair(n)
            A = operator_from_matrix(random_hpd(rng, n))
            B = operator_from_matrix(random_hpd(rng, n))
            jf = joint_factorize(A, B, dp)
            assert jf.energy_residual <= 1e-9
            assert jf.composition_residual <= 1e-9


class TestLiftCommutant:
    def test_identity_a_hermitian_e(self):
        A = identity_operator(DP2)
        H = np.array([[1.0, 2.0], [2.0, -1.0]])
        E = operator_from_matrix(H, ENDO)
        lift = lift_commutant(A, E)
        np.testing.assert_allclose(lift.E_hat, H, atol=1e-12)

    def test_worked_example(self):
        # A = diag(1, 2), K = ones: E = A^-1 K has sigma(E) = {0, 1.5}
        A_mat = np.diag([1.0, 2.0])
        K = np.ones((2, 2))
        A = operator_from_matrix(A_mat)
        E = commuting_pair(A_mat, K)
        np.testing.assert_allclose(E.canonical_matrix(),
                                   [[1.0, 1.0], [0.5, 0.5]], atol=1e-14)
        lift = lift_commutant(A, E)
        assert lift.spectral_radius_sq == pytest.approx(2.25, abs=1e-12)
        assert lift.bound_margin <= 1.0 + 1e-8
        assert lift.norm_bound <= math.sqrt(2.25) * (1 + 1e-10)
        assert lift.selfadjoint_residual <= 1e-10

    def test_zero_commutant(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        E = operator_from_matrix(np.zeros((2, 2)), ENDO)
        lift = lift_commutant(A, E)
        np.testing.assert_allclose(lift.E_hat, 0.0, atol=1e-14)

    def test_noncommuting_rejected(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        E = operator_from_matrix([[0.0, 1.0], [0.0, 0.0]], ENDO)
        with pytest.raises(DomainError):
            lift_commutant(A, E)

    def test_bound_on_random_commuting_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A_mat = random_hpd(rng, n)
            K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            K = K + K.conj().T
            A = operator_from_matrix(A_mat)
            E = commuting_pair(A_mat, K)
            lift = lift_commutant(A, E)
            assert lift.bound_margin <= 1.0 + 1e-8
            assert lift.norm_bound <= math.sqrt(lift.spectral_radius_sq) * (1 + 1e-8)
            assert lift.selfadjoint_residual <= 1e-10

    def test_scale_of_e_decides_nothing(self):
        # the lift identities are linear in E and scaling by 2^k is exact:
        # the lift and spectrum checks give E = A^-1 K and 2^k E the same
        # verdicts and the same scale-free residuals
        rng = np.random.default_rng(141)
        for _ in range(10):
            A_mat = random_hpd(rng, 6)
            K = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            K = K + K.conj().T
            runs = []
            for k in (0, 10, 20):
                ops = {"space": {"backend": "dense", "dim": 6},
                       "A": suites._operator(A_mat), "K": suites._wire(2.0 ** k * K)}
                lift, _, _ = OPERATIONS["lift-commutant"][1](ops)
                spec, _, _ = OPERATIONS["spectrum-inclusion"][1](ops)
                runs.append((lift, spec["imag"], spec["distance"], spec["resolvent"],
                             all(value <= tol for value, tol in spec.values())))
            assert runs[0] == runs[1] == runs[2]
            assert runs[0][-1]


class TestCommutationFormsum:
    def test_proper_b_domain_compares_on_dom_t_b(self):
        # B = 2A on three eigenvectors of E = A^-1 K, an E-invariant
        # domain: both lifts exist, and E^H (A (+) B) = (A (+) B) E holds on
        # dom t_B, where the sum form lives, not on all of X
        rng = np.random.default_rng(154)
        dp = dense_pair(5)
        for _ in range(20):
            A_mat = random_hpd(rng, 5)
            K = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            E = commuting_pair(A_mat, K + K.conj().T)
            V = np.linalg.eig(E.canonical_matrix())[1][:, :3]
            rep = commutation_formsum(operator_from_matrix(A_mat),
                                      restricted_operator(2.0 * A_mat, V), E, dp)
            assert rep.passed and rep.formsum_inclusion <= 1e-9

    def test_identity_commutant(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        B = operator_from_matrix(np.diag([2.0, 1.0]))
        E = operator_from_matrix(np.eye(2), ENDO)
        rep = commutation_formsum(A, B, E, DP2)
        assert rep.passed

    def test_scalar_multiple_construction(self):
        # B = 3A shares every commutant of A through the same K
        A_mat = np.diag([1.0, 2.0])
        K = np.ones((2, 2))
        A = operator_from_matrix(A_mat)
        B = operator_from_matrix(3.0 * A_mat)
        E = commuting_pair(A_mat, K)
        rep = commutation_formsum(A, B, E, DP2)
        assert rep.passed
        assert rep.formsum_inclusion <= 1e-10

    def test_scalar_multiple_b_general_k(self):
        # B = cA shares the commutant of A for every Hermitian K
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            dp = dense_pair(n)
            A_mat = random_hpd(rng, n)
            B_mat = float(rng.uniform(0.5, 3.0)) * A_mat
            K = rng.normal(size=(n, n))
            K = K + K.T
            E = commuting_pair(A_mat, K)
            rep = commutation_formsum(operator_from_matrix(A_mat),
                                      operator_from_matrix(B_mat), E, dp)
            assert rep.passed

    def test_polynomial_b_commuting_k(self):
        # degree-2 positive polynomials in A need K commuting with A
        # (the constant term forces E Hermitian); draw K = q(A)
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            dp = dense_pair(n)
            A_mat = random_hpd(rng, n)
            c2, c1, c0 = rng.uniform(0.1, 1.5, size=3)
            B_mat = c2 * A_mat @ A_mat + c1 * A_mat + c0 * np.eye(n)
            u1, u0 = rng.normal(size=2)
            K = u1 * A_mat + u0 * np.eye(n)
            E = commuting_pair(A_mat, K)
            rep = commutation_formsum(operator_from_matrix(A_mat),
                                      operator_from_matrix(B_mat), E, dp)
            assert rep.passed

    def test_block_construction(self):
        # independent blocks with a block E
        A_mat = np.diag([1.0, 2.0, 3.0, 4.0])
        B_mat = np.diag([2.0, 2.0, 5.0, 5.0])
        E_mat = np.diag([1.0, -1.0, 0.5, 2.0])
        dp = dense_pair(4)
        rep = commutation_formsum(operator_from_matrix(A_mat),
                                  operator_from_matrix(B_mat),
                                  operator_from_matrix(E_mat, ENDO), dp)
        assert rep.passed


class TestSpectrumInclusion:
    def test_hermitian_diag(self):
        A = identity_operator(DP2)
        E = operator_from_matrix(np.diag([1.0, -1.0]), ENDO)
        rep = spectrum_inclusion(A, E)
        assert rep.passed
        np.testing.assert_allclose(sorted(rep.lift_eigenvalues.real), [-1.0, 1.0],
                                   atol=1e-12)

    def test_worked_example_similar_spectrum(self):
        A_mat = np.diag([1.0, 2.0])
        K = np.ones((2, 2))
        A = operator_from_matrix(A_mat)
        E = commuting_pair(A_mat, K)
        rep = spectrum_inclusion(A, E)
        assert rep.passed
        np.testing.assert_allclose(sorted(rep.lift_eigenvalues.real), [0.0, 1.5],
                                   atol=1e-10)

    def test_kernel_quotient_spectrum(self):
        A = operator_from_matrix(np.diag([1.0, 0.0]))
        E = operator_from_matrix(np.eye(2), ENDO)
        rep = spectrum_inclusion(A, E)
        assert rep.passed
        assert rep.lift_eigenvalues.shape == (1,)
        assert rep.lift_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_random_instances_with_resolvent(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A_mat = random_hpd(rng, n)
            K = rng.normal(size=(n, n))
            K = K + K.T
            A = operator_from_matrix(A_mat)
            E = commuting_pair(A_mat, K)
            rep = spectrum_inclusion(A, E)
            assert rep.passed
            assert rep.resolvent_residual <= 1e-8


@pytest.fixture
def factorize_calls(monkeypatch):
    """Operands of every factorize call made through either module."""
    calls = []
    real = ordering.factorize

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(ordering, "factorize", counted)
    monkeypatch.setattr(formsum, "factorize", counted)
    return calls


@pytest.fixture
def eq7_calls(monkeypatch):
    calls = []
    real = formsum._eq7_residual

    def counted(A, E_mat):
        calls.append(E_mat)
        return real(A, E_mat)

    monkeypatch.setattr(formsum, "_eq7_residual", counted)
    return calls


def commuting_instance(rng, n):
    A_mat = random_hpd(rng, n)
    K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dp = dense_pair(n)
    return A_mat, operator_from_matrix(A_mat), \
        commuting_pair(A_mat, K + K.conj().T), dp


class TestFactorOnce:
    def test_spectrum_inclusion_factorizes_once(self, factorize_calls, eq7_calls):
        _, A, E, dp = commuting_instance(np.random.default_rng(81), 4)
        assert spectrum_inclusion(A, E).passed
        assert factorize_calls == [A]
        # E and each of the three resolvents still pass the eq7 check
        assert len(eq7_calls) == 4

    def test_spectrum_inclusion_takes_the_spectrum_of_e_once(self, monkeypatch):
        _, A, E, dp = commuting_instance(np.random.default_rng(83), 5)
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda M: shapes.append(M.shape) or eigvals(M))
        assert spectrum_inclusion(A, E).passed
        # E, its lift, and the three resolvents
        assert len(shapes) == 5

    def test_joint_factorize_factorizes_each_operand_once(self, factorize_calls):
        rng = np.random.default_rng(82)
        dp = dense_pair(4)
        A = operator_from_matrix(random_hpd(rng, 4))
        B = operator_from_matrix(random_hpd(rng, 4))
        jf = joint_factorize(A, B, dp)
        assert factorize_calls == [A, B]
        assert jf.fac_a.operator is A and jf.fac_b.operator is B

    def test_dense_form_sum_factorizes_nothing(self, factorize_calls, monkeypatch):
        cholesky_calls = []
        real = ordering.pivoted_cholesky
        monkeypatch.setattr(ordering, "pivoted_cholesky",
                            lambda *a, **k: cholesky_calls.append(a) or real(*a, **k))
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        form_sum(A, restricted_operator(np.diag([3.0, 4.0]), [1.0, 0.0]), DP2)
        form_sum(A, identity_operator(DP2), DP2)
        assert factorize_calls == [] and cholesky_calls == []

    def test_form_sum_builds_each_form_once(self, monkeypatch):
        calls = []
        real = formsum.form_of_operator

        def counted(op):
            calls.append(op)
            return real(op)

        monkeypatch.setattr(formsum, "form_of_operator", counted)
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        B = operator_from_matrix(np.diag([3.0, 1.0]))
        form_sum(A, B, DP2)
        assert calls == [A, B]

    def test_commutation_formsum_factorizes_each_operand_once(self, factorize_calls):
        rng = np.random.default_rng(83)
        A_mat, A, E, dp = commuting_instance(rng, 4)
        B = operator_from_matrix(2.5 * A_mat)    # shares the commutant of A
        rep = commutation_formsum(A, B, E, dp)
        assert rep.passed
        # the lifts factorize A and B, the form sum neither
        assert factorize_calls == [A, B]
        # and the report is the one of a form sum made on its own
        fs = form_sum(A, B, dp)
        M = fs.operator.canonical_matrix()
        E_mat = E.canonical_matrix()
        incl = float(np.linalg.norm(E_mat.conj().T @ M - M @ E_mat, 2)) / max(
            float(np.linalg.norm(M, 2)), 1.0)
        assert rep.formsum_inclusion == incl

    def test_commutation_formsum_bounds_each_operand_once(self, monkeypatch):
        calls = []
        real = formsum.lower_bound

        def counted(t, dp):
            calls.append(t)
            return real(t, dp)

        monkeypatch.setattr(formsum, "lower_bound", counted)
        A_mat, A, E, dp = commuting_instance(np.random.default_rng(84), 4)
        assert commutation_formsum(A, operator_from_matrix(1.5 * A_mat),
                                   E, dp).passed
        # the form sum bounds A, and the closedness of t_B bounds B
        assert len(calls) == 2

    def test_commutation_formsum_rejects_singular_summand(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        E = operator_from_matrix(np.diag([1.0, -1.0]), ENDO)
        singular = operator_from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(LowerBoundError):
            commutation_formsum(A, singular, E, DP2)
        with pytest.raises(LowerBoundError):
            commutation_formsum(singular, A, E, DP2)

    def test_broken_commutation_factorizes_nothing(self, factorize_calls):
        A = operator_from_matrix(np.diag([1.0, 2.0]))
        E = operator_from_matrix([[0.0, 1.0], [0.0, 0.0]], ENDO)
        with pytest.raises(DomainError):
            lift_commutant(A, E)
        assert factorize_calls == []


def close(got, ref):
    """Residuals are already relative to their operator scale; compare them
    relative to max(|ref|, 1)."""
    return abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)


def loop_joint_residuals(A, B, M_AB, Z):
    """The three joint-factorization residuals against the form sum M_AB,
    one column of the basis Z (one pair of columns for the energy
    identity) at a time."""
    fac_a, fac_b = factorize(A), factorize(B)
    scale = max(np.linalg.norm(A.canonical_matrix() + B.canonical_matrix(), 2), 1.0)
    jstar = comp = energy = 0.0
    cols = []
    for z in Z.T:
        ca, cb = fac_a.jstar_coefficients(z), fac_b.jstar_coefficients(z)
        az = A.action_mat[:, fac_a.pivots] @ ca
        bz = B.action_mat[:, fac_b.pivots] @ cb
        jstar = max(jstar, np.linalg.norm(az - A.apply(z)) / scale,
                    np.linalg.norm(bz - B.apply(z)) / scale)
        comp = max(comp, np.linalg.norm(az + bz - M_AB @ z) / scale)
        cols.append((z, ca, cb))
    for y, ca, cb in cols:
        for z, da, db in cols:
            lhs = gram_inner(fac_a.gram, ca, da) + gram_inner(fac_b.gram, cb, db)
            rhs = np.vdot(z, M_AB @ y)
            energy = max(energy, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return jstar, comp, energy


class TestBatchedSamples:
    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_joint_factorize_matches_per_sample(self, n, monkeypatch):
        rng = np.random.default_rng(90 + n)
        dp = dense_pair(n)
        # B on a proper subspace invariant under A and B, so the checks run
        # on a basis of dom t_B and the form sum still extends A + B
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        A = operator_from_matrix(Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.conj().T)
        B = restricted_operator(Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.conj().T,
                                Q[:, :max(1, n - n // 3)])
        Z = B._basis.U
        jf = joint_factorize(A, B, dp)
        ref = loop_joint_residuals(A, B, form_sum(A, B, dp).operator.canonical_matrix(), Z)
        got = (jf.jstar_residual, jf.composition_residual, jf.energy_residual)
        assert all(map(close, got, ref)), (got, ref)
        # a form sum off between the first and last basis directions only:
        # a check that skipped a basis vector or a pair would miss it
        fs = form_sum(A, B, dp)
        D = np.outer(Z[:, -1], Z[:, 0].conj())
        M_bad = fs.operator.canonical_matrix() + 0.1 * (D + D.conj().T)
        monkeypatch.setattr(formsum, "form_sum", lambda *args: dataclasses.replace(
            fs, operator=operator_from_matrix(M_bad)))
        jf = joint_factorize(A, B, dp)
        ref = loop_joint_residuals(A, B, M_bad, Z)
        got = (jf.jstar_residual, jf.composition_residual, jf.energy_residual)
        assert min(got[1:]) > 1e-3 and all(map(close, got, ref)), (got, ref)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_commutation_factor_inclusions_match_per_sample(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        A_mat, A, E, dp = commuting_instance(rng, n)
        B = operator_from_matrix(float(rng.uniform(0.5, 2.0)) * A_mat)
        self.check_factor_inclusions(A, B, E, dp, commutation_formsum(A, B, E, dp))
        # lifts off in their last pivot column only: a check that skipped
        # a basis vector would miss it
        real = formsum.lift_commutant

        def off(A, E):
            lift = real(A, E)
            E_hat = lift.E_hat.copy()
            E_hat[-1, -1] += 0.1
            return dataclasses.replace(lift, E_hat=E_hat)

        monkeypatch.setattr(formsum, "lift_commutant", off)
        rep = commutation_formsum(A, B, E, dp)
        assert min(rep.factor_inclusions.values()) > 1e-3
        self.check_factor_inclusions(A, B, E, dp, rep)

    @staticmethod
    def check_factor_inclusions(A, B, E, dp, rep):
        M = form_sum(A, B, dp).operator.canonical_matrix()
        scale = max(np.linalg.norm(M, 2), 1.0)
        E_mat = E.canonical_matrix()
        res_j = res_jstar = 0.0
        for lift, op in ((rep.lift_a, A), (rep.lift_b, B)):
            fac = lift.factorization
            P = op.action_mat[:, fac.pivots]
            # E* J against J (E^_A (+) E^_B) on each pivot basis vector
            for c in np.eye(fac.rank):
                res_j = max(res_j, np.linalg.norm(
                    E_mat.conj().T @ (P @ c) - P @ (lift.E_hat @ c)) / scale)
            # (E^_A (+) E^_B) J* against J* E on each standard basis vector
            for z in np.eye(dp.n):
                d = lift.E_hat @ fac.jstar_coefficients(z) - \
                    fac.jstar_coefficients(E_mat @ z)
                res_jstar = max(res_jstar, math.sqrt(abs(np.real(
                    gram_inner(fac.gram, d, d)))) / scale)
        assert close(rep.factor_inclusions["E_star_J"], res_j)
        assert close(rep.factor_inclusions["J_star_E"], res_jstar)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_lift_bound_margin_matches_per_sample(self, n):
        """bound_margin r(E^2) is the largest eigenvalue of the pencil
        (E^H conj(K) E^, conj(K)), the supremum of [E^ h]^2 / [h]^2."""
        rng = np.random.default_rng(110 + n)
        for _ in range(20):
            _, A, E, dp = commuting_instance(rng, n)
            lift = lift_commutant(A, E)
            Kc, Eh = np.conj(lift.factorization.gram), lift.E_hat
            top = scipy.linalg.eigh(Eh.conj().T @ Kc @ Eh, Kc, eigvals_only=True)[-1]
            got = lift.bound_margin * lift.spectral_radius_sq
            assert abs(got - top) <= 1e-10 * abs(top), (got, top)

    def test_spectrum_distance_matches_per_eigenvalue(self):
        _, A, E, dp = commuting_instance(np.random.default_rng(120), 6)
        rep = spectrum_inclusion(A, E)
        ref = max(float(np.min(np.abs(rep.e_eigenvalues - mu)))
                  for mu in rep.lift_eigenvalues)
        assert rep.max_distance == ref


def test_checks_draw_no_random_numbers(monkeypatch):
    """The form-sum checks and their scenario handlers run on whole bases
    and need no random generator."""
    rng = np.random.default_rng(130)
    A_mat = random_hpd(rng, 4)
    K = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    K = K + K.conj().T
    dp = dense_pair(4)
    A, B = operator_from_matrix(A_mat), operator_from_matrix(2.0 * A_mat)
    E = commuting_pair(A_mat, K)

    def refuse(*args, **kwargs):
        raise AssertionError("a form-sum check drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert joint_factorize(A, B, dp).energy_residual <= 1e-9
    assert lift_commutant(A, E).bound_margin <= 1.0 + 1e-8
    assert commutation_formsum(A, B, E, dp).passed
    assert spectrum_inclusion(A, E).passed
    ops = {"space": {"backend": "dense", "dim": 4}, "A": suites._operator(A_mat),
           "B": suites._operator(2.0 * A_mat), "K": suites._wire(K)}
    for op in ("joint-factorize", "lift-commutant", "commutation-formsum",
               "spectrum-inclusion"):
        checks, _, _ = OPERATIONS[op][1](ops)
        assert all(value <= tol for value, tol in checks.values()), op


class TestOneFormOfA:
    """The dense form sum reads t_A from the form of A, and factorize,
    friedrichs and form_sum share the form's symmetry and positivity."""

    def test_sum_gram_matches_the_jstar_route(self, monkeypatch):
        grams = []
        real = formsum.SesquilinearForm

        def captured(basis, gram, *args, **kwargs):
            grams.append(gram)
            return real(basis, gram, *args, **kwargs)

        monkeypatch.setattr(formsum, "SesquilinearForm", captured)
        rng = np.random.default_rng(120)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, n))
            dp = dense_pair(n)
            # A and B diagonal in one unitary Q, so dom t_B = span Q[:, :d]
            # is invariant and the form sum extends A + B; A on a basis
            # with column scales 1e-2 to 1e2
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            M_a = Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.conj().T
            M_b = Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.conj().T
            W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            basis = W * 10.0 ** rng.uniform(-2, 2, size=n)
            A = DenseOperator(TO_DUAL, basis, M_a @ basis)
            B = restricted_operator(M_b, Q[:, :d])
            grams.clear()
            form_sum(A, B, dp)
            fac = factorize(A)
            Cc = fac.jstar_coefficients(B.basis_mat)
            want = Cc.T @ fac.gram @ np.conj(Cc) + form_of_operator(B).gram
            assert np.linalg.norm(grams[0] - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def perturbed(rel):
        """An HPD 4 x 4 operator plus an anti-Hermitian perturbation whose
        form gram has Hermitian residual rel."""
        rng = np.random.default_rng(121)
        M = random_hpd(rng, 4)
        S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        K = S - S.conj().T
        return M + K * (rel * np.linalg.norm(M) / (2 * np.linalg.norm(K)))

    @pytest.mark.parametrize("rel", [2e-11, 1e-10])
    def test_one_symmetry_gate(self, rel):
        dp = dense_pair(4)
        A = operator_from_matrix(self.perturbed(rel))
        assert hermitian_residual(form_of_operator(A).gram) == pytest.approx(rel, rel=1e-3)
        for construction in (lambda: factorize(A), lambda: friedrichs(A, dp),
                             lambda: form_sum(A, identity_operator(dp), dp),
                             lambda: form_sum(identity_operator(dp), A, dp)):
            with pytest.raises(NotPositive, match="^operator form is not symmetric$"):
                construction()

    def test_nearly_symmetric_operand_passes_every_gate(self):
        dp = dense_pair(4)
        A = operator_from_matrix(self.perturbed(2e-13))
        assert factorize(A).rank == 4
        assert friedrichs(A, dp).gamma_preserved.gamma > 0
        assert form_sum(A, identity_operator(dp), dp).extension_residual <= 1e-10

    def test_indefinite_operand_fails_in_the_form(self):
        dp = dense_pair(2)
        A = operator_from_matrix(np.diag([1.0, -1.0]))
        for construction in (lambda: factorize(A), lambda: friedrichs(A, dp),
                             lambda: form_sum(A, identity_operator(dp), dp)):
            with pytest.raises(NotPositive, match="^form indefinite"):
                construction()


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count of every numpy.linalg SVD, eigvalsh and pivoted Cholesky,
    and the operands of every factorize call."""
    calls = {"svd": 0, "eigvalsh": 0, "pivoted_cholesky": 0, "factorize": []}
    for name in ("svd", "eigvalsh"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    real_chol, real_fac = ordering.pivoted_cholesky, ordering.factorize

    def chol(*args, **kwargs):
        calls["pivoted_cholesky"] += 1
        return real_chol(*args, **kwargs)

    def fac(A):
        calls["factorize"].append(A)
        return real_fac(A)

    monkeypatch.setattr(ordering, "pivoted_cholesky", chol)
    monkeypatch.setattr(ordering, "factorize", fac)
    monkeypatch.setattr(formsum, "factorize", fac)
    return calls


class TestLinalgCounts:
    def test_dense_form_sum(self, linalg_calls):
        rng = np.random.default_rng(122)
        dp = dense_pair(8)
        A = operator_from_matrix(random_hpd(rng, 8))
        B = operator_from_matrix(random_hpd(rng, 8))
        form_sum(A, B, dp)
        # the self-adjointness residual of the representation and the
        # collapse residual are exact zeros here, which take no SVD
        assert linalg_calls == {"svd": 2, "eigvalsh": 5, "pivoted_cholesky": 0,
                                "factorize": []}

    def test_factorize_solves_one_eigenproblem(self, linalg_calls):
        rng = np.random.default_rng(123)
        factorize(operator_from_matrix(random_hpd(rng, 8)))
        assert linalg_calls["eigvalsh"] == 1
        assert linalg_calls["pivoted_cholesky"] == 1


KERNELS = ("svd", "cholesky", "inv", "eigvals")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count of every numpy.linalg call named in KERNELS."""
    calls = dict.fromkeys(KERNELS, 0)
    for name in KERNELS:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def each_kernel_anew(monkeypatch):
    """Take back the sharing: an operator's action SVD and spectrum and a
    factorization's whitening are computed again at every use."""
    monkeypatch.setattr(DenseOperator, "_once", lambda self, key, compute: compute())

    def whitening(fac):
        LH = np.linalg.cholesky(np.conj(fac.gram)).conj().T
        return LH, np.linalg.inv(LH)

    monkeypatch.setattr(FactorizationResult, "whitening", whitening)


def counted_runs(construction, kernel_calls, monkeypatch):
    """(counts, result) of ``construction()`` on a fresh seeded instance,
    with the kernels shared and then with each computed anew."""
    runs = []
    for shared in (True, False):
        if not shared:
            each_kernel_anew(monkeypatch)
        instance = commuting_instance(np.random.default_rng(83), 5)
        kernel_calls.update(dict.fromkeys(KERNELS, 0))
        result = construction(*instance)
        runs.append((dict(kernel_calls), result))
    return runs


def bits(*values):
    return [np.asarray(v).tobytes() for v in values]


class TestSharedKernels:
    def test_spectrum_inclusion(self, kernel_calls, monkeypatch):
        (shared, rep), (anew, ref) = counted_runs(
            lambda A_mat, A, E, dp: spectrum_inclusion(A, E), kernel_calls, monkeypatch)
        # one action SVD for factorize and the four eq7 checks, one norm
        # per lift; the lift's whitening serves the three resolvent lifts,
        # and the spectrum of E taken in lift_commutant serves the inclusion
        assert shared == {"svd": 5, "cholesky": 1, "inv": 7, "eigvals": 5}
        assert anew == {"svd": 9, "cholesky": 4, "inv": 10, "eigvals": 6}
        assert rep.passed and bits(*dataclasses.astuple(rep)) == bits(*dataclasses.astuple(ref))

    def test_commutation_formsum(self, kernel_calls, monkeypatch):
        def construction(A_mat, A, E, dp):
            return commutation_formsum(A, operator_from_matrix(2.0 * A_mat), E, dp)

        (shared, rep), (anew, ref) = counted_runs(construction, kernel_calls, monkeypatch)
        assert shared["eigvals"] == 1 and anew["eigvals"] == 2

        def fields(r):
            return bits(r.formsum_inclusion, *r.factor_inclusions.values(), *[
                getattr(lift, f) for lift in (r.lift_a, r.lift_b)
                for f in ("E_hat", "spectral_radius_sq", "bound_margin", "norm_bound",
                          "selfadjoint_residual", "eq7_residual")])

        assert rep.passed and fields(rep) == fields(ref)
