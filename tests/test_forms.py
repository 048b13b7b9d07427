"""Representation theorem: lower bounds, Riesz solves, A = B^-1."""

import numpy as np
import pytest
import scipy.linalg

from formcalc import linalg, series, suites
from formcalc.duality import (
    FROM_DUAL, dense_pair, functional, operator_from_matrix, restricted_operator,
    sequence_pair,
)
from formcalc.errors import LowerBoundError, NotPositive, Uncertifiable
from formcalc.forms import (
    DiagonalForm, SesquilinearForm, associated_operator, form_from_gram, form_of_operator,
    inverse_selfadjoint, lower_bound, riesz_solve,
)
from formcalc.linalg import hermitian_residual, is_hermitian
from formcalc.scenarios import run_scenario

DP2 = dense_pair(2)


def random_hpd(rng, n, shift=0.5):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return W @ W.conj().T + shift * np.eye(n)


class TestLowerBound:
    def test_identity_orthonormal(self):
        t = form_from_gram(np.eye(2), np.eye(2))
        assert lower_bound(t, DP2).gamma == pytest.approx(1.0, abs=1e-10)

    def test_diag_gram_eigensolve_oracle(self):
        t = form_from_gram(np.eye(2), np.diag([2.0, 3.0]))
        cert = lower_bound(t, DP2)
        assert cert.kind == "exact-p2"
        # oracle: smallest eigenvalue by characteristic polynomial
        assert cert.gamma == pytest.approx(2.0, abs=1e-10)

    def test_equivalence_scaled_p4(self):
        dp = dense_pair(2, p=4.0)
        t = form_from_gram(np.eye(2), np.diag([2.0, 3.0]))
        cert = lower_bound(t, dp)
        assert cert.kind == "equivalence-scaled"
        # ||x||_4 <= ||x||_2, so the p = 2 value holds with nothing conceded
        assert cert.gamma == 2.0
        assert cert.slack == 0
        # grid-minimization oracle: t(x,x)/||x||_4^2 over a dense direction grid
        thetas = np.linspace(0, np.pi / 2, 4001)
        xs = np.stack([np.cos(thetas), np.sin(thetas)])
        quad = 2 * xs[0] ** 2 + 3 * xs[1] ** 2
        p4 = (xs[0] ** 4 + xs[1] ** 4) ** (2 / 4)
        assert np.min(quad / p4) >= cert.gamma - 1e-12

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_identity_gram_above_p_2_is_exact(self, p, n):
        cert = lower_bound(form_from_gram(np.eye(n), np.eye(n)), dense_pair(n, p=p))
        assert (cert.gamma, cert.slack) == (1.0, 0.0)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositive):
            form_from_gram(np.eye(2), np.diag([1.0, -1.0]))

    def test_nonorthonormal_basis(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
            M = random_hpd(rng, n)
            # gram of the form (Mx, y) over basis columns of B
            G = (B.conj().T @ (M @ B)).T
            t = form_from_gram(B, G)
            gamma = lower_bound(t, dense_pair(n)).gamma
            # oracle: min Rayleigh quotient of M on random unit vectors
            xs = rng.normal(size=(n, 400)) + 1j * rng.normal(size=(n, 400))
            xs /= np.linalg.norm(xs, axis=0)
            rq = np.real(np.einsum("in,ij,jn->n", xs.conj(), M, xs))
            assert np.min(rq) >= gamma - 1e-9 * max(1.0, gamma)


def normal_equation_gamma(t):
    """The p = 2 gamma through the normal equations: Cholesky of B^H B
    and two triangular solves.  On an identity basis the SVD reduction
    must give the same bits."""
    B = t.basis_mat
    R = scipy.linalg.cholesky(B.conj().T @ B, lower=False)
    Gq = np.conj(t.gram)
    W = scipy.linalg.solve_triangular(R.conj().T, 0.5 * (Gq + Gq.conj().T), lower=True)
    W = scipy.linalg.solve_triangular(R.conj().T, W.conj().T, lower=True).conj().T
    return float(scipy.linalg.eigvalsh(0.5 * (W + W.conj().T))[0])


def singular_margin(B):
    """lambda_min(B^H B) over the singular threshold 1e-12 max_j ||b_j||^2."""
    S = B.conj().T @ B
    return scipy.linalg.eigvalsh(S)[0] / (1e-12 * np.max(np.diag(S).real))


@pytest.fixture
def svd_solve_calls(monkeypatch):
    """First argument of every numpy SVD and solve, by name."""
    calls = {"svd": [], "solve": []}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name].append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSequenceLowerBound:
    @pytest.mark.parametrize("p, kind", [(2.0, "exact-p2"), (3.0, "exact-inf")])
    def test_infimum_for_p_at_least_2(self, p, kind):
        cert = lower_bound(DiagonalForm(series.polynomial(2.0)),
                           sequence_pair(64, p=p))
        assert (cert.gamma, cert.kind, cert.detail) == (1.0, kind, {"p": p})

    def test_uncertified_below_p_2(self):
        with pytest.raises(Uncertifiable, match="p = 1.5 < 2"):
            lower_bound(DiagonalForm(series.polynomial(2.0)),
                        sequence_pair(64, p=1.5))


class TestFormOfOperator:
    @pytest.mark.parametrize("rel", [1e-14, 1e-13, 1e-11, 5e-11, 1e-9])
    def test_symmetry_flag_is_the_constructors_test(self, rel):
        # an HPD matrix plus an anti-Hermitian perturbation of relative
        # size rel: the form builds, and it is symmetric iff the gram's
        # Hermitian residual is within the constructor's 1e-12
        rng = np.random.default_rng(68)
        M = random_hpd(rng, 4)
        S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        K = S - S.conj().T
        M = M + K * (rel * np.linalg.norm(M) / (2 * np.linalg.norm(K)))
        t = form_of_operator(operator_from_matrix(M))
        assert hermitian_residual(t.gram) == pytest.approx(rel, rel=1e-3)
        assert t.symmetric == (rel < 1e-12)

    @pytest.mark.parametrize("rel", [1e-14, 1e-13, 1e-11, 5e-11, 1e-9])
    def test_operator_symmetry_is_the_forms_flag(self, rel):
        rng = np.random.default_rng(69)
        M = random_hpd(rng, 5)
        S = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        K = S - S.conj().T
        M = M + K * (rel * np.linalg.norm(M) / (2 * np.linalg.norm(K)))
        for A in (operator_from_matrix(M),
                  restricted_operator(M, rng.normal(size=(5, 3)))):
            assert A.is_symmetric() == form_of_operator(A).symmetric
        assert operator_from_matrix(M).is_symmetric() == (rel < 1e-12)

    @pytest.mark.parametrize("rel", [0.0, 1e-9])
    def test_one_hermitian_test_per_form(self, monkeypatch, rel):
        # one Hermitian test, of two norms, where the constructor repeated
        # it; the form has the bits of the doubly tested construction
        rng = np.random.default_rng(70)
        M = random_hpd(rng, 5)
        S = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        K = S - S.conj().T
        A = restricted_operator(M + K * (rel * np.linalg.norm(M) / (2 * np.linalg.norm(K))),
                                rng.normal(size=(5, 3)))
        ref = SesquilinearForm(A._basis, A.form_gram(),
                               symmetric=is_hermitian(A.form_gram()))
        calls = {"hermitian_residual": 0, "norm": 0}
        for mod, name in ((linalg, "hermitian_residual"), (np.linalg, "norm")):
            def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
        t = form_of_operator(A)
        assert calls == {"hermitian_residual": 1, "norm": 2}
        assert t.symmetric == ref.symmetric == (rel == 0.0)
        for got, want in ((t.gram, ref.gram), (t.basis_mat, ref.basis_mat),
                          (t._coefficient_spectrum, ref._coefficient_spectrum)):
            assert got.tobytes() == want.tobytes()


class TestLowerBoundFromOneSVD:
    def test_one_svd_and_no_cholesky(self, monkeypatch):
        rng = np.random.default_rng(61)
        B = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        t = form_from_gram(B, (B.conj().T @ random_hpd(rng, 7) @ B).T)
        calls = {"svd": 0, "cholesky": 0}
        for mod, name in ((np.linalg, "svd"), (scipy.linalg, "cholesky")):
            def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
        lower_bound(t, dense_pair(7))
        assert calls == {"svd": 1, "cholesky": 0}

    def test_form_of_an_operator_shares_its_svd(self, svd_solve_calls):
        rng = np.random.default_rng(66)
        B = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        A = restricted_operator(random_hpd(rng, 6), B)
        assert len(svd_solve_calls["svd"]) == 1
        lower_bound(form_of_operator(A), dense_pair(6))
        assert len(svd_solve_calls["svd"]) == 1

    def test_generalized_eigenvalue_oracle(self):
        rng = np.random.default_rng(62)
        compared = 0
        for _ in range(200):
            n = int(rng.integers(1, 41))
            d = int(rng.integers(1, max(1, n - 1) + 1))
            B = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            B = B * 10.0 ** rng.uniform(-3, 3, size=d)
            t = form_from_gram(B, (B.conj().T @ random_hpd(rng, n) @ B).T)
            margin = singular_margin(B)
            if margin < 0.5:
                with pytest.raises(NotPositive):
                    lower_bound(t, dense_pair(n))
            elif margin > 2.0:
                Gq = np.conj(t.gram)
                want = scipy.linalg.eigh(0.5 * (Gq + Gq.conj().T), B.conj().T @ B,
                                         eigvals_only=True)[0]
                assert abs(lower_bound(t, dense_pair(n)).gamma - want) <= 1e-10 * abs(want)
                compared += 1
        assert compared > 100

    def test_identity_basis_is_bit_identical(self):
        rng = np.random.default_rng(63)
        for n in range(1, 41):
            t = form_from_gram(np.eye(n), random_hpd(rng, n).T)
            assert lower_bound(t, dense_pair(n)).gamma == normal_equation_gamma(t)

    def test_singular_threshold_either_side(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            d = int(rng.integers(2, n + 1))
            U = np.linalg.qr(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))[0]
            V = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            s = 10.0 ** rng.uniform(-2, 2, size=d)
            for factor in (2.0, 0.5):
                s[-1] = 0.0
                col_max = np.max(np.linalg.norm((U * s) @ V.conj().T, axis=0) ** 2)
                s[-1] = np.sqrt(factor * 1e-12 * col_max)
                B = (U * s) @ V.conj().T
                t = form_from_gram(B, np.eye(d))
                # the normal equations see the same side of the threshold
                assert (singular_margin(B) > 1.0) == (factor > 1.0)
                if factor > 1.0:
                    assert lower_bound(t, dense_pair(n)).gamma > 0
                else:
                    with pytest.raises(NotPositive, match="numerically singular"):
                        lower_bound(t, dense_pair(n))
        with pytest.raises(NotPositive, match="numerically singular"):
            lower_bound(form_from_gram(np.ones((2, 3)), np.eye(3)), DP2)


class TestAssociatedOperator:
    def test_identity_form(self):
        rep = associated_operator(form_from_gram(np.eye(2), np.eye(2)), DP2)
        np.testing.assert_allclose(rep.A.canonical_matrix(), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(rep.B.canonical_matrix(), np.eye(2), atol=1e-12)

    def test_diag_2_5(self):
        rep = associated_operator(form_from_gram(np.eye(2), np.diag([2.0, 5.0])), DP2)
        np.testing.assert_allclose(rep.A.canonical_matrix(), np.diag([2.0, 5.0]),
                                   atol=1e-12)
        np.testing.assert_allclose(rep.B.canonical_matrix(), np.diag([0.5, 0.2]),
                                   atol=1e-12)
        assert rep.b_norm == pytest.approx(0.5, abs=1e-12)
        assert rep.b_norm <= 1.0 / rep.gamma + 1e-12

    def test_hermitian_offdiagonal(self):
        G = np.array([[2.0, 1j], [-1j, 2.0]])
        rep = associated_operator(form_from_gram(np.eye(2), G), DP2)
        # matrix of A is gram^T; same spectrum {1, 3} as the gram
        np.testing.assert_allclose(rep.A.canonical_matrix(), G.T, atol=1e-12)
        evals = np.linalg.eigvalsh(rep.A.canonical_matrix())
        np.testing.assert_allclose(evals, [1.0, 3.0], atol=1e-12)
        assert rep.gamma == pytest.approx(1.0, abs=1e-12)
        assert rep.b_norm == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_gram(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            G = random_hpd(rng, n)
            rep = associated_operator(form_from_gram(np.eye(n), G), dense_pair(n))
            G_back = form_of_operator(rep.A).gram
            assert np.linalg.norm(G_back - G) <= 1e-10 * np.linalg.norm(G)

    def test_quadratic_lower_bound_on_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            G = random_hpd(rng, n)
            rep = associated_operator(form_from_gram(np.eye(n), G), dense_pair(n))
            M = rep.A.canonical_matrix()
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            quad = float(np.real(np.vdot(x, M @ x)))
            assert quad >= rep.gamma * np.vdot(x, x).real * (1 - 1e-10)

    def test_b_positive(self):
        rng = np.random.default_rng(13)
        rep = associated_operator(form_from_gram(np.eye(4), random_hpd(rng, 4)),
                                  dense_pair(4))
        R = rep.B.canonical_matrix()
        for _ in range(50):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            # (z, Bz) = (Bz)^H z with R Hermitian
            assert np.real(np.vdot(R @ z, z)) >= -1e-12

    def test_one_svd_of_a_shared_basis(self, svd_solve_calls):
        rng = np.random.default_rng(14)
        B = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        t = form_from_gram(B, (B.conj().T @ random_hpd(rng, 6) @ B).T)
        rep = associated_operator(t, dense_pair(6))
        of_basis = [a for a in svd_solve_calls["svd"]
                    if np.shape(a) == B.shape and np.array_equal(a, B)]
        assert len(of_basis) == 1
        Sb = B.conj().T @ B
        assert not any(np.shape(a) == Sb.shape and np.allclose(a, Sb)
                       for a in svd_solve_calls["solve"])
        # the Hermitian norms from eigenvalues against SVD norms
        M_A, R = rep.A.canonical_matrix(), rep.B.canonical_matrix()
        assert abs(rep.b_norm - np.linalg.norm(R, 2)) <= 1e-12 * rep.b_norm
        Z = rep.A.action_mat
        np.testing.assert_allclose(Z, np.linalg.pinv(B).conj().T @ t.gram.T,
                                   rtol=0, atol=1e-12 * np.linalg.norm(Z))
        assert np.linalg.norm(M_A - M_A.conj().T) <= 1e-12 * np.linalg.norm(M_A)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_norm_equivalence_away_from_p_2(self, p):
        # gamma is the p = 2 value times n^(-2e), e = max(0, 1/p - 1/2), and
        # ||B|| the spectral norm times n^(2e): 1/2 - 1/q = 1/p - 1/2
        rng = np.random.default_rng(152)
        e = max(0.0, 1.0 / p - 0.5)
        for n in (1, 3, 6):
            G = random_hpd(rng, n)
            lam = np.linalg.eigvalsh(G)[0]
            rep = associated_operator(form_from_gram(np.eye(n), G), dense_pair(n, p=p))
            assert rep.lower_certificate.kind == "equivalence-scaled"
            assert rep.gamma == pytest.approx(lam * n ** (-2 * e), rel=1e-12)
            assert rep.b_norm == pytest.approx(n ** (2 * e) / lam, rel=1e-12)
            assert rep.residuals["b_norm_excess"] <= 1e-8

    def test_gamma_zero_rejected(self):
        t = form_from_gram(np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(LowerBoundError):
            associated_operator(t, DP2)


class TestSizeFromTheForm:
    @pytest.mark.parametrize("dim", [1, 64])
    def test_identity_form_on_c64_whatever_size_the_space_states(self, dim):
        """The space gives p, the form its size n: on C^64 at p = 1.5 the
        identity form has gamma 64^(-1/3) = 1/4, which x = (1, ..., 1)
        attains, and ||B|| = 4."""
        dp = dense_pair(dim, p=1.5)
        t = form_from_gram(np.eye(64), np.eye(64))
        x = np.ones(64)
        assert x @ x / np.sum(x ** 1.5) ** (2 / 1.5) == pytest.approx(0.25, rel=1e-12)
        cert, rep = lower_bound(t, dp), associated_operator(t, dp)
        assert cert.kind == rep.lower_certificate.kind == "equivalence-scaled"
        assert cert.gamma == rep.gamma == pytest.approx(0.25, rel=1e-12)
        assert rep.b_norm == pytest.approx(4.0, rel=1e-12)


class TestRieszSolve:
    def test_zero(self):
        t = form_from_gram(np.eye(2), np.diag([2.0, 5.0]))
        f = riesz_solve(t, functional([0, 0], DP2), DP2)
        np.testing.assert_allclose(f.coords, 0.0, atol=1e-15)

    def test_identity_gram(self):
        t = form_from_gram(np.eye(2), np.eye(2))
        f = riesz_solve(t, functional([1, 0], DP2), DP2)
        np.testing.assert_allclose(f.coords, [1, 0], atol=1e-14)

    def test_diag_solve_oracle(self):
        t = form_from_gram(np.eye(2), np.diag([2.0, 5.0]))
        f = riesz_solve(t, functional([1, 1], DP2), DP2)
        np.testing.assert_allclose(f.coords, [0.5, 0.2], atol=1e-14)

    def test_equals_b_and_injectivity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            dp = dense_pair(n)
            t = form_from_gram(np.eye(n), random_hpd(rng, n))
            rep = associated_operator(t, dp)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = riesz_solve(t, functional(v, dp), dp)
            np.testing.assert_allclose(f.coords, rep.B.canonical_matrix() @ v,
                                       atol=1e-11 * max(1, np.linalg.norm(v)))
            if np.linalg.norm(f.coords) <= 1e-10:
                assert np.linalg.norm(v) <= 1e-10


class TestInverseSelfadjoint:
    def test_identity(self):
        B = operator_from_matrix(np.eye(2), FROM_DUAL)
        A = inverse_selfadjoint(B)
        np.testing.assert_allclose(A.effective_matrix(), np.eye(2), atol=1e-12)

    def test_diagonal(self):
        B = operator_from_matrix(np.diag([0.5, 1 / 3]), FROM_DUAL)
        A = inverse_selfadjoint(B)
        np.testing.assert_allclose(A.effective_matrix(), np.diag([2.0, 3.0]),
                                   atol=1e-12)

    def test_two_by_two_oracle(self):
        B = operator_from_matrix([[2.0, 1.0], [1.0, 1.0]], FROM_DUAL)
        A = inverse_selfadjoint(B)
        # 2x2 inversion oracle: inv([[2,1],[1,1]]) = [[1,-1],[-1,2]]
        np.testing.assert_allclose(A.effective_matrix(),
                                   [[1.0, -1.0], [-1.0, 2.0]], atol=1e-12)

    def test_non_injective_rejected(self):
        B = operator_from_matrix(np.diag([1.0, 0.0]), FROM_DUAL)
        with pytest.raises(ValueError):
            inverse_selfadjoint(B)

    def test_non_selfadjoint_rejected(self):
        B = operator_from_matrix([[1.0, 1.0], [0.0, 1.0]], FROM_DUAL)
        with pytest.raises(ValueError):
            inverse_selfadjoint(B)

    @pytest.mark.parametrize("rel", [2e-13, 2e-11])
    def test_selfadjointness_is_the_forms_rule(self, rel):
        # the inverse of an HPD matrix plus an anti-Hermitian perturbation
        # of relative size rel: accepted iff its form is symmetric
        rng = np.random.default_rng(70)
        M = np.linalg.inv(random_hpd(rng, 4))
        S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        K = S - S.conj().T
        M = M + K * (rel * np.linalg.norm(M) / (2 * np.linalg.norm(K)))
        B = operator_from_matrix(M, FROM_DUAL)
        assert form_of_operator(B).symmetric == (rel < 1e-12)
        if rel < 1e-12:
            inverse_selfadjoint(B)
        else:
            with pytest.raises(ValueError, match="B not self-adjoint"):
                inverse_selfadjoint(B)


def wire(M):
    return suites._wire(M).tolist()


class TestOnePositivityGate:
    """The constructor decides a form's positivity once, and every later
    step reads the margin it measured."""

    def test_reduced_pencil_keeps_the_constructors_verdict(self):
        # conj(G) has eigenvalue -5e-13 along the coefficient direction the
        # basis shrinks by s_min = 1e-5: the constructor accepts the form,
        # and the reduced pencil's -5e-3, that eigenvalue times 1/s_min^2,
        # is read as gamma = 0, not refused a second time
        rng = np.random.default_rng(150)
        n = 4
        for _ in range(20):
            U, V = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                    for _ in range(2))
            B = (U * [1.0, 1.0, 1.0, 1e-5]) @ V.conj().T
            W = np.linalg.qr(np.column_stack([V[:, -1], rng.normal(size=(n, n - 1))]))[0]
            t = form_from_gram(B, np.conj((W * [-5e-13, 1.0, 2.0, 3.0]) @ W.conj().T))
            cert = lower_bound(t, dense_pair(n))
            assert (cert.gamma, cert.kind) == (0.0, "exact-p2")
            assert t.negativity == pytest.approx(5e-13 / 3.0, rel=1e-2)

    @pytest.mark.parametrize("gamma", [1e-4, 1e-6])
    def test_b_norm_excess_is_relative(self, gamma):
        # ||B|| = 1/gamma up to rounding of size 1e-16 / gamma^2: the
        # absolute excess ||B|| - 1/gamma failed 12 and 16 of these 40 draws
        rng = np.random.default_rng(151)
        for _ in range(40):
            Q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            G = (Q * [gamma, 1.0, 2.0, 3.0]) @ Q.conj().T
            rep = run_scenario({"op": "associated-operator",
                                "space": {"backend": "dense", "dim": 4}, "gram": wire(G)})
            assert rep.verdict == "pass"
            assert rep.residuals["b_norm_excess"] == max(
                0.0, rep.details["b_norm"] * rep.details["gamma"] - 1.0)

    def test_sequence_weights_are_decided(self):
        # a_n = 2 - 1/n >= 1 has a negative coefficient: the sufficient test
        # on coefficients refused it, the decision accepts it
        rule = {"terms": [{"coef": 2.0}, {"coef": -1.0, "alpha": -1.0}]}
        A = {"backend": "sequence", "diagonal": rule}
        space = {"backend": "sequence", "truncation": 24}
        y = {"backend": "sequence", "coords": [1.0, 0.5]}
        assert DiagonalForm(series.polynomial(-1.0).scale(-1.0)
                             + series.constant(2.0)).negativity == 0.0
        rep = run_scenario({"op": "form-on-x", "A": A, "y": y, "expected": 1.375})
        assert rep.verdict == "pass"
        rep = run_scenario({"op": "compare", "A": A, "expected": "A>=B",
                            "B": {"backend": "sequence", "diagonal": {"terms": [{"coef": 1.0}]}}})
        assert rep.verdict == "pass"
        # inf a_n is certified for nonnegative coefficients only
        for op, operands in (("form-sum", {"A": A, "B": A}), ("friedrichs", {"generator": rule})):
            rep = run_scenario({"op": op, "space": space, **operands})
            assert rep.verdict == "uncertified"
        rep = run_scenario({"op": "form-on-x", "y": y, "A": {
            "backend": "sequence", "diagonal": {"terms": [{"coef": -1.0}]}}})
        assert rep.verdict == "fail"
        assert rep.details["error"] == ("NotPositive: sequence form weight "
                                        "a_1 = -1.000e+00 is negative")

    def test_sequence_gate_names_the_first_negative_weight(self):
        with pytest.raises(NotPositive, match=r"^sequence form weight a_11 = -1\.000e-01 "):
            DiagonalForm(series.constant(1.0) + series.polynomial(1.0, coef=-0.1))
        with pytest.raises(NotPositive, match="^sequence form weights are not real$"):
            DiagonalForm(series.Rule((series.Term(1.0), series.Term(1j, 0.0, 1.0, 100))))
        # 1 - [n >= 2^22] is 1 up to the term cap and 0 after: undecided
        with pytest.raises(Uncertifiable):
            DiagonalForm(series.Rule((series.Term(1.0), series.Term(-1.0, start=2 ** 22))))
