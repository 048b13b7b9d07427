"""Pairing, norms, adjoints and the extension relation."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from formcalc import duality, series
from formcalc.duality import (
    DenseOperator, DiagonalOperator, adjoint, basis_functional, basis_vector, dense_pair,
    diagonal_operator, functional, generated_functional, generated_vector,
    identity_operator, is_extension, norm, operator_from_matrix, pair,
    restricted_operator, sequence_pair, vector,
)
from formcalc.errors import BackendMismatch, DomainError
from formcalc.forms import (
    DiagonalForm, SesquilinearForm, associated_operator, inverse_selfadjoint, riesz_solve,
)
from formcalc.formsum import (
    commutation_formsum, joint_factorize, lift_commutant, spectrum_inclusion,
)
from formcalc.ordering import antisymmetry_check, compare, factorize, hilbert_consistency
from formcalc.reporting import operator_from_json


DP2 = dense_pair(2)
DP3 = dense_pair(3)


class TestPairing:
    def test_unit_pairing(self):
        assert pair(basis_functional(0, DP2), basis_vector(0, DP2)) == 1.0

    def test_conjugate_linearity_in_x(self):
        v = basis_functional(0, DP2)
        x = vector([1j, 0], DP2)
        assert pair(v, x) == pytest.approx(-1j)

    def test_hand_expansion(self):
        # (1,2) against (1, 1+i): 1 + 2(1-i) = 3 - 2i
        v = functional([1, 2], DP2)
        x = vector([1, 1 + 1j], DP2)
        assert pair(v, x) == pytest.approx(3 - 2j)

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatch):
            pair(functional([1, 2], DP2), generated_vector(series.geometric(0.5),
                                                           sequence_pair(8)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sesquilinearity_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        dp = dense_pair(n)
        v = functional(rng.normal(size=n) + 1j * rng.normal(size=n), dp)
        x = vector(rng.normal(size=n) + 1j * rng.normal(size=n), dp)
        y = vector(rng.normal(size=n) + 1j * rng.normal(size=n), dp)
        alpha = complex(rng.normal(), rng.normal())
        lhs = pair(v, vector(alpha * x.coords + y.coords, dp))
        rhs = np.conj(alpha) * pair(v, x) + pair(v, y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_conjugate_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = functional(rng.normal(size=3) + 1j * rng.normal(size=3), DP3)
            x = vector(rng.normal(size=3) + 1j * rng.normal(size=3), DP3)
            # (x, v) is defined as conj((v, x)); both sides computed via vdot
            assert np.conj(pair(v, x)) == complex(np.vdot(v.coords, x.coords))

    def test_sequence_pairing_certified(self):
        dp = sequence_pair(32)
        v = generated_functional(series.geometric(0.5), dp)
        x = generated_vector(series.geometric(0.25), dp)
        # sum (1/2)^n (1/4)^n = (1/8)/(1 - 1/8)
        assert pair(v, x) == pytest.approx((1 / 8) / (1 - 1 / 8), rel=1e-11)

    def test_sequence_exact_support_tail_is_zero(self):
        dp = sequence_pair(8)
        v = functional(np.eye(8)[0], dp)
        x = generated_vector(series.geometric(0.5), dp)
        assert pair(v, x) == pytest.approx(0.5)


class TestNorms:
    def test_unit(self):
        for p in (1.5, 2.0, 3.0):
            assert norm(basis_vector(0, DP2), p) == pytest.approx(1.0)

    def test_pythagorean(self):
        assert norm(vector([3, 4], DP2), 2.0) == pytest.approx(5.0)

    def test_cube_root(self):
        assert norm(vector([1, 1, 1], DP3), 3.0) == pytest.approx(3 ** (1 / 3))

    def test_sequence_norm_tail(self):
        dp = sequence_pair(64)
        x = generated_vector(series.geometric(0.5), dp)
        # l2 norm: sqrt(sum 4^-n) = sqrt(1/3)
        assert norm(x, 2.0) == pytest.approx(math.sqrt(1 / 3), rel=1e-11)

    def test_holder(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            p = float(rng.uniform(1.2, 4.0))
            dp = dense_pair(n, p)
            v = functional(rng.normal(size=n) + 1j * rng.normal(size=n), dp)
            x = vector(rng.normal(size=n) + 1j * rng.normal(size=n), dp)
            assert abs(pair(v, x)) <= norm(v, dp.q) * norm(x, p) * (1 + 1e-10)


class TestAdjoint:
    def test_hermitian_fixed_point(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]), DP2)
        np.testing.assert_allclose(adjoint(A).canonical_matrix(),
                                   A.canonical_matrix(), atol=1e-14)

    def test_shift_block(self):
        A = operator_from_matrix([[0, 1], [0, 0]], DP2)
        np.testing.assert_allclose(adjoint(A).canonical_matrix(),
                                   [[0, 0], [1, 0]], atol=1e-14)

    def test_scalar_i_defining_identity(self):
        # A = [[i]]: check (Ax, y) = (x, A*y) on a 2-point grid
        dp = dense_pair(1)
        A = operator_from_matrix([[1j]], dp)
        As = adjoint(A)
        np.testing.assert_allclose(As.canonical_matrix(), [[-1j]], atol=1e-14)
        for xc in (1.0, 1 + 2j):
            for yc in (1.0, 0.5 - 1j):
                lhs = pair(duality.Functional(A.apply(np.array([xc]))),
                           vector([yc], dp))
                rhs = np.conj(pair(duality.Functional(As.apply(np.array([yc]))),
                                   vector([xc], dp)))
                assert lhs == pytest.approx(rhs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_involution_full_domain(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = operator_from_matrix(M, dense_pair(n))
        back = adjoint(adjoint(A)).canonical_matrix()
        assert np.linalg.norm(back - M) <= 1e-12 * max(1.0, np.linalg.norm(M))

    def test_sequence_diagonal_selfadjoint(self):
        dp = sequence_pair(16)
        A = diagonal_operator(series.polynomial(2.0), dp)
        B = adjoint(A)
        assert series.rules_agree(A.diagonal, B.diagonal)


class TestExtension:
    def test_reflexive(self):
        A = operator_from_matrix(np.diag([1.0, 2.0]), DP2)
        assert is_extension(A, A)

    def test_restriction_is_extended(self):
        M = np.diag([1.0, 2.0])
        S = restricted_operator(M, np.array([1.0, 0.0]), DP2)
        T = operator_from_matrix(M, DP2)
        assert is_extension(S, T)
        assert not is_extension(T, S)

    def test_action_disagreement(self):
        S = DenseOperator(duality.TO_DUAL,
                          np.array([[1.0], [0.0]]), np.array([[2.0], [0.0]]))
        T = operator_from_matrix(np.diag([1.0, 3.0]), DP2)
        # S e1 = 2 e1* but T e1 = e1*: actions differ on the shared domain
        assert not is_extension(S, T)

    def test_transitive_on_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            dp = dense_pair(n)
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d1 = int(rng.integers(1, n))
            d2 = int(rng.integers(d1, n + 1))
            B2 = rng.normal(size=(n, d2)) + 1j * rng.normal(size=(n, d2))
            B1 = B2[:, :d1] @ (rng.normal(size=(d1, d1)) + np.eye(d1) * 2)
            S1 = restricted_operator(M, B1, dp)
            S2 = restricted_operator(M, B2, dp)
            T = operator_from_matrix(M, dp)
            assert is_extension(S1, S2)
            assert is_extension(S2, T)
            assert is_extension(S1, T)

    def test_sequence_domains_ordered(self):
        dp = sequence_pair(16)
        r = series.polynomial(2.0)
        a = diagonal_operator(r, dp, duality.DOMAIN_FINITE)
        af = diagonal_operator(r, dp, duality.DOMAIN_MAXIMAL)
        assert is_extension(a, af)
        assert not is_extension(af, a)


class TestOperatorBasics:
    def test_form_gram_convention(self):
        # G[i,j] = (A e_i, e_j) = M[j, i]
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        A = operator_from_matrix(M, DP2)
        np.testing.assert_allclose(A.form_gram(), M.T)

    def test_apply_outside_domain_raises(self):
        S = restricted_operator(np.eye(2), np.array([1.0, 0.0]), DP2)
        with pytest.raises(DomainError):
            S.apply(np.array([0.0, 1.0]))

    def test_unknown_direction_is_refused(self):
        with pytest.raises(ValueError, match="unknown direction 'sideways'"):
            DenseOperator("sideways", np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="unknown direction 'sideways'"):
            DiagonalOperator(series.constant(1.0), direction="sideways")

    def test_identity_operator(self):
        I = identity_operator(DP3)
        np.testing.assert_allclose(I.canonical_matrix(), np.eye(3))

    def test_basis_rank_rule_at_its_threshold(self):
        # a basis is accepted exactly when matrix_rank at the tolerance
        # 1e-9 max(1, ||B||) finds it independent
        rng = np.random.default_rng(81)
        outcomes = set()
        for _ in range(300):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(2, n + 1))
            U = np.linalg.qr(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))[0]
            V = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            top = 10.0 ** rng.uniform(-3, 3)
            s = top * 10.0 ** rng.uniform(-4, 0, size=d)
            s[0] = top
            s[-1] = 1e-9 * max(1.0, top) * (1.0 + rng.uniform(-1e-5, 1e-5))
            B = (U * s) @ V.conj().T
            want = np.linalg.matrix_rank(
                B, tol=1e-9 * max(1.0, float(np.linalg.norm(B, 2)))) == d
            try:
                DenseOperator(duality.TO_DUAL, B, B)
                got = True
            except DomainError:
                got = False
            assert got == want
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_effective_projector_is_computed_once_read_only(self):
        S = restricted_operator(np.eye(3), np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]), DP3)
        P = S.effective_projector()
        assert S.effective_projector() is P
        assert not P.flags.writeable
        np.testing.assert_allclose(P @ P, P, atol=1e-14)
        np.testing.assert_allclose(np.trace(P).real, 2.0)


def random_basis(rng, n, d):
    """n x d complex basis with column scales between 1e-3 and 1e3."""
    B = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return B * 10.0 ** rng.uniform(-3, 3, size=d)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Arguments of every call to the factorizations a dense basis could
    go through, by name."""
    calls = {}
    targets = [(np.linalg, "svd"), (np.linalg, "lstsq"), (np.linalg, "solve"),
               (scipy.linalg, "orth"), (scipy.linalg, "cholesky")]
    for mod, name in targets:
        calls[name] = []

        def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name].append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


class TestOneFactorization:
    def test_basis_operations_share_one_svd(self, linalg_calls):
        rng = np.random.default_rng(91)
        n, d = 6, 4
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dp = dense_pair(n)
        S = restricted_operator(M, random_basis(rng, n, d), dp)
        T = operator_from_matrix(M, dp)
        x = S.basis_mat @ rng.normal(size=d)
        S.canonical_matrix()
        S.effective_matrix()
        S.effective_projector()
        S.coefficients_of(x)
        S.apply(x)
        adjoint(S)
        assert is_extension(S, T)
        assert not is_extension(T, S)
        of_basis = [a for a in linalg_calls["svd"]
                    if np.shape(a) == S.basis_mat.shape and np.array_equal(a, S.basis_mat)]
        assert len(of_basis) == 1
        assert all(linalg_calls[name] == [] for name in
                   ("lstsq", "solve", "orth", "cholesky"))

    def test_identity_bases_take_no_svd(self, linalg_calls):
        n = 5
        dp = dense_pair(n)
        M = np.arange(n * n, dtype=float).reshape(n, n)
        eye = [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]
        read = operator_from_json({"backend": "dense", "domain_basis": eye,
                                   "action": eye})
        for A in (operator_from_matrix(M, dp), identity_operator(dp), read):
            x = np.arange(n) + 1j
            np.testing.assert_array_equal(A.coefficients_of(x), x)
            np.testing.assert_array_equal(A.canonical_matrix(), A.action_mat)
            np.testing.assert_array_equal(A.effective_projector(), np.eye(n))
            adjoint(A)
        assert linalg_calls["svd"] == []

    def test_reference_values_on_restricted_bases(self):
        rng = np.random.default_rng(92)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            d = int(rng.integers(1, max(1, n - 1) + 1))
            B = random_basis(rng, n, d)
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            S = restricted_operator(M, B, dense_pair(n))
            # backward-stable solvers agree to rounding times cond(B)
            tol = 1e-13 * np.linalg.cond(B)
            want = S.action_mat @ np.linalg.pinv(B)
            assert np.linalg.norm(S.canonical_matrix() - want) <= tol * np.linalg.norm(want)
            x = B @ (rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3)))
            want = np.linalg.lstsq(B, x, rcond=None)[0]
            err = np.linalg.norm(S.coefficients_of(x) - want, axis=0)
            assert np.all(err <= tol * np.linalg.norm(want, axis=0))

    def test_rank_threshold_either_side(self):
        rng = np.random.default_rng(93)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            d = int(rng.integers(2, n + 1))
            U = np.linalg.qr(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))[0]
            V = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            top = 10.0 ** rng.uniform(-3, 3)
            s = top * 10.0 ** rng.uniform(-4, 0, size=d)
            s[0] = top
            for factor, accepted in ((2.0, True), (0.5, False)):
                s[-1] = factor * 1e-9 * max(1.0, top)
                B = (U * s) @ V.conj().T
                if accepted:
                    DenseOperator(duality.TO_DUAL, B, B)
                else:
                    with pytest.raises(DomainError):
                        DenseOperator(duality.TO_DUAL, B, B)
        with pytest.raises(DomainError):
            DenseOperator(duality.TO_DUAL, np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(DomainError):
            DenseOperator(duality.TO_DUAL, np.ones((2, 0)), np.ones((2, 0)))


class TestSequenceSymmetry:
    """Realness of a generator is decided exactly, not on its first terms."""

    LATE = series.Rule((series.Term(1, 1, 1, 1), series.Term(1j, 0, 1, 100)))

    def test_late_imaginary_term_is_not_symmetric(self):
        A = diagonal_operator(self.LATE, sequence_pair(48))
        assert not A.is_symmetric()
        assert series.imaginary_residual(self.LATE) == 1.0

    def test_late_imaginary_term_is_not_its_real_part(self):
        dp = sequence_pair(48)
        real = diagonal_operator(series.polynomial(1.0), dp)
        late = diagonal_operator(self.LATE, dp)
        assert not is_extension(real, late)
        assert not is_extension(late, real)

    def test_friedrichs_rejects_late_imaginary_generator(self):
        from formcalc.errors import NotPositive
        from formcalc.friedrichs import friedrichs
        dp = sequence_pair(48)
        A = diagonal_operator(self.LATE, dp, duality.DOMAIN_FINITE)
        with pytest.raises(NotPositive):
            friedrichs(A, dp)

    def test_real_generators_stay_symmetric(self):
        dp = sequence_pair(16)
        y = series.power_geometric(1 - 2j, -1.0, 0.5) + series.polynomial(-2.0, coef=1j)
        for rule in (series.polynomial(2.0) + series.geometric(1.2, coef=0.5),
                     y.abs_square(),
                     series.power_geometric(1.0, 0.0, 1.0, start=7)):
            A = diagonal_operator(rule, dp)
            assert A.is_symmetric()
            assert series.imaginary_residual(rule) == 0.0

    def test_imaginary_head_before_last_start(self):
        # imaginary only at n = 2, then a real term takes over from n = 3
        rule = series.Rule((series.Term(1j, 0, 1, 2), series.Term(-1j, 0, 1, 3),
                            series.Term(1.0, 0, 1, 3)))
        A = diagonal_operator(rule, sequence_pair(8))
        assert not A.is_symmetric()
        assert series.imaginary_residual(rule) == 1.0


def _dense_only_calls():
    """Each dense-only construction, called with diagonal operands."""
    sp = sequence_pair(16)
    rule = series.polynomial(2.0)
    A, t = diagonal_operator(rule, sp), DiagonalForm(rule)
    E = operator_from_matrix(np.eye(2), DP2, duality.ENDO)
    return {
        "associated_operator": lambda: associated_operator(t, sp),
        "riesz_solve": lambda: riesz_solve(t, functional(np.ones(16), sp), sp),
        "inverse_selfadjoint": lambda: inverse_selfadjoint(diagonal_operator(
            rule, sp, duality.DOMAIN_MAXIMAL, duality.FROM_DUAL), sp),
        "factorize": lambda: factorize(A),
        "joint_factorize": lambda: joint_factorize(A, A, sp),
        "lift_commutant": lambda: lift_commutant(A, E, sp),
        "commutation_formsum": lambda: commutation_formsum(A, A, E, sp),
        "spectrum_inclusion": lambda: spectrum_inclusion(A, E, sp),
        "antisymmetry_check": lambda: antisymmetry_check(A, A, compare(A, A, [])),
        "hilbert_consistency": lambda: hilbert_consistency(A, [], sp),
    }


class TestOneClassPerBackend:
    """Dense and diagonal operators and forms are separate classes: the
    class names its backend, and each instance holds its own data only."""

    def test_no_constructor_takes_a_backend(self):
        for cls, backend in ((DenseOperator, duality.DENSE), (SesquilinearForm, duality.DENSE),
                             (DiagonalOperator, duality.SEQUENCE),
                             (DiagonalForm, duality.SEQUENCE)):
            assert cls.backend == backend
            assert "backend" not in {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize("name", list(_dense_only_calls()))
    def test_dense_only_construction_refuses_a_diagonal_operand(self, name):
        with pytest.raises(BackendMismatch, match="is dense-backend only"):
            _dense_only_calls()[name]()

    def test_tail_needs_the_sequence_backend(self):
        with pytest.raises(BackendMismatch, match="tail rule needs the sequence backend"):
            duality.Vector(np.ones(2), duality.DENSE, series.polynomial(-1.0))
        y = duality.Vector(np.ones(2), duality.SEQUENCE, series.polynomial(-1.0))
        assert y.tail is not None
