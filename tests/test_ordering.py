"""Factorization JJ* = A, the form of A on X, and the partial order."""

import math

import numpy as np
import pytest
import scipy.linalg

from formcalc import series
from formcalc.duality import (
    DENSE, DOMAIN_FINITE, DenseOperator, Vector, dense_pair, diagonal_operator,
    operator_from_matrix, restricted_operator, sequence_pair, vector,
)
from formcalc.errors import NotPositive
from formcalc.ordering import (
    antisymmetry_check, compare, factorize, form_on_X, form_oracle_eigensolve,
    hilbert_consistency, in_dom_Jstar,
)

DP2 = dense_pair(2)
SP = sequence_pair(48)


def random_psd(rng, n, force_kernel=False):
    d = n - int(rng.integers(1, n)) if force_kernel and n > 1 else n
    W = rng.normal(size=(n, max(d, 1))) + 1j * rng.normal(size=(n, max(d, 1)))
    return W @ W.conj().T


class TestFactorize:
    def test_identity(self):
        res = factorize(operator_from_matrix(np.eye(2), DP2))
        assert res.rank == 2
        np.testing.assert_allclose(res.gram, np.eye(2), atol=1e-14)

    def test_diag_gram_assembly(self):
        res = factorize(operator_from_matrix(np.diag([1.0, 4.0]), DP2))
        # gram over {A e1, A e2} is diag(1, 4) by direct assembly
        K = np.zeros((2, 2), dtype=complex)
        K[np.ix_(np.argsort(res.pivots), np.argsort(res.pivots))] = res.gram
        np.testing.assert_allclose(sorted(np.diag(res.gram).real), [1.0, 4.0])
        assert res.extension_residual <= 1e-10

    def test_kernel_quotient(self):
        res = factorize(operator_from_matrix(np.diag([1.0, 0.0]), DP2))
        assert res.rank == 1
        assert res.details["rank_gap"] == 0
        # well-definedness despite collisions: JJ* reproduces A on e2 too
        assert res.extension_residual <= 1e-10

    def test_collision_pairs_brute_force(self):
        # A with A x1 = A x2: the quotient must identify them
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = factorize(operator_from_matrix(M, DP2))
        assert res.rank == 1
        c1 = res.jstar_coefficients(np.array([1.0, 0.0]))
        c2 = res.jstar_coefficients(np.array([0.0, 1.0]))
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_random_psd_including_rank_deficient(self):
        rng = np.random.default_rng(17)
        for k in range(200):
            n = int(rng.integers(1, 9))
            A = operator_from_matrix(
                random_psd(rng, n, force_kernel=(k % 3 == 0)), dense_pair(n))
            res = factorize(A)
            assert res.extension_residual <= 1e-10
            assert res.details["rank_gap"] == 0

    def test_nonpositive_rejected(self):
        with pytest.raises(NotPositive):
            factorize(operator_from_matrix(np.diag([1.0, -1.0]), DP2))


class TestFormOnX:
    def test_zero(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        assert form_on_X(A, vector([0, 0], DP2)).value == 0.0

    def test_full_domain_is_quadratic(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        fv = form_on_X(A, vector([1, 1], DP2))
        assert fv.value == pytest.approx(5.0, abs=1e-10)
        # witness saturates Cauchy-Schwarz at y itself (up to scale)
        w = fv.witness / fv.witness[0]
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-10)

    def test_matches_eigensolve_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            A = operator_from_matrix(random_psd(rng, n), dense_pair(n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            v1 = form_on_X(A, y).value
            v2 = form_oracle_eigensolve(A, y)
            assert abs(v1 - v2) <= 1e-6 * max(v1, v2, 1.0)

    def test_oracle_matches_scipy_generalized_eigh(self):
        # the oracle reduces the pencil through a Cholesky; scipy's
        # generalized eigh is LAPACK hegv on the same truncated pencil
        rng = np.random.default_rng(24)
        for k in range(100):
            n = int(rng.integers(1, 13))
            A = restricted_operator(random_psd(rng, n, force_kernel=k % 2 == 1),
                                    rng.normal(size=(n, max(1, n - k % 3))), dense_pair(n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            F = A.form_gram()
            quad = 0.5 * (np.conj(F) + F.T)
            lam, V = scipy.linalg.eigh(quad)
            Vr = V[:, lam > 1e-12 * max(float(lam[-1]), 1e-300)]
            wr = Vr.conj().T @ (A.action_mat.conj().T @ y.coords)
            want = scipy.linalg.eigh(np.outer(wr, wr.conj()), Vr.conj().T @ quad @ Vr,
                                     eigvals_only=True)[-1]
            got = form_oracle_eigensolve(A, y)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_full_domain_quadratic_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            M = random_psd(rng, n) + 0.1 * np.eye(n)
            A = operator_from_matrix(M, dense_pair(n))
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            quad = float(np.real(np.vdot(y, M @ y)))
            assert form_on_X(A, Vector(y)).value == pytest.approx(quad, rel=1e-9)

    def test_jstar_energy_matches_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            A = operator_from_matrix(random_psd(rng, n), dense_pair(n))
            fac = factorize(A)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = fac.jstar_coefficients(y)
            via_h = float(np.real(fac.h_inner(c, c)))
            direct = form_on_X(A, Vector(y)).value
            assert abs(via_h - direct) <= 1e-8 * max(via_h, direct, 1.0)

    def test_sequence_divergent(self):
        A = diagonal_operator(series.polynomial(2.0), SP, DOMAIN_FINITE)
        y = Vector(series.polynomial(-1.0)(np.arange(1, 49)), "sequence",
                   tail=series.polynomial(-1.0))
        fv = form_on_X(A, y)
        assert math.isinf(fv.value)
        assert fv.kind == "tail-divergence"
        assert fv.certificate["growth_ratios"]

    def test_sequence_membership_pairs(self):
        A = diagonal_operator(series.polynomial(2.0), SP, DOMAIN_FINITE)
        y_in = Vector(series.polynomial(-2.0)(np.arange(1, 49)), "sequence",
                      tail=series.polynomial(-2.0))
        assert in_dom_Jstar(A, y_in)
        y_out = Vector(series.polynomial(-1.0)(np.arange(1, 49)), "sequence",
                       tail=series.polynomial(-1.0))
        assert not in_dom_Jstar(A, y_out)


class TestCompare:
    def test_scalar_ordering(self):
        A = operator_from_matrix(2 * np.eye(2), DP2)
        B = operator_from_matrix(np.eye(2), DP2)
        assert compare(A, B, []).verdict == "A>=B"

    def test_incomparable(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        B = operator_from_matrix(np.diag([4.0, 1.0]), DP2)
        rep = compare(A, B, [])
        assert rep.verdict == "incomparable"

    def test_equal(self):
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        B = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        assert compare(A, B, []).verdict == "equal"

    def test_scaling_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            M = random_psd(rng, n) + 0.05 * np.eye(n)
            c = float(rng.uniform(1.0, 4.0))
            A = operator_from_matrix(c * M, dense_pair(n))
            B = operator_from_matrix(M, dense_pair(n))
            verdict = compare(A, B, []).verdict
            assert verdict in ("A>=B", "equal")

    def test_transitivity_on_probes(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            M = random_psd(rng, n) + 0.1 * np.eye(n)
            A = operator_from_matrix(3.0 * M, dense_pair(n))
            B = operator_from_matrix(2.0 * M, dense_pair(n))
            C = operator_from_matrix(M, dense_pair(n))
            assert compare(A, B, []).verdict == "A>=B"
            assert compare(B, C, []).verdict == "B>=A" or compare(
                B, C, []).verdict == "A>=B"
            repAC = compare(A, C, [])
            assert all(r.value_a >= r.value_b * (1 - 1e-9) for r in repAC.probes)

    def test_sequence_domain_inclusion_breaks_order(self):
        # dom J for diag(n^2) is smaller than for diag(1): the big operator
        # dominates pointwise yet y_n = 1/n certifies the domain gap
        A = diagonal_operator(series.polynomial(2.0), SP, DOMAIN_FINITE)
        B = diagonal_operator(series.constant(1.0), SP, DOMAIN_FINITE)
        y = Vector(series.polynomial(-1.0)(np.arange(1, 49)), "sequence",
                   tail=series.polynomial(-1.0))
        rep = compare(A, B, [y])
        assert rep.verdict == "A>=B"
        assert rep.domain_inclusion["domain_A_le_B"]


def loop_probes(A, B, samples, seed=0):
    """The dense probe set of compare, built one probe at a time: the
    reference for its batched evaluation."""
    n = A.n
    rng = np.random.default_rng(seed)
    probes = [s.coords for s in samples]
    probes += [A.basis_mat[:, j] for j in range(A.d)]
    probes += [B.basis_mat[:, j] for j in range(B.d)]
    for _ in range(max(4, n)):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        probes.append(z / np.linalg.norm(z))
    D = A.effective_matrix() - B.effective_matrix()
    _, V = scipy.linalg.eigh(0.5 * (D + D.conj().T))
    return probes + [V[:, k] for k in range(n)]


def escaping_operator(rng, n):
    """Domain e_1..e_{n-1}, form gram with kernel e_1, and an action on
    e_1 that leaves the domain: probes with a last coordinate escape."""
    W = rng.normal(size=(n, n - 2)) + 1j * rng.normal(size=(n, n - 2))
    W[0] = 0.0
    basis = np.eye(n)[:, :n - 1]
    action = W @ W.conj().T @ basis
    action[n - 1, 0] += 1.0
    return DenseOperator(DENSE, "to-dual", basis, action)


def operator_kinds(rng, n):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    hpd = W @ W.conj().T / n + 0.5 * np.eye(n)
    basis = rng.normal(size=(n, n - n // 3)) + 1j * rng.normal(size=(n, n - n // 3))
    return {"hpd": operator_from_matrix(hpd, dense_pair(n)),
            "psd-kernel": operator_from_matrix(random_psd(rng, n, True),
                                               dense_pair(n)),
            "restricted": restricted_operator(hpd, basis, dense_pair(n)),
            "escaping": escaping_operator(rng, n)}


def rel_gap(u, v, op, y):
    """Relative gap, floored at the form's scale ||A|| |y|^2: a probe in the
    kernel has a value at the rounding level of that scale."""
    floor = np.linalg.norm(op.action_mat, 2) * np.linalg.norm(y) ** 2
    return abs(u - v) / max(abs(u), abs(v), floor)


class TestBatchedProbes:
    @pytest.mark.parametrize("n", [3, 8, 16, 24])
    def test_compare_probes_match_single_probe_and_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        kinds_a, kinds_b = operator_kinds(rng, n), operator_kinds(rng, n)
        escaped = 0
        for kind in kinds_a:
            A, B = kinds_a[kind], kinds_b[kind]
            samples = [Vector(rng.normal(size=n) + 1j * rng.normal(size=n))]
            rep = compare(A, B, samples, seed=n)
            probes = loop_probes(A, B, samples, seed=n)
            assert len(rep.probes) == len(probes)
            for rec, y in zip(rep.probes, probes):
                for op, got in ((A, rec.value_a), (B, rec.value_b)):
                    single = form_on_X(op, Vector(y)).value
                    assert math.isinf(got) == math.isinf(single), (kind, rec.label)
                    if math.isinf(got):
                        escaped += 1
                        continue
                    assert rel_gap(got, single, op, y) <= 1e-12, (kind, rec.label)
                    oracle = form_oracle_eigensolve(op, Vector(y))
                    assert rel_gap(got, oracle, op, y) <= 1e-12, (kind, rec.label)
        assert escaped > 0

    def test_jstar_coefficients_matrix_matches_columns(self):
        rng = np.random.default_rng(47)
        for n in (1, 5, 12):
            A = operator_from_matrix(random_psd(rng, n, True), dense_pair(n))
            fac = factorize(A)
            Y = rng.normal(size=(n, 7)) + 1j * rng.normal(size=(n, 7))
            C = fac.jstar_coefficients(Y)
            for j in range(Y.shape[1]):
                np.testing.assert_allclose(C[:, j], fac.jstar_coefficients(Y[:, j]),
                                           rtol=1e-12, atol=1e-14)


class TestAntisymmetry:
    def test_equal_passes(self):
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        rep = compare(A, A, [])
        assert antisymmetry_check(A, A, rep).passed

    def test_change_of_basis(self):
        M = np.diag([2.0, 3.0])
        A = operator_from_matrix(M, DP2)
        basis = np.array([[1.0, 1.0], [1.0, -1.0]])
        B = restricted_operator(M, basis, DP2)
        rep = compare(A, B, [])
        assert rep.verdict == "equal"
        chk = antisymmetry_check(A, B, rep)
        assert chk.passed

    def test_refuses_on_nonequal(self):
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        B = operator_from_matrix(np.diag([2.0, 3.0 + 1e-6]), DP2)
        rep = compare(A, B, [])
        assert rep.verdict != "equal"
        with pytest.raises(ValueError):
            antisymmetry_check(A, B, rep)


class TestHilbertConsistency:
    def test_identity(self):
        A = operator_from_matrix(np.eye(2), DP2)
        ys = [vector([1, 0], DP2), vector([1, 1j], DP2)]
        rep = hilbert_consistency(A, ys, DP2)
        assert rep.passed

    def test_diag_explicit_root(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        rep = hilbert_consistency(A, [vector([1, 1], DP2)], DP2)
        assert rep.passed and rep.worst_residual <= 1e-10

    def test_offdiagonal_eigendecomposition(self):
        A = operator_from_matrix([[2.0, 1.0], [1.0, 2.0]], DP2)
        y = vector([1, 0], DP2)
        # (Ay, y) = 2 on e1
        assert form_on_X(A, y).value == pytest.approx(2.0, abs=1e-12)
        assert hilbert_consistency(A, [y], DP2).passed

    def test_random_samples(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = operator_from_matrix(random_psd(rng, n), dense_pair(n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            assert hilbert_consistency(A, [y], dense_pair(n)).passed

    def test_batched_samples_match_per_sample(self):
        rng = np.random.default_rng(44)
        for n in (1, 3, 8, 16):
            dp = dense_pair(n)
            basis = rng.normal(size=(n, max(1, n - 2))) + 1j * rng.normal(
                size=(n, max(1, n - 2)))
            for A in (operator_from_matrix(random_psd(rng, n, True), dp),
                      restricted_operator(random_psd(rng, n), basis, dp)):
                ys = [Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
                      for _ in range(5)]
                got = hilbert_consistency(A, ys, dp).worst_residual
                ref = loop_hilbert_residual(A, ys)
                assert abs(got - ref) <= 1e-12 * max(ref, 1.0)

    def test_escaping_sample_gives_inf(self):
        # the Hermitian part diag(1, 0, 0) passes the positivity gate, but
        # the skew block makes the form infinite off the first axis
        dp = dense_pair(3)
        A = operator_from_matrix([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dp)
        inside, escaping = vector([2, 0, 0], dp), vector([1, 1, 0], dp)
        assert form_on_X(A, escaping).value == math.inf
        assert hilbert_consistency(A, [inside], dp).passed
        rep = hilbert_consistency(A, [inside, escaping], dp)
        assert rep.worst_residual == math.inf == loop_hilbert_residual(A, [inside, escaping])
        assert not rep.passed
        assert hilbert_consistency(A, [], dp).worst_residual == 0.0


def loop_hilbert_residual(A, samples):
    """Worst square-root-identity residual, one sample at a time; a sample
    outside the form domain has residual inf."""
    M = A.effective_matrix()
    lam, V = scipy.linalg.eigh(0.5 * (M + M.conj().T))
    lam = np.where(lam > 1e-14 * max(float(lam[-1]), 1e-300), lam, 0.0)
    root = V @ np.diag(np.sqrt(lam)) @ V.conj().T
    P = A.effective_projector()
    worst = 0.0
    for y in samples:
        yp = P @ y.coords
        lhs = form_on_X(A, Vector(yp)).value
        rhs = float(np.linalg.norm(root @ yp) ** 2)
        res = math.inf if math.isinf(lhs) else abs(lhs - rhs) / max(lhs, rhs, 1.0)
        worst = max(worst, res)
    return worst
