"""The pivoted Cholesky, the generalized Hermitian eigensolve, the
column-wise gram quadratic, the spectral norm and the SVD rank of a
factorized action."""

import numpy as np
import pytest
import scipy.linalg

from formcalc.duality import dense_pair, operator_from_matrix
from formcalc.linalg import (
    generalized_eigvalsh, gram_inner, gram_quadratic, operator_norm, pivoted_cholesky,
)
from formcalc.ordering import factorize


def loop_pivoted_cholesky(G, tol=None):
    """Right-looking pivoted Cholesky one column at a time: the reference
    for the left-looking factorization (same pivot rule, same stopping
    rule)."""
    A = np.array(G, dtype=complex)
    n = A.shape[0]
    piv = np.arange(n)
    dmax = float(np.max(np.abs(np.diag(A).real))) if n else 0.0
    if tol is None:
        tol = 1e-10 * max(dmax, 1e-300)
    rank = n
    for k in range(n):
        d = np.real(np.diag(A)).copy()
        j = k + int(np.argmax(d[k:]))
        pivot = d[j]
        if pivot <= tol:
            rank = k
            break
        if j != k:
            A[:, [k, j]] = A[:, [j, k]]
            A[[k, j], :] = A[[j, k], :]
            piv[[k, j]] = piv[[j, k]]
        A[k, k] = np.sqrt(pivot)
        A[k + 1:, k] /= A[k, k]
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], np.conj(A[k + 1:, k]))
        A[k, k + 1:] = 0.0
    return np.tril(A)[:, :rank], piv, rank


def psd_of_rank(rng, n, d):
    W = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return W @ W.conj().T


class TestPivotedCholesky:
    def test_known_rank_and_reconstruction(self):
        rng = np.random.default_rng(71)
        for _ in range(80):
            n = int(rng.integers(2, 41))
            d = int(rng.integers(1, n))
            G = psd_of_rank(rng, n, d)
            L, piv, rank = pivoted_cholesky(G)
            assert rank == d
            assert sorted(piv.tolist()) == list(range(n))
            assert L.shape == (n, d)
            lead = G[np.ix_(piv[:rank], piv[:rank])]
            recon = L[:rank] @ L[:rank].conj().T
            assert np.linalg.norm(recon - lead) <= 1e-12 * np.linalg.norm(lead)
            assert np.all(np.triu(L[:rank], 1) == 0)

    def test_full_rank(self):
        rng = np.random.default_rng(72)
        G = psd_of_rank(rng, 12, 12) + np.eye(12)
        L, piv, rank = pivoted_cholesky(G)
        assert rank == 12
        Gp = G[np.ix_(piv, piv)]
        assert np.linalg.norm(L @ L.conj().T - Gp) <= 1e-12 * np.linalg.norm(Gp)

    def test_zero_matrix_has_rank_zero(self):
        for n in (1, 4):
            L, piv, rank = pivoted_cholesky(np.zeros((n, n)))
            assert rank == 0
            assert L.shape == (n, 0)
            assert sorted(piv.tolist()) == list(range(n))

    def test_ranks_and_pivots_match_loop(self):
        rng = np.random.default_rng(73)
        for k in range(300):
            n = int(rng.integers(1, 41))
            d = int(rng.integers(0, n)) if k % 3 == 0 else n
            G = psd_of_rank(rng, n, d) * 10.0 ** rng.uniform(-4, 4)
            for tol in (None, 1e-10 * max(np.linalg.norm(G, 2), 1e-300)):
                L, piv, rank = pivoted_cholesky(G, tol)
                L0, piv0, rank0 = loop_pivoted_cholesky(G, tol)
                assert rank == rank0
                np.testing.assert_array_equal(piv, piv0)
                np.testing.assert_allclose(L, L0, rtol=0, atol=1e-12 * max(
                    1.0, float(np.max(np.abs(L0), initial=0.0))))

    def test_matches_lapack_zpstrf(self):
        # n above 64 takes LAPACK's blocked path
        rng = np.random.default_rng(77)
        sizes = [int(k) for k in rng.integers(1, 41, size=150)] + [
            int(k) for k in rng.integers(41, 121, size=30)] + [64, 65, 120]
        for k, n in enumerate(sizes):
            d = int(rng.integers(0, n)) if k % 3 == 0 else n
            G = psd_of_rank(rng, n, d) * 10.0 ** rng.uniform(-4, 4)
            for tol in (None, 1e-10 * max(np.linalg.norm(G, 2), 1e-300)):
                L, piv, rank = pivoted_cholesky(G, tol)
                if tol is None:
                    tol = 1e-10 * max(float(np.max(np.diag(G).real)), 1e-300)
                c, piv0, rank0, _ = scipy.linalg.lapack.zpstrf(G, tol=tol, lower=1)
                L0 = np.tril(c)[:, :rank0]
                assert rank == rank0
                np.testing.assert_array_equal(piv, piv0 - 1)
                np.testing.assert_allclose(L, L0, rtol=0, atol=1e-12 * max(
                    1.0, float(np.max(np.abs(L0), initial=0.0))))

    def test_ties_go_to_the_first_index_in_pivot_order(self):
        # after the first pivot swaps positions 0 and 2, the tie between
        # indices 0 and 1 goes to 1, which now comes first
        for G in (np.diag([1.0, 1.0, 2.0]), np.eye(4), np.diag([3.0, 1.0, 3.0, 1.0])):
            piv0 = scipy.linalg.lapack.zpstrf(G.astype(complex), tol=1e-10, lower=1)[1]
            np.testing.assert_array_equal(pivoted_cholesky(G)[1], piv0 - 1)


def test_generalized_eigvalsh_matches_scipy():
    rng = np.random.default_rng(78)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        A = psd_of_rank(rng, n, n) - psd_of_rank(rng, n, n)
        M = psd_of_rank(rng, n, n) + 0.1 * np.eye(n)
        want = scipy.linalg.eigh(A, M, eigvals_only=True)
        got = generalized_eigvalsh(A, M)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_gram_quadratic_columns_match_gram_inner():
    rng = np.random.default_rng(74)
    G = psd_of_rank(rng, 6, 4)
    C = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    q = gram_quadratic(G, C)
    for j in range(5):
        ref = gram_inner(G, C[:, j], C[:, j]).real
        assert abs(q[j] - ref) <= 1e-12 * max(abs(ref), 1.0)
    assert abs(gram_quadratic(G, C[:, 0]) - q[0]) <= 1e-12 * max(abs(q[0]), 1.0)


def test_operator_norm_is_numpy_spectral_norm_bit_for_bit():
    rng = np.random.default_rng(75)
    shapes = [(1, 1), (1, 9), (9, 1), (0, 3), (3, 0), (0, 0)] + [
        tuple(int(k) for k in rng.integers(1, 40, size=2)) for _ in range(80)]
    for shape in shapes:
        for complex_entries in (False, True):
            M = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8)
            if complex_entries:
                M = M + 1j * rng.normal(size=shape)
            assert operator_norm(M) == float(np.linalg.norm(M, 2))


def test_operator_norm_of_an_exact_zero_takes_no_svd(monkeypatch):
    zeros = [np.zeros((4, 3)), np.zeros((2, 2), dtype=complex), -np.zeros((3, 3)),
             np.zeros((0, 5))]
    tiny = [np.array([[0.0, 5e-324]]), np.array([[1e-300j]])]
    want = [float(np.linalg.norm(M, 2)) for M in zeros + tiny]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **k: calls.append(M) or svd(M, **k))
    assert [operator_norm(M) for M in zeros] == want[:4] == [0.0] * 4
    assert calls == []
    # a subnormal or a tiny imaginary entry is not zero, and neither is
    # NaN: each goes to the SVD, which refuses NaN as it did before
    assert [operator_norm(M) for M in tiny] == want[4:] and min(want[4:]) > 0.0
    with pytest.raises(np.linalg.LinAlgError):
        operator_norm(np.array([[0.0, np.nan]]))
    assert len(calls) == 3


def svd_rank(M, rel_tol=1e-10):
    """Rank of M at rel_tol times its largest singular value: the rule
    that sets ``action_rank`` in a factorization."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def test_factorize_action_rank_follows_the_svd_rule_at_its_threshold():
    rng = np.random.default_rng(76)
    sides, checked = set(), 0
    for k in range(300):
        n = int(rng.integers(2, 10))
        W = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        top = 10.0 ** rng.uniform(-3, 3)
        lam = top * 10.0 ** rng.uniform(-6, 0, size=n)
        lam[0] = top
        # the smallest eigenvalue sits on the rank threshold
        lam[-1] = 1e-10 * top * (1.0 + rng.uniform(-1e-5, 1e-5))
        if n > 2 and k % 2:
            lam[1] = 0.0
        H = (W * lam) @ W.conj().T
        A = operator_from_matrix(0.5 * (H + H.conj().T), dense_pair(n))
        try:
            fac = factorize(A)
        except ArithmeticError:
            continue    # JJ* refuses this near-singular operator: no rank
        checked += 1
        want = svd_rank(A.action_mat)
        assert fac.details["action_rank"] == want
        s = np.linalg.svd(A.action_mat, compute_uv=False)
        sides.add(bool(s[-1] > 1e-10 * s[0]))
    assert checked >= 250 and sides == {True, False}
