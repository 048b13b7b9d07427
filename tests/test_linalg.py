"""LAPACK pivoted Cholesky and the column-wise gram quadratic."""

import numpy as np

from formcalc.linalg import gram_inner, gram_quadratic, pivoted_cholesky


def loop_pivoted_cholesky(G, tol=None):
    """Right-looking pivoted Cholesky one column at a time: the reference
    for the LAPACK factorization (same pivot rule, same stopping rule)."""
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


def test_gram_quadratic_columns_match_gram_inner():
    rng = np.random.default_rng(74)
    G = psd_of_rank(rng, 6, 4)
    C = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    q = gram_quadratic(G, C)
    for j in range(5):
        ref = gram_inner(G, C[:, j], C[:, j]).real
        assert abs(q[j] - ref) <= 1e-12 * max(abs(ref), 1.0)
    assert abs(gram_quadratic(G, C[:, 0]) - q[0]) <= 1e-12 * max(abs(q[0]), 1.0)
