"""Dense linear algebra helpers shared across modules.

Conventions used everywhere:

* grams are stored as ``G[i, j] = t(b_i, b_j)`` with ``t`` linear in the
  first slot and conjugate linear in the second;
* for coefficient vectors ``c, d`` the form value is
  ``sum_ij c_i * conj(d_j) * G[i, j]`` (see :func:`gram_inner`);
* the quadratic ``t(x, x)`` in the original coefficients is the Hermitian
  quadratic form of ``conj(G)``.

Factorizations go to LAPACK: :func:`pivoted_cholesky` is ``zpstrf``
(Hammarling, Higham and Lucas, *LAPACK-style codes for pivoted Cholesky
and QR updating*, 2007).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositive


def gram_inner(G: np.ndarray, c: np.ndarray, d: np.ndarray) -> complex:
    """Form value sum_ij c_i conj(d_j) G[i, j]."""
    return complex(np.einsum("i,ij,j->", c, G, np.conj(d)))


def gram_quadratic(G: np.ndarray, c: np.ndarray):
    """Real quadratic t(x, x) at c, or at each column of a matrix c; the
    imaginary part must be numerical noise."""
    return np.real(np.sum(c * (G @ np.conj(c)), axis=0))


def hermitian_residual(G: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(G)), 1e-300)
    return float(np.linalg.norm(G - G.conj().T)) / scale


def assert_hermitian(G: np.ndarray, tol: float = 1e-12, what: str = "gram"):
    res = hermitian_residual(G)
    if res > tol:
        raise NotPositive(f"{what} is not Hermitian (residual {res:.3e})")


def min_eigenvalue(G: np.ndarray) -> float:
    return float(scipy.linalg.eigvalsh(G)[0])


def pivoted_cholesky(G: np.ndarray, tol: float | None = None):
    """Column-pivoted Cholesky of a Hermitian PSD matrix, by LAPACK zpstrf.

    Returns ``(L, piv, rank)`` with ``G[piv][:, piv] ~= L L^H`` on the
    leading ``rank`` block.  At each step the largest remaining diagonal
    is the pivot, and the factorization stops at the first pivot
    ``<= tol``.  The threshold defaults to ``1e-10 * max diagonal``, the
    kernel-quotient rule used by the factorization module.
    """
    A = np.asarray(G, dtype=complex)
    if tol is None:
        dmax = float(np.max(np.abs(np.diag(A).real))) if A.shape[0] else 0.0
        tol = 1e-10 * max(dmax, 1e-300)
    c, piv, rank, _ = scipy.linalg.lapack.zpstrf(A, tol=tol, lower=1)
    return np.tril(c)[:, :rank], piv - 1, int(rank)


def operator_norm(M: np.ndarray) -> float:
    """Spectral norm of a matrix: its largest singular value, the value
    ``np.linalg.norm(M, 2)`` returns, without that call's overhead."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def relative_residual(delta, scale_terms) -> float:
    scale = max(*[float(s) for s in scale_terms], 1e-300)
    return float(delta) / scale
