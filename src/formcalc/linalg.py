"""Dense linear algebra helpers shared across modules.

Conventions used everywhere:

* grams are stored as ``G[i, j] = t(b_i, b_j)`` with ``t`` linear in the
  first slot and conjugate linear in the second;
* for coefficient vectors ``c, d`` the form value is
  ``sum_ij c_i * conj(d_j) * G[i, j]`` (see :func:`gram_inner`);
* the quadratic ``t(x, x)`` in the original coefficients is the Hermitian
  quadratic form of ``conj(G)``.

Every kernel is numpy.linalg: Hermitian eigensolves, Cholesky
factorizations and SVDs.  The one kernel numpy lacks, the pivoted
Cholesky, is a left-looking numpy loop with the pivot and stopping rules
of LAPACK ``zpstrf`` (Hammarling, Higham and Lucas, *LAPACK-style codes
for pivoted Cholesky and QR updating*, 2007).
"""

from __future__ import annotations

import math

import numpy as np


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


def is_hermitian(G: np.ndarray) -> bool:
    """The one symmetry rule of dense forms and operators."""
    return hermitian_residual(G) <= 1e-12


def hermitian_eigvalsh(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of M."""
    return np.linalg.eigvalsh(0.5 * (M + M.conj().T))


def hermitian_norm(M: np.ndarray) -> float:
    """Spectral norm of the Hermitian part of M, from its eigenvalues.

    It is the norm of a Hermitian M and a lower bound on ``||M||``
    otherwise, so it may scale a residual but never stand for one."""
    return float(np.max(np.abs(hermitian_eigvalsh(M))))


def generalized_eigvalsh(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian pencil (A, M), M positive
    definite: with M = L L^H they are those of L^-1 A L^-H, the reduction
    LAPACK ``hegv`` performs."""
    L = np.linalg.cholesky(M)
    C = np.linalg.solve(L, np.linalg.solve(L, A).conj().T)
    return np.linalg.eigvalsh(0.5 * (C + C.conj().T))


def pivoted_cholesky(G: np.ndarray, tol: float | None = None):
    """Column-pivoted Cholesky of a Hermitian PSD matrix.

    Returns ``(L, piv, rank)`` with ``G[piv][:, piv] ~= L L^H`` on the
    leading ``rank`` block, ``L`` lower trapezoidal (exact zeros above its
    diagonal) and ``piv`` 0-based.  At each step the largest remaining
    diagonal is the pivot, the first in pivot order on a tie, and the
    factorization stops at the first pivot ``<= tol``.  The threshold
    defaults to ``1e-10 * max diagonal``, the kernel-quotient rule used by
    the factorization module.

    Like LAPACK ``zpstf2`` the loop is left-looking and reads the lower
    triangle; it keeps the residual diagonal as the diagonal minus the
    accumulated ``|L_ik|^2`` and builds each column in the original row
    order, so only the pivot vector is permuted.
    """
    A = np.asarray(G, dtype=complex)
    n = A.shape[0]
    diag = A.diagonal().real.copy()
    if tol is None:
        tol = 1e-10 * max(float(np.max(np.abs(diag), initial=0.0)), 1e-300)
    acc = np.zeros(n)
    L = np.zeros((n, n), dtype=complex)
    piv = np.arange(n)
    rank = n
    for k in range(n):
        rest = diag[piv[k:]] - acc[piv[k:]]
        j = int(rest.argmax())
        pivot = float(rest[j])
        if not pivot > tol:
            rank = k
            break
        piv[k], piv[k + j] = piv[k + j], piv[k]
        p = piv[k]
        # column p of the Hermitian matrix the lower triangle defines
        col = A[:, p].copy()
        col[:p] = A[p, :p].conj()
        ljj = math.sqrt(pivot)
        col = (col - L[:, :k] @ L[p, :k].conj()) * (1.0 / ljj)
        col[piv[:k + 1]] = 0.0
        acc += col.real ** 2 + col.imag ** 2
        col[p] = ljj
        L[:, k] = col
    return L[piv, :rank], piv, rank


def operator_norm(M: np.ndarray) -> float:
    """Spectral norm of a matrix: its largest singular value, the value
    ``np.linalg.norm(M, 2)`` returns, without that call's overhead.  An
    exactly zero matrix, such as a residual that cancels, gets the 0.0
    the SVD would give without one; NaN is not zero and goes to the SVD."""
    if not M.any():
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def max_column_norm(M: np.ndarray) -> float:
    """The largest Euclidean norm of a column of M, 0.0 for no columns."""
    return float(np.max(np.linalg.norm(M, axis=0), initial=0.0))


def relative_error(got, want) -> float:
    """Relative Frobenius error ||got - want|| / max(1, ||want||) of a
    computed array, or scalar, against the one expected."""
    return float(np.linalg.norm(got - want)) / max(1.0, float(np.linalg.norm(want)))


def relative_residual(delta, scale_terms) -> float:
    scale = max(*[float(s) for s in scale_terms], 1e-300)
    return float(delta) / scale
