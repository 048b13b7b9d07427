"""Positive sesquilinear forms and their representing operators.

A form with positive lower bound gamma on a (effectively) dense domain
is represented by a positive self-adjoint operator A from X to X*.  The
construction goes through the everywhere-defined inverse B first (the
Riesz solve f with (v, x) = [f, x]), then inverts it, so the bounded
inverse path is exercised rather than bypassed.  ||B|| <= 1/gamma comes
out as a checked residual, exactly for p = 2 and against the
equivalence-scaled bound otherwise.

Each backend has its own form class: :class:`SesquilinearForm`, a gram
on a dense domain basis, and :class:`DiagonalForm`, a weight generator
on the sequence backend.  The representation route is dense-only.

The space gives a construction its exponent ``p``, the form its size n:
norm equivalences are taken on the form's own n coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import series
from .duality import (
    DENSE, FROM_DUAL, SEQUENCE, TO_DUAL, DenseOperator, DiagonalOperator,
    DualityPair, Functional, Operator, Vector, _Basis, _factor_basis,
    _require_dense, _require_finite, adjoint, operator_norm,
)
from .errors import LowerBoundError, NotPositive, Uncertifiable
from .linalg import (
    hermitian_eigvalsh, hermitian_residual, is_hermitian, relative_residual,
)

@dataclass(frozen=True, eq=False)
class SesquilinearForm:
    """Hermitian form on a dense domain subspace, stored through its gram.

    ``gram[i, j] = t(b_i, b_j)`` with the domain basis as columns of
    ``basis_mat``.

    The constructor is the one positivity gate: the form keeps the
    margin ``negativity`` = max(0, -lambda_min(conj G)) / max(1, ||G||_2)
    it refuses above 1e-12.  By Sylvester's law of inertia no change of
    basis needs a retest.

    The dense basis is factored on first use by :func:`lower_bound`,
    with no SVD for the identity.  A form made from an operator, or a
    form whose ``basis_mat`` is given as an already factored basis,
    shares that factorization, and so do the operators that
    :func:`associated_operator` builds on it.
    """

    backend = DENSE

    basis_mat: np.ndarray | _Basis
    gram: np.ndarray
    symmetric: bool = True
    negativity: float = field(default=0.0, init=False)

    def __post_init__(self):
        shared = self.basis_mat if isinstance(self.basis_mat, _Basis) else None
        B = shared.mat if shared else np.asarray(self.basis_mat, dtype=complex)
        G = np.asarray(self.gram, dtype=complex)
        if G.shape != (B.shape[1], B.shape[1]):
            raise ValueError("gram must be d x d for a d-column basis")
        _require_finite("basis and gram", B, G)
        if self.symmetric and not is_hermitian(G):
            raise NotPositive("form gram is not Hermitian (residual "
                              f"{hermitian_residual(G):.3e})")
        # t(x, x) in coefficients is the quadratic form of conj(G)
        lam = hermitian_eigvalsh(np.conj(G))
        # the norm scales the margin only, so lam >= 0 needs no SVD
        neg = -float(lam[0]) / max(1.0, operator_norm(G)) if lam[0] < 0 else 0.0
        if neg > 1e-12:
            raise NotPositive(f"form indefinite (eigenvalue {lam[0]:.3e})")
        object.__setattr__(self, "negativity", neg)
        B.setflags(write=False)
        G.setflags(write=False)
        object.__setattr__(self, "basis_mat", B)
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "_coefficient_spectrum", lam)
        if shared:
            object.__setattr__(self, "_basis", shared)

    @property
    def n(self) -> int:
        return self.basis_mat.shape[0]

    @property
    def d(self) -> int:
        return self.basis_mat.shape[1]

    @cached_property
    def _basis(self) -> _Basis:
        return _factor_basis(self.basis_mat)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of t(x, x) in orthonormal coordinates on
        the domain: with B = U diag(s) V^H and y = diag(s) V^H c, those of
        W conj(G) W^H for W = diag(1/s) V^H, which for the identity basis
        are the coefficient eigenvalues found at construction."""
        basis = self._basis
        s = basis.s
        col_max = float(np.max(np.sum(np.abs(basis.mat) ** 2, axis=0)))
        if s.size < self.d or s[-1] ** 2 <= 1e-12 * max(col_max, 1e-300):
            raise NotPositive("basis gram numerically singular")
        if basis.identity:
            return self._coefficient_spectrum
        W = basis.Vh / s[:, None]
        return hermitian_eigvalsh(W @ np.conj(self.gram) @ W.conj().T)


@dataclass(frozen=True, eq=False)
class DiagonalForm:
    """Diagonal form sum a_n |x_n|^2 on the sequence backend, given by
    its weight generator ``diagonal``.

    The constructor is the positivity gate: it decides a_n >= 0 for all
    n, at once for nonnegative coefficients, else for a real rule by the
    sign decision of :func:`series.first_below` against b = 0 (whose
    :func:`series.eventual_sign` may raise :class:`Uncertifiable`), and
    names the first negative a_n.  A form it lets through has the margin
    ``negativity`` 0.
    """

    backend = SEQUENCE
    negativity = 0.0

    diagonal: series.Rule

    def __post_init__(self):
        rule = self.diagonal
        if rule.is_nonnegative:
            return
        if series.imaginary_residual(rule) > 1e-12:
            raise NotPositive("sequence form weights are not real")
        N, sign = series.eventual_sign(rule)
        a = np.real(rule(np.arange(1, N + 1)))
        k = series.first_below(a, np.zeros(N), sign)
        if k is not None:
            raise NotPositive(f"sequence form weight a_{k + 1} = {a[k]:.3e} is negative")


#: a form on either backend
Form = SesquilinearForm | DiagonalForm


def form_from_gram(basis, gram) -> SesquilinearForm:
    B = np.asarray(basis, dtype=complex)
    if B.ndim == 1:
        B = B[:, None]
    return SesquilinearForm(B, np.asarray(gram, dtype=complex))


def form_of_operator(A: Operator) -> Form:
    """The form t_A(x, y) = (Ax, y) on dom A."""
    if isinstance(A, DiagonalOperator):
        return DiagonalForm(A.diagonal)
    # built without the constructor's symmetry test, then flagged by it
    t = SesquilinearForm(A._basis, A.form_gram(), symmetric=False)
    object.__setattr__(t, "symmetric", is_hermitian(t.gram))
    return t


@dataclass(frozen=True)
class LowerBoundCertificate:
    """gamma with t(x, x) >= gamma ||x||_p^2 on the form domain.

    ``exact-p2`` is tight (generalized eigensolve); ``exact-inf`` is the
    infimum of a sequence diagonal for p > 2; ``equivalence-scaled`` is a
    certified under-estimate through the l_p / l_2 norm equivalence with
    the conceded amount recorded in ``slack``.  Two kinds are stated
    constants of a 1D Dirichlet form, lower bounds on its discrete
    infimum: ``poincare-p2``, the continuous Poincare constant
    gamma pi^2 / L^2, and ``sobolev-sup`` for p != 2, gamma / L^(1 + 2/p)
    from |f(x)| <= sqrt(L) ||f'||_2, which uses no norm equivalence.
    """

    gamma: float
    kind: str
    slack: float = 0.0
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if (self.kind in ("exact-p2", "poincare-p2")
                and self.detail.get("p", 2.0) != 2.0):
            raise ValueError(f"{self.kind} certificates require p = 2")


def equivalence_factor(n: int, p: float) -> float:
    """kappa with ||x||_2^2 >= kappa ||x||_p^2 on n coordinates: 1 for
    p >= 2, where ||x||_p <= ||x||_2, and n^(1 - 2/p) below."""
    return float(n) ** (-2.0 * max(0.0, 1.0 / p - 0.5))


def lower_bound(t: Form, dp: DualityPair) -> LowerBoundCertificate:
    """Certified gamma with t(x,x) >= gamma ||x||_p^2.

    p = 2: smallest eigenvalue of the form gram against the Euclidean
    gram of the domain basis, exact, reduced to a standard eigenproblem
    through the SVD of the basis.  That SVD is the one the form shares
    with its operator, taken at most once per basis and not at all for
    the identity, whose reduced problem is the gram itself.  p != 2: the
    p = 2 value scaled by the certified norm-equivalence factor on the
    form's n ambient coordinates, which is 1 above p = 2.

    Sequence diagonals: inf a_n for p >= 2, where ||x||_p <= ||x||_2 and
    the basis vectors attain it; below p = 2 it overstates gamma, which
    is then uncertified.
    """
    if isinstance(t, DiagonalForm):
        if dp.p < 2.0:
            raise Uncertifiable(f"diagonal lower bound at p = {dp.p} < 2 is not "
                                "certified (inf a_n overstates it)")
        return LowerBoundCertificate(series.rule_lower_bound(t.diagonal),
                                     "exact-p2" if dp.p == 2.0 else "exact-inf",
                                     detail={"p": dp.p})
    # the pencil (conj(G), B^H B) as a standard eigenproblem; it has the
    # inertia of conj(G), which the constructor decided, so a negative
    # value is rounding
    gamma2 = max(float(t._spectrum[0]), 0.0)
    if dp.p == 2.0:
        return LowerBoundCertificate(gamma2, "exact-p2", detail={"p": 2.0})
    kappa = equivalence_factor(t.n, dp.p)
    gamma_p = gamma2 * kappa
    return LowerBoundCertificate(gamma_p, "equivalence-scaled",
                                 slack=gamma2 - gamma_p,
                                 detail={"p": dp.p, "kappa": kappa,
                                         "gamma_p2": gamma2})


@dataclass(frozen=True, eq=False)
class RepresentationResult:
    """Output of the representation theorem: A with bounded inverse B."""

    A: DenseOperator
    B: DenseOperator
    gamma: float
    lower_certificate: LowerBoundCertificate
    residuals: dict

    @property
    def b_norm(self) -> float:
        return self.residuals["b_norm"]


def _solve_chol(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs through H = L L^H, reading the upper triangle of H."""
    L = np.linalg.cholesky(H.conj().T)
    return np.linalg.solve(L.conj().T, np.linalg.solve(L, rhs))


def riesz_coefficients(t: SesquilinearForm, v_coords: np.ndarray) -> np.ndarray:
    """Coefficients of f with (v, x) = [f, x] for all x in the domain."""
    B = t.basis_mat
    rhs = B.conj().T @ v_coords
    Gt = t.gram.T.copy()
    return _solve_chol(Gt, rhs)


def riesz_solve(t: SesquilinearForm, v: Functional, dp: DualityPair) -> Vector:
    """The Riesz representer f of (v, .) inside the form domain."""
    _require_dense("the riesz solve", t)
    cert = lower_bound(t, dp)
    if cert.gamma <= 0:
        raise LowerBoundError("riesz solve needs a positive lower bound")
    coef = riesz_coefficients(t, v.coords)
    f = t.basis_mat @ coef
    # defining identity on the basis: (v, b_j) = [f, b_j] for every j
    lhs = t.basis_mat.conj().T @ v.coords
    rhs = t.gram.T @ coef
    if np.any(np.abs(lhs - rhs) > 1e-10 * np.maximum(1.0, np.abs(lhs))):
        raise ArithmeticError("riesz identity violated beyond tolerance")
    return Vector(f, DENSE)


def associated_operator(t: SesquilinearForm, dp: DualityPair) -> RepresentationResult:
    """Representing operator of a symmetric positive form with gamma > 0.

    Returns A (positive, self-adjoint, dom A the effective closure of the
    form domain) together with the everywhere-defined bounded inverse B,
    with the identity and norm residuals recorded.  A and B share the
    form's factored basis.  The norm of the Hermitian ``M_A`` comes from
    the form's reduced spectrum, that of ``R`` from the eigenvalues of
    its Hermitian part.
    """
    _require_dense("the representation route", t)
    if not t.symmetric:
        raise NotPositive("form must be symmetric")
    cert = lower_bound(t, dp)
    if cert.gamma <= 0.0:
        raise LowerBoundError(f"lower bound gamma = {cert.gamma:.3e} is not positive")
    basis = t._basis
    B = basis.mat
    Gt = t.gram.T            # conj(gram) for Hermitian grams
    # B: X* -> X, everywhere defined on the effective dual, f = R v; with
    # G^T = L L^H it is R = B (G^T)^-1 B^H = X^H X for X = L^-1 B^H
    X = np.linalg.solve(np.linalg.cholesky(Gt.conj().T), B.conj().T)
    R = X.conj().T @ X
    # A: action on the domain basis column j is  B (B^H B)^-1 G^T e_j,
    # and B (B^H B)^-1 is pinv(B)^H
    Z = basis.pinv.conj().T @ Gt
    A = DenseOperator(TO_DUAL, basis, Z)
    Bop = DenseOperator(FROM_DUAL, basis, R @ B)

    P = A.effective_projector()
    M_A = A.canonical_matrix()
    # M_A = U W conj(G) W^H U^H has the eigenvalues of the form, R has
    # its own
    lam_r = hermitian_eigvalsh(R)
    norm_a = float(np.max(np.abs(t._spectrum)))
    norm_r = float(np.max(np.abs(lam_r)))
    scale = max(norm_a, norm_r, 1.0)
    ab_res = relative_residual(operator_norm(M_A @ R - P), [scale])
    ba_res = relative_residual(operator_norm(R @ M_A @ P - P), [scale])
    sa_res = relative_residual(operator_norm(P @ M_A - (P @ M_A).conj().T),
                               [norm_a, 1.0])
    bnorm = _b_operator_norm(norm_r, t.n, dp)
    residuals = {
        "ab_identity": ab_res,
        "ba_identity": ba_res,
        "selfadjoint": sa_res,
        "b_norm": bnorm,
        "b_norm_excess": max(0.0, bnorm * cert.gamma - 1.0),
        "b_positive": max(0.0, -float(lam_r[0])),
    }
    if ab_res > 1e-10 or ba_res > 1e-10:
        raise ArithmeticError(f"inverse identities violated: {residuals}")
    if residuals["b_norm_excess"] > 1e-8:
        raise ArithmeticError(
            f"||B|| = {bnorm:.12g} exceeds 1/gamma = {1.0 / cert.gamma:.12g}")
    return RepresentationResult(A, Bop, cert.gamma, cert, residuals)


def _b_operator_norm(s: float, n: int, dp: DualityPair) -> float:
    """Norm of B as a map (X*, q) -> (X, p) on n coordinates from its
    spectral norm s: s itself for p = 2, a certified over-estimate
    through norm equivalence otherwise."""
    if dp.p == 2.0:
        return s
    kappa_out = n ** max(0.0, 1.0 / dp.p - 0.5)   # ||.||_p <= k ||.||_2
    kappa_in = n ** max(0.0, 0.5 - 1.0 / dp.q)    # ||.||_2 <= k ||.||_q
    return s * kappa_out * kappa_in


def inverse_selfadjoint(B: DenseOperator) -> DenseOperator:
    """Inverse of a bounded injective self-adjoint B: X* -> X.

    The result A = B^-1 has dom A = ran B; its self-adjointness is
    verified through the adjoint construction before returning.
    """
    _require_dense("the inverse construction", B)
    if B.direction != FROM_DUAL:
        raise ValueError("B must map X* to X")
    if not B.is_full_domain():
        raise ValueError("B must be everywhere defined (bounded)")
    M = B.canonical_matrix()
    s = np.linalg.svd(M, compute_uv=False)
    smin, norm_m = float(s[-1]), float(s[0])
    if smin <= 1e-12 * max(1.0, norm_m):
        raise ValueError(f"B not injective (smallest singular value {smin:.3e})")
    if not B.is_symmetric():
        raise ValueError("B not self-adjoint")
    # dom A = ran B: swap basis and action
    A = DenseOperator(TO_DUAL, B.action_mat, B.basis_mat)
    M_A = A.effective_matrix()
    norm_a = operator_norm(M_A)
    adj_res = relative_residual(
        operator_norm(adjoint(A).effective_matrix() - M_A), [norm_a, 1.0])
    if adj_res > 1e-10:
        raise ArithmeticError(f"inverse failed self-adjointness check ({adj_res:.3e})")
    comp = relative_residual(operator_norm(M_A @ M - A.effective_projector()),
                             [norm_a, 1.0])
    if comp > 1e-10:
        raise ArithmeticError(f"A o B != id (residual {comp:.3e})")
    return A
