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
on the sequence backend.  Each implements the form primitives: a
certified lower bound, closedness, the sum with a second form, and the
operator the form represents.  The Friedrichs extension, the form sum
and the covariance operator are each that one representation step.

The space gives a construction its exponent ``p``, the form its size n:
norm equivalences are taken on the form's own n coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import series
from .duality import (
    DENSE, DOMAIN_MAXIMAL, FROM_DUAL, SEQUENCE, TO_DUAL, DenseOperator,
    DiagonalOperator, DualityPair, Functional, Operator, Vector, _Basis,
    _factor_basis, _require_dense, _require_finite, adjoint, operator_norm,
)
from .errors import DomainError, LowerBoundError, NotPositive, Uncertifiable
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

    def _lower_bound(self, dp: DualityPair) -> LowerBoundCertificate:
        """The smallest eigenvalue of the form gram against the Euclidean
        gram of the domain basis, through the SVD shared with its operator;
        for p != 2 scaled by the norm equivalence on n coordinates."""
        # the pencil (conj(G), B^H B) as a standard eigenproblem; it has the
        # inertia of conj(G), which the constructor decided, so a negative
        # value is rounding
        gamma2 = max(float(self._spectrum[0]), 0.0)
        if dp.p == 2.0:
            return LowerBoundCertificate(gamma2, "exact-p2", detail={"p": 2.0})
        # ||x||_2^2 >= kappa ||x||_p^2 on n coordinates: 1 for p >= 2, where
        # ||x||_p <= ||x||_2, and n^(1 - 2/p) below
        kappa = float(self.n) ** (-2.0 * max(0.0, 1.0 / dp.p - 0.5))
        gamma_p = gamma2 * kappa
        return LowerBoundCertificate(gamma_p, "equivalence-scaled",
                                     slack=gamma2 - gamma_p,
                                     detail={"p": dp.p, "kappa": kappa,
                                             "gamma_p2": gamma2})

    def _is_closed(self, runs: list[Vector] | None, dp: DualityPair) -> ClosednessWitness:
        """Automatic with gamma > 0: the graph norm is complete in C^n."""
        if lower_bound(self, dp).gamma <= 0:
            raise LowerBoundError("automatic closedness needs gamma > 0")
        return ClosednessWitness(CLOSED_AUTOMATIC)

    def _plus(self, other: SesquilinearForm, dp: DualityPair) -> SesquilinearForm:
        """t_A + t_B on dom J_A* (all of X here) intersected with dom t_B,
        for A with gamma > 0 on all of X and t_B closed: t_A is read through
        the coefficients of t_B's basis in A's."""
        if lower_bound(self, dp).gamma <= 0:
            raise LowerBoundError("form sum needs a positive lower bound on A")
        if self.d < self.n:
            raise DomainError("A must be effectively everywhere defined "
                              "(its closure carries the representation)")
        is_closed(other, None, dp)
        C = self._basis.coefficients(other.basis_mat)
        return SesquilinearForm(other._basis, C.T @ self.gram @ np.conj(C) + other.gram)

    def _represent(self, dp: DualityPair) -> tuple:
        """(A, certify): :func:`associated_operator` certifies gamma > 0
        before it builds A; ``certify`` returns that certificate."""
        rep = associated_operator(self, dp)
        return rep.A, lambda: rep.lower_certificate


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
    symmetric = True

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

    def _lower_bound(self, dp: DualityPair) -> LowerBoundCertificate:
        """inf a_n for p >= 2, where ||x||_p <= ||x||_2 and the basis vectors
        attain it; below p = 2 it overstates gamma."""
        if dp.p < 2.0:
            raise Uncertifiable(f"diagonal lower bound at p = {dp.p} < 2 is not "
                                "certified (inf a_n overstates it)")
        return LowerBoundCertificate(series.rule_lower_bound(self.diagonal),
                                     "exact-p2" if dp.p == 2.0 else "exact-inf",
                                     detail={"p": dp.p})

    def _is_closed(self, runs: list[Vector] | None, dp: DualityPair) -> ClosednessWitness:
        """Each supplied run is a generator-ruled limit vector; its
        truncations must be Cauchy in the form with certified contracting
        tails, and a run whose tails fail to contract is rejected.  With no
        runs the witness is the form itself: a diagonal form, whose weights
        are nonnegative once it exists, is closed on its maximal domain by
        Fatou's lemma."""
        if not runs:
            return ClosednessWitness(CLOSED_DIAGONAL)
        records = []
        for x in runs:
            if x.tail is None:
                records.append(RunRecord(()))
                continue
            weight = self.diagonal * x.tail.abs_square()
            ok, _ = series.decide_summable(weight)
            if not ok:
                raise DomainError(
                    "run is not form-Cauchy: its truncation tails diverge")
            tails = [series.tail_bound(weight, 2 ** k) for k in range(2, 13)]
            contraction = tuple(tails[i + 1] / tails[i]
                                for i in range(len(tails) - 1) if tails[i] > 0)
            if any(r >= 1.0 for r in contraction[-10:]):
                raise DomainError("form-Cauchy tails do not contract")
            records.append(RunRecord(contraction))
        return ClosednessWitness(CLOSED_SEQUENTIAL, tuple(records))

    def _plus(self, other: DiagonalForm, dp: DualityPair) -> DiagonalForm:
        """The summed weights, valid at gamma = 0 (covariance rules decay)."""
        return DiagonalForm(self.diagonal + other.diagonal)

    def _represent(self, dp: DualityPair) -> tuple:
        """(A, certify): the generator on its graph domain needs no lower
        bound, so ``certify`` computes inf a_n only when called."""
        return DiagonalOperator(self.diagonal, DOMAIN_MAXIMAL), lambda: lower_bound(self, dp)


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


CLOSED_AUTOMATIC = "lower-bound-automatic"
CLOSED_SEQUENTIAL = "sequential"
CLOSED_DIAGONAL = "diagonal-fatou"


@dataclass(frozen=True)
class RunRecord:
    contraction: tuple[float, ...]    # ratios of certified tails t(x - x_k, x - x_k)


@dataclass(frozen=True, eq=False)
class ClosednessWitness:
    kind: str                         # one of the CLOSED_* kinds
    runs: tuple[RunRecord, ...] = ()


def is_closed(t: Form, runs: list[Vector] | None,
              dp: DualityPair) -> ClosednessWitness:
    """Closedness certificate for a positive form, from its ``_is_closed``."""
    return t._is_closed(runs, dp)


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


def lower_bound(t: Form, dp: DualityPair) -> LowerBoundCertificate:
    """Certified gamma with t(x,x) >= gamma ||x||_p^2, from the form's
    ``_lower_bound``."""
    return t._lower_bound(dp)


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


def riesz_solve(t: SesquilinearForm, v: Functional, dp: DualityPair) -> Vector:
    """The Riesz representer f of (v, .) inside the form domain: its
    coefficients c solve G^T c = B^H v through G^T = L L^H."""
    _require_dense("the riesz solve", t)
    cert = lower_bound(t, dp)
    if cert.gamma <= 0:
        raise LowerBoundError("riesz solve needs a positive lower bound")
    # defining identity on the basis: (v, b_j) = [f, b_j] for every j
    lhs = t.basis_mat.conj().T @ v.coords
    L = np.linalg.cholesky(np.conj(t.gram))
    coef = np.linalg.solve(L.conj().T, np.linalg.solve(L, lhs))
    rhs = t.gram.T @ coef
    if np.any(np.abs(lhs - rhs) > 1e-10 * np.maximum(1.0, np.abs(lhs))):
        raise ArithmeticError("riesz identity violated beyond tolerance")
    return Vector(t.basis_mat @ coef, DENSE)


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
    # ||B|| as a map (X*, q) -> (X, p), a certified over-estimate through
    # ||.||_p <= n^a ||.||_2 and ||.||_2 <= n^b ||.||_q, exact at p = 2
    bnorm = (norm_r * t.n ** max(0.0, 1.0 / dp.p - 0.5)
             * t.n ** max(0.0, 0.5 - 1.0 / dp.q))
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
