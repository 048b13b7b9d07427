"""Duality pairs, vectors, functionals, dense operators and adjoints.

The pairing convention is fixed once and for all as

    (v, x) = sum_i v_i * conj(x_i)

(linear in the functional, conjugate linear in the vector), which makes
self-adjointness of a full-domain operator the same as Hermitian-ness of
its coordinate matrix.

The space X is a :class:`DualityPair`.  It gives a construction its
norm exponent ``p`` and nothing else: a dense operand knows its own size
n, and every construction reads the size from its operand.

Two backends exist, each with its operator class, whose constant
``backend`` names it.  The dense backend (:class:`DenseOperator`) is
exact finite-dimensional algebra on C^n; a proper subspace of C^n is
never dense, so operators treat the closure of their domain as the
effective ambient space.  Genuinely proper dense domains live on the
sequence backend (:class:`DiagonalOperator`), restricted to diagonal
operators with power-geometric coefficient generators so that every
tail admits a certificate (see :mod:`formcalc.series`).

A dense domain basis B is factored once, by a thin SVD
B = U diag(s) V^H held in one private :class:`_Basis` that operators
and forms on that basis share.  The rank test, the projector U U^H on
the span, the canonical matrix, the coefficients of a vector, the
adjoint's basis, the extension test and the form lower bound all come
from that one factorization; none of them goes through the normal
equations B^H B, which square the condition number of the basis.  The
identity basis needs no SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import series
from .errors import BackendMismatch, DomainError, Uncertifiable
from .linalg import is_hermitian, operator_norm

DENSE = "dense"
SEQUENCE = "sequence"

TO_DUAL = "to-dual"      # X -> X*
FROM_DUAL = "from-dual"  # X* -> X
ENDO = "endo"            # X -> X
DIRECTIONS = (TO_DUAL, FROM_DUAL, ENDO)

DOMAIN_FINITE = "finitely-supported"
DOMAIN_MAXIMAL = "graph-summable"

#: relative tolerances for subspace / action residuals in is_extension
TOL_SUB = 1e-9
TOL_ACT = 1e-9
#: certified tail target for sequence pairings and norms
TOL_TAIL = 1e-12


@dataclass(frozen=True)
class DualityPair:
    """A reflexive coordinate space X with its conjugate dual X*.

    ``p`` in (1, inf) is the norm exponent of X; the dual exponent q with
    1/p + 1/q = 1 is derived, never stored.  ``n`` is the ambient
    dimension of a dense space and the working truncation of a sequence
    space, whose generators admit power-geometric tail certificates.
    """

    backend: str
    p: float
    n: int

    def __post_init__(self):
        if self.backend not in (DENSE, SEQUENCE):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not (1.0 < self.p < np.inf):
            raise ValueError("norm exponent must lie in (1, inf)")
        if self.n < 1:
            raise ValueError("a space needs a size n >= 1")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    def dual(self) -> "DualityPair":
        return replace(self, p=self.q)


def dense_pair(dim: int, p: float = 2.0) -> DualityPair:
    return DualityPair(DENSE, p, dim)


def sequence_pair(truncation: int, p: float = 2.0) -> DualityPair:
    return DualityPair(SEQUENCE, p, truncation)


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    """ValueError unless every entry is finite: numpy.linalg does not
    check, so a NaN or inf is rejected where it enters."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} must be finite")


def _as_coords(coords, n=None) -> np.ndarray:
    a = np.ascontiguousarray(coords, dtype=complex).reshape(-1)
    _require_finite("coordinates", a)
    if n is not None and a.size != n:
        raise ValueError(f"expected {n} coordinates, got {a.size}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _Coordinates:
    """Read-only finite coordinates on a backend.  Only a sequence
    vector has a ``tail``: ``None`` means exactly supported inside the
    truncation, otherwise the rule generated the coordinates and rules
    the tail."""

    coords: np.ndarray
    backend: str = DENSE
    tail: series.Rule | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_coords(self.coords))
        if self.tail is not None and self.backend != SEQUENCE:
            raise BackendMismatch("a tail rule needs the sequence backend")

    @property
    def n(self) -> int:
        return self.coords.size


class Vector(_Coordinates):
    """Element of X."""


class Functional(_Coordinates):
    """Element of X*, i.e. a conjugate linear functional in coordinates."""


def vector(coords, dp: DualityPair) -> Vector:
    return Vector(_as_coords(coords, dp.n), dp.backend)


def functional(coords, dp: DualityPair) -> Functional:
    return Functional(_as_coords(coords, dp.n), dp.backend)


def generated_vector(rule: series.Rule, dp: DualityPair) -> Vector:
    if dp.backend != SEQUENCE:
        raise BackendMismatch("generated vectors need the sequence backend")
    ns = np.arange(1, dp.n + 1)
    return Vector(rule(ns), SEQUENCE, tail=rule)


def generated_functional(rule: series.Rule, dp: DualityPair) -> Functional:
    if dp.backend != SEQUENCE:
        raise BackendMismatch("generated functionals need the sequence backend")
    ns = np.arange(1, dp.n + 1)
    return Functional(rule(ns), SEQUENCE, tail=rule)


def basis_vector(i: int, dp: DualityPair) -> Vector:
    e = np.zeros(dp.n, dtype=complex)
    e[i] = 1.0
    return Vector(e, dp.backend)


def basis_functional(i: int, dp: DualityPair) -> Functional:
    e = np.zeros(dp.n, dtype=complex)
    e[i] = 1.0
    return Functional(e, dp.backend)


def _check_same_backend(a, b):
    if a.backend != b.backend:
        raise BackendMismatch(f"{a.backend} vs {b.backend}")


def pair(v: Functional, x: Vector) -> complex:
    """The pairing (v, x) = sum_i v_i conj(x_i).

    Dense backend: exact finite sum.  Sequence backend: partial sum over
    the common truncation plus a certified tail bound below ``TOL_TAIL``
    (relative, floored at 1); fails with :class:`Uncertifiable` when the
    product tail cannot be certified.
    """
    _check_same_backend(v, x)
    if v.backend == DENSE:
        if v.n != x.n:
            raise BackendMismatch("length mismatch")
        return complex(np.vdot(x.coords, v.coords))
    n = max(v.n, x.n)
    rv, rx = v.tail, x.tail
    ns = np.arange(1, n + 1)
    vv = v.coords if v.n == n else (rv(ns) if rv is not None else _pad(v.coords, n))
    xx = x.coords if x.n == n else (rx(ns) if rx is not None else _pad(x.coords, n))
    partial = complex(np.vdot(xx, vv))
    if rv is None or rx is None:
        return partial  # one factor exactly supported: tail is exactly zero
    prod = rv * rx.conjugate()
    tb = series.tail_bound(prod, n)
    if not np.isfinite(tb) or tb > TOL_TAIL * max(1.0, abs(partial)):
        res = series.certified_sum(prod, tol=TOL_TAIL, scale=max(1.0, abs(partial)))
        return res.value
    return partial


def _pad(coords: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    out[:coords.size] = coords
    return out


def norm(x: Vector | Functional, p: float) -> float:
    """l_p norm of the coordinates; certified tail on the sequence backend."""
    if not (1.0 < p < np.inf):
        raise ValueError("norm exponent must lie in (1, inf)")
    head = float(np.sum(np.abs(x.coords) ** p))
    rule = x.tail
    if rule is None:
        return head ** (1.0 / p)
    maj = rule.majorant()
    powered = series.Rule((series.Term(abs(maj.coef) ** p, maj.alpha * p,
                                       maj.ratio ** p, maj.start),))
    tb = series.tail_bound(powered, x.n)
    if not np.isfinite(tb) or tb > TOL_TAIL * max(1.0, head):
        raise Uncertifiable("norm tail not certifiable at the working truncation")
    return (head + tb / 2.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# dense operators


@dataclass(frozen=True, eq=False)
class _Basis:
    """A dense domain basis ``mat`` with its thin SVD
    ``mat = U diag(s) Vh``, all arrays read-only.

    The identity is recognised by one exact comparison and gets
    U = Vh = I and s = 1 without an SVD; that is the factorization LAPACK
    returns for it, so nothing downstream changes.  ``identity`` lets a
    form reuse its coefficient spectrum.  The rank rule is the consumer's:
    operators and forms apply different ones to the same ``s``.
    """

    mat: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vh: np.ndarray
    identity: bool = False

    @cached_property
    def pinv(self) -> np.ndarray:
        """The pseudo-inverse V diag(1/s) U^H of a full-rank basis."""
        P = (self.Vh.conj().T / self.s) @ self.U.conj().T
        P.setflags(write=False)
        return P


def _factor_basis(B: np.ndarray) -> _Basis:
    """Factor a finite complex n x d basis; read-only from here on."""
    n, d = B.shape
    identity = n == d and np.array_equal(B, np.eye(n))
    if identity:
        U, s, Vh = B, np.ones(n), B
    else:
        U, s, Vh = np.linalg.svd(B, full_matrices=False)
    for M in (B, U, s, Vh):
        M.setflags(write=False)
    return _Basis(B, U, s, Vh, identity)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Operator on C^n given by a domain basis and its action on that basis.

    ``basis_mat`` holds the domain basis as columns, ``action_mat`` the
    action on each basis column (functional coordinates for X -> X*
    operators, vector coordinates otherwise).

    A dense basis is factored once, by the thin SVD B = U diag(s) V^H
    taken at construction, or not at all when ``basis_mat`` is the
    identity or is given as the already factored basis of another
    operator or form, which is then shared.  The basis is independent
    when s_min > 1e-9 max(1, s_max).  The operator keeps U, an
    orthonormal basis of the span, and the pseudo-inverse
    V diag(1/s) U^H; every basis operation below is a product with one
    of them.
    """

    backend = DENSE

    direction: str
    basis_mat: np.ndarray | _Basis
    action_mat: np.ndarray

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        shared = self.basis_mat if isinstance(self.basis_mat, _Basis) else None
        B = shared.mat if shared else np.asarray(self.basis_mat, dtype=complex)
        Z = np.asarray(self.action_mat, dtype=complex)
        if B.ndim != 2 or Z.shape != B.shape[:1] + B.shape[1:]:
            raise ValueError("basis and action must be matching n x d matrices")
        _require_finite("basis and action", B, Z)
        if not 0 < B.shape[1] <= B.shape[0]:
            raise DomainError("domain basis is not linearly independent")
        basis = shared or _factor_basis(B)
        if basis.s[-1] <= 1e-9 * max(1.0, float(basis.s[0])):
            raise DomainError("domain basis is not linearly independent")
        Z.setflags(write=False)
        object.__setattr__(self, "basis_mat", B)
        object.__setattr__(self, "action_mat", Z)
        object.__setattr__(self, "_basis", basis)

    @property
    def n(self) -> int:
        return self.basis_mat.shape[0]

    @property
    def d(self) -> int:
        return self.basis_mat.shape[1]

    def coefficients_of(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of x in the domain basis; DomainError when x, or
        any column of a matrix x, is outside the span beyond ``TOL_SUB``."""
        c = self._basis.pinv @ x
        res = np.linalg.norm(self.basis_mat @ c - x, axis=0)
        if np.any(res > TOL_SUB * np.maximum(np.linalg.norm(x, axis=0), 1e-300)):
            raise DomainError("vector outside the operator domain "
                              f"(residual {np.max(res):.3e})")
        return c

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.action_mat @ self.coefficients_of(x)

    def canonical_matrix(self) -> np.ndarray:
        """Matrix acting on the domain span (zero on its complement)."""
        return self.action_mat @ self._basis.pinv

    def _once(self, key: str, compute) -> np.ndarray:
        """``compute()`` on the first call for ``key``, kept read-only."""
        v = self.__dict__.get(key)
        if v is None:
            v = compute()
            v.setflags(write=False)
            object.__setattr__(self, key, v)
        return v

    def effective_projector(self) -> np.ndarray:
        """Orthogonal projector on the domain span, computed once per
        operator and returned read-only."""
        U = self._basis.U
        return self._once("_projector", lambda: U @ U.conj().T)

    def action_singular_values(self) -> np.ndarray:
        """Singular values of ``action_mat``, descending, computed once
        per operator and returned read-only."""
        return self._once("_action_sv", lambda: np.linalg.svd(
            self.action_mat, compute_uv=False))

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the canonical matrix, computed once per
        operator and returned read-only."""
        return self._once("_spectrum",
                          lambda: np.linalg.eigvals(self.canonical_matrix()))

    def effective_matrix(self) -> np.ndarray:
        """Canonical matrix with the action restricted to the effective
        ambient space (functionals identified by their restriction)."""
        P = self.effective_projector()
        return P @ self.canonical_matrix()

    def form_gram(self) -> np.ndarray:
        """G[i, j] = (A b_i, b_j) in the fixed pairing convention."""
        return (self.basis_mat.conj().T @ self.action_mat).T

    def is_full_domain(self) -> bool:
        return self.d == self.n

    def is_symmetric(self) -> bool:
        """The form gram passes :func:`linalg.is_hermitian`, the rule that
        flags the symmetry of ``forms.form_of_operator``."""
        return is_hermitian(self.form_gram())


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Diagonal operator on the sequence backend: the coefficient
    generator ``diagonal`` on one of two domains, all finitely supported
    vectors or the maximal graph domain {y : sum |a_n y_n|^2 certified
    finite}."""

    backend = SEQUENCE

    diagonal: series.Rule
    domain_rule: str = DOMAIN_FINITE
    direction: str = TO_DUAL

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.domain_rule not in (DOMAIN_FINITE, DOMAIN_MAXIMAL):
            raise ValueError("sequence domain must be finitely-supported "
                             "or graph-summable")

    def is_symmetric(self) -> bool:
        """The generator's imaginary residual is at most 1e-12."""
        return series.imaginary_residual(self.diagonal) <= 1e-12

    def graph_contains(self, y: Vector) -> bool:
        """Membership in the maximal graph domain: sum |a_n y_n|^2
        certified finite.  Exactly supported vectors always belong;
        raises :class:`Uncertifiable` outside the rule class."""
        if y.tail is None:
            return True
        return series.rule_convergent(self.diagonal.abs_square() * y.tail.abs_square())


#: an operator on either backend
Operator = DenseOperator | DiagonalOperator


def _require_dense(what: str, *operands) -> None:
    """The guard of every dense-only construction: BackendMismatch when
    an operand lives on the sequence backend."""
    if any(obj.backend != DENSE for obj in operands):
        raise BackendMismatch(f"{what} is dense-backend only")


def operator_from_matrix(M, direction: str = TO_DUAL) -> DenseOperator:
    M = np.asarray(M, dtype=complex)
    return DenseOperator(direction, np.eye(M.shape[0], dtype=complex), M)


def restricted_operator(M, basis) -> DenseOperator:
    """X -> X* operator with the given domain basis acting through matrix M."""
    M = np.asarray(M, dtype=complex)
    B = np.asarray(basis, dtype=complex)
    if B.ndim == 1:
        B = B[:, None]
    return DenseOperator(TO_DUAL, B, M @ B)


def identity_operator(dp: DualityPair) -> Operator:
    """The identity as an X -> X* operator on all of X."""
    if dp.backend == DENSE:
        return operator_from_matrix(np.eye(dp.n))
    return DiagonalOperator(series.constant(1.0), DOMAIN_MAXIMAL)


def adjoint(A: Operator) -> Operator:
    """Adjoint with respect to the pairing: (Ax, y) = (x, A* y).

    Dense backend: the effective matrix of A* is the conjugate transpose
    of the effective matrix of A (the domain is dense in its closure by
    the effective-ambient convention).  Sequence backend: conjugated
    generator on the same domain rule.
    """
    if isinstance(A, DiagonalOperator):
        return replace(A, diagonal=A.diagonal.conjugate())
    if A.direction == ENDO:
        raise DomainError("adjoint of an X -> X endomorphism lives on X*; "
                          "use its conjugate-transpose matrix directly")
    Q = A._basis.U
    return DenseOperator(A.direction, Q, A.effective_matrix().conj().T @ Q)


def is_extension(S: Operator, T: Operator) -> bool:
    """True iff T extends S: dom S inside dom T (residual <= ``TOL_SUB``,
    relative) and the actions agree there (residual <= ``TOL_ACT``, scaled
    by the operator norms).  Never raises; any failure is False."""
    if S.backend != T.backend or S.direction != T.direction:
        return False
    if isinstance(S, DiagonalOperator):
        if not series.rules_agree(S.diagonal, T.diagonal):
            return False
        order = {DOMAIN_FINITE: 0, DOMAIN_MAXIMAL: 1}
        return order[S.domain_rule] <= order[T.domain_rule]
    if S.n != T.n:
        return False
    scale_act = max(operator_norm(T.action_mat), operator_norm(S.action_mat), 1e-300)
    C = T._basis.pinv @ S.basis_mat
    sub = np.linalg.norm(T.basis_mat @ C - S.basis_mat, axis=0)
    act = np.linalg.norm(T.action_mat @ C - S.action_mat, axis=0)
    return bool(np.all(sub <= TOL_SUB * np.linalg.norm(S.basis_mat, axis=0)) and
                np.all(act <= TOL_ACT * scale_act *
                       np.maximum(1.0, np.linalg.norm(C, axis=0))))
