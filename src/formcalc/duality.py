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

Each operator class implements the primitives that the constructions
call without branching on the backend: domain membership, adjoint,
extension, the form on X with its order, core witnesses, form sum checks.

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

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import series
from .errors import BackendMismatch, DomainError, SeriesDiverges, Uncertifiable
from .linalg import hermitian_norm, is_hermitian, max_column_norm, operator_norm

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


def pair(v: Functional, x: Vector) -> complex:
    """The pairing (v, x) = sum_i v_i conj(x_i).

    Dense backend: exact finite sum.  Sequence backend: partial sum over
    the common truncation plus a certified tail bound below ``TOL_TAIL``
    (relative, floored at 1); fails with :class:`Uncertifiable` when the
    product tail cannot be certified.
    """
    if v.backend != x.backend:
        raise BackendMismatch(f"{v.backend} vs {x.backend}")
    if v.backend == DENSE and v.n != x.n:
        raise BackendMismatch("length mismatch")
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

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of x in the basis; DomainError when x, or any
        column of a matrix x, is outside the span beyond ``TOL_SUB``."""
        c = self.pinv @ x
        res = np.linalg.norm(self.mat @ c - x, axis=0)
        if np.any(res > TOL_SUB * np.maximum(np.linalg.norm(x, axis=0), 1e-300)):
            raise DomainError("vector outside the operator domain "
                              f"(residual {np.max(res):.3e})")
        return c


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
        """Coefficients of x in the domain basis (:meth:`_Basis.coefficients`)."""
        return self._basis.coefficients(x)

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

    def graph_contains(self, y: Vector) -> bool:
        """y in dom A: in the span of the domain basis within ``TOL_SUB``."""
        try:
            self.coefficients_of(y.coords)
        except DomainError:
            return False
        return True

    def _adjoint(self) -> DenseOperator:
        """A* with the conjugate-transposed effective matrix (the domain is
        dense in its closure by the effective-ambient convention)."""
        if self.direction == ENDO:
            raise DomainError("adjoint of an X -> X endomorphism lives on X*; "
                              "use its conjugate-transpose matrix directly")
        Q = self._basis.U
        return DenseOperator(self.direction, Q, self.effective_matrix().conj().T @ Q)

    def _extends(self, S: DenseOperator) -> bool:
        """dom S inside dom A (residual <= ``TOL_SUB``, relative) and the
        actions agree there (residual <= ``TOL_ACT``, scaled by the
        operator norms)."""
        if S.n != self.n:
            return False
        scale_act = max(operator_norm(self.action_mat), operator_norm(S.action_mat), 1e-300)
        C = self._basis.pinv @ S.basis_mat
        sub = np.linalg.norm(self.basis_mat @ C - S.basis_mat, axis=0)
        act = np.linalg.norm(self.action_mat @ C - S.action_mat, axis=0)
        return bool(np.all(sub <= TOL_SUB * np.linalg.norm(S.basis_mat, axis=0)) and
                    np.all(act <= TOL_ACT * scale_act *
                           np.maximum(1.0, np.linalg.norm(C, axis=0))))

    def _shares_space(self, x) -> bool:
        """x, an operator or vector, lives on this C^n."""
        return x.backend == self.backend and x.n == self.n

    @staticmethod
    def _require_finitely_supported() -> None:
        """Every vector of C^n is finitely supported."""

    def _form_columns(self, Y: np.ndarray):
        """Form of A on X at every column of Y from one eigensolve.

        With quad = V diag(lam) V^H the Hermitian form gram and
        T = V^H (Z^H Y), the value at column k is sum |T_ik|^2 / lam_i over
        the live eigenvalues; a column whose mass on the numerical kernel
        exceeds 1e-8 of its norm escapes the form domain and gets +inf.
        Returns (values, dead_mass, lam, V, live, T)."""
        quad = np.conj(self.form_gram())
        lam, V = np.linalg.eigh(0.5 * (quad + quad.conj().T))
        live = lam > 1e-12 * max(float(lam[-1]), 1e-300)
        T = V.conj().T @ (self.action_mat.conj().T @ Y)
        dead_mass = np.linalg.norm(T[~live], axis=0)
        escaped = dead_mass > 1e-8 * np.maximum(1.0, np.linalg.norm(T, axis=0))
        values = np.sum(np.abs(T[live]) ** 2 / lam[live, None], axis=0)
        values[escaped] = math.inf
        return values, dead_mass, lam, V, live, T

    def _form_value(self, y: Vector) -> tuple:
        """(value, witness, kind, certificate) at y: the exact reduction of
        :meth:`_form_columns` (Cauchy-Schwarz saturates) and its maximizer."""
        values, dead_mass, lam, V, live, T = self._form_columns(y.coords[:, None])
        if not math.isfinite(values[0]):
            return (math.inf, None, "tail-divergence",
                    {"kind": "kernel-escape", "mass": float(dead_mass[0])})
        cstar = V[:, live] @ (T[live, 0] / lam[live])
        return (float(values[0]), self.basis_mat @ cstar, "exact-eigensolve",
                {"spectrum_floor": float(lam[0])})

    def _order(self, B: DenseOperator, samples: list, p: float) -> tuple:
        """(probe labels, values of A, of B, decisions, domain inclusions)
        from one eigensolve per operand, probed at the samples and both
        domain bases, each inclusion the escape of its certificate."""
        Y = np.column_stack([s.coords for s in samples] + [self.basis_mat, B.basis_mat,
                                                          np.eye(self.n)])
        cols = [M._form_columns(Y) for M in (self, B)]
        values_a, values_b = (c[0][:-self.n].tolist() for c in cols)
        (Qa, Na), (Qb, Nb) = (_form_matrix(c[2], c[4], c[5][:, -self.n:]) for c in cols)
        scale = max(float(np.linalg.norm(Qa)), float(np.linalg.norm(Qb)), 1.0)
        decisions = [_dense_decision(Qa, Na, Qb, Nb, scale),
                     _dense_decision(Qb, Nb, Qa, Na, scale)]
        labels = [f"basis{X}:{k}" for X, M in (("A", self), ("B", B)) for k in range(M.d)]
        return (labels, values_a, values_b, decisions,
                [cert["escape"] <= 1e-8 for cert, _ in decisions])

    @staticmethod
    def _core_witness(y: Vector) -> tuple:
        """(truncation, tail, ratios): y is its own truncation."""
        return y.n, 0.0, ()

    def _sum_residuals(self, A: DenseOperator, B: DenseOperator) -> tuple:
        """(extension residual, collapse) of this form sum against A + B on
        dom t_B, exact on full domains; ArithmeticError otherwise."""
        M_AB = self.canonical_matrix()
        M_sum = A.canonical_matrix() + B.canonical_matrix()
        scale = max(hermitian_norm(M_sum), 1.0)
        C = B.basis_mat
        worst = max_column_norm(B.effective_projector() @ (M_AB @ C - M_sum @ C)) / scale
        collapse = bool(A.is_full_domain() and B.is_full_domain())
        if collapse:
            exact = float(operator_norm(M_AB - M_sum)) / scale
            if exact > 1e-12:
                raise ArithmeticError(
                    f"everywhere-defined collapse violated (residual {exact:.3e})")
        if worst > 1e-10:
            raise ArithmeticError(f"form sum fails to extend A + B ({worst:.3e})")
        return worst, collapse


def _form_matrix(lam, live, T):
    """(Q, N) from the eigensolve of a form gram and T = V^H Z^H: the form
    on X is y^H Q y, Q = T_live^H diag(1/lam_live) T_live, on dom J* =
    ker T_dead, of which N is an orthonormal basis.  A singular value of
    T_dead at most 1e-8 max(1, ||T||) is rounding, not a constraint."""
    _, s, Vh = np.linalg.svd(T[~live])
    rank = int(np.sum(s > 1e-8 * max(1.0, float(np.linalg.norm(T)))))
    return T[live].conj().T @ (T[live] / lam[live, None]), Vh[rank:].conj().T


def _nearest(W):
    """The unit vector of span W (orthonormal columns) nearest the standard
    basis vector nearest span W: a witness that does not depend on the
    basis a solver picks for a repeated eigen- or singular value."""
    w = W @ W[np.argmax(np.linalg.norm(W, axis=1))].conj()
    return w / np.linalg.norm(w)


def _dense_decision(Qx, Nx, Qy, Ny, scale):
    """X >= Y iff span Nx lies within 1e-8 of span Ny and Nx^H (Qx - Qy) Nx
    >= -1e-9 scale: (certificate, the values of X and Y at a witness, or
    None when X >= Y)."""
    _, s, Vh = np.linalg.svd(Nx - Ny @ (Ny.conj().T @ Nx), full_matrices=False)
    cert = {"escape": float(s[0]) if s.size else 0.0}
    if cert["escape"] > 1e-8:
        w = _nearest(Nx @ Vh[s >= s[0] - 1e-10].conj().T)
        return cert, (float(np.real(np.vdot(w, Qx @ w))), math.inf)
    mu, U = np.linalg.eigh(Nx.conj().T @ (Qx - Qy) @ Nx)
    cert["lambda_min"] = float(mu[0]) if mu.size else 0.0
    if cert["lambda_min"] >= -1e-9 * scale:
        return cert, None
    w = _nearest(Nx @ U[:, mu <= mu[0] + 1e-10 * scale])
    return cert, tuple(float(np.real(np.vdot(w, Q @ w))) for Q in (Qx, Qy))


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

    def _adjoint(self) -> DiagonalOperator:
        """The conjugated generator on the same domain rule."""
        return replace(self, diagonal=self.diagonal.conjugate())

    def _extends(self, S: DiagonalOperator) -> bool:
        """The generators agree and the domain rule of S is no larger."""
        if not series.rules_agree(S.diagonal, self.diagonal):
            return False
        order = {DOMAIN_FINITE: 0, DOMAIN_MAXIMAL: 1}
        return order[S.domain_rule] <= order[self.domain_rule]

    def _shares_space(self, x) -> bool:
        """x, an operator or vector, lives on the sequence backend."""
        return x.backend == self.backend

    def _require_finitely_supported(self) -> None:
        """DomainError unless this Friedrichs input acts on finitely
        supported vectors."""
        if self.domain_rule != DOMAIN_FINITE:
            raise DomainError("input operator must act on finitely supported vectors")

    def _form_value(self, y: Vector) -> tuple:
        """(value, witness, kind, certificate) at y: the certified sum
        a_n |y_n|^2, or +inf with a divergence record."""
        if y.tail is None:
            vals = np.real(self.diagonal(np.arange(1, y.n + 1)))
            return float(vals @ np.abs(y.coords) ** 2), y.coords, "tail-sum", {"tail": 0.0}
        ok, cert = series.decide_summable(self.diagonal * y.tail.abs_square())
        if not ok:
            return math.inf, None, "tail-divergence", cert.as_dict()
        return float(np.real(cert.value)), None, "tail-sum", cert.certificate.as_dict()

    def _order(self, B: DiagonalOperator, samples: list, p: float) -> tuple:
        """(probe labels, values of A, of B, decisions, domain inclusions):
        a_n >= b_n from the head of a - b and the sign of its dominant term,
        probed at the samples and e_1..e_4, domains of J* on X = l^p."""
        N, sign = series.eventual_sign(self.diagonal + B.diagonal.scale(-1.0))
        ga, gb = series.growth(self.diagonal), series.growth(B.diagonal)
        inclusion = [_sequence_domain_le(ga, gb, p), _sequence_domain_le(gb, ga, p)]
        # a_1..a_max(N, 4): the forms at e_1..e_4, then the head of the decision
        va, vb = (np.real(M.diagonal(np.arange(1, max(N, 4) + 1))) for M in (self, B))
        values_a = [self._form_value(y)[0] for y in samples] + va[:4].tolist()
        values_b = [B._form_value(y)[0] for y in samples] + vb[:4].tolist()
        va, vb = va[:N], vb[:N]
        decisions = [_sequence_decision(va, vb, sign), _sequence_decision(vb, va, -sign)]
        return [f"basis:{k}" for k in range(4)], values_a, values_b, decisions, inclusion

    def _core_witness(self, y: Vector) -> tuple:
        """(truncation, tail, ratios) of :func:`friedrichs.core_check`."""
        if y.tail is None:
            return (int(np.max(np.nonzero(np.abs(y.coords) > 0)[0]) + 1)
                    if np.any(y.coords) else 0), 0.0, ()
        energy_rule = self.diagonal * y.tail.abs_square()
        try:
            total = series.certified_sum(energy_rule, tol=1e-10)
        except SeriesDiverges as exc:
            raise DomainError("sample outside the energy domain") from exc
        target = 1e-8 * max(abs(total.value), 1e-300)
        trace = []
        k = 1
        while True:
            tb = series.tail_bound(energy_rule, k)
            trace.append(tb)
            if tb < target:
                break
            if k > series._MAX_TERMS:
                raise Uncertifiable("energy tail does not reach the target")
            k = k + max(1, k // 2)
        ratios = tuple(trace[i + 1] / trace[i] for i in range(len(trace) - 1)
                       if trace[i] > 0)
        if any(r >= 1.0 for r in ratios):
            raise ArithmeticError("energy tails failed to contract")
        return k, trace[-1], ratios

    @staticmethod
    def _sum_residuals(A: DiagonalOperator, B: DiagonalOperator) -> tuple:
        """(0.0, False): rules add exactly.  H_{A,B} is dense: every finitely
        supported vector passes both membership tests, probed at n <= 8."""
        ns = np.arange(1, 9)
        if not (np.all(np.isfinite(np.real(A.diagonal(ns)))) and
                np.all(np.isfinite(np.real(B.diagonal(ns))))):
            raise DomainError("density check failed on finitely supported probes")
        return 0.0, False


def _sequence_decision(vx, vy, sign):
    """X >= Y from diagonal values at n = 1..N, x - y having the sign
    ``sign`` from N on; the witness is e_k for the k of
    :func:`series.first_below`."""
    k = series.first_below(vx, vy, sign)
    cert = {"from": len(vx), "sign": sign}
    if k is None:
        return cert, None
    return {**cert, "witness": k + 1}, (float(vx[k]), float(vy[k]))


def _sequence_domain_le(growth_a: tuple, growth_b: tuple, p: float) -> bool:
    """dom J_A* in dom J_B* on l^p for the diagonals a and b, given as
    their :func:`series.growth`: every y in l^p with sum a_n |y_n|^2
    finite has sum b_n |y_n|^2 finite.  That holds iff b = O(a) or b
    lies in l^r, the dual of l^(p/2): r = inf for p <= 2, where l^p lies
    in l^2, and r = p/(p - 2) above.  Both are read off the dominant
    groups."""
    ratio, alpha = growth_b
    if growth_b <= growth_a or ratio < 1.0:
        return True
    if ratio > 1.0:
        return False
    return alpha <= 0.0 if p <= 2.0 else alpha < 2.0 / p - 1.0


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
    """Adjoint with respect to the pairing: (Ax, y) = (x, A* y), the
    operator's own ``_adjoint``."""
    return A._adjoint()


def is_extension(S: Operator, T: Operator) -> bool:
    """True iff T extends S: both on one backend with one direction, and
    T's ``_extends`` accepts S.  Never raises; any failure is False."""
    return S.backend == T.backend and S.direction == T.direction and T._extends(S)
