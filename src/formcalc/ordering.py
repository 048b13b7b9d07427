"""Factorization A = JJ*, the form of A on X, and the induced order.

The auxiliary space H_A is built from the pre-inner product
[Ax, Ay] = (Ax, y) on ran A; its gram over the domain basis is exactly
the form gram of A, and the kernel is quotiented away by pivoted
Cholesky.  The value of the form of A at y,

    sup { |(Ax, y)|^2 : x in dom A, (Ax, x) <= 1 },

reduces in the dense backend to one eigensolve of the form gram, shared
by every probe evaluated against it (the constrained maximization is
kept as a cross-check oracle).  On the sequence backend the value is a
certified series with tail or divergence certificate.

The order by forms is decided, not sampled: on the dense backend from
the sign of one Hermitian compression of the difference of the forms on
X, on the sequence backend from the sign of a - b over a finite head and
a dominant-term tail (:func:`compare`).
Both are written once on the operator primitives of
:mod:`formcalc.duality`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .duality import (
    DenseOperator, DualityPair, Operator, Vector, _require_dense, operator_norm,
)
from .errors import BackendMismatch, NotEqual, NotPositive
from .forms import form_of_operator
from .linalg import generalized_eigvalsh, gram_inner, pivoted_cholesky


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """H_A (gram over the pivot basis of ran A), J and the JJ* check."""

    operator: DenseOperator
    pivots: np.ndarray
    gram: np.ndarray            # K_r = form gram restricted to pivots
    rank: int
    extension_residual: float   # JJ* against A on the domain basis
    details: dict = field(default_factory=dict)

    def jstar_coefficients(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of J* y in the pivot basis {A b_p} of H_A.

        A matrix y gives one column of coefficients per column of y, all
        from a single solve against the gram."""
        Zp = self.operator.action_mat[:, self.pivots]
        return np.conj(np.linalg.solve(self.gram, Zp.T @ np.conj(y)))

    def h_inner(self, c: np.ndarray, d: np.ndarray) -> complex:
        return gram_inner(self.gram, c, d)

    def whitening(self) -> tuple[np.ndarray, np.ndarray]:
        """``(L^H, L^-H)`` for the Cholesky factor L L^H of conj(gram),
        the H_A quadratic, computed once per factorization."""
        W = self.__dict__.get("_whitening")
        if W is None:
            LH = np.linalg.cholesky(np.conj(self.gram)).conj().T
            W = (LH, np.linalg.inv(LH))
            object.__setattr__(self, "_whitening", W)
        return W


def factorize(A: DenseOperator) -> FactorizationResult:
    """Auxiliary-space factorization of a positive symmetric operator.

    Builds the gram [A b_i, A b_j] = (A b_i, b_j), which is the gram of
    :func:`form_of_operator` and must pass its symmetry and positivity
    tests, quotients the kernel by pivoted Cholesky (threshold 1e-10
    times the action scale) and verifies that JJ* extends A; for
    everywhere-defined dense operators the two agree exactly.
    """
    _require_dense("factorization", A)
    t = form_of_operator(A)      # its constructor refuses an indefinite A
    if not t.symmetric:
        raise NotPositive("operator form is not symmetric")
    F = t.gram
    quad = np.conj(F)
    # the action scale and its rank (relative tolerance 1e-10) from one
    # SVD, which the operator keeps
    s = A.action_singular_values()
    scale = max(float(s[0]), 1e-300)
    L, piv, rank = pivoted_cholesky(quad, tol=1e-10 * scale)
    pivots = piv[:rank]
    K_r = F[np.ix_(pivots, pivots)]
    action_rank = int(np.sum(s > 1e-10 * s[0]))
    res = FactorizationResult(A, pivots, K_r, rank, 0.0,
                              {"action_rank": action_rank,
                               "rank_gap": abs(action_rank - rank)})
    Z_jj = A.action_mat[:, pivots] @ res.jstar_coefficients(A.basis_mat)
    worst = float(np.max(np.linalg.norm(Z_jj - A.action_mat, axis=0))) / scale
    object.__setattr__(res, "extension_residual", worst)
    if worst > 1e-10:
        raise ArithmeticError(f"JJ* does not reproduce A (residual {worst:.3e})")
    return res


@dataclass(frozen=True)
class FormValue:
    """Value of the form of A at y: finite with witness, or +inf with a
    divergence certificate."""

    value: float
    witness: np.ndarray | None = None
    kind: str = "exact-eigensolve"       # | "grid" | "tail-sum" | "tail-divergence"
    certificate: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def form_on_X(A: Operator, y: Vector) -> FormValue:
    """sup |(Ax, y)|^2 over (Ax, x) <= 1, certified by the operator's
    ``_form_value`` once the form of A passes the gate of
    :func:`form_of_operator`."""
    form_of_operator(A)      # its constructor refuses an indefinite A
    return FormValue(*A._form_value(y))


def in_dom_Jstar(A: Operator, y: Vector) -> bool:
    """Membership in dom J_A*: the form of A at y is finite."""
    return form_on_X(A, y).finite


def form_oracle_eigensolve(A: DenseOperator, y: Vector) -> float:
    """Constrained-maximization oracle: the largest generalized eigenvalue
    of the pencil (w w^H, form gram), reduced through a Cholesky of the
    form gram rather than the eigensolve used in form_on_X."""
    F = A.form_gram()
    quad = 0.5 * (np.conj(F) + F.T)
    w = A.action_mat.conj().T @ y.coords
    lam, V = np.linalg.eigh(quad)
    keep = lam > 1e-12 * max(float(lam[-1]), 1e-300)
    Vr = V[:, keep]
    quad_r = Vr.conj().T @ quad @ Vr
    wr = Vr.conj().T @ w
    return float(generalized_eigvalsh(np.outer(wr, wr.conj()), quad_r)[-1])


@dataclass(frozen=True)
class ProbeRecord:
    label: str
    value_a: float
    value_b: float


@dataclass(frozen=True, eq=False)
class OrderingReport:
    verdict: str                       # "A>=B" | "B>=A" | "equal" | "incomparable"
    probes: tuple[ProbeRecord, ...]
    domain_inclusion: dict


def compare(A: Operator, B: Operator, samples: list[Vector],
            p: float = 2.0) -> OrderingReport:
    """The order by form domination, decided by the operands' ``_order``:
    A >= B when dom J_A* lies in dom J_B* and t_A >= t_B there.  The
    probes are the samples, the operands' own probes and a witness per
    failed direction; ``domain_inclusion`` holds each direction's
    certificate and the inclusions of the domains of J* on X, ``p`` its
    norm exponent.  Both forms must pass the gate of
    :func:`form_of_operator` first."""
    if A.backend != B.backend:
        raise BackendMismatch("operands on different backends")
    if not A._shares_space(B):
        raise BackendMismatch("operands on different ambient dimensions")
    for s in samples:
        if not A._shares_space(s):
            raise BackendMismatch(f"{s.backend} sample of size {s.n} off the operands' space")
    form_of_operator(A), form_of_operator(B)    # refuse an indefinite A or B
    probes, values_a, values_b, decisions, inclusion = A._order(B, samples, p)
    labels = [f"sample:{i}" for i in range(len(samples))] + probes
    records = list(map(ProbeRecord, labels, values_a, values_b))
    certificates = []
    for direction, (cert, witness) in zip(("A>=B", "B>=A"), decisions):
        certificates.append({"direction": direction, "holds": witness is None, **cert})
        if witness is not None:
            records.append(ProbeRecord(f"witness:{direction}",
                                       *(witness if direction == "A>=B" else witness[::-1])))
    verdict = {(True, True): "equal", (True, False): "A>=B", (False, True): "B>=A",
               (False, False): "incomparable"}[tuple(c["holds"] for c in certificates)]
    return OrderingReport(verdict, tuple(records),
                          {"domain_A_le_B": inclusion[0], "domain_B_le_A": inclusion[1],
                           "certificates": certificates})


@dataclass(frozen=True, eq=False)
class AntisymmetryReport:
    matrix_residual: float
    span_residual: float
    passed: bool


def antisymmetry_check(A: DenseOperator, B: DenseOperator,
                       report: OrderingReport) -> AntisymmetryReport:
    """Equal forms force equal operators (dense backend).

    Requires a prior ``equal`` verdict; verifies the canonical matrices
    and effective spans agree to 1e-10, mirroring the polarization
    argument (Ax, y) = [J*x, J*y] = (x, By)."""
    if report.verdict != "equal":
        raise NotEqual("antisymmetry check needs an 'equal' verdict")
    _require_dense("antisymmetry verification", A, B)
    Ma, Mb = A.canonical_matrix(), B.canonical_matrix()
    scale = max(operator_norm(Ma), operator_norm(Mb), 1.0)
    m_res = float(operator_norm(Ma - Mb)) / scale
    Pa, Pb = A.effective_projector(), B.effective_projector()
    s_res = float(operator_norm(Pa - Pb))
    return AntisymmetryReport(m_res, s_res, m_res <= 1e-10 and s_res <= 1e-10)


@dataclass(frozen=True, eq=False)
class HilbertConsistencyReport:
    worst_residual: float
    samples: int
    passed: bool


def hilbert_consistency(A: DenseOperator, samples: list[Vector],
                        dp: DualityPair) -> HilbertConsistencyReport:
    """For p = 2 the form of A at y equals ||A^(1/2) y||^2.

    The square root comes from the eigendecomposition of the effective
    matrix; y is projected on the effective span on both sides.  All
    samples share one eigensolve of the form gram, and a sample outside
    the form domain has residual inf.  It passes at a residual of 1e-8.
    """
    if dp.p != 2.0:
        raise ValueError("the square-root identity is a p = 2 statement")
    _require_dense("the square-root identity", A)
    M = A.effective_matrix()
    M = 0.5 * (M + M.conj().T)
    lam, V = np.linalg.eigh(M)
    if float(lam[0]) < -1e-12 * max(float(abs(lam[-1])), 1.0):
        raise NotPositive("operator must be positive semidefinite")
    lam = np.where(lam > 1e-14 * max(float(lam[-1]), 1e-300), lam, 0.0)
    root = V @ np.diag(np.sqrt(lam)) @ V.conj().T
    Yp = A.effective_projector() @ np.array(
        [y.coords for y in samples], dtype=complex).reshape(-1, A.n).T
    lhs = A._form_columns(Yp)[0]
    rhs = np.linalg.norm(root @ Yp, axis=0) ** 2
    # a finite scale for lhs = inf, so that the residual is inf, not NaN
    scale = np.maximum(np.where(np.isinf(lhs), 1.0, lhs), np.maximum(rhs, 1.0))
    worst = float(np.max(np.abs(lhs - rhs) / scale, initial=0.0))
    return HilbertConsistencyReport(worst, len(samples), worst <= 1e-8)
