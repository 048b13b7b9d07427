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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series
from .duality import (
    DenseOperator, DiagonalOperator, DualityPair, Operator, Vector,
    _require_dense, operator_norm,
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


def _form_columns(A: DenseOperator, Y: np.ndarray):
    """Form of a dense A at every column of Y from one eigensolve.

    With quad = V diag(lam) V^H the Hermitian form gram and
    T = V^H (Z^H Y), the value at column k is sum |T_ik|^2 / lam_i over
    the live eigenvalues; a column whose mass on the numerical kernel
    exceeds 1e-8 of its norm escapes the form domain and gets +inf.
    Returns (values, dead_mass, lam, V, live, T).
    """
    F = A.form_gram()
    quad = np.conj(F)
    lam, V = np.linalg.eigh(0.5 * (quad + quad.conj().T))
    live = lam > 1e-12 * max(float(lam[-1]), 1e-300)
    T = V.conj().T @ (A.action_mat.conj().T @ Y)
    dead_mass = np.linalg.norm(T[~live], axis=0)
    escaped = dead_mass > 1e-8 * np.maximum(1.0, np.linalg.norm(T, axis=0))
    values = np.sum(np.abs(T[live]) ** 2 / lam[live, None], axis=0)
    values[escaped] = math.inf
    return values, dead_mass, lam, V, live, T


def form_on_X(A: Operator, y: Vector) -> FormValue:
    """sup |(Ax, y)|^2 over (Ax, x) <= 1, certified.

    Dense backend: exact reduction through the eigensolve of the form
    gram (Cauchy-Schwarz saturates; the constrained-maximization oracle
    lives in the verification suites).  This is the one-probe case of the
    batch evaluation that :func:`compare` runs over all its probes.
    Sequence backend, diagonal generator a_n: the certified series sum
    a_n |y_n|^2, or +inf with a divergence record.
    """
    if isinstance(A, DiagonalOperator):
        form_of_operator(A)      # its constructor refuses a negative a_n
        if y.tail is None:
            vals = np.real(A.diagonal(np.arange(1, y.n + 1)))
            return FormValue(float(vals @ np.abs(y.coords) ** 2), y.coords, "tail-sum",
                             {"tail": 0.0})
        ok, cert = series.decide_summable(A.diagonal * y.tail.abs_square())
        if not ok:
            return FormValue(math.inf, None, "tail-divergence", cert.as_dict())
        return FormValue(float(np.real(cert.value)), None, "tail-sum",
                         cert.certificate.as_dict())
    values, dead_mass, lam, V, live, T = _form_columns(A, y.coords[:, None])
    if not math.isfinite(values[0]):
        return FormValue(math.inf, None, "tail-divergence",
                         {"kind": "kernel-escape", "mass": float(dead_mass[0])})
    cstar = V[:, live] @ (T[live, 0] / lam[live])
    witness = A.basis_mat @ cstar
    return FormValue(float(values[0]), witness, "exact-eigensolve",
                     {"spectrum_floor": float(lam[0])})


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


def _sequence_decision(vx, vy, slack, sign):
    """X >= Y from diagonal values at n = 1..N, x - y having the sign
    ``sign`` from N on; the witness is e_k, k the first n < N with x_n <
    y_n beyond the slack, else N when the sign is negative."""
    bad = np.flatnonzero(vx[:-1] - vy[:-1] < -slack[:-1])
    k = int(bad[0]) if bad.size else len(vx) - 1 if sign < 0 else None
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


def compare(A: Operator, B: Operator, samples: list[Vector],
            p: float = 2.0) -> OrderingReport:
    """The order by form domination, decided: A >= B when dom J_A* lies in
    dom J_B* and t_A >= t_B there.  Dense backend: from the form matrices
    and domain bases of :func:`_form_matrix`, on the eigensolves that give
    the probe values.  Sequence backend: a_n >= b_n for every n, from the
    head of a - b and the sign of its dominant term
    (:func:`series.eventual_sign`).  The probes are the samples, the
    domain bases (dense) or e_1..e_4 (sequence: a_1..a_4, b_1..b_4), and
    a witness per failed direction; ``domain_inclusion`` holds each
    direction's certificate and the inclusions of the domains of J*,
    decided: on the sequence backend for X = l^p, ``p`` its norm exponent
    (:func:`_sequence_domain_le`), on the dense backend by the escape of
    each direction's certificate."""
    if A.backend != B.backend:
        raise BackendMismatch("operands on different backends")
    dense = not isinstance(A, DiagonalOperator)
    if dense and A.n != B.n:
        raise BackendMismatch("operands on different ambient dimensions")
    for s in samples:
        if s.backend != A.backend or (dense and s.n != A.n):
            raise BackendMismatch(f"{s.backend} sample of size {s.n} off the operands' space")
    labels = [f"sample:{i}" for i in range(len(samples))]
    if dense:
        labels += [f"basis{X}:{k}" for X, M in (("A", A), ("B", B)) for k in range(M.d)]
        Y = np.column_stack([s.coords for s in samples] + [A.basis_mat, B.basis_mat,
                                                          np.eye(A.n)])
        cols = [_form_columns(M, Y) for M in (A, B)]
        values_a, values_b = (c[0][:-A.n].tolist() for c in cols)
        (Qa, Na), (Qb, Nb) = (_form_matrix(c[2], c[4], c[5][:, -A.n:]) for c in cols)
        scale = max(float(np.linalg.norm(Qa)), float(np.linalg.norm(Qb)), 1.0)
        decisions = [_dense_decision(Qa, Na, Qb, Nb, scale),
                     _dense_decision(Qb, Nb, Qa, Na, scale)]
        inclusion = {"domain_A_le_B": decisions[0][0]["escape"] <= 1e-8,
                     "domain_B_le_A": decisions[1][0]["escape"] <= 1e-8}
    else:
        form_of_operator(A), form_of_operator(B)    # refuse a negative a_n or b_n
        N, sign = series.eventual_sign(A.diagonal + B.diagonal.scale(-1.0))
        ga, gb = series.growth(A.diagonal), series.growth(B.diagonal)
        inclusion = {"domain_A_le_B": _sequence_domain_le(ga, gb, p),
                     "domain_B_le_A": _sequence_domain_le(gb, ga, p)}
        # a_1..a_max(N, 4): the forms at e_1..e_4, then the head of the decision
        va, vb = (np.real(M.diagonal(np.arange(1, max(N, 4) + 1))) for M in (A, B))
        labels += [f"basis:{k}" for k in range(4)]
        values_a = [form_on_X(A, y).value for y in samples] + va[:4].tolist()
        values_b = [form_on_X(B, y).value for y in samples] + vb[:4].tolist()
        va, vb = va[:N], vb[:N]
        slack = 1e-9 * np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1.0)
        decisions = [_sequence_decision(va, vb, slack, sign),
                     _sequence_decision(vb, va, slack, -sign)]
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
                          {**inclusion, "certificates": certificates})


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
        [y.coords for y in samples], dtype=complex).reshape(-1, dp.n).T
    lhs = _form_columns(A, Yp)[0]
    rhs = np.linalg.norm(root @ Yp, axis=0) ** 2
    # a finite scale for lhs = inf, so that the residual is inf, not NaN
    scale = np.maximum(np.where(np.isinf(lhs), 1.0, lhs), np.maximum(rhs, 1.0))
    worst = float(np.max(np.abs(lhs - rhs) / scale, initial=0.0))
    return HilbertConsistencyReport(worst, len(samples), worst <= 1e-8)
