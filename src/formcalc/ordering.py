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

Orderings are probe-based: a verdict certifies the relation over the
probe set and says so in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series
from .duality import (
    DENSE, SEQUENCE, DenseOperator, DualityPair, Vector, operator_norm,
)
from .errors import BackendMismatch, NotPositive
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


def factorize(A: DenseOperator) -> FactorizationResult:
    """Auxiliary-space factorization of a positive symmetric operator.

    Builds the gram [A b_i, A b_j] = (A b_i, b_j), which is the gram of
    :func:`form_of_operator` and must pass its symmetry and positivity
    tests, quotients the kernel by pivoted Cholesky (threshold 1e-10
    times the action scale) and verifies that JJ* extends A; for
    everywhere-defined dense operators the two agree exactly.
    """
    if A.backend != DENSE:
        raise BackendMismatch("factorization is a dense-backend construction")
    t = form_of_operator(A)      # its constructor refuses an indefinite A
    if not t.symmetric:
        raise NotPositive("operator form is not symmetric")
    F = t.gram
    quad = np.conj(F)
    # the action scale and its rank (relative tolerance 1e-10) from one SVD
    s = np.linalg.svd(A.action_mat, compute_uv=False)
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


def form_on_X(A: DenseOperator, y: Vector) -> FormValue:
    """sup |(Ax, y)|^2 over (Ax, x) <= 1, certified.

    Dense backend: exact reduction through the eigensolve of the form
    gram (Cauchy-Schwarz saturates; the constrained-maximization oracle
    lives in the verification suites).  This is the one-probe case of the
    batch evaluation that :func:`compare` runs over all its probes.
    Sequence backend, diagonal generator a_n: the certified series sum
    a_n |y_n|^2, or +inf with a divergence record.
    """
    if A.backend == SEQUENCE:
        return _form_sequence(A, y)
    values, dead_mass, lam, V, live, T = _form_columns(A, y.coords[:, None])
    if not math.isfinite(values[0]):
        return FormValue(math.inf, None, "tail-divergence",
                         {"kind": "kernel-escape", "mass": float(dead_mass[0])})
    cstar = V[:, live] @ (T[live, 0] / lam[live])
    witness = A.basis_mat @ cstar
    return FormValue(float(values[0]), witness, "exact-eigensolve",
                     {"spectrum_floor": float(lam[0])})


def _form_sequence(A: DenseOperator, y: Vector) -> FormValue:
    if not A.diagonal.is_nonnegative:
        raise NotPositive("sequence form values need nonnegative generators")
    if y.tail is None:
        ns = np.arange(1, y.n + 1)
        vals = np.real(A.diagonal(ns))
        value = float(vals @ np.abs(y.coords) ** 2)
        return FormValue(value, y.coords, "tail-sum", {"tail": 0.0})
    rule = A.diagonal * y.tail.abs_square()
    ok, cert = series.decide_summable(rule)
    if not ok:
        return FormValue(math.inf, None, "tail-divergence", cert.as_dict())
    return FormValue(float(np.real(cert.value)), None, "tail-sum",
                     cert.certificate.as_dict())


def in_dom_Jstar(A: DenseOperator, y: Vector) -> bool:
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


def _ge(u: float, v: float, slack: float) -> bool:
    if math.isinf(u):
        return True
    if math.isinf(v):
        return False
    return u >= v - slack * max(abs(u), abs(v), 1.0)


def _all_ge(us, vs, slack):
    return all(_ge(u, v, slack) for u, v in zip(us, vs))


def compare(A: DenseOperator, B: DenseOperator, samples: list[Vector],
            rel_slack: float = 1e-9, seed: int = 0) -> OrderingReport:
    """Probe-based verdict for the order by form domination.

    Probes are the supplied samples plus structured ones: both domain
    bases, seeded random unit vectors and the eigenvectors of the
    difference of the effective matrices (adversarial directions).  The
    verdict is certified over this probe set only.  On the dense backend
    the probes are stacked into one matrix and evaluated from a single
    eigensolve of each operand's form gram.
    """
    if A.backend != B.backend:
        raise BackendMismatch("operands on different backends")
    if A.backend == DENSE and A.n != B.n:
        raise BackendMismatch("operands on different ambient dimensions")
    labels = [f"sample:{i}" for i in range(len(samples))]
    if A.backend == DENSE:
        rng = np.random.default_rng(seed)
        # the real then the imaginary draws of each random probe
        R = rng.normal(size=(max(4, A.n), 2, A.n))
        Zr = (R[:, 0] + 1j * R[:, 1]).T
        D = A.effective_matrix() - B.effective_matrix()
        _, V = np.linalg.eigh(0.5 * (D + D.conj().T))
        blocks = {"basisA": A.basis_mat, "basisB": B.basis_mat,
                  "random": Zr / np.linalg.norm(Zr, axis=0), "adversarial": V}
        labels += [f"{name}:{k}" for name, M in blocks.items()
                   for k in range(M.shape[1])]
        Y = np.column_stack([s.coords for s in samples] + list(blocks.values()))
        values_a = _form_columns(A, Y)[0].tolist()
        values_b = _form_columns(B, Y)[0].tolist()
    else:
        probes = list(samples) + [Vector(np.eye(8, dtype=complex)[k], SEQUENCE)
                                  for k in range(4)]
        labels += [f"basis:{k}" for k in range(4)]
        values_a = [form_on_X(A, y).value for y in probes]
        values_b = [form_on_X(B, y).value for y in probes]
    records = tuple(map(ProbeRecord, labels, values_a, values_b))
    fin_a, fin_b = np.isfinite(values_a), np.isfinite(values_b)
    # y in dom J_A* but escaping dom J_B* breaks dom J_A* inside dom J_B*,
    # the domain inclusion that A >= B needs; _ge(finite, inf) is False,
    # so the value test below already refuses such a probe
    dom_bwd, dom_fwd = not np.any(fin_a & ~fin_b), not np.any(fin_b & ~fin_a)
    ge = _all_ge(values_a, values_b, rel_slack)
    le = _all_ge(values_b, values_a, rel_slack)
    if ge and le:
        verdict = "equal"
    elif ge:
        verdict = "A>=B"
    elif le:
        verdict = "B>=A"
    else:
        verdict = "incomparable"
    return OrderingReport(verdict, records,
                          {"domain_A_le_B": dom_bwd, "domain_B_le_A": dom_fwd})


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
        raise ValueError("antisymmetry check needs an 'equal' verdict")
    if A.backend != DENSE:
        raise BackendMismatch("antisymmetry verification is dense-backend only")
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
                        dp: DualityPair, tol: float = 1e-8) -> HilbertConsistencyReport:
    """For p = 2 the form of A at y equals ||A^(1/2) y||^2.

    The square root comes from the eigendecomposition of the effective
    matrix; y is projected on the effective span on both sides.  All
    samples share one eigensolve of the form gram, and a sample outside
    the form domain has residual inf.
    """
    if dp.p != 2.0:
        raise ValueError("the square-root identity is a p = 2 statement")
    if A.backend != DENSE:
        raise BackendMismatch("dense backend only")
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
    return HilbertConsistencyReport(worst, len(samples), worst <= tol)
