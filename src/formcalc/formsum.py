"""Form sums, joint factorization and lifted commutants.

The form sum of a positive self-adjoint A with positive lower bound and
an operator B associated to a closed positive form represents t_A + t_B
on dom J_A* intersected with dom t_B.  The joint factor
J : H_A (+) H_B -> X*, J(Ax (+) By) = Ax + By, satisfies J** J* equal to
the form sum and extends A + B; both facts are verified numerically on
every construction.

The dense form sum factorizes nothing: A is everywhere defined, so
dom J_A* = X and t_A is the form of A, read on the basis of dom t_B.
The joint factor factorizes each operand once; the resolvent lifts of
the spectrum check share their lift's.  Each identity checked here is
linear or sesquilinear, so it is checked on a whole basis, which proves
it up to rounding; nothing is sampled.

A bounded E on X that leaves dom A invariant and intertwines through
E^H A contained in A E lifts to a bounded operator on H_A acting by
A x -> A E x.  The lift is self-adjoint in the H_A inner product, obeys
the spectral-radius bound, and its spectrum sits inside the real part of
the spectrum of E; all three claims are checked with residual records,
plus the resolvent identity at three real points outside the spectrum of
E.  The lift residuals are relative to the norm of E, the resolvent
residual to the norm of the resolvent, and the resolvent points sit at
multiples of max(1, max|sigma(E)|), so the scale of E does not decide a
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series
from .duality import (
    DOMAIN_MAXIMAL, ENDO, DenseOperator, DiagonalOperator, DualityPair, Operator,
    Vector, _require_dense, operator_from_matrix, operator_norm,
)
from .errors import BackendMismatch, DomainError, LowerBoundError, NotPositive
from .forms import (
    DiagonalForm, Form, SesquilinearForm, associated_operator, form_of_operator,
    lower_bound,
)
from .linalg import gram_quadratic, hermitian_norm, relative_residual
from .ordering import FactorizationResult, factorize


# ---------------------------------------------------------------------------
# closedness in the general sense

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
    """Closedness certificate for a positive form.

    Dense backend with positive lower bound: automatic (the graph norm is
    complete in finite dimension).  Sequence backend: each supplied run
    is a generator-ruled limit vector; its truncations must be Cauchy in
    the form with certified contracting tails and the limit must satisfy
    the domain rule.  A run whose tails fail to contract is rejected.
    With no runs the witness is the form itself: a diagonal form, whose
    weights are nonnegative once it exists, is closed on its maximal
    domain by Fatou's lemma.
    """
    if not isinstance(t, DiagonalForm):
        cert = lower_bound(t, dp)
        if cert.gamma <= 0:
            raise LowerBoundError("automatic closedness needs gamma > 0")
        return ClosednessWitness(CLOSED_AUTOMATIC)
    if not runs:
        return ClosednessWitness(CLOSED_DIAGONAL)
    records = []
    for x in runs:
        if x.tail is None:
            records.append(RunRecord(()))
            continue
        weight = t.diagonal * x.tail.abs_square()
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


# ---------------------------------------------------------------------------
# form sum


@dataclass(frozen=True, eq=False)
class FormSumResult:
    operator: Operator                 # A (+) B
    gamma: float
    extension_residual: float          # against A + B on dom A and dom B
    collapse_exact: bool               # full domains: A (+) B == A + B


def _max_column_norm(M: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(M, axis=0), initial=0.0))


def form_sum(A: Operator, B: Operator, dp: DualityPair) -> FormSumResult:
    """The operator representing t_A + t_B.

    Dense backend: requires gamma_A > 0 with A effectively everywhere
    defined, B associated to a closed positive form on its span; the sum
    form lives on dom t_B and the representation theorem applies.  With
    both domains full the result collapses to the exact matrix sum.
    Sequence backend: diagonal rules add, the domain rule is the graph
    rule of the summed generator.
    """
    if A.backend != B.backend:
        raise BackendMismatch("operands on different backends")
    t_a, t_b = form_of_operator(A), form_of_operator(B)
    if isinstance(A, DiagonalOperator):
        # diagonal generators: the summed form is closed coefficientwise and
        # the construction stays valid when the lower bound degenerates to 0
        # (covariance rules decay), so only positivity is demanded here
        rule = A.diagonal + B.diagonal
        cert = lower_bound(DiagonalForm(rule), dp)
        AB = DiagonalOperator(rule, DOMAIN_MAXIMAL)
        # density of H_{A,B}: every finitely supported vector passes both
        # membership tests (finite sums are always certified)
        ns = np.arange(1, 9)
        if not (np.all(np.isfinite(np.real(A.diagonal(ns)))) and
                np.all(np.isfinite(np.real(B.diagonal(ns))))):
            raise DomainError("density check failed on finitely supported probes")
        return FormSumResult(AB, cert.gamma, 0.0, False)
    if not (t_a.symmetric and t_b.symmetric):
        raise NotPositive("operator form is not symmetric")
    if lower_bound(t_a, dp).gamma <= 0:
        raise LowerBoundError("form sum needs a positive lower bound on A")
    if not A.is_full_domain():
        raise DomainError("A must be effectively everywhere defined "
                          "(its closure carries the representation)")
    is_closed(t_b, None, dp)
    # H_{A,B} = dom J_A* (everything here) intersected with dom t_B
    C = B.basis_mat
    # t_A(u, v) = (Au, v) on all of X, read through the coefficients of
    # B's basis in A's
    Cc = A.coefficients_of(C)
    G_sum = Cc.T @ t_a.gram @ np.conj(Cc) + t_b.gram
    # the sum form lives on B's factored basis
    t_sum = SesquilinearForm(t_b._basis, G_sum)
    rep = associated_operator(t_sum, dp)
    AB = rep.A
    # extension of A + B on dom A intersect dom B = dom t_B here, the
    # functionals compared by their restriction to dom t_B
    M_AB = AB.canonical_matrix()
    M_sum = A.canonical_matrix() + B.canonical_matrix()
    scale = max(hermitian_norm(M_sum), 1.0)
    worst = _max_column_norm(B.effective_projector() @ (M_AB @ C - M_sum @ C)) / scale
    collapse = bool(A.is_full_domain() and B.is_full_domain())
    if collapse:
        exact = float(operator_norm(M_AB - M_sum)) / scale
        if exact > 1e-12:
            raise ArithmeticError(
                f"everywhere-defined collapse violated (residual {exact:.3e})")
    if worst > 1e-10:
        raise ArithmeticError(f"form sum fails to extend A + B ({worst:.3e})")
    return FormSumResult(AB, rep.gamma, worst, collapse)


# ---------------------------------------------------------------------------
# joint factorization (the two-factor identity)


@dataclass(frozen=True, eq=False)
class JointFactorization:
    formsum: FormSumResult
    fac_a: FactorizationResult
    fac_b: FactorizationResult
    jstar_residual: float              # J* z against Az (+) Bz
    composition_residual: float        # J** J* against A (+) B and A + B
    energy_residual: float             # [J* y, J* z] = ((A (+) B) y, z)


def joint_factorize(A: DenseOperator, B: DenseOperator,
                    dp: DualityPair) -> JointFactorization:
    """Builds J on H_A (+) H_B and verifies the three factorization claims.

    The claims are linear in z, the energy identity sesquilinear, so each
    is checked on an orthonormal basis of dom t_B, the sum domain here."""
    _require_dense("joint factorization", A, B)
    fs = form_sum(A, B, dp)
    fac_a, fac_b = factorize(A), factorize(B)
    M_AB = fs.operator.canonical_matrix()
    M_sum = A.canonical_matrix() + B.canonical_matrix()
    scale = max(hermitian_norm(M_sum), 1.0)
    Z = B._basis.U        # orthonormal basis of dom t_B
    Ca = fac_a.jstar_coefficients(Z)
    Cb = fac_b.jstar_coefficients(Z)
    # J* z must be Az (+) Bz: compare in action coordinates
    AZ = fac_a.operator.action_mat[:, fac_a.pivots] @ Ca
    BZ = fac_b.operator.action_mat[:, fac_b.pivots] @ Cb
    # Z spans dom t_B and form_sum required dom A = X, so A and B apply
    jstar_res = max(_max_column_norm(AZ - A.apply(Z)),
                    _max_column_norm(BZ - B.apply(Z))) / scale
    # J** J* z = Az + Bz extends A + B and equals the form sum, as
    # functionals restricted to dom t_B
    MZ = M_AB @ Z
    comp_res = _max_column_norm(B.effective_projector() @ (AZ + BZ - MZ)) / scale
    # the energy identity [J* y, J* z] = ((A (+) B) y, z) on every pair of
    # basis vectors, entry (y, z) of each side
    lhs = Ca.T @ fac_a.gram @ np.conj(Ca) + Cb.T @ fac_b.gram @ np.conj(Cb)
    rhs = (Z.conj().T @ MZ).T
    energy_res = float(np.max(np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), 1.0), initial=0.0))
    return JointFactorization(fs, fac_a, fac_b, jstar_res, comp_res, energy_res)


# ---------------------------------------------------------------------------
# lifted commutants


@dataclass(frozen=True, eq=False)
class CommutantLift:
    E_hat: np.ndarray                  # matrix on the H_A pivot basis
    factorization: FactorizationResult
    spectral_radius_sq: float          # r(E^2)
    bound_margin: float                # sup [E^ h]^2 / ([h]^2 r(E^2)) over H_A
    norm_bound: float                  # whitened operator norm of the lift
    selfadjoint_residual: float
    eq7_residual: float


def _eq7_residual(A: DenseOperator, E_mat: np.ndarray) -> float:
    """Residual of E^H A against A E on dom A (including invariance),
    relative to the Frobenius norm of E, so that it is free of E's scale."""
    try:
        lhs = E_mat.conj().T @ A.apply(A.basis_mat)
        rhs = A.apply(E_mat @ A.basis_mat)
    except DomainError:
        return math.inf
    return relative_residual(_max_column_norm(lhs - rhs), [
        max(float(A.action_singular_values()[0]), 1.0) * np.linalg.norm(E_mat)])


def lift_commutant(A: DenseOperator, E: DenseOperator) -> CommutantLift:
    """Lift of a bounded commuting E to the auxiliary space H_A.

    Preconditions verified: E everywhere defined on X, E(dom A) inside
    dom A, and the intertwining E^H A = A E on dom A (the commutation
    identity).  The lift acts by A x -> A E x on the pivot basis; the
    spectral-radius bound, H_A self-adjointness and boundedness come back
    as residual records.
    """
    return CommutantLift(*_lift(A, _bounded_matrix(A, E), lam_E=E.spectrum()))


def _bounded_matrix(A: DenseOperator, E: DenseOperator) -> np.ndarray:
    _require_dense("a commutant lift", A, E)
    if E.direction != ENDO or not E.is_full_domain():
        raise DomainError("E must be a bounded operator defined on all of X")
    return E.canonical_matrix()


def _lift(A: DenseOperator, E_mat: np.ndarray,
          fac: FactorizationResult | None = None,
          lam_E: np.ndarray | None = None) -> tuple:
    """The lift of E_mat to H_A with its checks, returning the fields of
    :class:`CommutantLift` in order.  A is factorized only once
    E_mat passes the commutation identity, unless ``fac`` already holds
    its factorization; ``lam_E`` is the spectrum of E_mat if known."""
    eq7 = _eq7_residual(A, E_mat)
    if not math.isfinite(eq7) or eq7 > 1e-9:
        raise DomainError(
            f"commutation identity violated (residual {eq7 if math.isfinite(eq7) else 'inf'})")
    fac = factorize(A) if fac is None else fac
    # columns: coefficients of A E b_p in the pivot basis {A b_q}
    EB = E_mat @ A.basis_mat[:, fac.pivots]
    A.coefficients_of(EB)    # invariance of dom A per column, raises otherwise
    E_hat = fac.jstar_coefficients(EB)
    lam_E = np.linalg.eigvals(E_mat) if lam_E is None else lam_E
    r_e2 = float(np.max(np.abs(lam_E)) ** 2) if lam_E.size else 0.0
    # whitened norm: the K quadratic is c^H conj(K) c = c^H L L^H c, so the
    # K-norm of the lift is the 2-norm of L^H E^ L^-H
    LH, LH_inv = fac.whitening()
    norm_bound = operator_norm(LH @ E_hat @ LH_inv)
    # its square is the supremum of [E^ h]^2 / [h]^2 over H_A
    margin = norm_bound ** 2 / max(r_e2, 1e-300)
    # relative to the Frobenius norm of E^ as well, free of E's scale
    n_hat = np.linalg.norm(E_hat)
    sa_res = relative_residual(
        np.linalg.norm(E_hat.T @ fac.gram - fac.gram @ np.conj(E_hat)),
        [np.linalg.norm(fac.gram) * n_hat, n_hat])
    if sa_res > 1e-10:
        raise ArithmeticError(f"lift not self-adjoint in H_A ({sa_res:.3e})")
    if margin > 1.0 + 1e-8:
        raise ArithmeticError(f"spectral-radius bound violated ({margin:.12g})")
    return E_hat, fac, r_e2, margin, norm_bound, sa_res, eq7


def commuting_pair(A_mat: np.ndarray, K_mat: np.ndarray) -> DenseOperator:
    """E = A^-1 K: for Hermitian K and positive definite A these are
    exactly the solutions of the commutation identity, the generator used
    by the verification suites."""
    E_mat = np.linalg.solve(A_mat, K_mat)
    return operator_from_matrix(E_mat, ENDO)


@dataclass(frozen=True, eq=False)
class CommutationReport:
    lift_a: CommutantLift
    lift_b: CommutantLift
    formsum_inclusion: float      # E^H (A (+) B) against (A (+) B) E
    factor_inclusions: dict       # intermediate identities on whole bases
    passed: bool


def commutation_formsum(A: DenseOperator, B: DenseOperator, E: DenseOperator,
                        dp: DualityPair) -> CommutationReport:
    """Commutation survives the form sum: E^H (A+B-sum) inside (A+B-sum) E
    on dom t_B, where the sum form lives."""
    lift_a = lift_commutant(A, E)
    lift_b = lift_commutant(B, E)
    fs = form_sum(A, B, dp)
    M = fs.operator.canonical_matrix()
    E_mat = E.canonical_matrix()
    E_H = E_mat.conj().T
    scale = max(hermitian_norm(M), 1.0)
    D = E_H @ M - M @ E_mat
    if not B.is_full_domain():      # compressed to dom t_B
        D = B.effective_projector() @ D @ B.effective_projector()
    incl = float(operator_norm(D)) / scale
    # the intermediate identities are linear, so whole bases prove them:
    # E* J = J (E^_A (+) E^_B) on the pivot bases of H_A and H_B, where
    # J (c_a (+) c_b) = Pa c_a + Pb c_b ...
    fac_a, fac_b = lift_a.factorization, lift_b.factorization
    Pa = fac_a.operator.action_mat[:, fac_a.pivots]
    Pb = fac_b.operator.action_mat[:, fac_b.pivots]
    res_j = _max_column_norm(np.hstack([E_H @ Pa - Pa @ lift_a.E_hat,
                                        E_H @ Pb - Pb @ lift_b.E_hat])) / scale
    # ... and (E^_A (+) E^_B) J* = J* E on the standard basis of X,
    # compared in H_A / H_B energy norms
    eye = np.eye(A.n)
    Da = lift_a.E_hat @ fac_a.jstar_coefficients(eye) - fac_a.jstar_coefficients(E_mat)
    Db = lift_b.E_hat @ fac_b.jstar_coefficients(eye) - fac_b.jstar_coefficients(E_mat)
    res_jstar = float(np.max(np.sqrt(np.abs(np.concatenate(
        [gram_quadratic(fac_a.gram, Da), gram_quadratic(fac_b.gram, Db)]))))) / scale
    ok = incl <= 1e-9 and res_j <= 1e-9 and res_jstar <= 1e-9
    return CommutationReport(lift_a, lift_b, incl,
                             {"E_star_J": res_j, "J_star_E": res_jstar}, ok)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    lift_eigenvalues: np.ndarray
    e_eigenvalues: np.ndarray
    max_imag: float
    max_distance: float
    scale: float                       # max(1, max |sigma(E)|) of imag and distance
    resolvent_points: tuple[float, ...]
    resolvent_residual: float
    passed: bool


def spectrum_inclusion(A: DenseOperator, E: DenseOperator) -> SpectrumReport:
    """Spectrum of the lift: real, inside the spectrum of E, with the
    resolvent identity checked at three real points outside sigma(E), at
    1, 2 and 3 times ``scale`` = max(1, max|sigma(E)|) beyond its radius,
    relative to the Frobenius norm of the lift's resolvent."""
    lift = lift_commutant(A, E)
    E_mat, lam_e = E.canonical_matrix(), E.spectrum()
    lam_hat = np.linalg.eigvals(lift.E_hat)
    base = float(np.max(np.abs(lam_e), initial=0.0))
    scale = max(base, 1.0)
    max_imag = float(np.max(np.abs(lam_hat.imag))) if lam_hat.size else 0.0
    max_dist = float(np.max(np.min(np.abs(lam_e - lam_hat[:, None]), axis=1),
                            initial=0.0))
    points = tuple(base + k * scale for k in (1.0, 2.0, 3.0))
    res_res = 0.0
    for lam in points:
        # the resolvent lifts reuse the factorization of the lift of E and
        # its whitening
        R_hat = _lift(A, np.linalg.inv(E_mat - lam * np.eye(A.n)),
                      lift.factorization)[0]
        direct = np.linalg.inv(lift.E_hat - lam * np.eye(lift.E_hat.shape[0]))
        res_res = max(res_res, relative_residual(np.linalg.norm(R_hat - direct),
                                                 [np.linalg.norm(direct)]))
    ok = (max_imag <= 1e-9 * scale and max_dist <= 1e-8 * scale and
          res_res <= 1e-8)
    return SpectrumReport(lam_hat, lam_e, max_imag, max_dist, scale, points,
                          res_res, ok)
