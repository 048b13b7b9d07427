"""Friedrichs extension of a positive operator with positive lower bound.

Dense backend: the extension is the representing operator of the form
t_a completed over the closure of dom a, so an already self-adjoint
operator is its own extension.  Sequence backend: diagonal generators
a_n >= gamma > 0 on finitely supported vectors; these are essentially
self-adjoint and the extension is the same generator on the maximal
graph domain {y : sum a_n^2 |y_n|^2 certified finite}.  Its lower bound
inf a_n is exact for p >= 2; below 2 it is not a bound, and the sequence
extension is uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series
from .duality import (
    DOMAIN_FINITE, DOMAIN_MAXIMAL, DiagonalOperator, DualityPair, Operator,
    Vector, is_extension,
)
from .errors import (
    DomainError, LowerBoundError, NotPositive, SeriesDiverges, Uncertifiable,
)
from .forms import (
    Form, LowerBoundCertificate, associated_operator, form_of_operator,
    lower_bound,
)
from .linalg import relative_error


@dataclass(frozen=True, eq=False)
class FriedrichsResult:
    extension: Operator
    energy_space: Form
    gamma_preserved: LowerBoundCertificate


def friedrichs(a: Operator, dp: DualityPair) -> FriedrichsResult:
    """Positive self-adjoint extension of ``a`` with the same lower bound."""
    t = form_of_operator(a)      # its constructor refuses a non-real or negative a_n
    if isinstance(a, DiagonalOperator):
        if a.domain_rule != DOMAIN_FINITE:
            raise DomainError("input operator must act on finitely supported vectors")
        cert = lower_bound(t, dp)
        if cert.gamma <= 0:
            raise LowerBoundError(
                f"generator lower bound {cert.gamma:.3e} is not positive (certified)")
        return FriedrichsResult(DiagonalOperator(a.diagonal, DOMAIN_MAXIMAL), t, cert)
    if not t.symmetric:
        raise NotPositive("operator form is not symmetric")
    # associated_operator certifies gamma > 0 and keeps the certificate
    rep = associated_operator(t, dp)
    if not is_extension(a, rep.A):
        raise ArithmeticError("constructed extension does not extend the input")
    return FriedrichsResult(rep.A, t, rep.lower_certificate)


def in_extension_domain(res: FriedrichsResult, y: Vector) -> bool:
    """Membership of y in dom A_F, certified.

    Sequence backend: the graph series sum a_n^2 |y_n|^2 must be
    certified finite; an exactly supported y always belongs.  Raises
    :class:`Uncertifiable` when the tail rule is outside the certified
    class.
    """
    A = res.extension
    if isinstance(A, DiagonalOperator):
        return A.graph_contains(y)
    try:
        A.coefficients_of(y.coords)
        return True
    except DomainError:
        return False


@dataclass(frozen=True)
class CoreWitness:
    truncation: int
    tail: float
    ratios: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class CoreCheckReport:
    witnesses: tuple[CoreWitness, ...]


def core_check(res: FriedrichsResult, samples: list[Vector]) -> CoreCheckReport:
    """Finitely supported truncations converge in the energy norm.

    For each sample y in dom J*, finds K with the certified energy tail
    sum_{n > K} a_n |y_n|^2 below 1e-8 times the total energy, and
    records the contraction trace of the tails.  Every failure raises: a
    sample outside dom J* :class:`DomainError`, tails that do not contract
    ArithmeticError, a target not reached within the term cap
    :class:`Uncertifiable`.
    """
    if not isinstance(res.extension, DiagonalOperator):
        witnesses = tuple(CoreWitness(s.n, 0.0, ()) for s in samples)
        return CoreCheckReport(witnesses)
    rule = res.extension.diagonal
    witnesses = []
    for y in samples:
        if y.tail is None:
            witnesses.append(CoreWitness(int(np.max(np.nonzero(
                np.abs(y.coords) > 0)[0]) + 1) if np.any(y.coords) else 0,
                0.0, ()))
            continue
        energy_rule = rule * y.tail.abs_square()
        try:
            total = series.certified_sum(energy_rule, tol=1e-10)
        except SeriesDiverges as exc:
            raise DomainError("sample outside the energy domain") from exc
        scale = max(abs(total.value), 1e-300)
        target = 1e-8 * scale
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
        witnesses.append(CoreWitness(k, trace[-1], ratios))
    return CoreCheckReport(tuple(witnesses))


def idempotent(res: FriedrichsResult, dp: DualityPair) -> bool:
    """friedrichs(A_F) returns A_F again (same matrix or same rule+domain)."""
    A = res.extension
    if isinstance(A, DiagonalOperator):
        finite = DiagonalOperator(A.diagonal, DOMAIN_FINITE)
        again = friedrichs(finite, dp).extension
        return series.rules_agree(A.diagonal, again.diagonal) and (
            again.domain_rule == A.domain_rule)
    again = friedrichs(A, dp).extension
    return relative_error(again.effective_matrix(), A.effective_matrix()) <= 1e-10
