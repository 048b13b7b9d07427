"""Friedrichs extension of a positive operator with positive lower bound.

The extension is the operator that the form t_a represents, checked to
extend a, all by the primitives of the operand's backend.  Dense
backend: the representing operator of the form t_a completed over the
closure of dom a, so an already self-adjoint operator is its own
extension.  Sequence backend: diagonal generators a_n >= gamma > 0 on
finitely supported vectors; these are essentially self-adjoint and the
extension is the same generator on the maximal graph domain
{y : sum a_n^2 |y_n|^2 certified finite}.  Its lower bound inf a_n is
exact for p >= 2; below 2 it is not a bound, and the sequence extension
is uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import DualityPair, Operator, Vector, is_extension
from .errors import LowerBoundError, NotPositive
from .forms import Form, LowerBoundCertificate, form_of_operator


@dataclass(frozen=True, eq=False)
class FriedrichsResult:
    extension: Operator
    energy_space: Form
    gamma_preserved: LowerBoundCertificate


def friedrichs(a: Operator, dp: DualityPair) -> FriedrichsResult:
    """Positive self-adjoint extension of ``a`` with the same lower bound."""
    t = form_of_operator(a)      # its constructor refuses a non-real or negative a_n
    a._require_finitely_supported()
    if not t.symmetric:
        raise NotPositive("operator form is not symmetric")
    # the dense representation certifies gamma > 0 itself and keeps the
    # certificate; the sequence one certifies inf a_n here
    extension, certify = t._represent(dp)
    cert = certify()
    if cert.gamma <= 0:
        raise LowerBoundError(
            f"generator lower bound {cert.gamma:.3e} is not positive (certified)")
    if not is_extension(a, extension):
        raise ArithmeticError("constructed extension does not extend the input")
    return FriedrichsResult(extension, t, cert)


def in_extension_domain(res: FriedrichsResult, y: Vector) -> bool:
    """Membership of y in dom A_F, certified by the extension's
    ``graph_contains``."""
    return res.extension.graph_contains(y)


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

    For each sample y in dom J*, the extension's ``_core_witness`` finds
    K with the certified energy tail sum_{n > K} a_n |y_n|^2 below 1e-8
    times the total energy, and records the contraction trace of the
    tails; a dense sample is its own truncation.  Every failure raises: a
    sample outside dom J* :class:`DomainError`, tails that do not contract
    ArithmeticError, a target not reached within the term cap
    :class:`Uncertifiable`.
    """
    return CoreCheckReport(tuple(CoreWitness(*res.extension._core_witness(y))
                                 for y in samples))


def idempotent(res: FriedrichsResult, dp: DualityPair) -> bool:
    """The construction returns A_F again: the operator that the form of
    A_F represents extends A_F, and A_F extends it."""
    A = res.extension
    again, _ = form_of_operator(A)._represent(dp)
    return is_extension(A, again) and is_extension(again, A)
