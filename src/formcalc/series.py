"""Certified evaluation of power-geometric series.

The sequence backend works exclusively with coefficient sequences of the
shape

    a_n = sum_t  c_t * n**alpha_t * ratio_t**n        (active for n >= start_t)

This family is closed under addition, multiplication and complex
conjugation, which is what lets every tail the library meets be bounded
rigorously: a ratio test when ratio < 1, an integral test when ratio = 1
and alpha < -1.  Divergent series are reported with a partial-sum growth
record instead of a bound.

Values are never returned without a certificate: :func:`certified_sum`
attaches a tail bound, :func:`decide_summable` returns either a
:class:`TailCertificate` or a :class:`DivergenceCertificate`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeriesDiverges, Uncertifiable

_MAX_TERMS = 2 ** 21


@dataclass(frozen=True)
class Term:
    """One power-geometric summand c * n**alpha * ratio**n, n >= start."""

    coef: complex
    alpha: float = 0.0
    ratio: float = 1.0
    start: int = 1

    def __post_init__(self):
        if not (cmath.isfinite(self.coef) and math.isfinite(self.alpha)
                and math.isfinite(self.ratio)):
            raise ValueError("coef, alpha and ratio must be finite")
        if self.ratio <= 0:
            raise ValueError("ratio must be positive")
        if self.start < 1:
            raise ValueError("start must be >= 1")

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            out = self.coef * np.exp(self.alpha * np.log(n) + n * math.log(self.ratio))
        return np.where(n >= self.start, out, 0.0)

    @property
    def converges(self) -> bool:
        return self.ratio < 1.0 or (self.ratio == 1.0 and self.alpha < -1.0)


@dataclass(frozen=True)
class Rule:
    """A finite sum of power-geometric terms."""

    terms: tuple[Term, ...]

    def __call__(self, n) -> np.ndarray:
        n = np.atleast_1d(np.asarray(n, dtype=float))
        total = np.zeros(n.shape, dtype=complex)
        for t in self.terms:
            total += t.values(n)
        return total

    def at(self, n: int) -> complex:
        return complex(self(np.array([n]))[0])

    def __add__(self, other: "Rule") -> "Rule":
        return Rule(self.terms + other.terms)

    def __mul__(self, other: "Rule") -> "Rule":
        prods = tuple(
            Term(a.coef * b.coef, a.alpha + b.alpha, a.ratio * b.ratio,
                 max(a.start, b.start))
            for a in self.terms for b in other.terms
        )
        return Rule(prods)

    def scale(self, c: complex) -> "Rule":
        return Rule(tuple(Term(c * t.coef, t.alpha, t.ratio, t.start) for t in self.terms))

    def conjugate(self) -> "Rule":
        return Rule(tuple(Term(np.conj(t.coef), t.alpha, t.ratio, t.start) for t in self.terms))

    def abs_square(self) -> "Rule":
        return self * self.conjugate()

    @property
    def is_nonnegative(self) -> bool:
        # sufficient condition only: every coefficient real and >= 0
        return all(abs(complex(t.coef).imag) == 0.0 and complex(t.coef).real >= 0.0
                   for t in self.terms)

    def majorant(self) -> Term:
        """Single term bounding |a_n| for every n >= 1."""
        if not self.terms:
            return Term(0.0)
        c = sum(abs(t.coef) for t in self.terms)
        alpha = max(t.alpha for t in self.terms)
        ratio = max(t.ratio for t in self.terms)
        return Term(c, alpha, ratio)


def geometric(ratio: float, coef: complex = 1.0) -> Rule:
    """a_n = coef * ratio**n."""
    return Rule((Term(coef, 0.0, ratio),))


def polynomial(alpha: float, coef: complex = 1.0) -> Rule:
    """a_n = coef * n**alpha."""
    return Rule((Term(coef, alpha, 1.0),))


def power_geometric(coef: complex, alpha: float, ratio: float, start: int = 1) -> Rule:
    return Rule((Term(coef, alpha, ratio, start),))


def constant(coef: complex) -> Rule:
    return polynomial(0.0, coef)


@dataclass(frozen=True)
class TailCertificate:
    """Bound for sum_{n > first} |a_n|, with the test that produced it."""

    kind: str                     # "ratio" | "integral" | "finite" | "empty"
    first: int                    # tail starts at first + 1
    bound: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "first": self.first, "bound": self.bound,
                "detail": dict(self.detail)}


@dataclass(frozen=True)
class DivergenceCertificate:
    """Partial-sum growth record for a certified-divergent series."""

    witness: Term
    checkpoints: tuple[int, ...]
    partial_sums: tuple[float, ...]
    growth_ratios: tuple[float, ...]
    kind: str = "partial-sum-growth"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness": {"coef": abs(self.witness.coef), "alpha": self.witness.alpha,
                        "ratio": self.witness.ratio, "start": self.witness.start},
            "checkpoints": list(self.checkpoints),
            "partial_sums": [float(s) for s in self.partial_sums],
            "growth_ratios": [float(r) for r in self.growth_ratios],
        }


@dataclass(frozen=True)
class SumResult:
    value: complex
    n_used: int
    tail: float
    certificate: TailCertificate


def _term_tail_bound(t: Term, n_from: int) -> float:
    """Rigorous bound for sum_{n > n_from} |coef| n**alpha ratio**n."""
    c = abs(t.coef)
    if c == 0.0:
        return 0.0
    lo = max(n_from, t.start - 1)
    extra = 0.0
    if t.ratio < 1.0:
        # push the start of the geometric bound until the ratio factor
        # (n+1)/n)**alpha_+ * ratio is safely below 1
        target = (1.0 + t.ratio) / 2.0
        ap = max(t.alpha, 0.0)
        n2 = max(lo, 1)
        while t.ratio * (1.0 + 1.0 / (n2 + 1)) ** ap > target:
            n2 *= 2
            if n2 > _MAX_TERMS:
                raise Uncertifiable("ratio test start grew past the term cap")
        if n2 > lo:
            ns = np.arange(lo + 1, n2 + 1, dtype=float)
            extra = float(np.sum(np.abs(t.values(ns))))
        head = abs(complex(t.values(np.array([n2 + 1.0]))[0]))
        return extra + head / (1.0 - target)
    if t.ratio == 1.0 and t.alpha < -1.0:
        m = max(lo, 1)
        return c * m ** (t.alpha + 1.0) / (-t.alpha - 1.0)
    return math.inf


def tail_bound(rule: Rule, n_from: int) -> float:
    return sum(_term_tail_bound(t, n_from) for t in rule.terms)


def rule_convergent(rule: Rule) -> bool:
    """Decide absolute convergence within the rule class.

    Raises :class:`Uncertifiable` when terms of mixed sign contain a
    divergent piece (cancellation can not be ruled out termwise).
    """
    live = [t for t in rule.terms if t.coef != 0]
    if all(t.converges for t in live):
        return True
    if rule.is_nonnegative or len(live) == 1:
        return False
    raise Uncertifiable("mixed-sign rule with a divergent term")


def divergence_record(rule: Rule, points: int = 12) -> DivergenceCertificate:
    witness = max((t for t in rule.terms if not t.converges and t.coef != 0),
                  key=lambda t: (t.ratio, t.alpha), default=None)
    if witness is None:
        raise ValueError("rule has no divergent term")
    checkpoints, sums = [], []
    total = 0.0
    prev = 1
    for k in range(1, points + 1):
        n2 = 2 ** k
        ns = np.arange(prev, n2 + 1, dtype=float)
        with np.errstate(over="ignore"):
            total += float(np.sum(np.real(rule(ns))))
        checkpoints.append(n2)
        sums.append(total)
        prev = n2 + 1
        if not math.isfinite(total):
            break
    ratios = tuple(sums[i + 1] / sums[i] for i in range(len(sums) - 1)
                   if sums[i] != 0 and math.isfinite(sums[i + 1]))
    return DivergenceCertificate(witness, tuple(checkpoints), tuple(sums), ratios)


def _tail_estimate(rule: Rule, n_from: int) -> tuple[complex, float]:
    """(correction, error): the signed tail of the rule past ``n_from`` is
    ``correction`` up to ``error``.  Ratio-test terms are bounded crudely
    (they decay geometrically anyway); integral-test terms get the
    two-sided bracket  I <= sum <= I + f(N+1)  for decreasing f, so the
    midpoint halves the uncertainty and slow polynomial tails stay
    reachable."""
    correction = 0.0 + 0.0j
    err = 0.0
    for t in rule.terms:
        if t.coef == 0:
            continue
        if t.ratio < 1.0:
            err += _term_tail_bound(t, n_from)
        else:
            m = max(n_from, t.start - 1)
            integral = (m + 1.0) ** (t.alpha + 1.0) / (-t.alpha - 1.0)
            first = (m + 1.0) ** t.alpha
            correction += t.coef * (integral + first / 2.0)
            err += abs(t.coef) * first / 2.0
    return correction, err


def certified_sum(rule: Rule, tol: float = 1e-12, scale: float | None = None) -> SumResult:
    """Sum the series with a certified absolute error bound.

    The accepted error is ``tol * max(scale, |value|)`` with ``scale``
    defaulting to 1, i.e. relative with an absolute floor.  Raises
    :class:`SeriesDiverges` (with certificate) on a divergent rule and
    :class:`Uncertifiable` when the bound cannot be pushed below the
    target within the term cap.
    """
    if not rule_convergent(rule):
        raise SeriesDiverges("series diverges", divergence_record(rule))
    floor = 1.0 if scale is None else float(scale)
    partial = 0.0 + 0.0j
    n_done = 0
    n_next = 64
    while True:
        ns = np.arange(n_done + 1, n_next + 1, dtype=float)
        partial += complex(np.sum(rule(ns)))
        n_done = n_next
        correction, err = _tail_estimate(rule, n_done)
        value = partial + correction
        if err <= tol * max(floor, abs(value)):
            cert_kind = "integral" if any(
                t.ratio == 1.0 and t.coef != 0 for t in rule.terms) else "ratio"
            return SumResult(value, n_done, err,
                             TailCertificate(cert_kind, n_done, err))
        if n_next >= _MAX_TERMS:
            raise Uncertifiable(
                f"tail bound {err:.3e} still above target after {n_done} terms")
        n_next *= 2


def decide_summable(rule: Rule, tol: float = 1e-12):
    """Return (True, SumResult) or (False, DivergenceCertificate).

    Slowly convergent rules (integral exponents barely below -1) cannot
    reach tight tolerances; the sum then comes back at the best certified
    bound instead of failing, since convergence itself is decided exactly
    within the rule class."""
    if rule_convergent(rule):
        try:
            return True, certified_sum(rule, tol=tol)
        except Uncertifiable:
            return True, best_effort_sum(rule)
    return False, divergence_record(rule)


def best_effort_sum(rule: Rule, n_used: int = 2 ** 16) -> SumResult:
    """Partial sum plus tail midpoint with the certified (possibly loose)
    half-width as the error bound; for convergent rules only."""
    ns = np.arange(1, n_used + 1, dtype=float)
    partial = complex(np.sum(rule(ns)))
    correction, err = _tail_estimate(rule, n_used)
    kind = "integral" if any(t.ratio == 1.0 and t.coef != 0
                             for t in rule.terms) else "ratio"
    return SumResult(partial + correction, n_used, err,
                     TailCertificate(kind, n_used, err))


def rule_lower_bound(rule: Rule) -> float:
    """Certified inf over n >= 1 of a real nonnegative rule.

    Exact for monotone single-term rules; for sums of nondecreasing terms
    active from n = 1 the value at n = 1 is returned.  Every other term
    contributes 0: a decreasing term has infimum 0 unless alpha = 0 =
    log ratio, and a term starting past n = 1 is 0 at n = 1.
    """
    if not rule.is_nonnegative:
        raise Uncertifiable("lower bound certified only for nonnegative rules")
    total = 0.0
    for t in rule.terms:
        c = complex(t.coef).real
        if c == 0.0:
            continue
        if t.start == 1 and t.ratio >= 1.0 and t.alpha >= 0.0:
            total += c * t.ratio
    return total


def rules_agree(a: Rule, b: Rule, n_max: int = 64, rtol: float = 1e-10) -> bool:
    ns = np.arange(1, n_max + 1)
    va, vb = a(ns), b(ns)
    scale = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))), 1e-300)
    return bool(np.max(np.abs(va - vb)) <= rtol * scale)
