"""Certified evaluation of power-geometric series.

The sequence backend works exclusively with coefficient sequences of the
shape

    a_n = sum_t  c_t * n**alpha_t * ratio_t**n        (active for n >= start_t)

This family is closed under addition, multiplication and complex
conjugation, which is what lets every tail the library meets be bounded
rigorously: a ratio test when ratio < 1, and Euler-Maclaurin through the
B4 term when ratio = 1 and alpha < -1.  For the latter the summand
n**alpha is completely monotone, so the remainder lies between 0 and the
first omitted (B6) term (Olver, *Asymptotics and Special Functions*,
ch. 8); a p-series then certifies to 1e-12 in 64 terms.  Every sum also
carries a bound on its floating-point error: the exp/log evaluation of
each term, its exactly rounded summation by ``math.fsum`` and the few
operations after it, each bounded by a multiple of the unit roundoff
times the summed moduli (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 4).  Divergent series are reported with a partial-sum
growth record instead of a bound.

A rule is evaluated on one grid, a row per term and a column per point
(:func:`_grid`); each value has the bits of its term evaluated alone.

Values are never returned without a certificate: :func:`certified_sum`
attaches a tail bound, :func:`decide_summable` returns either a
:class:`TailCertificate` or a :class:`DivergenceCertificate`.  Equality
and realness of rules are decided exactly (:func:`rules_agree`,
:func:`imaginary_residual`): pointwise before the last start, by the
merged coefficients of the linearly independent n**alpha ratio**n after.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import SeriesDiverges, Uncertifiable

_MAX_TERMS = 2 ** 21
_CAP = 2 ** 14          # the most values one grid evaluation holds


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
        for _, block in _blocks(self, n):
            for row in block:       # in term order
                total += row
        return total

    @cached_property
    def _columns(self):
        # (T, 1) columns of coef, alpha, log ratio and start (None if every
        # term starts at 1; inf for a zero coefficient, so its row is 0 and
        # not 0 * an overflow), and the rows of real coefficients among complex
        ts = self.terms
        real = [not isinstance(t.coef, complex) for t in ts]
        coef = np.array([t.coef for t in ts], float if all(real) else complex)[:, None]
        alpha, logr, start = np.array(
            [[t.alpha, math.log(t.ratio), t.start if t.coef != 0 else math.inf] for t in ts],
            dtype=float).reshape(-1, 3).T[:, :, None]
        return (coef, alpha, logr,
                start if any(t.start > 1 or t.coef == 0 for t in ts) else None,
                np.array(real) if any(real) and not all(real) else None)

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
        """|a_n|^2 with each cross pair i < j once: the products
        c_i conj(c_j) and c_j conj(c_i) are exact conjugates, so their
        sum 2 Re(c_i conj(c_j)) is exact."""
        prods = []
        for i, a in enumerate(self.terms):
            for j, b in enumerate(self.terms[i:], i):
                c = a.coef * np.conj(b.coef)
                prods.append(Term(c if j == i else 2.0 * c.real, a.alpha + b.alpha,
                                  a.ratio * b.ratio, max(a.start, b.start)))
        return Rule(tuple(prods))

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


def _grid(rule: Rule, n: np.ndarray, rows: slice = slice(None),
          log_scale: float = 0.0) -> np.ndarray:
    """The terms ``rows`` of ``rule`` at points ``n >= 1`` of a 1-D ``n``, a
    row per term and a column per point; for ``n`` of shape (T, 1), every
    term at its own point.  Each value is c exp(alpha log n + n log
    ratio + log_scale), 0 before the start, with the bits of its term
    evaluated alone: a real c times an overflow is a real infinity, not a
    NaN imaginary part."""
    coef, alpha, logr, start, real = rule._columns
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = coef[rows] * np.exp(alpha[rows] * np.log(n) + n * logr[rows] + log_scale)
    if real is not None:
        out.imag[real[rows]] = 0.0
    return out if start is None else np.where(n >= start[rows], out, 0.0)


def _blocks(rule: Rule, n: np.ndarray, log_scale: float = 0.0):
    """(rows, grid) of a 1-D ``n`` in blocks of at most ``_CAP`` values."""
    step = max(1, _CAP // max(1, n.size))
    for i in range(0, len(rule.terms), step):
        yield slice(i, i + step), _grid(rule, n, slice(i, i + step), log_scale)


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
    """Error bound of a sum of ``first`` terms plus a tail estimate, with
    the tail test that produced it; ``detail`` splits the bound into its
    truncation and rounding parts."""

    kind: str                     # "ratio" | "integral" (Euler-Maclaurin)
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
    kind: ClassVar[str] = "partial-sum-growth"

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


def _term_tail_bounds(rule: Rule, n_from: int, log_scale: float = 0.0) -> list[float]:
    """Per term, a rigorous bound for sum_{n > n_from} |coef| n**alpha
    ratio**n e**log_scale; the ratio-test heads of all terms are one grid
    evaluation."""
    ts = rule.terms
    los = [max(n_from, t.start - 1) for t in ts]
    n2s = list(los)
    tested = [t.coef != 0 and t.ratio < 1.0 for t in ts]
    for i, t in enumerate(ts):
        if tested[i]:
            # push the start of the geometric bound until the ratio factor
            # (n+1)/n)**alpha_+ * ratio is safely below 1
            n2s[i] = max(n2s[i], 1)
            while (t.ratio * (1.0 + 1.0 / (n2s[i] + 1)) ** max(t.alpha, 0.0)
                   > (1.0 + t.ratio) / 2.0):
                n2s[i] *= 2
                if n2s[i] > _MAX_TERMS:
                    raise Uncertifiable("ratio test start grew past the term cap")
    if any(tested):
        heads = _grid(rule, np.array(n2s, dtype=float)[:, None] + 1.0,
                      log_scale=log_scale)[:, 0].tolist()
    out = []
    for i, (t, lo, n2) in enumerate(zip(ts, los, n2s)):
        if t.coef == 0:
            out.append(0.0)
        elif t.ratio < 1.0:
            ns = np.arange(lo + 1, n2 + 1, dtype=float)
            extra = (float(np.sum(np.abs(_grid(rule, ns, slice(i, i + 1), log_scale))))
                     if n2 > lo else 0.0)
            out.append(extra + abs(heads[i]) / (1.0 - (1.0 + t.ratio) / 2.0))
        elif t.ratio == 1.0 and t.alpha < -1.0:
            # integral test from lo; from lo = 0 the first term, 1, comes first
            out.append(abs(t.coef) * math.exp(log_scale) * (
                (lo == 0) + max(lo, 1) ** (t.alpha + 1.0) / (-t.alpha - 1.0)))
        else:
            out.append(math.inf)
    return out


def tail_bound(rule: Rule, n_from: int) -> float:
    return sum(_term_tail_bounds(rule, n_from))


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


def divergence_record(rule: Rule) -> DivergenceCertificate:
    """Partial sums at n = 2, 4, ..., 4096, stopping at the first that
    overflows."""
    witness = max((t for t in rule.terms if not t.converges and t.coef != 0),
                  key=lambda t: (t.ratio, t.alpha), default=None)
    if witness is None:
        raise ValueError("rule has no divergent term")
    checkpoints, sums = [], []
    total = 0.0
    prev = 1
    for k in range(1, 13):
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


def _euler_maclaurin(alpha: float, a: float) -> tuple[float, float]:
    """(midpoint, half-width) enclosing sum_{n >= a} n**alpha, alpha < -1.

    Euler-Maclaurin through the B4 term.  x**alpha is completely monotone,
    so the remainder lies between 0 and the B6 term -B6/6! f^(5)(a) =
    |f^(5)(a)| / 30240; half of it is added and half is the error.  The
    derivatives are falling factorials times powers of a."""
    f = a ** alpha
    d1 = alpha * f / a
    d3 = d1 * (alpha - 1.0) * (alpha - 2.0) / (a * a)
    d5 = d3 * (alpha - 3.0) * (alpha - 4.0) / (a * a)
    b6 = -d5 / 30240.0
    mid = a * f / (-alpha - 1.0) + f / 2.0 - d1 / 12.0 + d3 / 720.0 + b6 / 2.0
    return mid, b6 / 2.0


def _tail_estimate(rule: Rule, n_from: int,
                   log_scale: float = 0.0) -> tuple[complex, float, float]:
    """(correction, error, size): the signed tail of the rule past
    ``n_from`` is ``correction`` up to the truncation ``error``; ``size``
    is the sum of the moduli of the terms' corrections, which scales their
    rounding.  Ratio-test terms are bounded crudely (they decay
    geometrically anyway); convergent terms with ratio 1 get the
    Euler-Maclaurin enclosure of :func:`_euler_maclaurin` from a =
    max(n_from, start - 1) + 1, whose error falls below rounding level
    within 64 terms.  A divergent term adds its infinite bound to the
    error."""
    correction = 0.0 + 0.0j
    err = size = 0.0
    for t, bound in zip(rule.terms, _term_tail_bounds(rule, n_from, log_scale)):
        if t.coef == 0:
            continue
        if t.ratio == 1.0 and t.alpha < -1.0:
            mid, half = _euler_maclaurin(t.alpha, max(n_from, t.start - 1) + 1.0)
            c = t.coef * math.exp(log_scale)
            correction += c * mid
            err += abs(c) * half
            size += abs(c) * mid
        else:
            err += bound
    return correction, err, size


_UNIT_ROUNDOFF = 2.0 ** -53
_SUBNORMAL = 2.0 ** -1074        # the spacing of subnormal floats


def _partial_sum(rule: Rule, lo: int, hi: int,
                 log_scale: float = 0.0) -> tuple[complex, float, float]:
    """(sum, mass, rounding) over lo <= n <= hi: the sum of a_n, the sum
    of the moduli of the term values, and a bound, in units of the
    roundoff u, on the error of the sum.

    A term is evaluated as c * exp(alpha log n + n log ratio + log_scale).
    Its relative error is the absolute error of the exponent, at most
    4 (|alpha log n| + |n log ratio| + |log_scale|) u with logarithms and
    exp good to one ulp and log_scale good to 2 |log_scale| u, plus a few
    u for the exponential and the product with c; :func:`_with_tail`
    bounds what underflows.  Each term's values, a row of the grid, are
    added by ``math.fsum``, which rounds the exact sum once, so the
    summation costs u of the mass whatever the number of values."""
    ns = np.arange(lo, hi + 1, dtype=float)
    logn = np.log(ns)
    _, alpha, logr, _, _ = rule._columns
    total = 0.0 + 0.0j
    mass = evaluation = 0.0
    for rows, vals in _blocks(rule, ns, log_scale):
        mods = np.abs(vals)
        weights = (4.0 * np.abs(alpha[rows]) * logn + 4.0 * np.abs(logr[rows]) * ns
                   + (8.0 + 4.0 * abs(log_scale)))
        for m, e, re, im in zip(mods.sum(axis=1).tolist(), (mods * weights).sum(axis=1).tolist(),
                                vals.real, vals.imag):
            mass += m
            evaluation += e
            total += complex(math.fsum(re.tolist()), math.fsum(im.tolist()))
    # fsum rounds once, and adding the T term sums rounds T times
    return total, mass, evaluation + (len(rule.terms) + 1) * mass


def _tail_kind(rule: Rule) -> str:
    return "integral" if any(t.ratio == 1.0 and t.coef != 0
                             for t in rule.terms) else "ratio"


def _with_tail(rule: Rule, n_used: int, partial: complex, mass: float,
               rounding_u: float, log_scale: float = 0.0) -> SumResult:
    """The partial sum of ``n_used`` terms, with its ``mass`` and its
    ``rounding_u`` in units of u from :func:`_partial_sum`, plus the tail
    estimate; the bound is truncation plus rounding.  32 u more of the
    mass and of the correction's size covers adding up the at most 16
    doubling rounds, the correction, and the few operations of each
    term's correction.  An underflow is off by up to half the subnormal
    spacing, |c| times over in c exp(...): (|c| + 1) spacings per value
    and 32 per term cover them, and a zero rule keeps an exact 0."""
    correction, trunc, size = _tail_estimate(rule, n_used, log_scale)
    rounding = (_UNIT_ROUNDOFF * (rounding_u + 32.0 * (mass + size))
                + sum(_SUBNORMAL * (abs(t.coef) + 1.0) * n_used + 32.0 * _SUBNORMAL
                      for t in rule.terms if t.coef != 0))
    err = trunc + rounding
    return SumResult(partial + correction, n_used, err, TailCertificate(
        _tail_kind(rule), n_used, err, {"truncation": trunc, "rounding": rounding}))


def _doubling_sum(rule: Rule, tol: float, floor: float,
                  log_scale: float = 0.0) -> tuple[SumResult, str]:
    """Sum 64, 128, ... terms of a convergent rule until the error bound
    meets ``tol * max(floor, |value|)``.  Returns the last result with ''
    once it does, or with the reason it stopped: rounding alone above the
    target (more terms only raise it; the sum goes on until truncation is
    below rounding, so the bound is within twice the best one), or the
    term cap."""
    partial = 0.0 + 0.0j
    mass = rounding_u = 0.0
    n_done = 0
    n_next = 64
    while True:
        chunk, chunk_mass, chunk_rounding = _partial_sum(rule, n_done + 1, n_next, log_scale)
        partial += chunk
        mass += chunk_mass
        rounding_u += chunk_rounding
        n_done = n_next
        res = _with_tail(rule, n_done, partial, mass, rounding_u, log_scale)
        parts = res.certificate.detail
        target = tol * max(floor, abs(res.value))
        if res.tail <= target:
            return res, ""
        if parts["rounding"] > max(target, parts["truncation"]):
            return res, (f"rounding bound {parts['rounding']:.3e} above target "
                         f"{target:.3e}: more terms cannot help")
        if n_next >= _MAX_TERMS:
            return res, f"tail bound {res.tail:.3e} still above target after {n_done} terms"
        n_next *= 2


def certified_sum(rule: Rule, tol: float = 1e-12, scale: float | None = None) -> SumResult:
    """Sum the series with a certified absolute error bound.

    The bound is the truncation error of the tail estimate plus the
    rounding error of the whole evaluation.  The accepted error is
    ``tol * max(scale, |value|)`` with ``scale`` defaulting to 1, i.e.
    relative with an absolute floor.  Raises :class:`SeriesDiverges`
    (with certificate) on a divergent rule and :class:`Uncertifiable`
    when the bound cannot be pushed below the target within the term
    cap, or when rounding alone, which grows with the term count,
    already exceeds it.
    """
    if not rule_convergent(rule):
        raise SeriesDiverges("series diverges", divergence_record(rule))
    res, failure = _doubling_sum(rule, tol, 1.0 if scale is None else float(scale))
    if failure:
        raise Uncertifiable(failure)
    return res


def decide_summable(rule: Rule, log_scale: float = 0.0):
    """Return (True, SumResult) or (False, DivergenceCertificate) for the
    series of e**log_scale a_n: a scale no coefficient can hold, such as
    1/k! from k = 171 on, goes into the exponent of every term.

    Convergence is decided exactly within the rule class.  Polynomial
    tails certify through Euler-Maclaurin.  A rule that still misses
    1e-12 comes back at its best certified bound, truncation plus
    rounding, instead of failing: where rounding stopped the sum, the
    sum as it stopped; where the term cap did (ratio terms close to 1),
    :func:`best_effort_sum`."""
    if not rule_convergent(rule):
        return False, divergence_record(rule)
    res, failure = _doubling_sum(rule, 1e-12, 1.0, log_scale)
    if failure and res.n_used >= _MAX_TERMS:
        return True, best_effort_sum(rule, log_scale)
    return True, res


def best_effort_sum(rule: Rule, log_scale: float = 0.0) -> SumResult:
    """Partial sum of 2^16 terms plus tail midpoint with the certified
    (possibly loose) error bound, truncation plus rounding; for convergent
    rules only."""
    return _with_tail(rule, 2 ** 16, *_partial_sum(rule, 1, 2 ** 16, log_scale), log_scale)


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


# terms whose alpha and ratio agree to this relative precision are one
# term up to the rounding of the arithmetic that produced them (a ratio
# of 0.25 * sqrt(2)**2 is 0.5 plus one ulp)
_PARAM_RTOL = 2.0 ** -44


def _merged(rule: Rule) -> tuple[int, list[list]]:
    """(start, groups): from n = start on every live term is active and
    a_n = sum_g C_g n**alpha_g ratio_g**n.  A group [alpha, ratio, C_g, m_g]
    gathers the terms with that alpha and ratio; m_g is the sum of their
    |c|, the scale of the rounding in C_g.  The sequences n**alpha ratio**n
    are linearly independent, so the rule is zero from ``start`` on iff
    every C_g is.  Raises :class:`Uncertifiable` when ``start`` lies past
    the term cap."""
    live = [t for t in rule.terms if t.coef != 0]
    start = max((t.start for t in live), default=1)
    if start > _MAX_TERMS:
        raise Uncertifiable("a term starts past the term cap")
    groups = []
    for t in live:
        for g in groups:
            if (abs(t.alpha - g[0]) <= _PARAM_RTOL * max(1.0, abs(g[0]))
                    and abs(t.ratio - g[1]) <= _PARAM_RTOL * g[1]):
                g[2] += t.coef
                g[3] += abs(t.coef)
                break
        else:
            groups.append([t.alpha, t.ratio, complex(t.coef), abs(t.coef)])
    return start, groups


def _dominant(rule: Rule) -> tuple[int, list[list], list | None]:
    """(start, groups, top): the merged groups of :func:`_merged` that are
    not rounding, |C_g| > 1e-10 m_g, and the dominant one among them, the
    largest ratio and then the largest alpha (None when there is none)."""
    start, groups = _merged(rule)
    groups = [g for g in groups if abs(g[2]) > 1e-10 * g[3]]
    return start, groups, max(groups, key=lambda g: (g[1], g[0]), default=None)


def growth(rule: Rule) -> tuple[float, float]:
    """(ratio, alpha) of the dominant merged group, or (0, -inf) for a
    rule that is 0 from its start on: for nonnegative rules a and b,
    b = O(a) iff growth(b) <= growth(a).  Raises :class:`Uncertifiable`
    when a term starts past the term cap."""
    top = _dominant(rule)[2]
    return (0.0, -math.inf) if top is None else (top[1], top[0])


def eventual_sign(rule: Rule) -> tuple[int, int]:
    """(N, s) for a real rule: from n = N on, a_n is 0 (s = 0) or has the
    sign s of its dominant merged group (:func:`_dominant`).  N doubles
    until the other groups sum to at most half the dominant one, from
    where on they only decrease.  Raises :class:`Uncertifiable` past the
    term cap."""
    start, groups, top = _dominant(rule)
    if top is None:
        return start, 0
    rest = [g for g in groups if g is not top]
    n = max([start] + [math.ceil((g[0] - top[0]) / max(math.log(top[1] / g[1]), 1e-300))
                       for g in rest if g[0] > top[0]])
    while n <= _MAX_TERMS:
        if sum(abs(g[2]) * math.exp(min((g[0] - top[0]) * math.log(n)
                                        + n * math.log(g[1] / top[1]), 700.0))
               for g in rest) <= abs(top[2]) / 2:
            return n, 1 if top[2].real > 0 else -1
        n *= 2
    raise Uncertifiable("dominant term not certified within the term cap")


def first_below(x: np.ndarray, y: np.ndarray, sign: int) -> int | None:
    """The index of the first n < N = len(x) with x_n < y_n beyond the
    slack 1e-9 max(|x_n|, |y_n|, 1), else that of N when x - y has the
    negative ``sign`` from N on (:func:`eventual_sign`), else None, when
    x_n >= y_n for every n."""
    slack = 1e-9 * np.maximum(np.maximum(np.abs(x[:-1]), np.abs(y[:-1])), 1.0)
    bad = np.flatnonzero(x[:-1] - y[:-1] < -slack)
    return int(bad[0]) if bad.size else len(x) - 1 if sign < 0 else None


def rules_agree(a: Rule, b: Rule) -> bool:
    """Exact equality of two rules as sequences, up to rounding at 1e-10:
    pointwise before the last start of a term (relative to the largest
    value there), then coefficient by coefficient of a - b."""
    start, groups = _merged(a + b.scale(-1.0))
    ns = np.arange(1, start)
    va, vb = a(ns), b(ns)
    scale = max(float(np.max(np.abs(va), initial=0.0)),
                float(np.max(np.abs(vb), initial=0.0)), 1e-300)
    return bool(np.max(np.abs(va - vb), initial=0.0) <= 1e-10 * scale
                and all(abs(c) <= 1e-10 * m for _, _, c, m in groups))


def imaginary_residual(rule: Rule) -> float:
    """Exact measure of how far a rule is from real: before the last start
    the largest imaginary part relative to max(1, largest value), after it
    the largest |Im C_g| / m_g over the merged coefficients; 0 iff real."""
    start, groups = _merged(rule)
    vals = rule(np.arange(1, start))
    head = float(np.max(np.abs(vals.imag), initial=0.0)) / max(
        float(np.max(np.abs(vals), initial=0.0)), 1.0)
    return max([head] + [abs(c.imag) / m for _, _, c, m in groups])
