"""Covariance forms and operators of vector-valued random variables.

Probability spaces are discrete (atomic) so every Pettis integral is a
certified sum.  Three kinds of variables are supported:

* ``table``: finitely many atoms with explicit coordinate values;
* ``exp-poly``: the sequence-space family  xi(w_n)_k = n^k / k!  over
  geometric weights, the worked second-moment example;
* ``signed-basis``: paired atoms (w_n, +-) mapped to +- s_n e_n, which
  produces diagonal covariances with generator rules.

The covariance form t(f, g) = E f(xi) conj(g(xi)) lives on functionals;
its representing operator maps X* to X and exists only with a positive
lower bound (the Hilbert-space fallback at lower bound zero is a stated
non-goal and surfaces as an error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import series
from .duality import (
    DOMAIN_MAXIMAL, FROM_DUAL, TO_DUAL, DiagonalOperator, DualityPair, Functional,
    Operator, Vector,
)
from .errors import BackendMismatch, NotNormalized, Uncertifiable
from .forms import DiagonalForm, associated_operator, form_from_gram
from .formsum import form_sum
from .linalg import relative_error

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteProbabilitySpace:
    """Atomic probability space: finite weights, a weight generator, or a
    paired generator (atoms (w_n, +) and (w_n, -) with half weight each)."""

    kind: str                         # "finite" | "rule" | "paired-rule"
    weights: np.ndarray | None = None
    rule: series.Rule | None = None
    normalization: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.kind == "finite":
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise ValueError("weights must be positive")
            if abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
                raise NotNormalized("weights must sum to one")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
        elif self.kind in ("rule", "paired-rule"):
            if self.rule is None or not self.rule.is_nonnegative:
                raise ValueError("weight rule must be nonnegative")
            total = series.certified_sum(self.rule, tol=WEIGHT_TOL)
            if abs(total.value.real - 1.0) > 1e-10:
                raise NotNormalized(
                    f"weight rule sums to {total.value.real!r}, not 1")
            object.__setattr__(self, "normalization",
                               {"sum": total.value.real, "tail": total.tail,
                                "n_used": total.n_used})
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    @property
    def m(self) -> int:
        return len(self.weights)


def finite_space(weights) -> DiscreteProbabilitySpace:
    return DiscreteProbabilitySpace("finite", weights=weights)


def rule_space(rule: series.Rule) -> DiscreteProbabilitySpace:
    return DiscreteProbabilitySpace("rule", rule=rule)


def exponential_space(beta: float) -> DiscreteProbabilitySpace:
    """mu({w_n}) = c e^(-beta n) with the normalizing c = e^beta - 1."""
    c = math.exp(beta) - 1.0
    return rule_space(series.geometric(math.exp(-beta), coef=c))


def paired_rule_space(rule: series.Rule) -> DiscreteProbabilitySpace:
    return DiscreteProbabilitySpace("paired-rule", rule=rule)


@dataclass(frozen=True, eq=False)
class RandomVariable:
    kind: str                          # "table" | "exp-poly" | "signed-basis"
    space: DiscreteProbabilitySpace
    codomain: DualityPair
    values: tuple = ()                 # table: one coordinate array per atom
    scale: series.Rule | None = None   # signed-basis: s_n

    def __post_init__(self):
        if self.kind == "table":
            if self.space.kind != "finite":
                raise BackendMismatch("table variables need a finite space")
            vals = tuple(np.asarray(v, dtype=complex) for v in self.values)
            if len(vals) != self.space.m:
                raise ValueError("one value per atom required")
            for v in vals:
                if not np.all(np.isfinite(v.view(float))):
                    raise ValueError("values must have finite norm")
            object.__setattr__(self, "values", vals)
        elif self.kind == "exp-poly":
            if self.space.kind != "rule":
                raise BackendMismatch("the exp-poly family needs a rule space")
        elif self.kind == "signed-basis":
            if self.space.kind != "paired-rule":
                raise BackendMismatch("signed-basis variables need a paired space")
            if self.scale is None:
                raise ValueError("signed-basis variables need a scale rule")
        else:
            raise ValueError(f"unknown variable kind {self.kind!r}")


def table_variable(space, values, dp: DualityPair) -> RandomVariable:
    return RandomVariable("table", space, dp, values=tuple(values))


def exp_poly_variable(space, dp: DualityPair) -> RandomVariable:
    return RandomVariable("exp-poly", space, dp)


def signed_basis_variable(space, scale: series.Rule, dp: DualityPair) -> RandomVariable:
    return RandomVariable("signed-basis", space, dp, scale=scale)


# ---------------------------------------------------------------------------
# weak (Pettis) expectation


def weak_expectation(xi: RandomVariable) -> Vector:
    """Coordinatewise weighted sum: finite for a table variable, zero for
    a signed-basis one, and for the exp-poly family a certified series
    sum per coordinate, which raises :class:`Uncertifiable` when it
    cannot be certified.  The functional criterion f(E xi) = E f(xi) is
    linear in f, and on each e_k both sides are that same sum."""
    sp = xi.space
    if xi.kind == "table":
        return Vector(sp.weights @ np.stack(xi.values), xi.codomain.backend)
    if xi.kind == "signed-basis":
        # the paired atoms cancel exactly
        return Vector(np.zeros(xi.codomain.n, dtype=complex), xi.codomain.backend)
    k_ret = xi.codomain.n
    coords = np.empty(k_ret, dtype=complex)
    kfact = np.cumsum(np.log(np.arange(1, k_ret + 1, dtype=float)))
    for k in range(1, k_ret + 1):
        rule_k = sp.rule * series.polynomial(float(k),
                                             coef=math.exp(-kfact[k - 1]))
        coords[k - 1] = series.certified_sum(rule_k, tol=1e-12).value
    return Vector(coords, xi.codomain.backend)


# ---------------------------------------------------------------------------
# second-moment domain


@dataclass(frozen=True)
class MembershipCertificate:
    member: bool
    certificate: dict


def in_second_moment_domain(xi: RandomVariable, f: Functional) -> bool:
    """Certified decision of  sum_n mu_n |f(xi(w_n))|^2 < infinity."""
    return second_moment_membership(xi, f).member


def second_moment_membership(xi: RandomVariable, f: Functional) -> MembershipCertificate:
    sp = xi.space
    if xi.kind == "table":
        return MembershipCertificate(True, {"kind": "finite"})
    if xi.kind == "signed-basis":
        fr = f.tail
        if fr is None:
            # finitely supported: finite sum
            return MembershipCertificate(True, {"kind": "finite"})
        rule = sp.rule * xi.scale.abs_square() * fr.abs_square()
        ok, cert = series.decide_summable(rule)
        return MembershipCertificate(ok, cert.as_dict() if not ok else
                                     cert.certificate.as_dict())
    return _exp_poly_membership(xi, f)


def _exp_poly_membership(xi: RandomVariable, f: Functional) -> MembershipCertificate:
    sp = xi.space
    if f.tail is None:
        # |f(xi(w_n))| <= (sum_k |f_k|/k!) n^K: ratio-test majorant
        nz = np.nonzero(np.abs(f.coords) > 0)[0]
        if nz.size == 0:
            return MembershipCertificate(True, {"kind": "finite"})
        K = int(nz[-1] + 1)
        kfact = np.cumsum(np.log(np.arange(1, f.n + 1, dtype=float)))
        C = float(np.sum(np.abs(f.coords[nz]) * np.exp(-kfact[nz])))
        majorant = sp.rule * series.power_geometric(C * C, 2.0 * K, 1.0)
        ok, cert = series.decide_summable(majorant)
        if not ok:
            raise Uncertifiable("weight rule does not dominate the majorant")
        return MembershipCertificate(True, cert.certificate.as_dict())
    # generator-ruled f: the certified family is c k^beta with beta in [-1, 0]
    terms = f.tail.terms
    if (len(terms) != 1 or terms[0].ratio != 1.0 or
            not (-1.0 <= terms[0].alpha <= 0.0) or
            complex(terms[0].coef).imag != 0.0 or complex(terms[0].coef).real <= 0):
        raise Uncertifiable("functional growth rule outside the supported forms")
    c, beta = complex(terms[0].coef).real, terms[0].alpha
    # minorant: f(xi(w_n)) >= c (e^n - 1 - n)/n >= (c/2) e^n / n for n >= 2
    minorant = sp.rule * series.Rule(
        (series.Term(c * c / 4.0, -2.0, math.exp(2.0), start=2),))
    # majorant: f(xi(w_n)) <= c (e^n - 1) <= c e^n (since k^beta <= 1)
    majorant = sp.rule * series.geometric(math.exp(2.0), coef=c * c)
    if series.rule_convergent(majorant):
        _, cert = series.decide_summable(majorant)
        return MembershipCertificate(True, cert.certificate.as_dict())
    ok, cert = series.decide_summable(minorant)
    if not ok:
        return MembershipCertificate(False, cert.as_dict())
    raise Uncertifiable("majorant diverges but minorant converges: undecided")


@dataclass(frozen=True, eq=False)
class SecondMomentDomain:
    """Membership view of D = {f : E |f(xi)|^2 < infinity} with the
    finitely-supported density surrogate."""

    xi: RandomVariable

    def density_witness(self) -> dict:
        """Every coordinate functional (finitely supported) is a member,
        checked on the first 12; density of their span is the recorded
        surrogate, inferred."""
        n = self.xi.codomain.n
        members = []
        for k in range(min(12, n)):
            fc = np.zeros(n, dtype=complex)
            fc[k] = 1.0
            members.append(in_second_moment_domain(
                self.xi, Functional(fc, self.xi.codomain.backend)))
        return {"finitely_supported_members": all(members),
                "checked": len(members), "density": "inferred"}


# ---------------------------------------------------------------------------
# covariance form and operator


def covariance_form(xi: RandomVariable, basis: list[Functional] | None = None):
    """The second-moment form t(f, g) = E f(xi) conj(g(xi)).

    The caller centers xi first (subtract the weak expectation); the
    uncentered formula is computed as given.  Returns a form over the
    dual pair: dense gram on the supplied functional basis for finite
    spaces, where every functional has a finite second moment, and a
    diagonal weight rule for signed-basis variables.
    """
    if xi.kind == "signed-basis":
        rule = xi.space.rule * xi.scale.abs_square()
        return DiagonalForm(rule)
    if xi.kind == "exp-poly":
        raise Uncertifiable("covariance operators for the uncentered exp-poly "
                            "family are outside scope; center a table variable")
    if basis is None:
        basis = [Functional(np.eye(xi.codomain.n)[k]) for k in range(xi.codomain.n)]
    B = np.stack([f.coords for f in basis], axis=1)
    X = np.stack(xi.values)
    k = min(B.shape[0], X.shape[1])
    # V[i, a] = f_i(xi(w_a)) over the common coordinates
    V = B[:k].T @ X[:, :k].conj().T
    return form_from_gram(B, (V * xi.space.weights) @ V.conj().T)


def covariance_operator(xi: RandomVariable) -> Operator:
    """Representing operator of the covariance form, mapping X* to X.

    Requires a certified positive lower bound on the coordinate basis; at
    gamma = 0 :func:`associated_operator` refuses it (the Hilbert-space
    fallback at lower bound zero is out of scope here).
    """
    t = covariance_form(xi)
    if isinstance(t, DiagonalForm):
        return DiagonalOperator(t.diagonal, DOMAIN_MAXIMAL, FROM_DUAL)
    return replace(associated_operator(t, xi.codomain.dual()).A, direction=FROM_DUAL)


def centered(xi: RandomVariable) -> RandomVariable:
    """Subtract the weak expectation (table variables)."""
    if xi.kind != "table":
        raise BackendMismatch("centering is implemented for table variables")
    e = weak_expectation(xi)
    vals = tuple(v - e.coords[:v.size] for v in xi.values)
    return RandomVariable("table", xi.space, xi.codomain, values=vals)


@dataclass(frozen=True, eq=False)
class IndependentSumReport:
    residual: float
    details: dict


def independent_sum(xi: RandomVariable, eta: RandomVariable) -> IndependentSumReport:
    """Covariance of the independent sum equals the form sum A (+) B.

    Independence is structural: the sum variable lives on the product of
    the factor spaces.  Finite spaces are enumerated, and the residual is
    the relative Frobenius error of the covariance against the form sum;
    signed-basis variables compare generator rules with certified tails,
    and the residual is the worst ratio of error to allowed error.
    """
    if xi.kind == "table" and eta.kind == "table":
        sp1, sp2 = xi.space, eta.space
        w = np.outer(sp1.weights, sp2.weights).reshape(-1)
        vals = tuple(v1 + v2 for v1 in xi.values for v2 in eta.values)
        joint = table_variable(finite_space(w / np.sum(w)), vals, xi.codomain)
        cov_sum = covariance_operator(joint)
        fs = form_sum(*(replace(covariance_operator(v), direction=TO_DUAL)
                        for v in (xi, eta)), xi.codomain.dual())
        res = relative_error(cov_sum.canonical_matrix(), fs.operator.canonical_matrix())
        return IndependentSumReport(res, {"kind": "finite-product"})
    if xi.kind == "signed-basis" and eta.kind == "signed-basis":
        fs = form_sum(*(replace(covariance_operator(v), direction=TO_DUAL)
                        for v in (xi, eta)), xi.codomain.dual())
        # brute-force window over the product space: enumerate the signed
        # atom pairs ((n, sg1), (m, sg2)) and accumulate the second moment
        # of each retained coordinate, then compare with the summed rule
        # up to the certified weight tails beyond the window
        W = 12
        ns = np.arange(1, W + 1)
        nu, rho = np.real(xi.space.rule(ns)), np.real(eta.space.rule(ns))
        s, r = np.real(xi.scale(ns)), np.real(eta.scale(ns))
        # axes (i, n, m, sg1, sg2) of sg1 s_n [n == i] + sg2 r_m [m == i]
        sg, E = np.array([1.0, -1.0]), np.eye(W)
        val = ((E * s)[:, :, None, None, None] * sg[:, None] +
               (E * r)[:, None, :, None, None] * sg)
        w = 0.25 * np.outer(nu, rho)[:, :, None, None]
        brute = np.sum(w * val ** 2, axis=(1, 2, 3, 4))
        sum_rule = np.real(fs.operator.diagonal(ns))
        tail_w = series.tail_bound(xi.space.rule, W) + series.tail_bound(
            eta.space.rule, W)
        err = np.abs(brute - sum_rule)
        allowed = sum_rule * tail_w + 1e-10 * np.maximum(sum_rule, 1e-300)
        res = float(np.max(err / np.maximum(allowed, 1e-300)))
        return IndependentSumReport(res, {"kind": "diagonal-rules", "window": W,
                                          "weight_tail": tail_w})
    raise BackendMismatch("independent sums need matching variable kinds")
