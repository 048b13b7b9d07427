"""Covariance forms and operators of vector-valued random variables.

Probability spaces are discrete (atomic) so every Pettis integral is a
certified sum.  Each kind of space and of variable is its own class:
finite weights (:class:`FiniteSpace`), a weight generator mu_n
(:class:`RuleSpace`), or paired atoms (w_n, +-) with half of mu_n each
(:class:`PairedRuleSpace`); a table of values at finitely many atoms
(:class:`TableVariable`), the sequence-space family xi(w_n)_k = n^k / k!
of the worked second-moment example (:class:`ExpPolyVariable`), and
(w_n, +-) mapped to +- s_n e_n, whose covariances are diagonal generator
rules (:class:`SignedBasisVariable`).  A variable refuses a space of the
wrong kind when it is made, and implements the primitives that the
constructions below call.

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
from .duality import FROM_DUAL, TO_DUAL, DualityPair, Functional, Operator, Vector
from .errors import BackendMismatch, NotNormalized, SeriesDiverges, Uncertifiable
from .forms import DiagonalForm, form_from_gram
from .formsum import form_sum
from .linalg import relative_error

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Finitely many atoms with positive weights that sum to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(w)) - 1.0) > WEIGHT_TOL:
            raise NotNormalized("weights must sum to one")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class _WeightRule:
    """Atoms weighted by a nonnegative generator whose certified sum is one."""

    rule: series.Rule
    normalization: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if not self.rule.is_nonnegative:
            raise ValueError("weight rule must be nonnegative")
        total = series.certified_sum(self.rule, tol=WEIGHT_TOL)
        if abs(total.value.real - 1.0) > 1e-10:
            raise NotNormalized(
                f"weight rule sums to {total.value.real!r}, not 1")
        object.__setattr__(self, "normalization",
                           {"sum": total.value.real, "tail": total.tail,
                            "n_used": total.n_used})


class RuleSpace(_WeightRule):
    """Atoms w_n, n >= 1, with mu({w_n}) = rule(n)."""


class PairedRuleSpace(_WeightRule):
    """Atoms (w_n, +) and (w_n, -), n >= 1, with half of rule(n) each."""


#: a probability space of any kind
DiscreteProbabilitySpace = FiniteSpace | RuleSpace | PairedRuleSpace
finite_space, rule_space, paired_rule_space = FiniteSpace, RuleSpace, PairedRuleSpace


def exponential_space(beta: float) -> RuleSpace:
    """mu({w_n}) = c e^(-beta n) with the normalizing c = e^beta - 1."""
    c = math.exp(beta) - 1.0
    return RuleSpace(series.geometric(math.exp(-beta), coef=c))


@dataclass(frozen=True)
class MembershipCertificate:
    member: bool
    certificate: dict


@dataclass(frozen=True, eq=False)
class IndependentSumReport:
    residual: float
    details: dict


class _Variable:
    """Centring and the independent sum, refused for the kinds without them."""

    def _centered(self):
        raise BackendMismatch("centering is implemented for table variables")

    def _independent_sum(self, other):
        raise BackendMismatch("independent sums need matching variable kinds")


@dataclass(frozen=True, eq=False)
class TableVariable(_Variable):
    """Finitely many atoms: row a of ``values`` holds the coordinates of
    xi(w_a), a vector of ``codomain``."""

    space: FiniteSpace
    values: np.ndarray
    codomain: DualityPair

    def __post_init__(self):
        if not isinstance(self.space, FiniteSpace):
            raise BackendMismatch("table variables need a finite space")
        values = np.array(self.values, dtype=complex)
        if len(values) != self.space.m:
            raise ValueError("one value per atom required")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must have finite norm")
        self.codomain.check(Vector(values[0], self.codomain.backend))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _expectation(self) -> Vector:
        return Vector(self.space.weights @ self.values, self.codomain.backend)

    def _membership(self, f: Functional) -> MembershipCertificate:
        return MembershipCertificate(True, {"kind": "finite"})

    def _form(self, basis: list[Functional] | None):
        if basis is None:
            basis = [Functional(np.eye(self.codomain.n)[k]) for k in range(self.codomain.n)]
        B = np.stack([f.coords for f in basis], axis=1)
        k = min(B.shape[0], self.values.shape[1])
        # V[i, a] = f_i(xi(w_a)) over the common coordinates
        V = B[:k].T @ self.values[:, :k].conj().T
        return form_from_gram(B, (V * self.space.weights) @ V.conj().T)

    def _centered(self) -> TableVariable:
        return TableVariable(self.space, self.values - self._expectation().coords,
                             self.codomain)

    def _independent_sum(self, other) -> IndependentSumReport:
        if not isinstance(other, TableVariable):
            return super()._independent_sum(other)
        w = np.outer(self.space.weights, other.space.weights).reshape(-1)
        # row a * len(other.values) + b: the atom (a, b) of the product space
        vals = (self.values[:, None] + other.values[None]).reshape(len(w), -1)
        joint = TableVariable(FiniteSpace(w / np.sum(w)), vals, self.codomain)
        cov_sum = covariance_operator(joint)
        fs = form_sum(*(replace(covariance_operator(v), direction=TO_DUAL)
                        for v in (self, other)), self.codomain.dual())
        res = relative_error(cov_sum.canonical_matrix(), fs.operator.canonical_matrix())
        return IndependentSumReport(res, {"kind": "finite-product"})


@dataclass(frozen=True, eq=False)
class ExpPolyVariable(_Variable):
    """xi(w_n)_k = n^k / k! over the atoms of a rule space."""

    space: RuleSpace
    codomain: DualityPair

    def __post_init__(self):
        if not isinstance(self.space, RuleSpace):
            raise BackendMismatch("the exp-poly family needs a rule space")

    def _coordinate_sums(self) -> list[series.SumResult]:
        """E xi_k = sum_n mu_n n^k / k!, k = 1, ..., n, each at its best
        certified bound.  The rule mu_n n^k / k! holds 1/k! as its
        coefficient while both 1/k! and e^P, the peak of n^k mu_n / c, lie
        within e^(+-700); past that (1/k! from k = 171 on), log k! is
        subtracted in the exponent of every term instead."""
        rule = self.space.rule
        kfact = np.cumsum(np.log(np.arange(1, self.codomain.n + 1, dtype=float)))
        factorial, sums = 1, []
        for k in range(1, self.codomain.n + 1):
            factorial *= k
            # P: the largest alpha log n + n log ratio of a term of rule * n^k
            peak = -math.inf
            for t in rule.terms:
                a = t.alpha + k
                n = max(t.start, a / -math.log(t.ratio)) if t.ratio < 1 and a > 0 else t.start
                peak = max(peak, a * math.log(n) + n * math.log(t.ratio))
            if max(kfact[k - 1], peak) <= 700.0:
                ok, res = series.decide_summable(
                    rule * series.polynomial(float(k), coef=math.exp(-kfact[k - 1])))
            else:
                # log of the exact integer k!, good to 2 u log k!
                ok, res = series.decide_summable(rule * series.polynomial(float(k)),
                                                 -math.log(factorial))
            if not ok:
                raise SeriesDiverges("series diverges", res)
            sums.append(res)
        return sums

    def _expectation(self) -> Vector:
        return Vector(np.array([s.value for s in self._coordinate_sums()]),
                      self.codomain.backend)

    def _membership(self, f: Functional) -> MembershipCertificate:
        rule = self.space.rule
        if f.tail is None:
            # |f(xi(w_n))| <= (sum_k |f_k|/k!) n^K: ratio-test majorant
            nz = np.nonzero(np.abs(f.coords) > 0)[0]
            if nz.size == 0:
                return MembershipCertificate(True, {"kind": "finite"})
            K = int(nz[-1] + 1)
            kfact = np.cumsum(np.log(np.arange(1, f.n + 1, dtype=float)))
            C = float(np.sum(np.abs(f.coords[nz]) * np.exp(-kfact[nz])))
            majorant = rule * series.power_geometric(C * C, 2.0 * K, 1.0)
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
        c = complex(terms[0].coef).real
        # minorant: f(xi(w_n)) >= c (e^n - 1 - n)/n >= (c/2) e^n / n for n >= 2
        minorant = rule * series.Rule(
            (series.Term(c * c / 4.0, -2.0, math.exp(2.0), start=2),))
        # majorant: f(xi(w_n)) <= c (e^n - 1) <= c e^n (since k^beta <= 1)
        majorant = rule * series.geometric(math.exp(2.0), coef=c * c)
        if series.rule_convergent(majorant):
            _, cert = series.decide_summable(majorant)
            return MembershipCertificate(True, cert.certificate.as_dict())
        ok, cert = series.decide_summable(minorant)
        if not ok:
            return MembershipCertificate(False, cert.as_dict())
        raise Uncertifiable("majorant diverges but minorant converges: undecided")

    def _form(self, basis: list[Functional] | None):
        raise Uncertifiable("covariance operators for the uncentered exp-poly "
                            "family are outside scope; center a table variable")


@dataclass(frozen=True, eq=False)
class SignedBasisVariable(_Variable):
    """xi(w_n, +-) = +- s_n e_n over the atoms of a paired space, with
    the scale s_n given by the rule ``scale``."""

    space: PairedRuleSpace
    scale: series.Rule
    codomain: DualityPair

    def __post_init__(self):
        if not isinstance(self.space, PairedRuleSpace):
            raise BackendMismatch("signed-basis variables need a paired space")

    def _expectation(self) -> Vector:
        # the paired atoms cancel exactly
        return Vector(np.zeros(self.codomain.n, dtype=complex), self.codomain.backend)

    def _membership(self, f: Functional) -> MembershipCertificate:
        if f.tail is None:
            # finitely supported: finite sum
            return MembershipCertificate(True, {"kind": "finite"})
        rule = self.space.rule * self.scale.abs_square() * f.tail.abs_square()
        ok, cert = series.decide_summable(rule)
        return MembershipCertificate(ok, cert.as_dict() if not ok else
                                     cert.certificate.as_dict())

    def _form(self, basis: list[Functional] | None) -> DiagonalForm:
        return DiagonalForm(self.space.rule * self.scale.abs_square())

    def _independent_sum(self, other) -> IndependentSumReport:
        if not isinstance(other, SignedBasisVariable):
            return super()._independent_sum(other)
        fs = form_sum(*(replace(covariance_operator(v), direction=TO_DUAL)
                        for v in (self, other)), self.codomain.dual())
        # brute-force window over the product space: enumerate the signed
        # atom pairs ((n, sg1), (m, sg2)) and accumulate the second moment
        # of each retained coordinate, then compare with the summed rule
        # up to the certified weight tails beyond the window
        W = 12
        ns = np.arange(1, W + 1)
        nu, rho = np.real(self.space.rule(ns)), np.real(other.space.rule(ns))
        s, r = np.real(self.scale(ns)), np.real(other.scale(ns))
        # axes (i, n, m, sg1, sg2) of sg1 s_n [n == i] + sg2 r_m [m == i]
        sg, E = np.array([1.0, -1.0]), np.eye(W)
        val = ((E * s)[:, :, None, None, None] * sg[:, None] +
               (E * r)[:, None, :, None, None] * sg)
        w = 0.25 * np.outer(nu, rho)[:, :, None, None]
        brute = np.sum(w * val ** 2, axis=(1, 2, 3, 4))
        sum_rule = np.real(fs.operator.diagonal(ns))
        tail_w = series.tail_bound(self.space.rule, W) + series.tail_bound(
            other.space.rule, W)
        err = np.abs(brute - sum_rule)
        allowed = sum_rule * tail_w + 1e-10 * np.maximum(sum_rule, 1e-300)
        res = float(np.max(err / np.maximum(allowed, 1e-300)))
        return IndependentSumReport(res, {"kind": "diagonal-rules", "window": W,
                                          "weight_tail": tail_w})


#: a random variable of any kind
RandomVariable = TableVariable | ExpPolyVariable | SignedBasisVariable
table_variable, exp_poly_variable, signed_basis_variable = (
    TableVariable, ExpPolyVariable, SignedBasisVariable)


# ---------------------------------------------------------------------------
# the constructions, each a primitive of the variable's class


def weak_expectation(xi: RandomVariable) -> Vector:
    """Coordinatewise weighted sum: finite for a table variable, zero for
    a signed-basis one, and for the exp-poly family a certified series
    sum per coordinate at its best bound.  The functional criterion
    f(E xi) = E f(xi) is linear in f, and on each e_k both sides are that
    same sum."""
    return xi._expectation()


def in_second_moment_domain(xi: RandomVariable, f: Functional) -> bool:
    """Certified decision of  sum_n mu_n |f(xi(w_n))|^2 < infinity."""
    return second_moment_membership(xi, f).member


def second_moment_membership(xi: RandomVariable, f: Functional) -> MembershipCertificate:
    """BackendMismatch unless f is a functional on the codomain of xi."""
    xi.codomain.check(f)
    return xi._membership(f)


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


def covariance_form(xi: RandomVariable, basis: list[Functional] | None = None):
    """The second-moment form t(f, g) = E f(xi) conj(g(xi)).

    The caller centers xi first (subtract the weak expectation); the
    uncentered formula is computed as given.  Returns a form over the
    dual pair: dense gram on the supplied functional basis for finite
    spaces, where every functional has a finite second moment, and a
    diagonal weight rule for signed-basis variables.
    """
    return xi._form(basis)


def covariance_operator(xi: RandomVariable) -> Operator:
    """Representing operator of the covariance form, mapping X* to X.

    A dense form needs a certified positive lower bound on the coordinate
    basis; at gamma = 0 :func:`associated_operator` refuses it (the
    Hilbert-space fallback at lower bound zero is out of scope here).
    """
    A, _ = covariance_form(xi)._represent(xi.codomain.dual())
    return replace(A, direction=FROM_DUAL)


def centered(xi: RandomVariable) -> RandomVariable:
    """Subtract the weak expectation (table variables)."""
    return xi._centered()


def independent_sum(xi: RandomVariable, eta: RandomVariable) -> IndependentSumReport:
    """Covariance of the independent sum equals the form sum A (+) B.

    Independence is structural: the sum variable lives on the product of
    the factor spaces.  Finite spaces are enumerated, and the residual is
    the relative Frobenius error of the covariance against the form sum;
    signed-basis variables compare generator rules with certified tails,
    and the residual is the worst ratio of error to allowed error.
    """
    return xi._independent_sum(eta)
