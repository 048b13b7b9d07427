"""Verification-grade calculus for positive forms and self-adjoint
operators on duality pairs.

The library realizes, at desk scale, the representing-operator
construction for positive forms with positive lower bound, the
Friedrichs extension, the auxiliary-space factorization A = JJ* with the
induced operator order, form sums with their joint factorization and
commutant lifts, covariance operators of vector-valued random variables,
and a 1D divergence-form application.  Two backends, each with its own
operator and form classes: exact dense matrix algebra on C^n
(:class:`DenseOperator`, :class:`SesquilinearForm`), and certified
truncations of sequence spaces driven by power-geometric tail
certificates (:class:`DiagonalOperator`, :class:`DiagonalForm`).
"""

from .duality import (
    DenseOperator, DiagonalOperator, DualityPair, Functional, Vector, adjoint,
    basis_functional, basis_vector, dense_pair, functional, generated_functional,
    generated_vector, identity_operator, is_extension, norm, operator_from_matrix,
    pair, restricted_operator, sequence_pair, vector,
)
from .errors import (
    BackendMismatch, DomainError, FormcalcError, LowerBoundError, NotEqual,
    NotNormalized, NotPositive, SeriesDiverges, Uncertifiable,
)
from .forms import (
    ClosednessWitness, DiagonalForm, LowerBoundCertificate, RepresentationResult,
    SesquilinearForm, associated_operator, form_from_gram, form_of_operator,
    inverse_selfadjoint, is_closed, lower_bound, riesz_solve,
)
from .friedrichs import FriedrichsResult, core_check, friedrichs, in_extension_domain
from .ordering import (
    FactorizationResult, FormValue, OrderingReport, antisymmetry_check,
    compare, factorize, form_on_X, hilbert_consistency, in_dom_Jstar,
)
from .formsum import (
    CommutantLift, FormSumResult, commutation_formsum, commuting_pair, form_sum,
    joint_factorize, lift_commutant, spectrum_inclusion,
)
from .covariance import (
    DiscreteProbabilitySpace, ExpPolyVariable, FiniteSpace, PairedRuleSpace,
    RandomVariable, RuleSpace, SecondMomentDomain, SignedBasisVariable, TableVariable,
    covariance_form, covariance_operator, exp_poly_variable, exponential_space,
    finite_space, in_second_moment_domain, independent_sum, paired_rule_space,
    rule_space, signed_basis_variable, table_variable, weak_expectation,
)
from .elliptic import (
    EllipticProblem, Mesh1D, WeakSolution, assemble, dirichlet_vs_neumann,
    problem, sobolev_lower_bound, uniform_mesh, weak_solve,
)
from .reporting import CLAIM_TAGS, Report
from .suites import run_suite
from . import series

__version__ = "0.1.0"
