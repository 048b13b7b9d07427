"""Declarative scenario dispatch for the command line.

A scenario file is JSON: ``{"scenarios": [{"id": ..., "op": ...,
"seed": ..., "tolerances": {...}, ...operands...}]}``, with operands in
the wire schemas of :mod:`formcalc.reporting`; no operation draws, so the
optional integer ``seed`` is checked and otherwise unread.  Each op
declares its operands once, as the parameters of its ``_op_`` function,
and :data:`OPERATIONS` maps it to ``(claims, handler)``: its report's
claim tags, and that function as :func:`_reads` makes it a handler of
the operand dict, which reads every operand before anything is built
from them and returns ``(checks, details, certificates)``, each check a
residual with its tolerance.  :func:`judge` refuses a key that no
operand of its op names, runs the handler and lets the entry's
``tolerances`` override the handler's, for scenario files and the
batteries of :mod:`formcalc.suites` alike.  The one runner of
:mod:`formcalc.reporting` turns the judgement into a :class:`Report`;
mathematical violations come back as ``fail`` verdicts, uncertifiable
questions as ``uncertified``, and a raised report keeps its op's claims.
"""

import math

import numpy as np

from .covariance import (
    covariance_form, covariance_operator, exp_poly_variable, exponential_space,
    finite_space, independent_sum, paired_rule_space, rule_space,
    second_moment_membership, signed_basis_variable, table_variable,
    weak_expectation,
)
from .duality import (
    DENSE, DOMAIN_FINITE, ENDO, DiagonalOperator, adjoint, is_extension, norm,
    operator_from_matrix, pair as pairing,
)
from .elliptic import (
    EllipticProblem, assemble, dirichlet_vs_neumann, sobolev_lower_bound,
    uniform_mesh, weak_solve,
)
from .errors import Uncertifiable
from .forms import associated_operator, form_from_gram, inverse_selfadjoint, lower_bound, riesz_solve
from .formsum import (
    commutation_formsum, commuting_pair, form_sum, joint_factorize,
    lift_commutant, spectrum_inclusion,
)
from .friedrichs import core_check, friedrichs, idempotent, in_extension_domain
from .linalg import relative_error
from .ordering import antisymmetry_check, compare, factorize, form_on_X, hilbert_consistency
from .reporting import (
    REFUSALS, MalformedOperand, MissingOperand, Report, _run_check, array_from_json,
    complex_from_json, expression_from_json, functional_from_json, gram_csv_rows, json_field,
    json_number, matrix_from_json, operator_from_json, pair_from_json, real_array_from_json,
    rule_from_json, vector_from_json,
)

#: the keys of an entry that are not operands
RESERVED = {"id", "op", "seed", "tolerances"}
#: the default of two operands of which an entry gives exactly one
ONE_OF = object()


class UnknownOperation(KeyError):
    pass


def _read(spec, ops, key):
    """``ops[key]`` of the kind ``spec`` of :func:`json_field`, a list of
    values each read by the one reader in the list ``spec``, or the value
    read by the reader ``spec``.  A reader is looked up by name, so that a
    wrapper bound in its place, such as a profiler's, runs."""
    if isinstance(spec, (type, tuple, range)):
        return json_field(ops, key, spec)
    if isinstance(spec, list):
        read = globals()[spec[0].__name__]
        return [read(v) for v in json_field(ops, key, list)]
    return globals()[spec.__name__](ops[key])


def _in_space(space, value) -> None:
    """``space.check`` of each operand with a backend in ``value``."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _in_space(space, v)
    elif hasattr(value, "backend"):
        space.check(value)


def _reads(fn):
    """``fn`` as the handler of an operand dict: each parameter is the
    operand of its name, read as its annotation declares (:func:`_read`),
    and optional if it has a default, which it gets when absent; an
    annotation made by ``_reads`` reads its own function's operands and
    passes what that returns.  Every operand is read, an absent required
    one raising :class:`MissingOperand`, before a reader's refusal
    (:data:`REFUSALS`) is raised; then each must lie in the ``space`` or
    ``space_pair``.  ``handler.operands`` maps each operand to
    ``"required"``, ``"one of"`` (default :data:`ONE_OF`) or ``"optional"``."""
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    defaults = dict(zip(names[::-1], (fn.__defaults__ or ())[::-1]))
    specs = fn.__annotations__
    operands = {}
    for name in names:
        operands.update(getattr(specs[name], "operands", None) or {
            name: "required" if name not in defaults else
            "one of" if defaults[name] is ONE_OF else "optional"})
    one_of = [name for name, need in operands.items() if need == "one of"]
    space = next((name for name in names if name in ("space", "space_pair")), None)

    def handler(ops):
        if one_of and sum(name in ops for name in one_of) != 1:
            raise MalformedOperand(f"give one of {' and '.join(map(repr, one_of))}")
        args, refused = {}, None
        for name in names:
            try:
                if hasattr(specs[name], "operands"):
                    args[name] = specs[name](ops)
                elif name in ops:
                    args[name] = _read(specs[name], ops, name)
                elif name not in defaults:
                    raise MissingOperand(name)
                else:
                    args[name] = None if defaults[name] is ONE_OF else defaults[name]
            except REFUSALS as exc:
                refused = refused or exc
        if refused is not None:
            raise refused
        if space is not None:
            _in_space(args[space], [value for name, value in args.items() if name != space])
        return fn(**args)

    handler.operands = operands
    return handler


def _space_from_json(obj):
    kind = json_field(obj, "kind", ("finite", "exponential", "rule", "paired-rule"), "finite")
    if kind == "finite":
        return finite_space(real_array_from_json(json_field(obj, "weights", list)))
    if kind == "exponential":
        return exponential_space(json_field(obj, "beta", float))
    if kind == "rule":
        return rule_space(rule_from_json(json_field(obj, "rule", object)))
    return paired_rule_space(rule_from_json(json_field(obj, "rule", object)))


def _variable_from_json(obj):
    """The variable ``obj`` as a function of its probability space and space pair."""
    kind = json_field(obj, "kind", ("table", "exp-poly", "signed-basis"), "table")
    if kind == "table":
        # one matrix, a row per atom, read as the file's decoder reads it
        values = matrix_from_json(json_field(obj, "values", list))
        return lambda space, dp: table_variable(space, values, dp)
    if kind == "exp-poly":
        return exp_poly_variable
    scale = rule_from_json(json_field(obj, "scale", object))
    return lambda space, dp: signed_basis_variable(space, scale, dp)


def _problem_from_json(obj):
    return EllipticProblem(json_number(obj, "length", 1.0, 0.0, must="be finite and positive"),
                           expression_from_json(json_field(obj, "a", str)),
                           expression_from_json(json_field(obj, "b", str)),
                           json_field(obj, "gamma", float), json_field(obj, "p", float, 2.0))


def _generator(obj):
    """The diagonal operator of the rule ``obj`` on finitely supported vectors."""
    return DiagonalOperator(rule_from_json(obj), DOMAIN_FINITE)


def _endomorphism(rows):
    return operator_from_matrix(matrix_from_json(rows), ENDO)


def _probe(obj):
    """A domain probe: whether ``y`` is a ``member``, and ``y``."""
    return json_field(obj, "member", bool), vector_from_json(json_field(obj, "y", object))


def _form_value(v):
    """The expected value of a form: a number, or ``"finite"`` or ``"inf"``."""
    if isinstance(v, str) and v in ("finite", "inf") or type(v) in (int, float):
        return v
    raise MalformedOperand("'expected' must be a number, 'finite' or 'inf'")


@_reads
def _form(gram: matrix_from_json, basis: matrix_from_json = None):
    """The form of ``gram`` over ``basis`` (default: the standard basis)."""
    return form_from_gram(np.eye(len(gram), dtype=complex) if basis is None else basis, gram)


@_reads
def _variable(space_pair: pair_from_json, probability: _space_from_json,
              variable: _variable_from_json):
    """The ``variable`` on the ``probability`` space, valued in ``space_pair``."""
    return variable(probability, space_pair)


#: the elements of a mesh: from 2, the fewest a mesh has, to 2^12, where
#: the dense m x m operators of the elliptic constructions take 256 MiB
MESH_SIZES = range(2, 2 ** 12 + 1)


# --- handlers --------------------------------------------------------------


def _op_pair(space: pair_from_json, v: functional_from_json, x: vector_from_json,
             expected: complex_from_json = None):
    got = pairing(v, x)
    checks = {} if expected is None else {"pairing": (relative_error(got, expected), 1e-12)}
    return checks, {"value": [got.real, got.imag]}, []


def _op_norm(x: vector_from_json, p: float, expected: float = None):
    got = norm(x, p)
    checks = {} if expected is None else {"norm": (relative_error(got, expected), 1e-12)}
    return checks, {"value": got}, []


def _op_adjoint_involution(space: pair_from_json, operator: operator_from_json):
    back = adjoint(adjoint(operator))
    return {"involution": (relative_error(back.effective_matrix(),
                                          operator.effective_matrix()), 1e-12)}, {}, []


def _op_is_extension(S: operator_from_json, T: operator_from_json, expected: bool = True):
    got = is_extension(S, T)
    return {"verdict_mismatch": (0.0 if got == expected else 1.0, 0.0)}, \
        {"is_extension": got}, []


def _op_lower_bound(space: pair_from_json, gram: _form, expected_gamma: float = None):
    cert = lower_bound(gram, space)
    checks = {} if expected_gamma is None else {
        "gamma": (abs(cert.gamma - expected_gamma), 1e-10)}
    return checks, {"gamma": cert.gamma, "kind": cert.kind, "slack": cert.slack}, []


def _op_associated_operator(space: pair_from_json, gram: _form,
                            expected_matrix: matrix_from_json = None):
    rep = associated_operator(gram, space)
    checks = {name: (rep.residuals[name], tol) for name, tol in (
        ("ab_identity", 1e-10), ("ba_identity", 1e-10), ("selfadjoint", 1e-12),
        ("b_norm_excess", 1e-8))}
    if expected_matrix is not None:
        checks["matrix"] = (relative_error(rep.A.canonical_matrix(), expected_matrix), 1e-10)
    return checks, {"gamma": rep.gamma, "b_norm": rep.b_norm}, []


def _op_riesz_solve(space: pair_from_json, gram: _form, v: functional_from_json,
                    expected: array_from_json = None):
    f = riesz_solve(gram, v, space)
    checks = {} if expected is None else {"solution": (relative_error(f.coords, expected),
                                                       1e-10)}
    return checks, {}, []


def _op_inverse_selfadjoint(space: pair_from_json, B: operator_from_json):
    A = inverse_selfadjoint(B)
    M = A.effective_matrix()
    res = float(np.linalg.norm(M @ B.canonical_matrix() - A.effective_projector()))
    return {"composition": (res / max(float(np.linalg.norm(M)), 1.0), 1e-10)}, {}, []


def _op_friedrichs(space: pair_from_json, A: operator_from_json = ONE_OF,
                   generator: _generator = ONE_OF, expected_matrix: matrix_from_json = None,
                   expected_gamma: float = None, domain_probes: [_probe] = (),
                   samples: [vector_from_json] = ()):
    a = A if generator is None else generator
    if expected_matrix is not None and a.backend != DENSE:
        raise MalformedOperand("'expected_matrix' needs a dense 'A'")
    res = friedrichs(a, space)
    checks = {"extension": (0.0 if is_extension(a, res.extension) else 1.0, 0.0),
              "idempotent": (0.0 if idempotent(res, space) else 1.0, 0.0)}
    if expected_matrix is not None:
        checks["matrix"] = (relative_error(res.extension.canonical_matrix(),
                                           expected_matrix), 1e-10)
    if expected_gamma is not None:
        checks["gamma"] = (abs(res.gamma_preserved.gamma - expected_gamma), 1e-10)
    if domain_probes:
        mistakes = 0
        for member, y in domain_probes:
            try:
                mistakes += in_extension_domain(res, y) != member
            except Uncertifiable:
                mistakes += 1
        checks["membership_mistakes"] = (float(mistakes), 0.0)
    certs = []
    if samples:
        rep = core_check(res, samples)
        checks["core_tail"] = (max(w.tail for w in rep.witnesses), 1e-6)
        certs = [{"witness_truncations": [w.truncation for w in rep.witnesses]}]
    return checks, {"gamma": res.gamma_preserved.gamma}, certs


def _op_factorize(A: operator_from_json):
    res = factorize(A)
    return {"jjstar": (res.extension_residual, 1e-10),
            "rank_gap": (float(res.details["rank_gap"]), 0.0)}, {"rank": res.rank}, []


def _op_form_on_x(A: operator_from_json, y: vector_from_json, expected: _form_value = None):
    fv = form_on_X(A, y)
    checks = {}
    if isinstance(expected, str) or expected is not None and math.isinf(expected):
        holds = math.isfinite if expected == "finite" else math.isinf
        checks["finite_mismatch"] = (0.0 if holds(fv.value) else 1.0, 0.0)
    elif expected is not None:
        checks["value"] = (relative_error(fv.value, expected), 1e-6)
    cert = [fv.certificate] if fv.certificate else []
    return checks, {"value": fv.value if math.isfinite(fv.value) else "inf",
                    "kind": fv.kind}, cert


def _op_compare(A: operator_from_json, B: operator_from_json,
                samples: [vector_from_json] = (),
                expected: ("A>=B", "B>=A", "equal", "incomparable") = None):
    rep = compare(A, B, samples)
    checks = {}
    if expected is not None:
        checks["verdict_mismatch"] = (0.0 if rep.verdict == expected else 1.0, 0.0)
    probes = [[r.label, r.value_a if math.isfinite(r.value_a) else "inf",
               r.value_b if math.isfinite(r.value_b) else "inf"]
              for r in rep.probes]
    return checks, {"verdict": rep.verdict, "probes": probes}, \
        rep.domain_inclusion["certificates"]


def _op_antisymmetry(A: operator_from_json, B: operator_from_json):
    rep = compare(A, B, [])
    chk = antisymmetry_check(A, B, rep)
    return {"matrix": (chk.matrix_residual, 1e-10),
            "span": (chk.span_residual, 1e-10)}, {}, []


def _op_hilbert_consistency(space: pair_from_json, A: operator_from_json,
                            samples: [vector_from_json]):
    rep = hilbert_consistency(A, samples, space)
    return {"sqrt_identity": (rep.worst_residual, 1e-8)}, {"samples": rep.samples}, []


def _form_sum_checks(fs, want):
    """The checks and details of the form sum ``fs``: its extension of
    A + B and, given the expected matrix ``want``, its matrix."""
    checks = {"extension": (fs.extension_residual, 1e-10)}
    if want is not None:
        checks["matrix"] = (relative_error(fs.operator.canonical_matrix(), want), 1e-10)
    return checks, {"gamma": fs.gamma, "collapse_exact": fs.collapse_exact}


def _op_form_sum(space: pair_from_json, A: operator_from_json, B: operator_from_json,
                 expected_matrix: matrix_from_json = None):
    return *_form_sum_checks(form_sum(A, B, space), expected_matrix), []


def _op_joint_factorize(space: pair_from_json, A: operator_from_json,
                        B: operator_from_json, expected_matrix: matrix_from_json = None):
    jf = joint_factorize(A, B, space)
    checks, details = _form_sum_checks(jf.formsum, expected_matrix)
    checks.update(jstar=(jf.jstar_residual, 1e-10),
                  composition=(jf.composition_residual, 1e-9),
                  energy_identity=(jf.energy_residual, 1e-9))
    return checks, details, []


def _commutant(A, K, E):
    """``E``, or the commutant A^-1 K of A built from the Hermitian ``K``."""
    return E if K is None else commuting_pair(A.canonical_matrix(), K)


def _op_lift_commutant(space: pair_from_json, A: operator_from_json,
                       K: matrix_from_json = ONE_OF, E: _endomorphism = ONE_OF):
    lift = lift_commutant(A, _commutant(A, K, E))
    return {"lemma4_excess": (max(0.0, lift.bound_margin - 1.0), 1e-8),
            "selfadjoint": (lift.selfadjoint_residual, 1e-10),
            "eq7": (lift.eq7_residual, 1e-9)}, \
        {"spectral_radius_sq": lift.spectral_radius_sq,
         "norm_bound": lift.norm_bound}, []


def _op_commutation_formsum(space: pair_from_json, A: operator_from_json,
                            B: operator_from_json, K: matrix_from_json = ONE_OF,
                            E: _endomorphism = ONE_OF):
    rep = commutation_formsum(A, B, _commutant(A, K, E), space)
    return {"inclusion": (rep.formsum_inclusion, 1e-9),
            "e_star_j": (rep.factor_inclusions["E_star_J"], 1e-9),
            "j_star_e": (rep.factor_inclusions["J_star_E"], 1e-9)}, {}, []


def _op_spectrum_inclusion(space: pair_from_json, A: operator_from_json,
                           K: matrix_from_json = ONE_OF, E: _endomorphism = ONE_OF):
    rep = spectrum_inclusion(A, _commutant(A, K, E))
    return {"imag": (rep.max_imag / rep.scale, 1e-9),
            "distance": (rep.max_distance / rep.scale, 1e-8),
            "resolvent": (rep.resolvent_residual, 1e-8)}, \
        {"lift_eigenvalues": sorted(rep.lift_eigenvalues.real.tolist())}, []


def _op_weak_expectation(variable: _variable, expected: array_from_json = None):
    e = weak_expectation(variable)
    checks = {} if expected is None else {"expectation": (relative_error(e.coords, expected),
                                                          1e-10)}
    return checks, {"coords_head": [[z.real, z.imag] for z in e.coords[:4]]}, []


def _op_second_moment(variable: _variable, functional: functional_from_json,
                      expected: bool = True):
    cert = second_moment_membership(variable, functional)
    return {"membership_mismatch": (0.0 if cert.member == expected else 1.0, 0.0)}, \
        {"member": cert.member}, [cert.certificate]


def _op_covariance_form(variable: _variable):
    t = covariance_form(variable)
    details = ({"gram_dim": t.d,
                "csv": {"covariance-gram.csv": (["i", "j", "re", "im"],
                                                gram_csv_rows(t.gram))}}
               if t.backend == DENSE else
               {"diagonal_head": np.real(t.diagonal(np.arange(1, 5))).tolist()})
    # the margin of the form's positivity gate
    return {"psd": (t.negativity, 1e-12)}, details, []


def _op_covariance_operator(variable: _variable, expected_matrix: matrix_from_json = None):
    A = covariance_operator(variable)
    checks = {} if expected_matrix is None else {
        "matrix": (relative_error(A.canonical_matrix(), expected_matrix), 1e-10)}
    return checks, {"direction": A.direction}, []


def _op_independent_sum(space_pair: pair_from_json, probability_xi: _space_from_json,
                        probability_eta: _space_from_json, xi: _variable_from_json,
                        eta: _variable_from_json):
    rep = independent_sum(xi(probability_xi, space_pair), eta(probability_eta, space_pair))
    if rep.details["kind"] == "diagonal-rules":
        # the worst ratio of error to allowed error
        return {"window_error_ratio": (rep.residual, 1.0)}, rep.details, []
    return {"covariance_vs_formsum": (rep.residual, 1e-10)}, rep.details, []


def _op_elliptic_assemble(problem: _problem_from_json, m: MESH_SIZES,
                          boundary: ("dirichlet", "neumann") = "dirichlet",
                          expected_gram: matrix_from_json = None):
    t = assemble(problem, uniform_mesh(m, problem.length), boundary)
    checks = {"definite": (t.negativity, 1e-12)}
    if expected_gram is not None:
        checks["gram"] = (relative_error(t.gram, expected_gram), 1e-10)
    return checks, {"dim": t.d}, []


def _op_sobolev_lower_bound(problem: _problem_from_json, m: MESH_SIZES = 32):
    cert = sobolev_lower_bound(problem, uniform_mesh(m, problem.length))
    return {}, {"constant": cert.gamma, "kind": cert.kind}, []


def _op_weak_solve(problem: _problem_from_json, m: MESH_SIZES, g: expression_from_json):
    mesh = uniform_mesh(m, problem.length)
    sol = weak_solve(problem, mesh, g)
    details = {"energy_norm": sol.energy_norm, "lp_norm": sol.lp_norm,
               "csv": {"solution.csv": (["x", "f_h"],
                                        [[float(x), float(v)] for x, v in
                                         zip(mesh.nodes, sol.nodal_values())])}}
    return {"galerkin": (sol.galerkin_residual, 1e-10)}, details, []


def _op_dirichlet_vs_neumann(problem: _problem_from_json, m: MESH_SIZES):
    rep = dirichlet_vs_neumann(problem, uniform_mesh(m, problem.length))
    probes = [[r.label, r.value_a, r.value_b] for r in rep.probes]
    return {"ordering": (0.0 if rep.verdict == "A>=B" else 1.0, 0.0)}, \
        {"verdict": rep.verdict, "probes": probes}, []


OPERATIONS = {
    "pair": ((), _reads(_op_pair)),
    "norm": ((), _reads(_op_norm)),
    "adjoint-involution": ((), _reads(_op_adjoint_involution)),
    "is-extension": ((), _reads(_op_is_extension)),
    "lower-bound": (("Thm1",), _reads(_op_lower_bound)),
    "associated-operator": (("Thm1",), _reads(_op_associated_operator)),
    "riesz-solve": (("Thm1",), _reads(_op_riesz_solve)),
    "inverse-selfadjoint": (("Lem1",), _reads(_op_inverse_selfadjoint)),
    "friedrichs": (("Thm2",), _reads(_op_friedrichs)),
    "factorize": (("Lem2",), _reads(_op_factorize)),
    "form-on-x": (("Lem3",), _reads(_op_form_on_x)),
    "compare": (("Def-Order",), _reads(_op_compare)),
    "antisymmetry": (("Def-Order",), _reads(_op_antisymmetry)),
    "hilbert-consistency": (("Lem2",), _reads(_op_hilbert_consistency)),
    "form-sum": (("Thm4",), _reads(_op_form_sum)),
    "joint-factorize": (("Thm4",), _reads(_op_joint_factorize)),
    "lift-commutant": (("Eq7", "Lem4", "Lem5"), _reads(_op_lift_commutant)),
    "commutation-formsum": (("Thm5",), _reads(_op_commutation_formsum)),
    "spectrum-inclusion": (("Thm6",), _reads(_op_spectrum_inclusion)),
    "weak-expectation": (("Thm7",), _reads(_op_weak_expectation)),
    "second-moment": (("Thm7",), _reads(_op_second_moment)),
    "covariance-form": (("Thm7",), _reads(_op_covariance_form)),
    "covariance-operator": (("Thm7",), _reads(_op_covariance_operator)),
    "independent-sum": (("Thm8",), _reads(_op_independent_sum)),
    "elliptic-assemble": (("Elliptic",), _reads(_op_elliptic_assemble)),
    "sobolev-lower-bound": (("Elliptic",), _reads(_op_sobolev_lower_bound)),
    "weak-solve": (("Elliptic",), _reads(_op_weak_solve)),
    "dirichlet-vs-neumann": (("Thm3", "Elliptic"), _reads(_op_dirichlet_vs_neumann)),
}


def judge(sc: dict):
    """``(residuals, tolerances, details, certificates)`` of the scenario
    object ``sc``: its op's handler on its operands, with
    ``sc["tolerances"]`` overriding the handler's tolerances.  A key not
    in the handler's ``operands``, where it has them, is malformed input."""
    handler = OPERATIONS[sc["op"]][1]
    ops = {k: v for k, v in sc.items() if k not in RESERVED}
    declared = getattr(handler, "operands", ops)
    for key in ops:
        if key not in declared:
            raise MalformedOperand(f"{key!r} is not an operand of {sc['op']}, which takes "
                                   f"{', '.join(declared)}")
    checks, details, certs = handler(ops)
    residuals = {name: value for name, (value, _) in checks.items()}
    tols = {name: tol for name, (_, tol) in checks.items()}
    tols.update(sc.get("tolerances", {}))
    return residuals, tols, details, certs


def run_scenario(sc: dict) -> Report:
    op = sc.get("op")
    if op not in OPERATIONS:
        raise UnknownOperation(f"unknown operation {op!r}")
    sid = str(sc.get("id", op))
    try:
        return _run_check(sid, OPERATIONS[op][0], lambda: judge(sc))
    except MissingOperand as exc:
        raise MissingOperand(f"scenario {sid!r} lacks operand {exc}") from exc
    except MalformedOperand as exc:
        raise MalformedOperand(f"scenario {sid!r} has a malformed operand: {exc}") from exc
