"""Declarative scenario dispatch for the command line.

A scenario file is JSON: ``{"scenarios": [{"id": ..., "op": ...,
"seed": ..., "tolerances": {...}, ...operands...}]}``.  Operands are
inline per the wire schemas in :mod:`formcalc.reporting`; no operation
draws, so the optional integer ``seed`` is checked and otherwise unread.
:data:`OPERATIONS` maps each op to ``(claims, handler)``: the claim tags
its report carries, and a handler that takes the operands and returns
``(checks, details, certificates)``, each check a residual with its
tolerance.  :func:`judge` runs an entry's handler, splits its checks
into residuals and tolerances and lets the entry's ``tolerances``
override the handler's, for scenario files and the batteries of
:mod:`formcalc.suites` alike.  The one runner of
:mod:`formcalc.reporting` turns the judgement into a :class:`Report`;
mathematical violations come back as ``fail`` verdicts, uncertifiable
questions as ``uncertified``, and a raised report keeps its op's claims.
"""

from __future__ import annotations

import math

import numpy as np

from .covariance import (
    covariance_form, covariance_operator, exp_poly_variable, exponential_space,
    finite_space, independent_sum, paired_rule_space, rule_space,
    second_moment_membership, signed_basis_variable, table_variable,
    weak_expectation,
)
from .duality import (
    DENSE, DOMAIN_FINITE, ENDO, DiagonalOperator, Vector, adjoint, is_extension,
    norm, operator_from_matrix, pair as pairing,
)
from .elliptic import (
    EllipticProblem, assemble, dirichlet_vs_neumann, sobolev_lower_bound,
    uniform_mesh, weak_solve,
)
from .errors import BackendMismatch, Uncertifiable
from .forms import associated_operator, form_from_gram, inverse_selfadjoint, lower_bound, riesz_solve
from .formsum import (
    commutation_formsum, commuting_pair, form_sum, joint_factorize,
    lift_commutant, spectrum_inclusion,
)
from .friedrichs import core_check, friedrichs, idempotent, in_extension_domain
from .linalg import relative_error
from .ordering import antisymmetry_check, compare, factorize, form_on_X, hilbert_consistency
from .reporting import (
    MalformedOperand, Report, _run_check, array_from_json, complex_from_json,
    expression_from_json, functional_from_json, gram_csv_rows, json_choice,
    json_field, json_size, matrix_from_json, operator_from_json, pair_from_json,
    real_array_from_json, rule_from_json, vector_from_json,
)

RESERVED = {"id", "op", "seed", "tolerances", "expect"}


def _operands(sc: dict) -> dict:
    return {k: v for k, v in sc.items() if k not in RESERVED}


def _space_from_json(obj):
    kind = json_choice(obj, "kind", ("finite", "exponential", "rule", "paired-rule"),
                       "finite")
    if kind == "finite":
        return finite_space(real_array_from_json(json_field(obj, "weights", list)))
    if kind == "exponential":
        return exponential_space(json_field(obj, "beta", float))
    if kind == "rule":
        return rule_space(rule_from_json(obj["rule"]))
    return paired_rule_space(rule_from_json(obj["rule"]))


def _variable_from_json(obj, space, dp):
    kind = json_choice(obj, "kind", ("table", "exp-poly", "signed-basis"), "table")
    if kind == "table":
        values = [array_from_json(v) for v in json_field(obj, "values", list)]
        _in_space(dp, *(Vector(v, dp.backend) for v in values))
        return table_variable(space, values, dp)
    if kind == "exp-poly":
        return exp_poly_variable(space, dp)
    return signed_basis_variable(space, rule_from_json(obj["scale"]), dp)


def _problem_from_json(obj):
    length = json_field(obj, "length", float, 1.0)
    if not 0.0 < length < math.inf:
        raise MalformedOperand(f"'length' must be finite and positive, got {length!r}")
    return EllipticProblem(length,
                           expression_from_json(obj, "a"), expression_from_json(obj, "b"),
                           json_field(obj, "gamma", float), json_field(obj, "p", float, 2.0))


#: the most elements a mesh may have: the dense m x m operators of the
#: elliptic constructions take 256 MiB at 2^12 elements
MAX_ELEMENTS = 2 ** 12


def _mesh(ops, pb, *default):
    """The uniform mesh of ``ops["m"]`` elements (or ``default``) on
    [0, L]: from 2, the fewest a mesh has, to :data:`MAX_ELEMENTS`."""
    return uniform_mesh(json_size(ops, "m", 2, MAX_ELEMENTS, *default), pb.length)


def _form(ops, dp):
    """The form of ``gram`` over ``basis`` (default: the standard basis),
    which must lie in the space ``dp``."""
    G = matrix_from_json(ops["gram"])
    basis = matrix_from_json(ops["basis"]) if "basis" in ops else np.eye(
        G.shape[0], dtype=complex)
    t = form_from_gram(basis, G)
    _in_space(dp, t)
    return t


def _variable(ops):
    """The ``variable`` on the ``probability`` space, valued in ``space_pair``."""
    dp = pair_from_json(ops["space_pair"])
    space = _space_from_json(ops["probability"])
    return _variable_from_json(ops["variable"], space, dp)


def _in_space(dp, *operands):
    """Raise :class:`BackendMismatch` unless every vector, functional or
    operator lives on the backend of ``dp`` and, on the dense backend,
    has its ``dp.n`` coordinates."""
    for obj in operands:
        if obj.backend != dp.backend:
            raise BackendMismatch(f"{obj.backend} operand in a {dp.backend} space")
        if dp.backend == DENSE and obj.n != dp.n:
            raise BackendMismatch(f"operand of size {obj.n} in a space of "
                                  f"dimension {dp.n}")


def _expected(ops, key="expected_matrix", read=matrix_from_json):
    """The optional expected operand ``ops[key]`` as ``read`` reads it, or
    None.  A handler reads it before it constructs, so that a malformed
    one is malformed input even where the construction is refused."""
    return read(ops[key]) if key in ops else None


# --- handlers --------------------------------------------------------------
# each returns (checks, details, certificates), a check being
# {name: (residual, tolerance)}


def _op_pair(ops):
    want = _expected(ops, "expected", complex_from_json)
    dp = pair_from_json(ops["space"])
    v = functional_from_json(ops["v"])
    x = vector_from_json(ops["x"])
    _in_space(dp, v, x)
    got = pairing(v, x)
    checks = {} if want is None else {"pairing": (relative_error(got, want), 1e-12)}
    return checks, {"value": [got.real, got.imag]}, []


def _op_norm(ops):
    want = json_field(ops, "expected", float, None)
    got = norm(vector_from_json(ops["x"]), json_field(ops, "p", float))
    checks = {} if want is None else {"norm": (relative_error(got, want), 1e-12)}
    return checks, {"value": got}, []


def _op_adjoint_involution(ops):
    dp = pair_from_json(ops["space"])
    A = operator_from_json(ops["operator"])
    _in_space(dp, A)
    back = adjoint(adjoint(A))
    return {"involution": (relative_error(back.effective_matrix(),
                                          A.effective_matrix()), 1e-12)}, {}, []


def _op_is_extension(ops):
    want = json_field(ops, "expected", bool, True)
    S = operator_from_json(ops["S"])
    T = operator_from_json(ops["T"])
    got = is_extension(S, T)
    return {"verdict_mismatch": (0.0 if got == want else 1.0, 0.0)}, \
        {"is_extension": got}, []


def _op_lower_bound(ops):
    want = json_field(ops, "expected_gamma", float, None)
    dp = pair_from_json(ops["space"])
    cert = lower_bound(_form(ops, dp), dp)
    checks = {} if want is None else {"gamma": (abs(cert.gamma - want), 1e-10)}
    return checks, {"gamma": cert.gamma, "kind": cert.kind, "slack": cert.slack}, []


def _op_associated_operator(ops):
    want = _expected(ops)
    dp = pair_from_json(ops["space"])
    rep = associated_operator(_form(ops, dp), dp)
    checks = {"ab_identity": (rep.residuals["ab_identity"], 1e-10),
              "ba_identity": (rep.residuals["ba_identity"], 1e-10),
              "selfadjoint": (rep.residuals["selfadjoint"], 1e-12),
              "b_norm_excess": (rep.residuals["b_norm_excess"], 1e-8)}
    if want is not None:
        checks["matrix"] = (relative_error(rep.A.canonical_matrix(), want), 1e-10)
    return checks, {"gamma": rep.gamma, "b_norm": rep.b_norm}, []


def _op_riesz_solve(ops):
    want = _expected(ops, "expected", array_from_json)
    dp = pair_from_json(ops["space"])
    t, v = _form(ops, dp), functional_from_json(ops["v"])
    _in_space(dp, v)
    f = riesz_solve(t, v, dp)
    checks = {} if want is None else {"solution": (relative_error(f.coords, want), 1e-10)}
    return checks, {}, []


def _op_inverse_selfadjoint(ops):
    dp = pair_from_json(ops["space"])
    B = operator_from_json(ops["B"])
    _in_space(dp, B)
    A = inverse_selfadjoint(B)
    M = A.effective_matrix()
    res = float(np.linalg.norm(M @ B.canonical_matrix()
                               - A.effective_projector()))
    return {"composition": (res / max(float(np.linalg.norm(M)), 1.0), 1e-10)}, {}, []


def _op_friedrichs(ops):
    want_matrix, want_gamma = _expected(ops), json_field(ops, "expected_gamma", float, None)
    dp = pair_from_json(ops["space"])
    if ("A" in ops) == ("generator" in ops):
        raise MalformedOperand("give one of 'A' and 'generator'")
    a = (operator_from_json(ops["A"]) if "A" in ops else
         DiagonalOperator(rule_from_json(ops["generator"]), DOMAIN_FINITE))
    if want_matrix is not None and a.backend != DENSE:
        raise MalformedOperand("'expected_matrix' needs a dense 'A'")
    probes = [(json_field(p, "member", bool), vector_from_json(p["y"]))
              for p in json_field(ops, "domain_probes", list, [])]
    samples = [vector_from_json(s) for s in json_field(ops, "samples", list, [])]
    _in_space(dp, a, *samples, *(y for _, y in probes))
    res = friedrichs(a, dp)
    checks = {"extension": (0.0 if is_extension(a, res.extension) else 1.0, 0.0),
              "idempotent": (0.0 if idempotent(res, dp) else 1.0, 0.0)}
    if want_matrix is not None:
        checks["matrix"] = (relative_error(res.extension.canonical_matrix(), want_matrix),
                            1e-10)
    if want_gamma is not None:
        checks["gamma"] = (abs(res.gamma_preserved.gamma - want_gamma), 1e-10)
    if probes:
        mistakes = 0
        for member, y in probes:
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


def _op_factorize(ops):
    A = operator_from_json(ops["A"])
    res = factorize(A)
    return {"jjstar": (res.extension_residual, 1e-10),
            "rank_gap": (float(res.details["rank_gap"]), 0.0)}, {"rank": res.rank}, []


def _op_form_on_x(ops):
    want = ops.get("expected")
    if "expected" in ops and not (isinstance(want, str) and want in ("finite", "inf")):
        want = json_field(ops, "expected", float)
    fv = form_on_X(operator_from_json(ops["A"]), vector_from_json(ops["y"]))
    checks = {}
    if isinstance(want, str) or want is not None and math.isinf(want):
        holds = math.isfinite if want == "finite" else math.isinf
        checks["finite_mismatch"] = (0.0 if holds(fv.value) else 1.0, 0.0)
    elif want is not None:
        checks["value"] = (relative_error(fv.value, want), 1e-6)
    cert = [fv.certificate] if fv.certificate else []
    return checks, {"value": fv.value if math.isfinite(fv.value) else "inf",
                    "kind": fv.kind}, cert


def _op_compare(ops):
    want = json_choice(ops, "expected", ("A>=B", "B>=A", "equal", "incomparable"), None)
    A = operator_from_json(ops["A"])
    B = operator_from_json(ops["B"])
    samples = [vector_from_json(s) for s in json_field(ops, "samples", list, [])]
    rep = compare(A, B, samples)
    checks = {}
    if want is not None:
        checks["verdict_mismatch"] = (0.0 if rep.verdict == want else 1.0, 0.0)
    probes = [[r.label, r.value_a if math.isfinite(r.value_a) else "inf",
               r.value_b if math.isfinite(r.value_b) else "inf"]
              for r in rep.probes]
    return checks, {"verdict": rep.verdict, "probes": probes}, \
        rep.domain_inclusion["certificates"]


def _op_antisymmetry(ops):
    A = operator_from_json(ops["A"])
    B = operator_from_json(ops["B"])
    rep = compare(A, B, [])
    chk = antisymmetry_check(A, B, rep)
    return {"matrix": (chk.matrix_residual, 1e-10),
            "span": (chk.span_residual, 1e-10)}, {}, []


def _op_hilbert_consistency(ops):
    dp = pair_from_json(ops["space"])
    A = operator_from_json(ops["A"])
    samples = [vector_from_json(s) for s in json_field(ops, "samples", list)]
    _in_space(dp, A, *samples)
    rep = hilbert_consistency(A, samples, dp)
    return {"sqrt_identity": (rep.worst_residual, 1e-8)}, {"samples": rep.samples}, []


def _summands(ops):
    """The space, the summands A and B in it, and the expected matrix of
    a form-sum entry."""
    want = _expected(ops)
    dp = pair_from_json(ops["space"])
    A, B = operator_from_json(ops["A"]), operator_from_json(ops["B"])
    _in_space(dp, A, B)
    return dp, A, B, want


def _form_sum_checks(fs, want):
    """The checks and details of the form sum ``fs``: its extension of
    A + B and, given the expected matrix ``want``, its matrix."""
    checks = {"extension": (fs.extension_residual, 1e-10)}
    if want is not None:
        checks["matrix"] = (relative_error(fs.operator.canonical_matrix(), want), 1e-10)
    return checks, {"gamma": fs.gamma, "collapse_exact": fs.collapse_exact}


def _op_form_sum(ops):
    dp, A, B, want = _summands(ops)
    return *_form_sum_checks(form_sum(A, B, dp), want), []


def _op_joint_factorize(ops):
    dp, A, B, want = _summands(ops)
    jf = joint_factorize(A, B, dp)
    checks, details = _form_sum_checks(jf.formsum, want)
    checks.update(jstar=(jf.jstar_residual, 1e-10),
                  composition=(jf.composition_residual, 1e-9),
                  energy_identity=(jf.energy_residual, 1e-9))
    return checks, details, []


def _get_commutant(ops, dp):
    A = operator_from_json(ops["A"])
    _in_space(dp, A)
    if "K" in ops:
        E = commuting_pair(A.canonical_matrix(), matrix_from_json(ops["K"]))
    else:
        E = operator_from_matrix(matrix_from_json(ops["E"]), ENDO)
    _in_space(dp, E)
    return A, E


def _op_lift_commutant(ops):
    dp = pair_from_json(ops["space"])
    A, E = _get_commutant(ops, dp)
    lift = lift_commutant(A, E)
    return {"lemma4_excess": (max(0.0, lift.bound_margin - 1.0), 1e-8),
            "selfadjoint": (lift.selfadjoint_residual, 1e-10),
            "eq7": (lift.eq7_residual, 1e-9)}, \
        {"spectral_radius_sq": lift.spectral_radius_sq,
         "norm_bound": lift.norm_bound}, []


def _op_commutation_formsum(ops):
    dp = pair_from_json(ops["space"])
    A, E = _get_commutant(ops, dp)
    B = operator_from_json(ops["B"])
    _in_space(dp, B)
    rep = commutation_formsum(A, B, E, dp)
    return {"inclusion": (rep.formsum_inclusion, 1e-9),
            "e_star_j": (rep.factor_inclusions["E_star_J"], 1e-9),
            "j_star_e": (rep.factor_inclusions["J_star_E"], 1e-9)}, {}, []


def _op_spectrum_inclusion(ops):
    dp = pair_from_json(ops["space"])
    A, E = _get_commutant(ops, dp)
    rep = spectrum_inclusion(A, E)
    return {"imag": (rep.max_imag / rep.scale, 1e-9),
            "distance": (rep.max_distance / rep.scale, 1e-8),
            "resolvent": (rep.resolvent_residual, 1e-8)}, \
        {"lift_eigenvalues": sorted(rep.lift_eigenvalues.real.tolist())}, []


def _op_weak_expectation(ops):
    want = _expected(ops, "expected", array_from_json)
    e = weak_expectation(_variable(ops))
    checks = {} if want is None else {"expectation": (relative_error(e.coords, want), 1e-10)}
    return checks, {"coords_head": [[z.real, z.imag] for z in e.coords[:4]]}, []


def _op_second_moment(ops):
    want = json_field(ops, "expected", bool, True)
    xi, f = _variable(ops), functional_from_json(ops["functional"])
    _in_space(xi.codomain, f)
    cert = second_moment_membership(xi, f)
    return {"membership_mismatch": (0.0 if cert.member == want else 1.0, 0.0)}, \
        {"member": cert.member}, [cert.certificate]


def _op_covariance_form(ops):
    t = covariance_form(_variable(ops))
    details = ({"gram_dim": t.d,
                "csv": {"covariance-gram.csv": (["i", "j", "re", "im"],
                                                gram_csv_rows(t.gram))}}
               if t.backend == DENSE else
               {"diagonal_head": np.real(t.diagonal(np.arange(1, 5))).tolist()})
    # the margin of the form's positivity gate
    return {"psd": (t.negativity, 1e-12)}, details, []


def _op_covariance_operator(ops):
    want = _expected(ops)
    A = covariance_operator(_variable(ops))
    checks = {} if want is None else {"matrix": (relative_error(A.canonical_matrix(), want),
                                                 1e-10)}
    return checks, {"direction": A.direction}, []


def _op_independent_sum(ops):
    dp = pair_from_json(ops["space_pair"])
    sp1 = _space_from_json(ops["probability_xi"])
    sp2 = _space_from_json(ops["probability_eta"])
    xi = _variable_from_json(ops["xi"], sp1, dp)
    eta = _variable_from_json(ops["eta"], sp2, dp)
    rep = independent_sum(xi, eta)
    if rep.details["kind"] == "diagonal-rules":
        # the worst ratio of error to allowed error
        return {"window_error_ratio": (rep.residual, 1.0)}, rep.details, []
    return {"covariance_vs_formsum": (rep.residual, 1e-10)}, rep.details, []


def _op_elliptic_assemble(ops):
    want = _expected(ops, "expected_gram")
    boundary = json_choice(ops, "boundary", ("dirichlet", "neumann"), "dirichlet")
    pb = _problem_from_json(ops["problem"])
    t = assemble(pb, _mesh(ops, pb), boundary)
    checks = {"definite": (t.negativity, 1e-12)}
    if want is not None:
        checks["gram"] = (relative_error(t.gram, want), 1e-10)
    return checks, {"dim": t.d}, []


def _op_sobolev_lower_bound(ops):
    pb = _problem_from_json(ops["problem"])
    cert = sobolev_lower_bound(pb, _mesh(ops, pb, 32))
    return {}, {"constant": cert.gamma, "kind": cert.kind}, []


def _op_weak_solve(ops):
    pb = _problem_from_json(ops["problem"])
    mesh = _mesh(ops, pb)
    sol = weak_solve(pb, mesh, expression_from_json(ops, "g"))
    details = {"energy_norm": sol.energy_norm, "lp_norm": sol.lp_norm,
               "csv": {"solution.csv": (["x", "f_h"],
                                        [[float(x), float(v)] for x, v in
                                         zip(mesh.nodes, sol.nodal_values())])}}
    return {"galerkin": (sol.galerkin_residual, 1e-10)}, details, []


def _op_dirichlet_vs_neumann(ops):
    pb = _problem_from_json(ops["problem"])
    rep = dirichlet_vs_neumann(pb, _mesh(ops, pb))
    probes = [[r.label, r.value_a, r.value_b] for r in rep.probes]
    return {"ordering": (0.0 if rep.verdict == "A>=B" else 1.0, 0.0)}, \
        {"verdict": rep.verdict, "probes": probes}, []


OPERATIONS = {
    "pair": ((), _op_pair),
    "norm": ((), _op_norm),
    "adjoint-involution": ((), _op_adjoint_involution),
    "is-extension": ((), _op_is_extension),
    "lower-bound": (("Thm1",), _op_lower_bound),
    "associated-operator": (("Thm1",), _op_associated_operator),
    "riesz-solve": (("Thm1",), _op_riesz_solve),
    "inverse-selfadjoint": (("Lem1",), _op_inverse_selfadjoint),
    "friedrichs": (("Thm2",), _op_friedrichs),
    "factorize": (("Lem2",), _op_factorize),
    "form-on-x": (("Lem3",), _op_form_on_x),
    "compare": (("Def-Order",), _op_compare),
    "antisymmetry": (("Def-Order",), _op_antisymmetry),
    "hilbert-consistency": (("Lem2",), _op_hilbert_consistency),
    "form-sum": (("Thm4",), _op_form_sum),
    "joint-factorize": (("Thm4",), _op_joint_factorize),
    "lift-commutant": (("Eq7", "Lem4", "Lem5"), _op_lift_commutant),
    "commutation-formsum": (("Thm5",), _op_commutation_formsum),
    "spectrum-inclusion": (("Thm6",), _op_spectrum_inclusion),
    "weak-expectation": (("Thm7",), _op_weak_expectation),
    "second-moment": (("Thm7",), _op_second_moment),
    "covariance-form": (("Thm7",), _op_covariance_form),
    "covariance-operator": (("Thm7",), _op_covariance_operator),
    "independent-sum": (("Thm8",), _op_independent_sum),
    "elliptic-assemble": (("Elliptic",), _op_elliptic_assemble),
    "sobolev-lower-bound": (("Elliptic",), _op_sobolev_lower_bound),
    "weak-solve": (("Elliptic",), _op_weak_solve),
    "dirichlet-vs-neumann": (("Thm3", "Elliptic"), _op_dirichlet_vs_neumann),
}


class UnknownOperation(KeyError):
    pass


class MissingOperand(KeyError):
    pass


def judge(sc: dict):
    """``(residuals, tolerances, details, certificates)`` of the scenario
    object ``sc``: its op's handler on its operands, with
    ``sc["tolerances"]`` overriding the handler's tolerances."""
    checks, details, certs = OPERATIONS[sc["op"]][1](_operands(sc))
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
    except KeyError as exc:
        raise MissingOperand(f"scenario {sid!r} lacks operand {exc}") from exc
    except MalformedOperand as exc:
        raise MalformedOperand(f"scenario {sid!r} has a malformed operand: "
                               f"{exc}") from exc
