"""Seeded verification batteries, one per module, with negative controls.

Each battery collects its module's invariant and property checks as
``(name, claims, fn)`` and runs them in order through the one runner of
:mod:`formcalc.reporting`, which returns :class:`Report` objects tagged
with claim identifiers.  A check is a control (``control=True``) exactly
when its name starts with ``control-``: one scenario object per battery
that must raise the error it names (:func:`_refusal`).  Every other
check is a seeded generator of scenario objects, the shape of a
scenario-file entry with its operands in the wire layout, each judged by
:func:`formcalc.scenarios.judge` and reported as the worst residual of
each name (:func:`_worst`); ``thm1-offdiagonal-example`` is one entry,
judged alone so that its handler's details stay.  Six checks are
hand-written, each for what no handler gives:

- ``closedness-sequential``: it expects a refusal inside a claim check;
- ``thm7-second-moment-example``: the harmonic functional's certificate;
- ``thm7-closedness``: no op exists for ``is_closed``;
- ``elliptic-poincare``, ``elliptic-convergence`` and
  ``elliptic-lower-bounds``: ``lambda_h``, the convergence table and
  ``c_p2`` and ``c_p4``.

A check's CSV tables travel in its details under ``csv``, by file name,
as a handler's do; :func:`run_suite` collects them (``convergence.csv``).
Everything is deterministic given the seed; summaries therefore omit
wall times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series
from .covariance import (
    SecondMomentDomain, covariance_form, exp_poly_variable, exponential_space,
    paired_rule_space, second_moment_membership, signed_basis_variable,
    weak_expectation,
)
from .duality import (
    FROM_DUAL, TO_DUAL, Vector, generated_functional, generated_vector,
    operator_from_matrix, sequence_pair,
)
from .elliptic import (
    convergence_table, discrete_poincare, problem, sobolev_lower_bound, uniform_mesh,
)
from .errors import (DomainError, FormcalcError, LowerBoundError, NotEqual,
                     NotNormalized, NotPositive)
from .forms import DiagonalForm, is_closed
from .ordering import form_oracle_eigensolve
from .reporting import CLAIM_TAGS, REFUSALS, Report, _run_check, _verdict_counts, rule_from_json
from .scenarios import judge


@dataclass(frozen=True, eq=False)
class SuiteResult:
    name: str
    seed: int
    reports: tuple[Report, ...]
    artifacts: dict = field(default_factory=dict)   # name -> (header, rows)

    @property
    def ok(self) -> bool:
        return all(r.as_expected for r in self.reports)

    def coverage(self) -> dict:
        cov = {tag: 0 for tag in CLAIM_TAGS}
        for r in self.reports:
            if r.passed and not r.control:
                for tag in r.claims:
                    if tag in cov:
                        cov[tag] += 1
        return cov

    def summary_dict(self, reports: bool = True) -> dict:
        """Deterministic summary: no wall times.  ``reports=False`` leaves
        out the report list, for a writer that streams it."""
        out = {"suite": self.name, "seed": self.seed}
        if reports:
            out["reports"] = [r.as_dict(with_time=False) for r in self.reports]
        return {**out, "coverage": self.coverage(),
                "counts": {**_verdict_counts(self.reports),
                           "controls": sum(r.control for r in self.reports)},
                "ok": self.ok}


def _run_checks(checks) -> list[Report]:
    """Run ``(name, claims, fn)`` checks in order through the one runner."""
    return [_run_check(name, claims, fn, name.startswith("control-"))
            for name, claims, fn in checks]


def _random_hpd(rng, n):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return W @ W.conj().T + 0.5 * np.eye(n)


def _random_psd(rng, n, force_kernel=False):
    d = n - int(rng.integers(1, n)) if force_kernel and n > 1 else n
    W = rng.normal(size=(n, max(d, 1))) + 1j * rng.normal(size=(n, max(d, 1)))
    return W @ W.conj().T


def _sizes(rng, lo, hi, count):
    """``count`` sizes in [lo, hi), each drawn just before its instance."""
    for _ in range(count):
        yield int(rng.integers(lo, hi))


def _wire(M):
    """A complex array in the wire's [re, im] layout: the bits of
    ``np.stack((M.real, M.imag), axis=-1)``, viewed without a copy."""
    return np.ascontiguousarray(M, dtype=complex)[..., None].view(float)


def _space(n):
    return {"backend": "dense", "dim": n}


def _operator(M, direction=TO_DUAL):
    """The operand of M acting on the standard basis, whose real entries
    travel as plain numbers."""
    return {"backend": "dense", "direction": direction,
            "domain_basis": np.eye(M.shape[0]), "action": _wire(M)}


def _sequence(n):
    return {"backend": "sequence", "truncation": n}


def _geometric(ratio, coef):
    """The wire rule of ``coef * ratio**n``."""
    return {"terms": [{"coef": coef, "ratio": ratio}]}


def _power(alpha):
    """The wire rule of ``n**alpha``."""
    return {"terms": [{"coef": 1.0, "alpha": alpha}]}


def _generated(rule, n):
    """The wire vector that the wire rule ``rule`` generates on the
    sequence truncation ``n``: its first n values, and the rule as its
    tail."""
    return {"backend": "sequence", "tail": {"kind": "rule", **rule},
            "coords": _wire(rule_from_json(rule)(np.arange(1, n + 1)))}


def _worst(scenarios, details):
    """Judge each scenario object by :func:`~formcalc.scenarios.judge`:
    the largest residual of each name (from 0.0) under the judged
    tolerances, with the battery's own ``details``.  Two tolerances for
    one residual name raise ValueError."""
    worst, tols = {}, {}
    for sc in scenarios:
        residuals, tolerances, _, _ = judge(sc)
        for name, value in residuals.items():
            worst[name] = max(worst.get(name, 0.0), value)
        for name, tol in tolerances.items():
            if tols.setdefault(name, tol) != tol:
                raise ValueError(f"residual {name!r} has tolerances "
                                 f"{tols[name]} and {tol}")
    return worst, tols, details, []


def _refusal(sc, error):
    """A control: judging the scenario object ``sc`` must raise ``error``,
    which the runner reports as ``fail``.  Any other library error, or
    none, is named in the details of a report that passes."""
    def check():
        try:
            judge(sc)
            got = "nothing"
        except error:
            raise
        except REFUSALS as exc:
            got = f"{type(exc).__name__}: {exc}"
        return {}, {}, {"expected": error.__name__, "raised": got}, []
    return check


# ---------------------------------------------------------------------------


def representation_suite(seed: int) -> list[Report]:
    rng = np.random.default_rng(seed)

    def inverses():
        return _worst(({"op": "associated-operator", "space": _space(n),
                        "gram": _wire(_random_hpd(rng, n))}
                       for n in _sizes(rng, 1, 13, 200)), {"instances": 200})

    def lem1():
        return _worst(({"op": "inverse-selfadjoint", "space": _space(n),
                        "B": _operator(np.linalg.inv(_random_hpd(rng, n)), FROM_DUAL)}
                       for n in _sizes(rng, 1, 9, 50)), {"instances": 50})

    # the gram [[2, i], [-i, 2]] represents [[2, -i], [i, 2]], of
    # eigenvalues 1 and 3: gamma 1 and ||B|| 1
    worked = {"op": "associated-operator", "space": _space(2),
              "gram": _wire(np.array([[2.0, 1j], [-1j, 2.0]])),
              "expected_matrix": _wire(np.array([[2.0, -1j], [1j, 2.0]]))}

    return _run_checks([
        ("thm1-random-inverses", ["Thm1"], inverses),
        ("lem1-bounded-inverse", ["Lem1"], lem1),
        ("thm1-offdiagonal-example", ["Thm1"], lambda: judge(worked)),
        ("control-indefinite-form", ["Thm1"], _refusal(
            {"op": "associated-operator", "space": _space(2),
             "gram": _wire(np.diag([1.0, -1.0]))}, NotPositive)),
    ])


def friedrichs_suite(seed: int) -> list[Report]:
    rng = np.random.default_rng(seed)
    # 20 probes per generator, in the domain iff the graph series
    # converges: the p-series oracle for n^2, the ratio test otherwise
    square = [(_power(-s), (4.0 - 2.0 * s) < -1.0)
              for s in (2.05 + 0.1 * k for k in range(20))]

    def geometric(ratio, in_decay):
        return [(_geometric(r, 1.0), (ratio * r) ** 2 < 1.0)
                for r in (in_decay * (0.5 + 0.04 * k) for k in range(20))]

    def thm2(name, rule, gamma, probes):
        sc = {"op": "friedrichs", "space": _sequence(64), "generator": rule,
              "expected_gamma": gamma,
              "domain_probes": [{"y": _generated(p, 64), "member": member}
                                for p, member in probes],
              "samples": [_generated(_geometric(0.5, 1.0), 64)]}
        top = float(rule_from_json(rule)(np.arange(1, 65)).real[-1])
        return (f"thm2-{name}", ["Thm2"],
                lambda: _worst([sc], {"generator": name, "max_diag_64": top}))

    def dense_case():
        # a self-adjoint operator is its own Friedrichs extension
        def scenarios():
            for n in _sizes(rng, 1, 8, 20):
                M = _random_hpd(rng, n)
                yield {"op": "friedrichs", "space": _space(n), "A": _operator(M),
                       "expected_matrix": _wire(M)}
        return _worst(scenarios(), {"instances": 20})

    return _run_checks([
        thm2("square", _power(2.0), 1.0, square),
        thm2("exponential", _geometric(math.e, 1.0), math.e, geometric(math.e, 1.0)),
        thm2("geometric-2", _geometric(2.0, 1.0), 2.0, geometric(2.0, 0.5)),
        ("thm2-dense-fixed-point", ["Thm2"], dense_case),
        ("control-decaying-generator", ["Thm2"], _refusal(
            {"op": "friedrichs", "space": _sequence(64),
             "generator": _geometric(0.5, 1.0)}, LowerBoundError)),
    ])


def ordering_suite(seed: int) -> list[Report]:
    rng = np.random.default_rng(seed)

    def lem2():
        return _worst(({"op": "factorize", "A": _operator(
                            _random_psd(rng, n, force_kernel=(k % 3 == 0)))}
                       for k, n in enumerate(_sizes(rng, 1, 9, 200))),
                      {"instances": 200})

    def remark():
        return _worst(({"op": "hilbert-consistency", "space": _space(n),
                        "A": _operator(_random_psd(rng, n)),
                        "samples": [{"coords": _wire(rng.normal(size=n) +
                                                     1j * rng.normal(size=n))}]}
                       for n in _sizes(rng, 1, 8, 100)), {"samples": 100})

    def lem3():
        # the sup form against the eigensolve oracle, then a = n^2 on n^s,
        # whose form sum n^2 n^(2s) is finite iff 2 + 2s < -1
        def scenarios():
            for n in _sizes(rng, 1, 8, 100):
                M = _random_psd(rng, n)
                y = rng.normal(size=n) + 1j * rng.normal(size=n)
                yield {"op": "form-on-x", "A": _operator(M), "y": {"coords": _wire(y)},
                       "expected": form_oracle_eigensolve(
                           operator_from_matrix(M), Vector(y))}
            for s, finite in [(-2.0, True), (-1.0, False), (-0.8, False),
                              (-3.0, True), (-1.6, True), (-1.1, False),
                              (-2.5, True), (-0.5, False), (-4.0, True),
                              (-1.4, False)]:
                yield {"op": "form-on-x",
                       "A": {"backend": "sequence", "diagonal": _power(2.0)},
                       "y": _generated(_power(s), 48),
                       "expected": "finite" if finite else "inf"}
        return _worst(scenarios(), {"dense_instances": 100, "sequence_pairs": 10})

    def order():
        # 2I >= I, two crossed diagonals, an equal pair, then c M >= M
        def scenarios():
            yield {"op": "compare", "A": _operator(2 * np.eye(2)),
                   "B": _operator(np.eye(2)), "expected": "A>=B"}
            yield {"op": "compare", "A": _operator(np.diag([1.0, 4.0])),
                   "B": _operator(np.diag([4.0, 1.0])), "expected": "incomparable"}
            # raises unless the pair compares equal
            yield {"op": "antisymmetry", "A": _operator(np.diag([2.0, 3.0])),
                   "B": _operator(np.diag([2.0, 3.0]))}
            for n in _sizes(rng, 1, 6, 20):
                M = _random_psd(rng, n) + 0.1 * np.eye(n)
                c = float(rng.uniform(1.0, 3.0))
                yield {"op": "compare", "A": _operator(c * M), "B": _operator(M),
                       "expected": "A>=B"}
        return _worst(scenarios(), {"pairs": 23})

    return _run_checks([
        ("lem2-factorization", ["Lem2"], lem2),
        ("lem2-remark-sqrt", ["Lem2"], remark),
        ("lem3-form-characterization", ["Lem3"], lem3),
        ("order-definition", ["Def-Order"], order),
        ("control-antisymmetry-refusal", ["Def-Order"], _refusal(
            {"op": "antisymmetry", "A": _operator(np.diag([2.0, 3.0])),
             "B": _operator(np.diag([2.0, 3.0 + 1e-6]))}, NotEqual)),
    ])


def formsum_suite(seed: int) -> list[Report]:
    rng = np.random.default_rng(seed)

    def thm4():
        # full domains: the form sum collapses to A + B
        def scenarios():
            for n in _sizes(rng, 1, 7, 100):
                A, B = _random_hpd(rng, n), _random_hpd(rng, n)
                yield {"op": "joint-factorize", "tolerances": {"matrix": 1e-12},
                       "space": _space(n), "A": _operator(A), "B": _operator(B),
                       "expected_matrix": _wire(A + B)}
        return _worst(scenarios(), {"pairs": 100})

    def closedness():
        sp = sequence_pair(48)
        t = DiagonalForm(series.polynomial(2.0))
        # is_closed raises unless the run's tails contract
        wit = is_closed(t, [generated_vector(series.polynomial(-2.0), sp)], sp)
        rejected = False
        try:
            is_closed(t, [generated_vector(series.polynomial(-1.0), sp)], sp)
        except FormcalcError:
            rejected = True
        return ({"divergent_rejected": 0.0 if rejected else 1.0},
                {"divergent_rejected": 0.0}, {"kind": wit.kind}, [])

    def commutants():
        # E = A^-1 K with K Hermitian: each draw is lifted, summed and
        # spectrally checked
        def instances():
            for n in _sizes(rng, 2, 7, 50):
                A = _random_hpd(rng, n)
                K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                ops = {"space": _space(n), "A": _operator(A),
                       "K": _wire(K + K.conj().T)}
                yield {"op": "lift-commutant", **ops}
                yield {"op": "commutation-formsum", **ops,
                       "B": _operator(float(rng.uniform(0.5, 2.0)) * A)}
                yield {"op": "spectrum-inclusion", **ops}
        return _worst(instances(), {"triples": 50})

    def block_construction():
        # independent route: simultaneously block-diagonal A, B and E in
        # a random unitary frame (E need not come from A^-1 K here)
        def instances():
            for _ in range(10):
                n = 2 * int(rng.integers(1, 4))
                W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                Q, _ = np.linalg.qr(W)
                A, B, E = (Q @ np.diag(rng.uniform(lo, hi, size=n)) @ Q.conj().T
                           for lo, hi in ((0.5, 3.0), (0.5, 3.0), (-2.0, 2.0)))
                yield {"op": "commutation-formsum", "space": _space(n),
                       "A": _operator(A), "B": _operator(B), "E": _wire(E)}
        return _worst(instances(), {"instances": 10, "frame": "random unitary"})

    return _run_checks([
        ("thm4-joint-factorization", ["Thm4"], thm4),
        ("closedness-sequential", ["Thm4"], closedness),
        ("eq7-lemmas45-thm56", ["Eq7", "Lem4", "Lem5", "Thm5", "Thm6"], commutants),
        ("thm5-block-construction", ["Thm5"], block_construction),
        ("control-broken-commutation", ["Eq7"], _refusal(
            {"op": "lift-commutant", "space": _space(2),
             "A": _operator(np.diag([1.0, 2.0])),
             "E": _wire(np.array([[0.0, 1.0], [0.0, 0.0]]))}, DomainError)),
    ])


def covariance_suite(seed: int) -> list[Report]:
    rng = np.random.default_rng(seed)

    def worked_example():
        xi = exp_poly_variable(exponential_space(1.5), sequence_pair(24))
        e = weak_expectation(xi)
        c = math.exp(1.5) - 1.0
        oracle1 = sum(c * math.exp(-1.5 * n) * n for n in range(1, 400))
        witness = SecondMomentDomain(xi).density_witness()
        cert = second_moment_membership(xi, generated_functional(
            series.polynomial(-1.0), sequence_pair(24)))
        diverges = (not cert.member and
                    cert.certificate["kind"] == "partial-sum-growth")
        return ({"expectation_coord1": abs(e.coords[0].real - oracle1),
                 "finitely_supported_in":
                     0.0 if witness["finitely_supported_members"] else 1.0,
                 "harmonic_out": 0.0 if diverges else 1.0},
                {"expectation_coord1": 1e-10, "finitely_supported_in": 0.0,
                 "harmonic_out": 0.0},
                {"weights": "c e^(-1.5 n)", "checked_functionals": witness["checked"]},
                [cert.certificate])

    def closed_form():
        nu = series.geometric(0.25, coef=3.0)
        s = series.geometric(math.sqrt(0.5))
        xi = signed_basis_variable(paired_rule_space(nu), s, sequence_pair(24))
        t = covariance_form(xi)
        runs = [generated_vector(series.geometric(0.5), sequence_pair(24))]
        # is_closed raises unless every run's tails contract
        wit = is_closed(t, runs, sequence_pair(24).dual())
        return {"psd": t.negativity}, {"psd": 0.0}, {"runs": len(wit.runs)}, []

    def thm8():
        # centred tables on finite spaces, then one signed-basis pair
        def scenarios():
            for n in _sizes(rng, 1, 4, 50):
                m1 = int(rng.integers(n + 1, n + 4))
                m2 = int(rng.integers(n + 1, n + 4))
                w1 = rng.uniform(0.2, 1.0, size=m1)
                w2 = rng.uniform(0.2, 1.0, size=m2)
                sc = {"op": "independent-sum", "space_pair": _space(n)}
                for side, w in (("xi", w1 / w1.sum()), ("eta", w2 / w2.sum())):
                    X = rng.normal(size=(w.size, n))
                    sc[f"probability_{side}"] = {"weights": w}
                    sc[side] = {"values": X - w @ X}
                yield sc
            nu = {"kind": "paired-rule", "rule": _geometric(0.25, 3.0)}
            xi, eta = ({"kind": "signed-basis",
                        "scale": _geometric(math.sqrt(r), 1 / math.sqrt(3.0))}
                       for r in (2.0, 4.0 / 3.0))
            yield {"op": "independent-sum",
                   "space_pair": _sequence(24),
                   "probability_xi": nu, "probability_eta": nu, "xi": xi, "eta": eta}
        return _worst(scenarios(), {"instances": 51})

    return _run_checks([
        ("thm7-second-moment-example", ["Thm7"], worked_example),
        ("thm7-closedness", ["Thm7"], closed_form),
        ("thm8-independent-sums", ["Thm8"], thm8),
        ("control-unnormalized-weights", ["Thm7"], _refusal(
            {"op": "weak-expectation",
             "space_pair": _sequence(24),
             "probability": {"kind": "rule", "rule": _geometric(0.5, 3.0)},
             "variable": {"kind": "exp-poly"}}, NotNormalized)),
    ])


def elliptic_suite(seed: int) -> list[Report]:
    pb = {"a": "1", "b": "1", "gamma": 1.0}
    laplace = problem(1.0, "1", "0", 1.0)

    def ordering():
        return _worst(({"op": "dirichlet-vs-neumann", "problem": pb, "m": m}
                       for m in (16, 32, 64)), {"meshes": [16, 32, 64]})

    def poincare():
        lam = discrete_poincare(uniform_mesh(64))
        rel = abs(lam - math.pi ** 2) / math.pi ** 2
        return ({"poincare_rel_error": rel}, {"poincare_rel_error": 0.02},
                {"lambda_h": lam, "pi_sq": math.pi ** 2}, [])

    def convergence():
        rows = convergence_table(laplace, "pi^2 * sin(pi*x)", "sin(pi*x)",
                                 ms=(16, 32, 64, 128))
        ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
        off = max(abs(r - 4.0) for r in ratios)
        table = [[r["m"], r["h"], r["l2_error"],
                  "" if r["ratio"] is None else r["ratio"]] for r in rows]
        return ({"ratio_offset": off}, {"ratio_offset": 0.4},
                {"csv": {"convergence.csv": (["m", "h", "l2_error", "ratio"], table)}}, [])

    def solves():
        rules = ["1", "x", "exp(x)", "sin(3*x)", "cos(pi*x)", "x^2 - x",
                 "2 + sin(2*pi*x)", "exp(0 - x)", "x^3", "1 + cos(x)"]
        singular = {**pb, "b": "1 / (0.01 + x)"}
        return _worst([{"op": "weak-solve", "problem": pb, "m": 32, "g": g}
                       for g in rules]
                      + [{"op": "weak-solve", "problem": singular, "m": 64, "g": "1"}],
                      {"rules": len(rules) + 1})

    def bounds():
        c2 = sobolev_lower_bound(laplace, uniform_mesh(32))
        c4 = sobolev_lower_bound(problem(1.0, "1", "0", 1.0, p=4.0), uniform_mesh(24))
        return {}, {}, {"c_p2": c2.gamma, "c_p4": c4.gamma}, []

    return _run_checks([
        ("thm3-dirichlet-vs-neumann", ["Thm3", "Elliptic"], ordering),
        ("elliptic-poincare", ["Elliptic"], poincare),
        ("elliptic-convergence", ["Elliptic"], convergence),
        ("elliptic-weak-solves", ["Elliptic"], solves),
        ("elliptic-lower-bounds", ["Elliptic"], bounds),
        ("control-neumann-kernel", ["Elliptic"], _refusal(
            {"op": "dirichlet-vs-neumann", "problem": {**pb, "b": "0"}, "m": 8},
            DomainError)),
    ])


_SUITES = {
    "representation": representation_suite,
    "friedrichs": friedrichs_suite,
    "ordering": ordering_suite,
    "formsum": formsum_suite,
    "covariance": covariance_suite,
    "elliptic": elliptic_suite,
}


SUITE_NAMES = tuple(_SUITES)
#: the order ``all`` hands the batteries to ``map``: longest first, by seed-1
#: CPU seconds in process 0.47, 0.18, 0.13, 0.12, 0.03 and 0.02
LONGEST_FIRST = ("formsum", "ordering", "covariance", "representation", "friedrichs",
                 "elliptic")


def _battery(name: str, seed: int) -> list[Report]:
    """The reports of one battery, looked up by name where it runs: a
    forked worker receives the name, not the function."""
    return _SUITES[name](seed)


def run_suite(name: str, seed: int = 0, map=map) -> SuiteResult:
    """Run one battery, or every battery for ``all``, and collect the
    reports in battery order, with the CSV tables their details hold
    under ``csv``, by file name.  ``map`` applies :func:`_battery` to the
    battery names, for ``all`` in :data:`LONGEST_FIRST` order; the default
    runs them in this process, and a process pool's ``map`` runs them on
    its workers.  Each battery draws from its own ``default_rng(seed)``,
    so the reports do not depend on where or when a battery runs."""
    if name != "all" and name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = LONGEST_FIRST if name == "all" else (name,)
    batteries = dict(zip(names, map(_battery, names, [seed] * len(names))))
    reports = tuple(r for n in SUITE_NAMES if n in batteries for r in batteries[n])
    return SuiteResult(name, seed, reports, {
        file: table for r in reports for file, table in r.details.get("csv", {}).items()})
