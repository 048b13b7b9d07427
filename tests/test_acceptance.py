"""Acceptance criteria, one test per criterion, one printed line each.

Tolerances and instance counts are pinned here; the oracles (condensation
series tests, generalized eigensolves, manufactured solutions, brute-force
sums) are independent of the library paths they check.
"""

import json
import math
import time

import numpy as np

from formcalc import series
from formcalc.cli import main
from formcalc.covariance import (
    centered, covariance_form, exp_poly_variable, exponential_space,
    finite_space, independent_sum, paired_rule_space, second_moment_membership,
    signed_basis_variable, table_variable,
)
from formcalc.duality import (
    DOMAIN_FINITE, DiagonalOperator, Functional, Vector, dense_pair,
    generated_vector, is_extension, operator_from_matrix, sequence_pair,
)
from formcalc.elliptic import (
    convergence_table, dirichlet_vs_neumann, discrete_poincare, problem,
    uniform_mesh, weak_solve,
)
from formcalc.forms import associated_operator, form_from_gram, is_closed
from formcalc.formsum import (
    commutation_formsum, commuting_pair, joint_factorize, lift_commutant,
    spectrum_inclusion,
)
from formcalc.friedrichs import friedrichs, in_extension_domain
from formcalc.ordering import (
    factorize, form_on_X, form_oracle_eigensolve, hilbert_consistency,
)
from formcalc.reporting import CLAIM_TAGS
from formcalc.suites import run_suite


def criterion(number, description, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def condensation_oracle(fn, doublings=16):
    """Independent convergence decision (Cauchy condensation blocks)."""
    blocks = [2 ** k * fn(2 ** k) for k in range(1, doublings)]
    ratios = [blocks[i + 1] / blocks[i] for i in range(len(blocks) - 1)
              if blocks[i] > 0]
    return max(ratios[-5:]) < 0.95


def random_hpd(rng, n, shift=0.5):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return W @ W.conj().T + shift * np.eye(n)


def random_psd(rng, n, force_kernel=False):
    d = n - int(rng.integers(1, n)) if force_kernel and n > 1 else n
    W = rng.normal(size=(n, max(d, 1))) + 1j * rng.normal(size=(n, max(d, 1)))
    return W @ W.conj().T


def test_criterion_1_representation():
    def body():
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 13))
            rep = associated_operator(
                form_from_gram(np.eye(n), random_hpd(rng, n)), dense_pair(n))
            assert rep.residuals["ab_identity"] <= 1e-10
            assert rep.residuals["ba_identity"] <= 1e-10
            assert rep.b_norm <= 1.0 / rep.gamma + 1e-8
            assert rep.residuals["selfadjoint"] <= 1e-12
        assert time.perf_counter() - t0 < 5.0

    criterion(1, "representing operator: inverses, ||B|| <= 1/gamma, "
                 "self-adjointness (200 instances)", body)


def test_criterion_2_friedrichs():
    def body():
        t0 = time.perf_counter()
        sp = sequence_pair(64)
        cases = [
            ("square", series.polynomial(2.0), 1.0,
             lambda k: series.polynomial(-(2.05 + 0.35 * k))),
            ("exponential", series.geometric(math.e), math.e,
             lambda k: series.geometric(math.exp(-(0.6 + 0.05 * k)))),
            ("geometric", series.geometric(2.0), 2.0,
             lambda k: series.geometric(0.3 + 0.02 * k)),
        ]
        for name, rule, gamma, probe_rule in cases:
            a = DiagonalOperator(rule, DOMAIN_FINITE)
            res = friedrichs(a, sp)
            assert is_extension(a, res.extension)
            assert res.gamma_preserved.gamma >= gamma - 1e-10
            for k in range(20):
                probe = probe_rule(k)
                graph = rule.abs_square() * probe.abs_square()
                expected = condensation_oracle(lambda n: abs(graph.at(n)))
                got = in_extension_domain(res, generated_vector(probe, sp))
                assert got == expected, (name, k)
        assert time.perf_counter() - t0 < 2.0

    criterion(2, "Friedrichs extension on diagonal generators with "
                 "p-series/ratio membership oracles (3 x 20 probes)", body)


def test_criterion_3_factorization():
    def body():
        rng = np.random.default_rng(103)
        for k in range(200):
            n = int(rng.integers(1, 9))
            A = operator_from_matrix(
                random_psd(rng, n, force_kernel=(k % 3 == 0)))
            assert factorize(A).extension_residual <= 1e-10
        for _ in range(100):
            n = int(rng.integers(1, 8))
            A = operator_from_matrix(random_psd(rng, n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            assert hilbert_consistency(A, [y], dense_pair(n)).worst_residual <= 1e-8

    criterion(3, "JJ* = A on 200 PSD instances (kernels forced), square-root "
                 "identity on 100 samples", body)


def test_criterion_4_form_characterization():
    def body():
        rng = np.random.default_rng(104)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            A = operator_from_matrix(random_psd(rng, n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            v1 = form_on_X(A, y).value
            v2 = form_oracle_eigensolve(A, y)
            assert abs(v1 - v2) <= 1e-6 * max(v1, v2, 1.0)
        sp = sequence_pair(48)
        A = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
        for s in (-2.0, -1.0, -0.8, -3.0, -1.8, -1.1, -2.5, -0.5, -4.0, -1.2):
            probe = series.polynomial(s)
            energy = series.polynomial(2.0) * probe.abs_square()
            expected = condensation_oracle(lambda n: abs(energy.at(n)))
            fv = form_on_X(A, generated_vector(probe, sp))
            assert fv.finite == expected
            if not fv.finite:
                assert fv.certificate["kind"] == "partial-sum-growth"

    criterion(4, "form of A: eigensolve oracle on 100 dense instances, "
                 "10 certified in/out sequence pairs", body)


def test_criterion_5_maximality_shadow():
    def body():
        pb = problem(1.0, "1", "1", 1.0)
        for m in (16, 32, 64):
            rep = dirichlet_vs_neumann(pb, uniform_mesh(m))
            assert rep.verdict == "A>=B"
            for r in rep.probes:
                assert r.value_a >= r.value_b * (1 - 1e-9)
        lam = discrete_poincare(uniform_mesh(64))
        assert abs(lam - math.pi ** 2) / math.pi ** 2 < 0.02

    criterion(5, "Dirichlet form dominates Neumann on every probe at "
                 "h = 1/16, 1/32, 1/64; Poincare constant within 2%", body)


def test_criterion_6_form_sum():
    def body():
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            dp = dense_pair(n)
            A = operator_from_matrix(random_hpd(rng, n))
            B = operator_from_matrix(random_hpd(rng, n))
            jf = joint_factorize(A, B, dp)
            assert jf.energy_residual <= 1e-9
            M_sum = A.canonical_matrix() + B.canonical_matrix()
            S = operator_from_matrix(M_sum)
            assert is_extension(S, jf.formsum.operator)
            collapse = float(np.linalg.norm(
                jf.formsum.operator.canonical_matrix() - M_sum)) / max(
                float(np.linalg.norm(M_sum)), 1.0)
            assert collapse <= 1e-12

    criterion(6, "form sum: energy identity to 1e-9, extension of A + B, "
                 "everywhere-defined collapse to 1e-12 (100 pairs)", body)


def test_criterion_7_commutation():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(107)
        for k in range(50):
            n = int(rng.integers(2, 7))
            dp = dense_pair(n)
            A_mat = random_hpd(rng, n)
            K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            K = K + K.conj().T
            A = operator_from_matrix(A_mat)
            E = commuting_pair(A_mat, K)
            lift = lift_commutant(A, E)
            assert lift.bound_margin <= 1.0 + 1e-8
            assert lift.selfadjoint_residual <= 1e-10
            B = operator_from_matrix(float(rng.uniform(0.5, 2.0)) * A_mat)
            rep = commutation_formsum(A, B, E, dp)
            assert rep.formsum_inclusion <= 1e-9
            assert max(rep.factor_inclusions.values()) <= 1e-9
            spec = spectrum_inclusion(A, E)
            scale = max(float(np.max(np.abs(spec.e_eigenvalues))), 1.0)
            assert spec.max_imag <= 1e-9 * scale
            assert spec.max_distance <= 1e-8 * scale
            assert spec.resolvent_residual <= 1e-8
        assert time.perf_counter() - t0 < 10.0

    criterion(7, "commutant lifts: spectral-radius bound, self-adjointness, "
                 "form-sum commutation, spectrum + resolvent (50 triples)", body)


def test_criterion_8_covariance_example():
    def body():
        t0 = time.perf_counter()
        nu = series.geometric(0.25, coef=3.0)
        s = series.geometric(math.sqrt(0.5))
        xi_diag = signed_basis_variable(paired_rule_space(nu), s,
                                        sequence_pair(24))
        t = covariance_form(xi_diag)
        assert t.diagonal.is_nonnegative
        runs = [generated_vector(series.geometric(0.5), sequence_pair(24))]
        wit = is_closed(t, runs, sequence_pair(24).dual())
        assert all(all(r < 1.0 for r in rec.contraction) for rec in wit.runs)
        rng = np.random.default_rng(108)
        vals = list(rng.normal(size=(5, 3)))
        xi_f = centered(table_variable(finite_space([0.2] * 5), vals,
                                       dense_pair(3)))
        tf = covariance_form(xi_f)
        lam = np.linalg.eigvalsh(tf.gram)
        assert float(lam[0]) >= -1e-12
        assert float(np.linalg.norm(tf.gram - tf.gram.conj().T)) <= 1e-12
        sp = exponential_space(1.5)
        xi = exp_poly_variable(sp, sequence_pair(24))
        for k in range(12):
            fc = np.zeros(24, dtype=complex)
            fc[k] = 1.0
            assert second_moment_membership(
                xi, Functional(fc, "sequence")).member
        harmonic = series.polynomial(-1.0)
        f_out = Functional(harmonic(np.arange(1, 25)), "sequence", tail=harmonic)
        cert = second_moment_membership(xi, f_out)
        assert not cert.member
        assert cert.certificate["kind"] == "partial-sum-growth"
        assert time.perf_counter() - t0 < 2.0

    criterion(8, "covariance forms PSD + closed; weight rule c e^(-1.5 n) "
                 "with values n^k/k!: coordinates in D, harmonic rule out", body)


def test_criterion_9_independent_sums():
    def body():
        rng = np.random.default_rng(109)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            dp = dense_pair(n)
            m1 = int(rng.integers(n + 1, n + 4))
            m2 = int(rng.integers(n + 1, n + 4))
            w1 = rng.uniform(0.2, 1.0, size=m1)
            w2 = rng.uniform(0.2, 1.0, size=m2)
            xi = centered(table_variable(finite_space(w1 / w1.sum()),
                                         list(rng.normal(size=(m1, n))), dp))
            eta = centered(table_variable(finite_space(w2 / w2.sum()),
                                          list(rng.normal(size=(m2, n))), dp))
            rep = independent_sum(xi, eta)
            assert rep.residual <= 1e-10

    criterion(9, "covariance of independent sums equals the form sum "
                 "(50 product-space instances, 1e-10)", body)


def test_criterion_10_elliptic():
    def body():
        t0 = time.perf_counter()
        rows = convergence_table(problem(1.0, "1", "0", 1.0),
                                 "pi^2 * sin(pi*x)", "sin(pi*x)",
                                 ms=(16, 32, 64, 128))
        for r in rows[1:]:
            assert 3.6 <= r["ratio"] <= 4.4
        pb = problem(1.0, "1", "1", 1.0)
        rules = ["1", "x", "exp(x)", "sin(3*x)", "cos(pi*x)", "x^2 - x",
                 "2 + sin(2*pi*x)", "exp(0 - x)", "x^3", "1 + cos(x)"]
        for g in rules:
            assert weak_solve(pb, uniform_mesh(32), g).galerkin_residual <= 1e-10
        singular = problem(1.0, "1", "1 / (0.01 + x)", 1.0)
        assert weak_solve(singular, uniform_mesh(64),
                          "1").galerkin_residual <= 1e-10
        assert time.perf_counter() - t0 < 10.0

    criterion(10, "manufactured-solution order 2 (ratios in [3.6, 4.4]), "
                  "10 data rules + integrable steep potential", body)


def test_criterion_11_cli(tmp_path):
    def body():
        t0 = time.perf_counter()
        s1 = json.dumps(run_suite("all", seed=11).summary_dict(), sort_keys=True)
        s2 = json.dumps(run_suite("all", seed=11).summary_dict(), sort_keys=True)
        assert s1 == s2, "suite(all) summary must be byte-identical"
        res = run_suite("all", seed=11)
        cov = res.coverage()
        for tag in CLAIM_TAGS:
            assert cov[tag] >= 1, f"claim {tag} not covered"
        assert res.ok
        controls = [r for r in res.reports if r.control]
        assert controls and all(r.verdict == "fail" for r in controls)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenarios": [{
            "id": "broken-eq7", "op": "lift-commutant",
            "space": {"backend": "dense", "dim": 2, "p": 2.0},
            "A": {"backend": "dense", "direction": "to-dual",
                  "domain_basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                  "action": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
            "E": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        }]}))
        assert main(["run", str(bad)]) == 2
        assert time.perf_counter() - t0 < 60.0

    criterion(11, "suite(all): deterministic summary, complete coverage, "
                  "negative controls fail with exit 2, under 60 s", body)
