"""Assembly, lower bounds, weak solves and the extension ordering in 1D."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from formcalc.coeffexpr import ExpressionError, compile_rule
from formcalc import elliptic
from formcalc.duality import Vector
from formcalc.elliptic import (
    _GAUSS4, EllipticProblem, _dense_from_tridiag, _full_stiffness, _hat_gram, _tridiag_solve,
    _tridiag_stiffness, assemble, convergence_table, dirichlet_operator,
    dirichlet_vs_neumann, discrete_poincare, l2_error, neumann_operator,
    problem, sobolev_lower_bound, uniform_mesh, weak_solve,
)
from formcalc.errors import DomainError, NotPositive
from formcalc.ordering import form_on_X

LAPLACE = problem(1.0, "1", "0", 1.0)
WITH_MASS = problem(1.0, "1", "1", 1.0)


class TestExpressionGrammar:
    def test_basic_rules(self):
        f = compile_rule("1 + x^2")
        np.testing.assert_allclose(f(np.array([0.0, 2.0])), [1.0, 5.0])

    def test_transcendentals(self):
        f = compile_rule("pi^2 * sin(pi*x)")
        assert f(np.array([0.5]))[0] == pytest.approx(math.pi ** 2)

    @pytest.mark.parametrize("bad", ["__import__('os')", "x.real", "lambda: 1",
                                     "min(x, 1)", "x[0]", "'s'", "True",
                                     "x + False", "1" + "0" * 400, "1e400",
                                     "-1e400"])
    def test_rejects_outside_grammar(self, bad):
        with pytest.raises(ExpressionError):
            compile_rule(bad)

    def test_literals_are_floats(self):
        # in Python integers 2^64 + 1 - 2^64 is exactly 1
        assert compile_rule("2^64 + 1 - 2^64")(np.zeros(1))[0] == 0.0


class TestAssembly:
    def test_gauss4_is_leggauss_bit_for_bit(self):
        for ours, numpy_s in zip(_GAUSS4, np.polynomial.legendre.leggauss(4)):
            assert ours.dtype == numpy_s.dtype == np.float64
            assert ours.tobytes() == numpy_s.tobytes()

    def test_laplace_tridiagonal_pattern(self):
        # hand assembly: phi' = +-1/h, overlap integrals give (2, -1)/h
        t = assemble(LAPLACE, uniform_mesh(4), "dirichlet")
        h = 0.25
        expect = (np.diag([2.0] * 3) + np.diag([-1.0] * 2, 1)
                  + np.diag([-1.0] * 2, -1)) / h
        np.testing.assert_allclose(t.gram.real, expect, atol=1e-12)

    def test_single_interior_node(self):
        # slopes +-2 on (0, 1/2), (1/2, 1): integral of slope^2 = 4
        t = assemble(LAPLACE, uniform_mesh(2), "dirichlet")
        np.testing.assert_allclose(t.gram.real, [[4.0]], atol=1e-13)

    def test_mass_pattern(self):
        # b = 1 adds h(4, 1)/6 to the stiffness pattern
        t = assemble(WITH_MASS, uniform_mesh(4), "dirichlet")
        h = 0.25
        expect = (np.diag([2.0] * 3) + np.diag([-1.0] * 2, 1)
                  + np.diag([-1.0] * 2, -1)) / h
        expect += h * (np.diag([4.0] * 3) + np.diag([1.0] * 2, 1)
                       + np.diag([1.0] * 2, -1)) / 6.0
        np.testing.assert_allclose(t.gram.real, expect, atol=1e-12)

    def test_ellipticity_violation_detected(self):
        bad = problem(1.0, "1 - x", "0", 1.0)    # a(x) < gamma on (0,1)
        with pytest.raises(NotPositive):
            assemble(bad, uniform_mesh(8), "dirichlet")
        with pytest.raises(NotPositive):
            sobolev_lower_bound(bad, uniform_mesh(8))

    def test_negative_potential_detected(self):
        bad = problem(1.0, "1", "0 - x", 1.0)
        with pytest.raises(NotPositive):
            assemble(bad, uniform_mesh(8), "dirichlet")
        with pytest.raises(NotPositive):
            sobolev_lower_bound(bad, uniform_mesh(8))

    def test_stiffness_definite(self):
        mesh = uniform_mesh(16)
        t = assemble(WITH_MASS, mesh, "dirichlet")
        M = _dense_from_tridiag(*_hat_gram(mesh, 0.0, 1.0))[1:-1, 1:-1]
        lam = scipy.linalg.eigh(t.gram.real, M, eigvals_only=True)
        # floor: gamma times the discrete Poincare constant
        floor = 1.0 * discrete_poincare(mesh)
        assert lam[0] >= floor - 1e-10


class TestSobolevLowerBound:
    def test_p2_poincare_constant(self):
        cert = sobolev_lower_bound(LAPLACE, uniform_mesh(32))
        assert cert.kind == "poincare-p2"
        assert cert.gamma == pytest.approx(math.pi ** 2)
        assert cert.detail == {"p": 2.0}
        # a lower bound, not the tight discrete infimum: 9.8696 < 9.8775
        assert cert.gamma < discrete_poincare(uniform_mesh(32))

    def test_p2_scaling_in_gamma(self):
        pb = problem(1.0, "3 + 0*x", "0", 3.0)
        cert = sobolev_lower_bound(pb, uniform_mesh(32))
        assert cert.gamma == pytest.approx(3.0 * math.pi ** 2)

    def test_p2_sharp_on_sine(self):
        # the tridiagonal eigenvalue converges to pi^2 from above at O(h^2)
        lam64 = discrete_poincare(uniform_mesh(64))
        assert lam64 >= math.pi ** 2 - 1e-12
        assert abs(lam64 - math.pi ** 2) / math.pi ** 2 < 0.02

    @pytest.mark.parametrize("m", [8, 16, 64, 128])
    def test_discrete_poincare_matches_scipy_pencil(self, m):
        mesh = uniform_mesh(m)
        idx = np.arange(1, m)
        S = _full_stiffness(LAPLACE, mesh)[np.ix_(idx, idx)]
        M = _dense_from_tridiag(*_hat_gram(mesh, 0.0, 1.0))[np.ix_(idx, idx)]
        want = scipy.linalg.eigh(S, M, eigvals_only=True)[0]
        assert abs(discrete_poincare(mesh) - want) <= 1e-12 * want

    def test_p4_constant(self):
        pb = problem(1.0, "1", "0", 1.0, p=4.0)
        cert = sobolev_lower_bound(pb, uniform_mesh(24))
        assert cert.kind == "sobolev-sup"
        assert cert.gamma == 1.0   # gamma / L^(1 + 2/4), L = 1

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("m, length, gamma, a, b", [
        (64, 1.0, 1.0, "1", "0"),
        (24, 1.0, 1.0, "1 + x^2", "1"),
        (32, 2.0, 0.5, "0.5 + x", "sin(x)^2"),
        (16, 0.5, 2.0, "2 + cos(3*x)", "0"),
        (40, 3.0, 1.5, "1.5", "exp(x)"),
    ])
    def test_constant_holds_on_seeded_draws(self, p, m, length, gamma, a, b):
        """Oracle for the stated constant c: (S_d u, u) >= c ||f||_p^2 for
        seeded draws of the interior values u of f, rough ones and smooth
        sine mixes near the extremal functions, with ||f||_p from an
        8-point Gauss rule per element; for p = 2, the smallest eigenvalue
        of the pencil (S_d, M_d) is at least c."""
        pb = problem(length, a, b, gamma, p=p)
        mesh = uniform_mesh(m, length)
        c = sobolev_lower_bound(pb, mesh).gamma
        S = assemble(pb, mesh, "dirichlet").gram.real
        x, w = np.polynomial.legendre.leggauss(8)
        h = length / m
        pts = (mesh.nodes[:-1, None] + 0.5 * h * (1.0 + x)).ravel()
        wts = np.tile(0.5 * h * w, m)
        rng = np.random.default_rng(2006)
        sines = np.sin(np.outer(np.arange(1, 4), np.pi * mesh.nodes[1:-1] / length))
        for k in range(100):
            u = rng.normal(size=3) @ sines if k % 2 else rng.normal(size=m - 1)
            f = np.interp(pts, mesh.nodes, np.concatenate([[0.0], u, [0.0]]))
            norm_p = float(np.sum(wts * np.abs(f) ** p)) ** (1.0 / p)
            assert u @ S @ u >= c * norm_p ** 2 * (1.0 - 1e-12)
        if p == 2.0:
            M = h / 6.0 * (4.0 * np.eye(m - 1) + np.eye(m - 1, k=1) + np.eye(m - 1, k=-1))
            assert scipy.linalg.eigh(S, M, eigvals_only=True)[0] >= c * (1.0 - 1e-12)


class TestWeakSolve:
    def test_zero_load(self):
        sol = weak_solve(LAPLACE, uniform_mesh(16), "0")
        np.testing.assert_allclose(sol.coefficients, 0.0, atol=1e-14)

    def test_manufactured_sine(self):
        # -f'' = pi^2 sin(pi x) has f = sin(pi x): symbolic differentiation
        sol = weak_solve(LAPLACE, uniform_mesh(16), "pi^2 * sin(pi*x)")
        err = l2_error(sol, compile_rule("sin(pi*x)"))
        assert err < 3e-3
        assert sol.galerkin_residual <= 1e-10

    def test_convergence_order(self):
        rows = convergence_table(LAPLACE, "pi^2 * sin(pi*x)", "sin(pi*x)",
                                 ms=(16, 32, 64, 128))
        for r in rows[1:]:
            assert 3.6 <= r["ratio"] <= 4.4

    def test_variable_coefficient_self_convergence(self):
        pb = problem(1.0, "1 + x", "0", 1.0)
        ref = weak_solve(pb, uniform_mesh(4096), "1")
        x = np.linspace(0.0, 1.0, 4001)
        errs = []
        for m in (16, 32, 64):
            sol = weak_solve(pb, uniform_mesh(m), "1")
            errs.append(float(np.sqrt(np.trapezoid((sol(x) - ref(x)) ** 2, x))))
        for k in range(len(errs) - 1):
            assert 3.6 <= errs[k] / errs[k + 1] <= 4.4

    def test_quadrature_integrable_singularish_b(self):
        # b = 1/sqrt-like potential through its quadrature values: steep but
        # integrable; the solve must stay definite and converge
        pb = problem(1.0, "1", "1 / (0.01 + x)", 1.0)
        sol = weak_solve(pb, uniform_mesh(64), "1")
        assert sol.galerkin_residual <= 1e-10
        assert sol.energy_norm > 0

    def test_several_data_rules(self):
        rules = ["1", "x", "exp(x)", "sin(3*x)", "cos(pi*x)", "x^2 - x",
                 "2 + sin(2*pi*x)", "exp(0 - x)", "x^3", "1 + cos(x)"]
        for g in rules:
            sol = weak_solve(WITH_MASS, uniform_mesh(32), g)
            assert sol.galerkin_residual <= 1e-10


class TestTridiagonalSweep:
    """The O(m) LDL^T sweep behind the weak solve, against a dense solve."""

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(91)
        pb = problem(1.0, "1 + x^2", "1 + sin(3*x)", 1.0)
        for m in range(2, 301):
            diag, off = _tridiag_stiffness(pb, uniform_mesh(m + 1))
            pairs = [(diag[1:-1], off[1:-1]),
                     (rng.uniform(2.5, 4.0, size=m), rng.uniform(-1.0, 1.0, size=m - 1))]
            for d, e in pairs:
                S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
                b = rng.normal(size=m)
                want = np.linalg.solve(S, b)
                got = _tridiag_solve(d, e, b)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_single_unknown(self):
        np.testing.assert_allclose(_tridiag_solve(np.array([4.0]), np.array([]),
                                                  np.array([2.0])), [0.5])

    @pytest.mark.parametrize("d, e", [([1.0, -1.0], [0.0]), ([1.0, 1.0], [2.0]),
                                      ([2.0, 2.0, 2.0], [-1.0, 2.0]),
                                      ([0.0], []), ([math.nan, 1.0], [0.0])])
    def test_indefinite_raises_not_positive(self, d, e):
        with pytest.raises(NotPositive):
            _tridiag_solve(np.array(d), np.array(e), np.ones(len(d)))

    def test_weak_solve_refuses_indefinite_stiffness(self, monkeypatch):
        import formcalc.elliptic as elliptic

        def indefinite(prob, mesh):
            diag, off = _tridiag_stiffness(prob, mesh)
            return diag, 3.0 * off
        monkeypatch.setattr(elliptic, "_tridiag_stiffness", indefinite)
        with pytest.raises(NotPositive):
            weak_solve(WITH_MASS, uniform_mesh(16), "1")


class TestNonFiniteCoefficients:
    """numpy.linalg does not check for NaN or inf, so a coefficient, load
    or boundary value that is not finite is refused where it is evaluated."""

    NAN = "1 + 0*exp(1000*x)"        # 0 * inf at every node
    INF = "exp(1000*x)"

    @pytest.mark.parametrize("rule", [NAN, INF])
    def test_coefficients(self, rule):
        mesh = uniform_mesh(8)
        with np.errstate(all="ignore"):
            for pb in (problem(1.0, rule, "1", 1.0), problem(1.0, "1", rule, 1.0)):
                for call in (lambda: weak_solve(pb, mesh, "1"),
                             lambda: assemble(pb, mesh, "dirichlet"),
                             lambda: dirichlet_vs_neumann(pb, mesh),
                             lambda: sobolev_lower_bound(pb, mesh)):
                    with pytest.raises(DomainError):
                        call()

    @pytest.mark.parametrize("rule", [NAN, INF])
    def test_load(self, rule):
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            weak_solve(LAPLACE, uniform_mesh(8), rule)

    def test_boundary_value_of_a(self):
        # finite at every Gauss point, infinite at x = 0
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            dirichlet_operator(problem(1.0, "1 + 1/x - 1/x", "0", 1.0), uniform_mesh(8))


class TestDirichletVsNeumann:
    def test_interior_probe_equal_values(self):
        mesh = uniform_mesh(16)
        A_d = dirichlet_operator(WITH_MASS, mesh)
        A_n = neumann_operator(WITH_MASS, mesh)
        y = np.sin(math.pi * mesh.nodes).astype(complex)
        y[0] = y[-1] = 0.0
        fd = form_on_X(A_d, Vector(y))
        fn = form_on_X(A_n, Vector(y))
        assert fd.value == pytest.approx(fn.value, rel=1e-10)

    def test_constant_probe_strictly_larger(self):
        mesh = uniform_mesh(16)
        A_d = dirichlet_operator(WITH_MASS, mesh)
        A_n = neumann_operator(WITH_MASS, mesh)
        one = Vector(np.ones(17, dtype=complex))
        fd, fn = form_on_X(A_d, one), form_on_X(A_n, one)
        # Neumann form: integral of b = 1; Dirichlet sup grows like 2a/h
        assert fn.value == pytest.approx(1.0, rel=1e-10)
        assert fd.value > 10 * fn.value

    def test_ordering_across_meshes(self):
        for m in (16, 32, 64):
            rep = dirichlet_vs_neumann(WITH_MASS, uniform_mesh(m))
            assert rep.verdict == "A>=B"
            for r in rep.probes:
                assert r.value_a >= r.value_b * (1 - 1e-9)

    def test_batched_values_match_per_probe_forms(self):
        """Each reported value is the form of the function that
        smooth_probe_set's docstring names, in t = x / L."""
        documented = [
            ("constant-1", lambda t: np.ones_like(t)),
            ("cos-pi", lambda t: np.cos(math.pi * t)),
            ("affine", lambda t: 1.0 + t),
            ("exp", np.exp),
            ("interior-sin", lambda t: np.sin(math.pi * t)),
            ("cosine-mix:0", lambda t: 1.0 - np.cos(2 * math.pi * t)),
            ("cosine-mix:1", lambda t: 1.0 - np.cos(math.pi * t)),
            ("cosine-mix:2", lambda t: 0.5 + np.cos(math.pi * t)
             + 0.5 * np.cos(2 * math.pi * t)),
            ("cosine-mix:3", lambda t: 0.5 + 1.5 * np.cos(math.pi * t)
             - np.cos(2 * math.pi * t)),
        ]
        for pb, m in ((WITH_MASS, 16), (WITH_MASS, 48),
                      (problem(1.0, "1 + x^2", "1 + sin(x)^2", 1.0), 32),
                      (problem(2.0, "0.5", "2", 0.5), 24)):
            mesh = uniform_mesh(m)
            A_d, A_n = dirichlet_operator(pb, mesh), neumann_operator(pb, mesh)
            rep = dirichlet_vs_neumann(pb, mesh)
            assert [r.label for r in rep.probes] == [label for label, _ in documented]
            for r, (_, f) in zip(rep.probes, documented):
                y = Vector(f(mesh.nodes / mesh.nodes[-1]).astype(complex))
                for got, A in ((r.value_a, A_d), (r.value_b, A_n)):
                    want = form_on_X(A, y).value
                    assert math.isinf(got) == math.isinf(want)
                    if not math.isinf(want):
                        assert abs(got - want) <= 1e-12 * abs(want)

    def test_degenerate_neumann_rejected(self):
        with pytest.raises(DomainError):
            neumann_operator(LAPLACE, uniform_mesh(8))

    @staticmethod
    def counted_problem(mesh, a, b, at_gauss):
        """The problem with coefficients a and b that count, in
        ``at_gauss``, their evaluations at the Gauss points of ``mesh``."""
        def counted(name, rule):
            f = compile_rule(rule)

            def coefficient(x):
                if np.shape(x) == mesh.gauss[0].shape:
                    at_gauss[name] += 1
                return f(x)
            return coefficient
        return EllipticProblem(1.0, counted("a", a), counted("b", b), 1.0)

    def test_one_assembly_per_comparison(self, monkeypatch):
        """Both operators come from one stiffness and one evaluation of a
        and of b at the Gauss points; the golden values pin their bits."""
        mesh = uniform_mesh(32)
        grams, at_gauss = [], {"a": 0, "b": 0}

        def hat_gram(*args):
            grams.append(args)
            return _hat_gram(*args)

        pb = self.counted_problem(mesh, "1 + x^2", "1 + sin(x)^2", at_gauss)
        monkeypatch.setattr(elliptic, "_hat_gram", hat_gram)
        rep = dirichlet_vs_neumann(pb, mesh)
        assert len(grams) == 1 and at_gauss == {"a": 1, "b": 1}
        monkeypatch.undo()
        ref = dirichlet_vs_neumann(problem(1.0, "1 + x^2", "1 + sin(x)^2", 1.0), mesh)
        assert rep.verdict == ref.verdict == "A>=B"
        assert rep.probes == ref.probes

    def test_neumann_operator_evaluates_each_coefficient_once(self):
        mesh = uniform_mesh(32)
        at_gauss = {"a": 0, "b": 0}
        A_n = neumann_operator(self.counted_problem(mesh, "1 + x^2", "1 + sin(x)^2",
                                                    at_gauss), mesh)
        assert at_gauss == {"a": 1, "b": 1}
        ref = neumann_operator(problem(1.0, "1 + x^2", "1 + sin(x)^2", 1.0), mesh)
        assert np.array_equal(A_n.action_mat, ref.action_mat)

    @pytest.mark.parametrize("a, b", [("1", "0 - 1"), ("0.5", "x - 1")],
                             ids=["b-negative", "a-below-gamma-too"])
    def test_neumann_gate_comes_first(self, a, b):
        # a negative b, or an a below gamma, would fail the coefficient
        # check with NotPositive; the gate on b > 0 speaks first
        with pytest.raises(DomainError, match="needs b > 0"):
            neumann_operator(problem(1.0, a, b, 1.0), uniform_mesh(32))

    def test_variable_coefficients(self):
        pb = problem(1.0, "1 + x^2", "1 + sin(x)^2", 1.0)
        rep = dirichlet_vs_neumann(pb, uniform_mesh(32))
        assert rep.verdict == "A>=B"


GOLDEN = Path(__file__).resolve().parent / "data" / "elliptic_golden.json"


def _hex(v):
    """Floats as ``float.hex``, containers entry by entry; exact, so equal
    records mean equal bits."""
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, dict):
        return {k: _hex(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    return v


def _bands(G):
    """Diagonal and superdiagonal of a gram that is exactly the symmetric
    tridiagonal matrix they make."""
    d, e = np.diag(G).real, np.diag(G, 1).real
    assert np.array_equal(G, np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return [d.tolist(), e.tolist()]


def _golden_record(spec, m):
    """Grams, mass matrix, Poincare constant, weak solve and probe values
    of one problem on the uniform mesh of m elements."""
    pb = problem(spec["length"], spec["a"], spec["b"], spec["gamma"], spec["p"])
    mesh = uniform_mesh(m, spec["length"])
    sol = weak_solve(pb, mesh, spec["g"])
    rep = dirichlet_vs_neumann(pb, mesh)
    return _hex({
        "dirichlet": _bands(assemble(pb, mesh, "dirichlet").gram),
        "neumann": _bands(assemble(pb, mesh, "neumann").gram),
        "mass": [v.tolist() for v in _hat_gram(mesh, 0.0, 1.0)],
        "poincare": discrete_poincare(mesh),
        "nodal": sol.nodal_values().tolist(),
        "galerkin": sol.galerkin_residual, "energy": sol.energy_norm,
        "lp": sol.lp_norm,
        "l2_error": l2_error(sol, compile_rule(spec["exact"])),
        "probes": [[r.label, r.value_a, r.value_b] for r in rep.probes],
        "verdict": rep.verdict,
    })


def _golden_cases():
    return json.loads(GOLDEN.read_text())


class TestGoldenValues:
    """Three problems at m = 2, 7 and 32, bit for bit as recorded in
    ``tests/data/elliptic_golden.json`` before the assembly shared one
    Gauss table: grams, mass matrix, discrete Poincare constant, weak
    solve and the Dirichlet-vs-Neumann probe values."""

    def test_golden_file_covers_three_problems_on_three_meshes(self):
        cases = _golden_cases()
        assert len({json.dumps(c["problem"]) for c in cases}) == 3
        assert sorted({c["m"] for c in cases}) == [2, 7, 32]
        assert len(cases) == 9

    @pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: c["id"])
    def test_values_are_unchanged(self, case):
        assert _golden_record(case["problem"], case["m"]) == case["record"]
