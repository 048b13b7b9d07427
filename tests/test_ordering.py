"""Factorization JJ* = A, the form of A on X, and the partial order."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from formcalc import series
from formcalc.duality import (
    DOMAIN_FINITE, DenseOperator, Vector, dense_pair, diagonal_operator,
    operator_from_matrix, restricted_operator, sequence_pair, vector,
)
from formcalc.errors import BackendMismatch, NotPositive
from formcalc.ordering import (
    antisymmetry_check, compare, factorize, form_on_X, form_oracle_eigensolve,
    hilbert_consistency, in_dom_Jstar,
)
from formcalc.scenarios import OPERATIONS

DP2 = dense_pair(2)
SP = sequence_pair(48)


def random_psd(rng, n, force_kernel=False):
    d = n - int(rng.integers(1, n)) if force_kernel and n > 1 else n
    W = rng.normal(size=(n, max(d, 1))) + 1j * rng.normal(size=(n, max(d, 1)))
    return W @ W.conj().T


class TestFactorize:
    def test_identity(self):
        res = factorize(operator_from_matrix(np.eye(2), DP2))
        assert res.rank == 2
        np.testing.assert_allclose(res.gram, np.eye(2), atol=1e-14)

    def test_diag_gram_assembly(self):
        res = factorize(operator_from_matrix(np.diag([1.0, 4.0]), DP2))
        # gram over {A e1, A e2} is diag(1, 4) by direct assembly
        K = np.zeros((2, 2), dtype=complex)
        K[np.ix_(np.argsort(res.pivots), np.argsort(res.pivots))] = res.gram
        np.testing.assert_allclose(sorted(np.diag(res.gram).real), [1.0, 4.0])
        assert res.extension_residual <= 1e-10

    def test_kernel_quotient(self):
        res = factorize(operator_from_matrix(np.diag([1.0, 0.0]), DP2))
        assert res.rank == 1
        assert res.details["rank_gap"] == 0
        # well-definedness despite collisions: JJ* reproduces A on e2 too
        assert res.extension_residual <= 1e-10

    def test_collision_pairs_brute_force(self):
        # A with A x1 = A x2: the quotient must identify them
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = factorize(operator_from_matrix(M, DP2))
        assert res.rank == 1
        c1 = res.jstar_coefficients(np.array([1.0, 0.0]))
        c2 = res.jstar_coefficients(np.array([0.0, 1.0]))
        np.testing.assert_allclose(c1, c2, atol=1e-12)

    def test_random_psd_including_rank_deficient(self):
        rng = np.random.default_rng(17)
        for k in range(200):
            n = int(rng.integers(1, 9))
            A = operator_from_matrix(
                random_psd(rng, n, force_kernel=(k % 3 == 0)), dense_pair(n))
            res = factorize(A)
            assert res.extension_residual <= 1e-10
            assert res.details["rank_gap"] == 0

    def test_nonpositive_rejected(self):
        with pytest.raises(NotPositive):
            factorize(operator_from_matrix(np.diag([1.0, -1.0]), DP2))


class TestFormOnX:
    def test_zero(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        assert form_on_X(A, vector([0, 0], DP2)).value == 0.0

    def test_full_domain_is_quadratic(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        fv = form_on_X(A, vector([1, 1], DP2))
        assert fv.value == pytest.approx(5.0, abs=1e-10)
        # witness saturates Cauchy-Schwarz at y itself (up to scale)
        w = fv.witness / fv.witness[0]
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-10)

    def test_matches_eigensolve_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            A = operator_from_matrix(random_psd(rng, n), dense_pair(n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            v1 = form_on_X(A, y).value
            v2 = form_oracle_eigensolve(A, y)
            assert abs(v1 - v2) <= 1e-6 * max(v1, v2, 1.0)

    def test_oracle_matches_scipy_generalized_eigh(self):
        # the oracle reduces the pencil through a Cholesky; scipy's
        # generalized eigh is LAPACK hegv on the same truncated pencil
        rng = np.random.default_rng(24)
        for k in range(100):
            n = int(rng.integers(1, 13))
            A = restricted_operator(random_psd(rng, n, force_kernel=k % 2 == 1),
                                    rng.normal(size=(n, max(1, n - k % 3))), dense_pair(n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            F = A.form_gram()
            quad = 0.5 * (np.conj(F) + F.T)
            lam, V = scipy.linalg.eigh(quad)
            Vr = V[:, lam > 1e-12 * max(float(lam[-1]), 1e-300)]
            wr = Vr.conj().T @ (A.action_mat.conj().T @ y.coords)
            want = scipy.linalg.eigh(np.outer(wr, wr.conj()), Vr.conj().T @ quad @ Vr,
                                     eigvals_only=True)[-1]
            got = form_oracle_eigensolve(A, y)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_full_domain_quadratic_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            M = random_psd(rng, n) + 0.1 * np.eye(n)
            A = operator_from_matrix(M, dense_pair(n))
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            quad = float(np.real(np.vdot(y, M @ y)))
            assert form_on_X(A, Vector(y)).value == pytest.approx(quad, rel=1e-9)

    def test_jstar_energy_matches_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            A = operator_from_matrix(random_psd(rng, n), dense_pair(n))
            fac = factorize(A)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = fac.jstar_coefficients(y)
            via_h = float(np.real(fac.h_inner(c, c)))
            direct = form_on_X(A, Vector(y)).value
            assert abs(via_h - direct) <= 1e-8 * max(via_h, direct, 1.0)

    def test_sequence_divergent(self):
        A = diagonal_operator(series.polynomial(2.0), SP, DOMAIN_FINITE)
        y = Vector(series.polynomial(-1.0)(np.arange(1, 49)), "sequence",
                   tail=series.polynomial(-1.0))
        fv = form_on_X(A, y)
        assert math.isinf(fv.value)
        assert fv.kind == "tail-divergence"
        assert fv.certificate["growth_ratios"]

    def test_sequence_membership_pairs(self):
        A = diagonal_operator(series.polynomial(2.0), SP, DOMAIN_FINITE)
        y_in = Vector(series.polynomial(-2.0)(np.arange(1, 49)), "sequence",
                      tail=series.polynomial(-2.0))
        assert in_dom_Jstar(A, y_in)
        y_out = Vector(series.polynomial(-1.0)(np.arange(1, 49)), "sequence",
                       tail=series.polynomial(-1.0))
        assert not in_dom_Jstar(A, y_out)


class TestCompare:
    def test_scalar_ordering(self):
        A = operator_from_matrix(2 * np.eye(2), DP2)
        B = operator_from_matrix(np.eye(2), DP2)
        assert compare(A, B, []).verdict == "A>=B"

    def test_incomparable(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        B = operator_from_matrix(np.diag([4.0, 1.0]), DP2)
        rep = compare(A, B, [])
        assert rep.verdict == "incomparable"

    def test_equal(self):
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        B = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        assert compare(A, B, []).verdict == "equal"

    def test_scaling_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            M = random_psd(rng, n) + 0.05 * np.eye(n)
            c = float(rng.uniform(1.0, 4.0))
            A = operator_from_matrix(c * M, dense_pair(n))
            B = operator_from_matrix(M, dense_pair(n))
            verdict = compare(A, B, []).verdict
            assert verdict in ("A>=B", "equal")

    def test_transitivity_on_probes(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            M = random_psd(rng, n) + 0.1 * np.eye(n)
            A = operator_from_matrix(3.0 * M, dense_pair(n))
            B = operator_from_matrix(2.0 * M, dense_pair(n))
            C = operator_from_matrix(M, dense_pair(n))
            assert compare(A, B, []).verdict == "A>=B"
            assert compare(B, C, []).verdict == "B>=A" or compare(
                B, C, []).verdict == "A>=B"
            repAC = compare(A, C, [])
            assert all(r.value_a >= r.value_b * (1 - 1e-9) for r in repAC.probes)

    def test_sequence_domain_inclusion_breaks_order(self):
        # dom J for diag(n^2) is smaller than for diag(1): the big operator
        # dominates pointwise yet y_n = 1/n certifies the domain gap
        A = diagonal_operator(series.polynomial(2.0), SP, DOMAIN_FINITE)
        B = diagonal_operator(series.constant(1.0), SP, DOMAIN_FINITE)
        y = Vector(series.polynomial(-1.0)(np.arange(1, 49)), "sequence",
                   tail=series.polynomial(-1.0))
        rep = compare(A, B, [y])
        assert rep.verdict == "A>=B"
        assert rep.domain_inclusion["domain_A_le_B"]


def seq_op(*terms):
    return diagonal_operator(series.Rule(tuple(series.Term(*t) for t in terms)),
                             SP, DOMAIN_FINITE)


def witnesses(rep):
    return {r.label: (r.value_a, r.value_b) for r in rep.probes
            if r.label.startswith("witness:")}


class TestDecidedOrder:
    def test_sequence_pairs(self):
        # 100 + n against n^2, and n^2 against 20 n: each fails both ways
        rep = compare(seq_op((100.0,), (1.0, 1.0)), seq_op((1.0, 2.0)), [])
        assert rep.verdict == "incomparable"
        certs = rep.domain_inclusion["certificates"]
        assert [c["witness"] for c in certs] == [11, 1]
        assert witnesses(rep) == {"witness:A>=B": (111.0, pytest.approx(121.0, rel=1e-14)),
                                  "witness:B>=A": (101.0, 1.0)}
        rep = compare(seq_op((1.0, 2.0)), seq_op((20.0, 1.0)), [])
        assert rep.verdict == "incomparable"
        assert [c["witness"] for c in rep.domain_inclusion["certificates"]] == [1, 21]
        assert witnesses(rep) == {"witness:A>=B": (1.0, 20.0),
                                  "witness:B>=A": (pytest.approx(441.0, rel=1e-14), 420.0)}
        rep = compare(seq_op((1.0, 2.0)), seq_op((1.0,)), [])
        assert rep.verdict == "A>=B"
        assert [c["holds"] for c in rep.domain_inclusion["certificates"]] == [True, False]
        assert [r.label for r in rep.probes] == [f"basis:{k}" for k in range(4)] + [
            "witness:B>=A"]

    @pytest.mark.parametrize("a, b, p, inclusion", [
        (((100.0,), (1.0, 1.0)), ((1.0, 2.0),), 2.0, (False, True)),
        (((1.0, 2.0),), ((20.0, 1.0),), 2.0, (True, False)),
        (((3.0, 1.0),), ((1.0, 1.0), (5.0,)), 2.0, (True, True)),
        (((1.0, 40.0),), ((1e-3, 0.0, 1.5),), 2.0, (False, True)),
        (((0.0, 1.0),), ((1.0, -2.0),), 2.0, (True, True)),
        (((1.0,),), ((1.0, -2.0),), 2.0, (True, True)),
        (((1.0, 0.0, 0.5),), ((1.0, 0.0, 0.3),), 2.0, (True, True)),
        (((1.0, 0.0, 0.5),), ((1.0, 0.0, 0.3),), 1.5, (True, True)),
        (((1.0,),), ((1.0, 1.0),), 1.5, (False, True)),
        (((1.0,),), ((1.0, -2.0),), 3.0, (True, False)),
        (((1.0, -0.2),), ((1.0, -0.5),), 3.0, (True, False)),
        (((1.0, -0.2),), ((1.0, -0.5),), 2.0, (True, True)),
        (((1.0, -0.5),), ((1.0, -0.6),), 6.0, (True, False)),
        (((1.0, -0.5),), ((1.0, -0.6),), 3.0, (True, True)),
        (((1.0, 0.0, 0.5),), ((1.0, 0.0, 0.3),), 3.0, (True, True)),
        (((0.0, 1.0),), ((1.0, -0.2),), 3.0, (False, True)),
    ])
    def test_sequence_domain_inclusion_is_decided(self, a, b, p, inclusion):
        # on l^p, dom J_A* lies in dom J_B* iff b = O(a) or b is in l^r,
        # r = inf for p <= 2 and p/(p - 2) above: every bounded rule keeps
        # all of l^2 and its subspaces l^p, p <= 2, in its domain
        rep = compare(seq_op(*a), seq_op(*b), [], p=p)
        assert (rep.domain_inclusion["domain_A_le_B"],
                rep.domain_inclusion["domain_B_le_A"]) == inclusion

    def test_sequence_tail_decides(self):
        # 1 + 0.5^n against 1 + 0.6^n (start 3): equal on the head, then b wins
        a = seq_op((1.0,), (1.0, 0.0, 0.5, 3))
        b = seq_op((1.0,), (1.0, 0.0, 0.6, 3))
        rep = compare(a, b, [])
        assert rep.verdict == "B>=A"
        (fwd, bwd) = rep.domain_inclusion["certificates"]
        assert fwd["witness"] == 3 and bwd["holds"]

    def test_seeded_restricted_pairs(self):
        """Restricted domains on a shared basis, the pairs whose order the
        eigenvectors of A_eff - B_eff got wrong: every verdict matches the
        oracle, and pairs 140, 202, 237 and 379 are incomparable."""
        rng = np.random.default_rng(0)
        verdicts = []
        for i in range(400):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, n + 1))
            basis = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            ops = []
            for _ in range(2):
                W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                ops.append(DenseOperator("to-dual", basis,
                                         (W @ W.conj().T / n + 0.1 * np.eye(n)) @ basis))
            rep = compare(*ops, [])
            assert rep.verdict == oracle_verdict(*ops), i
            verdicts.append(rep.verdict)
            if i == 140:
                wit = witnesses(rep)
                assert wit["witness:A>=B"] == pytest.approx((0.140, 0.591), abs=5e-4)
                assert wit["witness:B>=A"] == pytest.approx((3.072, 0.730), abs=5e-4)
        assert all(verdicts[i] == "incomparable" for i in (140, 202, 237, 379))

    def test_witnesses_do_not_depend_on_the_eigensolver(self, monkeypatch):
        # one eigenbasis, differences -1 and 1/4 of multiplicity 4 each:
        # any basis of either eigenspace is a valid eigensolver output
        rng = np.random.default_rng(5)
        U, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        d = rng.uniform(0.5, 3.0, 8)
        A, B = (operator_from_matrix(0.5 * (M + M.conj().T), dense_pair(8))
                for M in (U @ np.diag(d) @ U.conj().T,
                          U @ np.diag(d + np.repeat([1.0, -0.25], 4)) @ U.conj().T))
        first = witnesses(compare(A, B, []))
        monkeypatch.setattr(np.linalg, "eigh", lambda M: scipy.linalg.eigh(M, driver="evr"))
        second = witnesses(compare(A, B, []))
        assert first.keys() == second.keys() == {"witness:A>=B", "witness:B>=A"}
        for label in first:
            assert first[label] == pytest.approx(second[label], rel=1e-12)

    def test_four_eigensolves_per_dense_compare(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        A = operator_from_matrix(np.diag([1.0, 4.0, 2.0]), dense_pair(3))
        B = operator_from_matrix(np.diag([4.0, 1.0, 2.0]), dense_pair(3))
        assert compare(A, B, []).verdict == "incomparable"
        assert len(calls) == 4

    def test_samples_off_the_operands_space(self):
        A = operator_from_matrix(np.eye(2), DP2)
        for y in (Vector(np.ones(2, dtype=complex), "sequence"),
                  Vector(np.ones(3, dtype=complex))):
            with pytest.raises(BackendMismatch):
                compare(A, A, [y])
        with pytest.raises(BackendMismatch):
            compare(seq_op((1.0,)), seq_op((1.0,)), [Vector(np.ones(2, dtype=complex))])

    def test_no_randomness(self, monkeypatch):
        """The order and its handlers draw nothing at random."""
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.random.default_rng called")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        rep = compare(A, A, [vector([1, 1j], DP2)])
        assert antisymmetry_check(A, A, rep).passed
        assert compare(seq_op((1.0, 2.0)), seq_op((1.0,)), []).verdict == "A>=B"
        dense = {"backend": "dense", "direction": "to-dual",
                 "domain_basis": [[1, 0], [0, 1]], "action": [[2, 0], [0, 3]]}
        for op in ("compare", "antisymmetry"):
            OPERATIONS[op][1]({"A": dense, "B": dense})


def dense_kind(kind, rng, n, basis=None):
    """A restricted domain (on ``basis`` if given), a form kernel or an
    escaping action."""
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "restricted":
        if basis is None:
            d = int(rng.integers(1, n + 1))
            basis = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        return DenseOperator("to-dual", basis,
                             (W @ W.conj().T / n + 0.1 * np.eye(n)) @ basis)
    if kind == "kernel":
        return operator_from_matrix(random_psd(rng, n, True), dense_pair(n))
    return escaping_operator(rng, n)


# (coef, alpha, ratio, start) from small sets, so that a - b merges exactly
# and its dominant group wins well before n = 3000
SEQ_TERM = st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                     st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                     st.sampled_from([0.5, 0.8, 1.0, 1.1]), st.integers(1, 3))


class TestOrderBatteries:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind_a=st.sampled_from(["restricted", "kernel", "escaping"]),
           kind_b=st.sampled_from(["restricted", "kernel", "escaping", "scaled",
                                   "same-basis"]),
           c=st.sampled_from([0.5, 1.0, 2.0]))
    def test_dense_verdicts_match_the_oracle(self, seed, kind_a, kind_b, c):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        A = dense_kind(kind_a, rng, n)
        if kind_b == "scaled":
            B = DenseOperator("to-dual", A.basis_mat, c * A.action_mat)
        elif kind_b == "same-basis":
            B = dense_kind("restricted", rng, n, A.basis_mat)
        else:
            B = dense_kind(kind_b, rng, n)
        rep = compare(A, B, [])
        assert rep.verdict == oracle_verdict(A, B)
        assert (rep.domain_inclusion["domain_A_le_B"],
                rep.domain_inclusion["domain_B_le_A"]) == inclusion_oracle(A, B)
        if kind_b == "scaled":
            assert rep.verdict == {0.5: "A>=B", 1.0: "equal", 2.0: "B>=A"}[c]
        for label, (va, vb) in witnesses(rep).items():
            x, y = (va, vb) if label == "witness:A>=B" else (vb, va)
            assert math.isinf(y) or x < y

    @settings(max_examples=150, deadline=None)
    @given(a=st.lists(SEQ_TERM, min_size=1, max_size=3),
           b=st.lists(SEQ_TERM, min_size=0, max_size=3), shared=st.booleans())
    def test_sequence_verdicts_match_the_head_and_dominance(self, a, b, shared):
        """Against d = a - b evaluated at n = 1..3000, beyond which the
        dominant merged term of d decides its sign: each other group is
        decreasing there and at most 1/16 of it."""
        b = a + b if shared else b
        assume(b)
        rep = compare(seq_op(*a), seq_op(*b), [])
        groups = {}
        for sign, terms in ((1.0, a), (-1.0, b)):
            for c, alpha, ratio, _ in terms:
                groups[alpha, ratio] = groups.get((alpha, ratio), 0.0) + sign * c
        live = {k: c for k, c in groups.items() if c != 0.0}
        ns = np.arange(1, 3001)
        va = np.real(seq_op(*a).diagonal(ns))
        vb = np.real(seq_op(*b).diagonal(ns))
        slack = 1e-9 * np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1.0)
        tail = 0
        if live:
            top = max(live, key=lambda k: (k[1], k[0]))
            for (alpha, ratio), c in live.items():
                if (alpha, ratio) == top:
                    continue
                # decreasing from 3000 on, and small there
                assert alpha <= top[0] or (alpha - top[0]) / math.log(top[1] / ratio) <= 3000
                assert abs(c) * 3000.0 ** (alpha - top[0]) * (ratio / top[1]) ** 3000 \
                    <= abs(live[top]) / 16
            tail = 1 if live[top] > 0 else -1
        ge = bool(np.all(va - vb >= -slack)) and tail >= 0
        le = bool(np.all(vb - va >= -slack)) and tail <= 0
        assert rep.verdict == {(True, True): "equal", (True, False): "A>=B",
                               (False, True): "B>=A",
                               (False, False): "incomparable"}[ge, le]
        for cert, x, y in zip(rep.domain_inclusion["certificates"], (va, vb), (vb, va)):
            if not cert["holds"]:
                k = cert["witness"]
                assert x[k - 1] < y[k - 1] and np.all(x[:k - 1] - y[:k - 1] >= -slack[:k - 1])


def nearest_unit(W):
    """The unit vector of span W nearest the standard basis vector nearest
    span W: the witness rule of compare, which fixes a witness from a
    repeated eigen- or singular value."""
    w = W @ W[np.argmax(np.linalg.norm(W, axis=1))].conj()
    return w / np.linalg.norm(w)


def form_matrix_oracle(op):
    """(Q, N) from scipy: the form on X is y^H Q y with Q = Z pinvh(quad) Z^H
    (cutoff 1e-12), on dom J* = the null space of the dead rows
    V_dead^H Z^H, of which N is an orthonormal basis.  The null space needs
    an absolute floor: without one a dead row at rounding level would
    count as a constraint."""
    F = op.form_gram()
    quad = 0.5 * (np.conj(F) + F.T)
    lam, V = scipy.linalg.eigh(quad)
    live = lam > 1e-12 * max(float(lam[-1]), 1e-300)
    Z = op.action_mat
    Q = Z @ scipy.linalg.pinvh(quad, atol=0.0, rtol=1e-12) @ Z.conj().T
    T = V.conj().T @ Z.conj().T
    floor = 1e-8 * max(1.0, float(np.linalg.norm(T)))
    s = scipy.linalg.svdvals(T[~live]) if np.any(~live) else np.zeros(0)
    if s.size and s[0] > floor:
        return Q, scipy.linalg.null_space(T[~live], rcond=floor / s[0])
    return Q, np.eye(op.n, dtype=complex)


def order_oracle(A, B):
    """Per direction (A >= B, then B >= A): None when it holds, else its
    witness, from :func:`form_matrix_oracle` and scipy factorizations."""
    (Qa, Na), (Qb, Nb) = form_matrix_oracle(A), form_matrix_oracle(B)
    scale = max(np.linalg.norm(Qa), np.linalg.norm(Qb), 1.0)

    def witness(Qx, Nx, Qy, Ny):
        R = Nx - Ny @ (Ny.conj().T @ Nx)
        if R.size:
            _, s, Vh = scipy.linalg.svd(R, full_matrices=False)
            if s[0] > 1e-8:
                return nearest_unit(Nx @ Vh[s >= s[0] - 1e-10].conj().T)
        mu, U = scipy.linalg.eigh(Nx.conj().T @ (Qx - Qy) @ Nx)
        if mu.size and mu[0] < -1e-9 * scale:
            return nearest_unit(Nx @ U[:, mu <= mu[0] + 1e-10 * scale])
        return None

    return witness(Qa, Na, Qb, Nb), witness(Qb, Nb, Qa, Na)


def inclusion_oracle(A, B):
    """(dom J_A* in dom J_B*, dom J_B* in dom J_A*) from
    :func:`form_matrix_oracle`: the part of one domain basis outside the
    other has no singular value above 1e-8."""
    Na, Nb = form_matrix_oracle(A)[1], form_matrix_oracle(B)[1]

    def inside(Nx, Ny):
        R = Nx - Ny @ (Ny.conj().T @ Nx)
        return not R.size or scipy.linalg.svdvals(R)[0] <= 1e-8

    return inside(Na, Nb), inside(Nb, Na)


def oracle_verdict(A, B):
    ge, le = (w is None for w in order_oracle(A, B))
    return {(True, True): "equal", (True, False): "A>=B",
            (False, True): "B>=A", (False, False): "incomparable"}[ge, le]


def loop_probes(A, B, samples):
    """The dense probe set of compare, built one probe at a time: the
    reference for its batched evaluation."""
    probes = [s.coords for s in samples]
    probes += [A.basis_mat[:, j] for j in range(A.d)]
    probes += [B.basis_mat[:, j] for j in range(B.d)]
    return probes + [w for w in order_oracle(A, B) if w is not None]


def escaping_operator(rng, n):
    """Domain e_1..e_{n-1}, form gram with kernel e_1, and an action on
    e_1 that leaves the domain: probes with a last coordinate escape."""
    W = rng.normal(size=(n, n - 2)) + 1j * rng.normal(size=(n, n - 2))
    W[0] = 0.0
    basis = np.eye(n)[:, :n - 1]
    action = W @ W.conj().T @ basis
    action[n - 1, 0] += 1.0
    return DenseOperator("to-dual", basis, action)


def operator_kinds(rng, n):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    hpd = W @ W.conj().T / n + 0.5 * np.eye(n)
    basis = rng.normal(size=(n, n - n // 3)) + 1j * rng.normal(size=(n, n - n // 3))
    return {"hpd": operator_from_matrix(hpd, dense_pair(n)),
            "psd-kernel": operator_from_matrix(random_psd(rng, n, True),
                                               dense_pair(n)),
            "restricted": restricted_operator(hpd, basis, dense_pair(n)),
            "escaping": escaping_operator(rng, n)}


def rel_gap(u, v, op, y):
    """Relative gap, floored at the form's scale ||A|| |y|^2: a probe in the
    kernel has a value at the rounding level of that scale."""
    floor = np.linalg.norm(op.action_mat, 2) * np.linalg.norm(y) ** 2
    return abs(u - v) / max(abs(u), abs(v), floor)


class TestBatchedProbes:
    @pytest.mark.parametrize("n", [3, 8, 16, 24])
    def test_compare_probes_match_single_probe_and_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        kinds_a, kinds_b = operator_kinds(rng, n), operator_kinds(rng, n)
        pairs = [(kinds_a[k], kinds_b[k], k) for k in kinds_a]
        # a full domain against an escaping one: an escape witness
        pairs.append((kinds_a["hpd"], kinds_b["escaping"], "hpd-escaping"))
        escaped = witnesses = 0
        for A, B, kind in pairs:
            samples = [Vector(rng.normal(size=n) + 1j * rng.normal(size=n))]
            rep = compare(A, B, samples)
            probes = loop_probes(A, B, samples)
            assert len(rep.probes) == len(probes), kind
            witnesses += sum(r.label.startswith("witness:") for r in rep.probes)
            for rec, y in zip(rep.probes, probes):
                for op, got in ((A, rec.value_a), (B, rec.value_b)):
                    single = form_on_X(op, Vector(y)).value
                    assert math.isinf(got) == math.isinf(single), (kind, rec.label)
                    if math.isinf(got):
                        escaped += 1
                        continue
                    assert rel_gap(got, single, op, y) <= 1e-12, (kind, rec.label)
                    oracle = form_oracle_eigensolve(op, Vector(y))
                    assert rel_gap(got, oracle, op, y) <= 1e-12, (kind, rec.label)
        assert escaped > 0 and witnesses > 0

    def test_jstar_coefficients_matrix_matches_columns(self):
        rng = np.random.default_rng(47)
        for n in (1, 5, 12):
            A = operator_from_matrix(random_psd(rng, n, True), dense_pair(n))
            fac = factorize(A)
            Y = rng.normal(size=(n, 7)) + 1j * rng.normal(size=(n, 7))
            C = fac.jstar_coefficients(Y)
            for j in range(Y.shape[1]):
                np.testing.assert_allclose(C[:, j], fac.jstar_coefficients(Y[:, j]),
                                           rtol=1e-12, atol=1e-14)


class TestAntisymmetry:
    def test_equal_passes(self):
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        rep = compare(A, A, [])
        assert antisymmetry_check(A, A, rep).passed

    def test_change_of_basis(self):
        M = np.diag([2.0, 3.0])
        A = operator_from_matrix(M, DP2)
        basis = np.array([[1.0, 1.0], [1.0, -1.0]])
        B = restricted_operator(M, basis, DP2)
        rep = compare(A, B, [])
        assert rep.verdict == "equal"
        chk = antisymmetry_check(A, B, rep)
        assert chk.passed

    def test_refuses_on_nonequal(self):
        A = operator_from_matrix(np.diag([2.0, 3.0]), DP2)
        B = operator_from_matrix(np.diag([2.0, 3.0 + 1e-6]), DP2)
        rep = compare(A, B, [])
        assert rep.verdict != "equal"
        with pytest.raises(ValueError):
            antisymmetry_check(A, B, rep)


class TestHilbertConsistency:
    def test_identity(self):
        A = operator_from_matrix(np.eye(2), DP2)
        ys = [vector([1, 0], DP2), vector([1, 1j], DP2)]
        rep = hilbert_consistency(A, ys, DP2)
        assert rep.passed

    def test_diag_explicit_root(self):
        A = operator_from_matrix(np.diag([1.0, 4.0]), DP2)
        rep = hilbert_consistency(A, [vector([1, 1], DP2)], DP2)
        assert rep.passed and rep.worst_residual <= 1e-10

    def test_offdiagonal_eigendecomposition(self):
        A = operator_from_matrix([[2.0, 1.0], [1.0, 2.0]], DP2)
        y = vector([1, 0], DP2)
        # (Ay, y) = 2 on e1
        assert form_on_X(A, y).value == pytest.approx(2.0, abs=1e-12)
        assert hilbert_consistency(A, [y], DP2).passed

    def test_random_samples(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = operator_from_matrix(random_psd(rng, n), dense_pair(n))
            y = Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
            assert hilbert_consistency(A, [y], dense_pair(n)).passed

    def test_batched_samples_match_per_sample(self):
        rng = np.random.default_rng(44)
        for n in (1, 3, 8, 16):
            dp = dense_pair(n)
            basis = rng.normal(size=(n, max(1, n - 2))) + 1j * rng.normal(
                size=(n, max(1, n - 2)))
            for A in (operator_from_matrix(random_psd(rng, n, True), dp),
                      restricted_operator(random_psd(rng, n), basis, dp)):
                ys = [Vector(rng.normal(size=n) + 1j * rng.normal(size=n))
                      for _ in range(5)]
                got = hilbert_consistency(A, ys, dp).worst_residual
                ref = loop_hilbert_residual(A, ys)
                assert abs(got - ref) <= 1e-12 * max(ref, 1.0)

    def test_escaping_sample_gives_inf(self):
        # the Hermitian part diag(1, 0, 0) passes the positivity gate, but
        # the skew block makes the form infinite off the first axis
        dp = dense_pair(3)
        A = operator_from_matrix([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dp)
        inside, escaping = vector([2, 0, 0], dp), vector([1, 1, 0], dp)
        assert form_on_X(A, escaping).value == math.inf
        assert hilbert_consistency(A, [inside], dp).passed
        rep = hilbert_consistency(A, [inside, escaping], dp)
        assert rep.worst_residual == math.inf == loop_hilbert_residual(A, [inside, escaping])
        assert not rep.passed
        assert hilbert_consistency(A, [], dp).worst_residual == 0.0


def loop_hilbert_residual(A, samples):
    """Worst square-root-identity residual, one sample at a time; a sample
    outside the form domain has residual inf."""
    M = A.effective_matrix()
    lam, V = scipy.linalg.eigh(0.5 * (M + M.conj().T))
    lam = np.where(lam > 1e-14 * max(float(lam[-1]), 1e-300), lam, 0.0)
    root = V @ np.diag(np.sqrt(lam)) @ V.conj().T
    P = A.effective_projector()
    worst = 0.0
    for y in samples:
        yp = P @ y.coords
        lhs = form_on_X(A, Vector(yp)).value
        rhs = float(np.linalg.norm(root @ yp) ** 2)
        res = math.inf if math.isinf(lhs) else abs(lhs - rhs) / max(lhs, rhs, 1.0)
        worst = max(worst, res)
    return worst
