"""Seeded inputs for the benchmark workloads, each with its expectations.

A workload is a batch the program runs in one go.  ``suite-all`` is
``formcalc suite all`` on the run's seed; ``dense-grid`` and
``sequence-certify`` are scenario files for ``formcalc run``.  Sizes and
counts are fixed per workload; the seed changes only the random content,
so every seed costs about the same.  Each scenario carries the verdict
the construction forces and the values the oracles in ``oracles.py``
predict; formcalc is never consulted to make them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

import oracles

# check names of one ``suite all`` seed; controls must fail
SUITE_CHECKS = (
    "thm1-random-inverses", "lem1-bounded-inverse", "thm1-offdiagonal-example",
    "control-indefinite-form",
    "thm2-square", "thm2-exponential", "thm2-geometric-2",
    "thm2-dense-fixed-point", "control-decaying-generator",
    "lem2-factorization", "lem2-remark-sqrt", "lem3-form-characterization",
    "order-definition", "control-antisymmetry-refusal",
    "thm4-joint-factorization", "closedness-sequential", "eq7-lemmas45-thm56",
    "thm5-block-construction", "control-broken-commutation",
    "thm7-second-moment-example", "thm7-closedness", "thm8-independent-sums",
    "control-unnormalized-weights",
    "thm3-dirichlet-vs-neumann", "elliptic-poincare", "elliptic-convergence",
    "elliptic-weak-solves", "elliptic-lower-bounds", "control-neumann-kernel",
)

# dense-grid sizes: (operation, n) pairs, one scenario each per round
DENSE_GRID = (
    [("associated-operator", n) for n in (24, 48, 72)]
    + [("factorize", n) for n in (24, 48, 72)]
    + [("form-on-x", n) for n in (24, 48, 72)]
    + [("compare", n) for n in (24, 36, 48, 64)]
    + [("form-sum", n) for n in (24, 48, 72)]
    + [("joint-factorize", n) for n in (24, 48)]
    + [("lift-commutant", n) for n in (24, 48, 64)]
    + [("spectrum-inclusion", n) for n in (24, 40)]
    + [("hilbert-consistency", n) for n in (24, 48, 72)]
    + [("dirichlet-vs-neumann", m) for m in (24, 48, 72)]
    + [("weak-solve", m) for m in (24, 48, 72)]
    + [("elliptic-assemble", m) for m in (24, 48, 72)]
)

COMPARE_KINDS = {24: "incomparable", 36: "B>=A", 48: "A>=B", 64: "A>=B"}

# sequence-certify: scenarios per kind per round
SEQ_COUNTS = {"form-on-x": 120, "form-on-x-slow": 12, "friedrichs": 60,
              "friedrichs-control": 10, "form-sum": 60, "compare": 60,
              "weak-expectation": 12, "second-moment": 30,
              "covariance-form": 30}
SEQ_TRUNCATION = 48

# Friedrichs generators whose only term starts past n = 1: the infimum is
# 0, so the verdict must be "fail".  series.rule_lower_bound ignores
# Term.start and certifies a positive gamma, so these fail every time
# until that is mended.  They do not depend on the seed.
KEPT_FAULT_GENERATORS = (
    [(1.0, 0.0, 1.0, 5)],
    [(2.0, 1.0, 1.0, 3)],
)


@dataclass
class Batch:
    kind: str                              # "suite" | "run"
    seeds: list = field(default_factory=list)
    scenarios: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)     # id -> expectation
    kept_fault: set = field(default_factory=set)

    @property
    def operations(self) -> int:
        if self.kind == "suite":
            return len(self.seeds) * len(SUITE_CHECKS)
        return len(self.scenarios)


# --- JSON helpers --------------------------------------------------------------


def cjson(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def mjson(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[v.real, v.imag] for v in row] for row in M.tolist()]


def vjson(v) -> dict:
    return {"backend": "dense", "coords": [cjson(z) for z in np.asarray(v)]}


def opjson(M) -> dict:
    n = np.asarray(M).shape[0]
    return {"backend": "dense", "direction": "to-dual",
            "domain_basis": mjson(np.eye(n)), "action": mjson(M)}


def rjson(terms) -> dict:
    return {"terms": [{"coef": [float(c), 0.0], "alpha": float(a),
                       "ratio": float(r), "start": int(s)}
                      for c, a, r, s in terms]}


def seqop(terms) -> dict:
    return {"backend": "sequence", "direction": "to-dual",
            "diagonal": rjson(terms), "domain": "finitely-supported"}


def seqvec(terms, n) -> dict:
    vals = oracles.rule_values(terms, np.arange(1, n + 1))
    return {"backend": "sequence", "coords": [[float(v), 0.0] for v in vals],
            "tail": {"kind": "rule", **rjson(terms)}}


# --- dense-grid ----------------------------------------------------------------


def _hermitian(M):
    return 0.5 * (M + M.conj().T)


def _hpd(rng, n, shift=0.5):
    W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _hermitian(W @ W.conj().T / n + shift * np.eye(n))


def _psd_rank(rng, n, d):
    W = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return _hermitian(W @ W.conj().T / n)


def _randvec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _dense_scenario(rng, op, n, sid):
    sc = {"id": sid, "op": op, "seed": int(rng.integers(0, 2 ** 31))}
    space = {"backend": "dense", "dim": n, "p": 2.0}
    checks = []
    if op == "associated-operator":
        G = _hpd(rng, n)
        lam = float(np.linalg.eigvalsh(G)[0])
        sc.update(space=space, gram=mjson(G))
        checks = [("close", ("details", "gamma"), lam, 1e-9, 0.0),
                  ("close", ("details", "b_norm"), 1.0 / lam, 1e-9, 0.0)]
    elif op == "factorize":
        d = n - max(2, n // 6)
        A = _psd_rank(rng, n, d)
        sc.update(A=opjson(A))
        checks = [("equal", ("details", "rank"), d)]
    elif op == "form-on-x":
        A = _psd_rank(rng, n, n - n // 4) if n % 48 else _hpd(rng, n)
        y = _randvec(rng, n)
        value = float(np.real(np.vdot(y, A @ y)))
        sc.update(A=opjson(A), y=vjson(y))
        checks = [("close", ("details", "value"), value, 1e-8, 0.0)]
    elif op == "compare":
        A, B = _hpd(rng, n), _hpd(rng, n)
        kind = COMPARE_KINDS[n]
        if kind == "A>=B":
            Ma, Mb = 2 * A + B, A
        elif kind == "B>=A":
            Ma, Mb = A, A + B
        else:
            Q, _ = np.linalg.qr(rng.normal(size=(n, n))
                                + 1j * rng.normal(size=(n, n)))
            d1 = rng.uniform(0.5, 3.0, size=n)
            d2 = d1.copy()
            d2[: n // 2] += 1.0
            d2[n // 2:] -= 0.25
            Ma = _hermitian(Q @ np.diag(d1) @ Q.conj().T)
            Mb = _hermitian(Q @ np.diag(d2) @ Q.conj().T)
        verdict = oracles.order_verdict(Ma, Mb)
        if verdict != kind:
            raise AssertionError(f"compare construction gave {verdict}")
        sc.update(A=opjson(Ma), B=opjson(Mb), expected=kind)
        diag_a, diag_b = np.real(np.diag(Ma)), np.real(np.diag(Mb))
        checks = [("equal", ("details", "verdict"), kind),
                  ("close", ("details", "probes", 0, 1), diag_a[0], 1e-8, 0.0),
                  ("close", ("details", "probes", 0, 2), diag_b[0], 1e-8, 0.0),
                  ("close", ("details", "probes", n - 1, 1), diag_a[-1], 1e-8, 0.0),
                  ("close", ("details", "probes", n - 1, 2), diag_b[-1], 1e-8, 0.0)]
    elif op == "form-sum":
        A, B = _hpd(rng, n), _hpd(rng, n)
        S = A + B
        sc.update(space=space, A=opjson(A), B=opjson(B), expected_matrix=mjson(S))
        checks = [("close", ("details", "gamma"),
                   float(np.linalg.eigvalsh(S)[0]), 1e-9, 0.0),
                  ("equal", ("details", "collapse_exact"), True),
                  ("le", ("residuals", "matrix"), 1e-10)]
    elif op == "joint-factorize":
        sc.update(space=space, A=opjson(_hpd(rng, n)), B=opjson(_hpd(rng, n)))
    elif op in ("lift-commutant", "spectrum-inclusion"):
        A = _hpd(rng, n)
        K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        K = _hermitian(K) / math.sqrt(n)
        lam = scipy.linalg.eigh(K, A, eigvals_only=True)
        sc.update(space=space, A=opjson(A), K=mjson(K))
        rho = float(np.max(np.abs(lam)))
        if op == "lift-commutant":
            checks = [("close", ("details", "spectral_radius_sq"), rho ** 2, 1e-8, 0.0),
                      ("close", ("details", "norm_bound"), rho, 1e-8, 0.0)]
        else:
            checks = [("close", ("details", "lift_eigenvalues"), np.sort(lam),
                       0.0, 1e-8 * max(rho, 1.0))]
    elif op == "hilbert-consistency":
        A = _psd_rank(rng, n, n - n // 8)
        sc.update(space=space, A=opjson(A),
                  samples=[vjson(_randvec(rng, n)) for _ in range(3)])
        checks = [("equal", ("details", "samples"), 3)]
    elif op in ("dirichlet-vs-neumann", "elliptic-assemble"):
        a, b = round(float(rng.uniform(0.5, 2.0)), 6), round(float(rng.uniform(0.5, 2.0)), 6)
        sc.update(problem={"length": 1.0, "a": repr(a), "b": repr(b),
                           "gamma": 0.5 * a}, m=n)
        S = oracles.p1_stiffness(n, a, b)
        if op == "elliptic-assemble":
            sc["boundary"] = "dirichlet"
            sc["expected_gram"] = mjson(S[1:-1, 1:-1])
            checks = [("equal", ("details", "dim"), n - 1),
                      ("le", ("residuals", "gram"), 1e-10)]
        else:
            x = np.linspace(0.0, 1.0, n + 1)
            probes = [np.ones_like(x), np.cos(math.pi * x), 1.0 + x, np.exp(x),
                      np.sin(math.pi * x)]
            checks = [("equal", ("details", "verdict"), "A>=B")]
            for k, y in enumerate(probes):
                checks.append(("close", ("details", "probes", k, 2),
                               float(y @ S @ y), 1e-9, 1e-12))
    elif op == "weak-solve":
        k = int(rng.integers(1, 4))
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        sc.update(problem={"length": 1.0, "a": "1", "b": "0", "gamma": 1.0},
                  m=n, g=f"{c * k * k!r} * pi^2 * sin({k} * pi * x)")
        x = np.linspace(0.0, 1.0, n + 1)
        # 1D P1 Galerkin for -u'' = g is nodally exact up to load quadrature
        checks = [("csv", "f_h", c * np.sin(k * math.pi * x), 1e-7)]
    else:
        raise ValueError(op)
    return sc, {"verdict": "pass", "checks": checks}


def dense_grid(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 2])
    batch = Batch("run")
    for op, n in DENSE_GRID:
        sid = f"{op}-n{n}"
        sc, exp = _dense_scenario(rng, op, n, sid)
        batch.scenarios.append(sc)
        batch.expect[sid] = exp
    return batch


# --- sequence-certify ------------------------------------------------------------


def _increasing_terms(rng, count):
    """Nonnegative nondecreasing terms starting at n = 1."""
    terms = []
    for _ in range(count):
        if rng.random() < 0.5:
            terms.append((round(rng.uniform(0.5, 2.0), 6),
                          float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0])), 1.0, 1))
        else:
            terms.append((round(rng.uniform(0.1, 1.0), 6),
                          float(rng.choice([0.0, 1.0])),
                          round(rng.uniform(1.01, 1.3), 6), 1))
    return terms


def _decaying_terms(rng, count, max_ratio=0.8):
    terms = []
    for _ in range(count):
        if rng.random() < 0.5:
            terms.append((round(rng.uniform(0.5, 2.0), 6),
                          -round(rng.uniform(1.0, 2.5), 6), 1.0, 1))
        else:
            terms.append((round(rng.uniform(0.5, 2.0), 6),
                          float(rng.choice([0.0, 1.0, 2.0])),
                          round(rng.uniform(0.2, max_ratio), 6), 1))
    return terms


def _fast_pair(rng):
    """Generator a and vector tail y with a |y|^2 summable by the ratio test
    in every product term."""
    a = _increasing_terms(rng, int(rng.integers(2, 4)))
    amax = max(r for _, _, r, _ in a)
    y = [(round(rng.uniform(0.5, 2.0), 6) * (1 if rng.random() < 0.7 else -1),
          float(rng.choice([0.0, -1.0, 1.0])),
          round(rng.uniform(0.3, 0.85 / math.sqrt(amax)), 6), 1)
         for _ in range(int(rng.integers(1, 3)))]
    return a, y


def _slow_pair(rng):
    """Polynomial generator and tail whose products are p-series with
    exponent in [-1.7, -1.4]: convergent, but too slowly for the 1e-12
    target within formcalc's term cap, so every one costs the same."""
    alpha = float(rng.choice([0.0, 0.5, 1.0]))
    a = [(round(rng.uniform(0.5, 2.0), 6), alpha, 1.0, 1)]
    beta = -0.5 * (alpha + 1.4 + round(rng.uniform(0.0, 0.3), 6))
    y = [(round(rng.uniform(0.5, 2.0), 6), beta, 1.0, 1),
         (round(rng.uniform(0.5, 2.0), 6), 0.0, round(rng.uniform(0.3, 0.7), 6), 1)]
    return a, y


def _abs_square(terms):
    return oracles.rule_product(terms, terms)


def sequence_certify(seed: int) -> Batch:
    rng = np.random.default_rng([seed, 3])
    batch = Batch("run")
    T = SEQ_TRUNCATION
    space = {"backend": "sequence", "truncation": T, "p": 2.0}

    def add(sid, sc, exp):
        sc = {"id": sid, **sc}
        batch.scenarios.append(sc)
        batch.expect[sid] = exp

    for k in range(SEQ_COUNTS["form-on-x"] + SEQ_COUNTS["form-on-x-slow"]):
        slow = k >= SEQ_COUNTS["form-on-x"]
        a, y = (_slow_pair if slow else _fast_pair)(rng)
        exact = oracles.series_sum(oracles.rule_product(a, _abs_square(y)))
        add(f"form-on-x-{'slow-' if slow else ''}{k:03d}",
            {"op": "form-on-x", "A": seqop(a), "y": seqvec(y, T)},
            {"verdict": "pass",
             "checks": [("certified", ("details", "value"),
                         ("certificates", 0, "bound"), exact)]})

    for k in range(SEQ_COUNTS["friedrichs"]):
        a, _ = _fast_pair(rng)
        amax = max(r for _, _, r, _ in a)
        samples = [seqvec([(1.0, float(rng.choice([0.0, -1.0, -2.0])),
                            round(rng.uniform(0.3, 0.8 / math.sqrt(amax)), 6), 1)], T)
                   for _ in range(int(rng.integers(1, 3)))]
        inf = oracles.rule_infimum(a)
        add(f"friedrichs-{k:03d}",
            {"op": "friedrichs", "space": space, "generator": rjson(a),
             "samples": samples},
            {"verdict": "pass",
             "checks": [("close", ("details", "gamma"), inf, 1e-12, 0.0),
                        ("le", ("residuals", "core_tail"), 1e-6)]})
    for k in range(SEQ_COUNTS["friedrichs-control"]):
        # decaying generators: the infimum is 0, no extension is certified
        a = _decaying_terms(rng, int(rng.integers(1, 3)))
        if oracles.rule_infimum(a) != 0.0:
            raise AssertionError("decaying generator with positive infimum")
        add(f"friedrichs-decaying-{k:03d}",
            {"op": "friedrichs", "space": space, "generator": rjson(a),
             "samples": []}, {"verdict": "fail"})
    for k, a in enumerate(KEPT_FAULT_GENERATORS):
        sid = f"friedrichs-late-start-{k}"
        add(sid, {"op": "friedrichs", "space": space, "generator": rjson(a),
                  "samples": []},
            {"verdict": "fail" if oracles.rule_infimum(a) <= 0.0 else "pass"})
        batch.kept_fault.add(sid)

    for k in range(SEQ_COUNTS["form-sum"]):
        a = _increasing_terms(rng, int(rng.integers(1, 3))) \
            + _decaying_terms(rng, int(rng.integers(0, 2)))
        b = _decaying_terms(rng, int(rng.integers(1, 3))) \
            + (_increasing_terms(rng, 1) if k % 2 else [])
        inf = oracles.rule_infimum(a + b)
        add(f"form-sum-{k:03d}",
            {"op": "form-sum", "space": space, "A": seqop(a), "B": seqop(b)},
            {"verdict": "pass",
             "checks": [("le", ("details", "gamma"), inf * (1 + 1e-12)),
                        ("le", ("residuals", "extension"), 0.0)]})

    for k in range(SEQ_COUNTS["compare"]):
        b = _increasing_terms(rng, int(rng.integers(1, 3))) \
            + _decaying_terms(rng, int(rng.integers(0, 2)))
        equal = k % 4 == 0
        a = b if equal else b + _decaying_terms(rng, 1) + _increasing_terms(rng, 1)
        kind = "equal" if equal else "A>=B"
        va = oracles.rule_values(a, np.arange(1, 5))
        vb = oracles.rule_values(b, np.arange(1, 5))
        checks = [("equal", ("details", "verdict"), kind)]
        for j in range(4):
            checks.append(("close", ("details", "probes", j, 1), va[j], 1e-12, 0.0))
            checks.append(("close", ("details", "probes", j, 2), vb[j], 1e-12, 0.0))
        add(f"compare-{k:03d}",
            {"op": "compare", "A": seqop(a), "B": seqop(b), "expected": kind},
            {"verdict": "pass", "checks": checks})

    for k in range(SEQ_COUNTS["weak-expectation"]):
        r = round(float(rng.uniform(0.2, 0.6)), 6)
        weights = [((1.0 - r) / r, 0.0, r, 1)]
        dim = 12
        coords = [oracles.exp_poly_expectation(weights, j) for j in range(1, dim + 1)]
        add(f"weak-expectation-{k:03d}",
            {"op": "weak-expectation",
             "space_pair": {"backend": "sequence", "truncation": dim, "p": 2.0},
             "probability": {"kind": "rule", "rule": rjson(weights)},
             "variable": {"kind": "exp-poly"},
             "expected": [[c, 0.0] for c in coords]},
            {"verdict": "pass",
             "checks": [("close", ("details", "coords_head"),
                         [[c, 0.0] for c in coords[:4]], 1e-10, 0.0),
                        ("le", ("residuals", "expectation"), 1e-10)]})

    for k in range(SEQ_COUNTS["second-moment"]):
        beta = round(float(rng.choice([rng.uniform(1.2, 1.8), rng.uniform(2.3, 3.0)])), 6)
        dim = 16
        gam = -round(float(rng.uniform(0.0, 1.0)), 6)
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        if k % 3 == 0:
            fc = np.zeros(dim)
            fc[: int(rng.integers(1, 6))] = rng.normal(size=1)
            functional = {"backend": "sequence",
                          "coords": [[float(v), 0.0] for v in fc]}
            member = True
        else:
            functional = seqvec([(c, gam, 1.0, 1)], dim)
            # mu_n |f(xi(w_n))|^2 grows like e^((2 - beta) n) up to powers
            # of n: the ratio test decides
            member = oracles.term_converges(0.0, math.exp(2.0 - beta))
        add(f"second-moment-{k:03d}",
            {"op": "second-moment",
             "space_pair": {"backend": "sequence", "truncation": dim, "p": 2.0},
             "probability": {"kind": "exponential", "beta": beta},
             "variable": {"kind": "exp-poly"}, "functional": functional,
             "expected": member},
            {"verdict": "pass",
             "checks": [("equal", ("details", "member"), member)]})

    for k in range(SEQ_COUNTS["covariance-form"]):
        r = round(float(rng.uniform(0.2, 0.6)), 6)
        nu = [((1.0 - r) / r, 0.0, r, 1)]
        scale = [(round(rng.uniform(0.5, 2.0), 6), float(rng.choice([0.0, 1.0])),
                  round(rng.uniform(1.0, 1.2), 6), 1)]
        head = oracles.rule_values(oracles.rule_product(nu, _abs_square(scale)),
                                   np.arange(1, 5))
        add(f"covariance-form-{k:03d}",
            {"op": "covariance-form",
             "space_pair": {"backend": "sequence", "truncation": 24, "p": 2.0},
             "probability": {"kind": "paired-rule", "rule": rjson(nu)},
             "variable": {"kind": "signed-basis", "scale": rjson(scale)}},
            {"verdict": "pass",
             "checks": [("close", ("details", "diagonal_head"), head, 1e-12, 0.0)]})
    return batch


# --- suite-all -------------------------------------------------------------------


def suite_all(seed: int) -> Batch:
    return Batch("suite", seeds=[seed])


def suite_expectations() -> dict:
    """Expected verdict and oracle values of every check of one seed."""
    poincare = oracles.discrete_poincare(64)
    expect = {name: {"verdict": "fail" if name.startswith("control-") else "pass",
                     "checks": []} for name in SUITE_CHECKS}
    expect["thm1-offdiagonal-example"]["checks"] = [
        ("close", ("details", "gamma"), 1.0, 1e-12, 0.0)]
    expect["elliptic-poincare"]["checks"] = [
        ("close", ("details", "lambda_h"), poincare, 1e-9, 0.0),
        ("close", ("details", "lambda_h"), math.pi ** 2, 0.02, 0.0)]
    expect["elliptic-lower-bounds"]["checks"] = [
        ("close", ("details", "c_p2"), math.pi ** 2, 1e-12, 0.0),
        ("close", ("details", "c_p4"), 1.0, 1e-12, 0.0)]
    for name, top in (("thm2-square", 64.0 ** 2), ("thm2-exponential", math.exp(64.0)),
                      ("thm2-geometric-2", 2.0 ** 64)):
        expect[name]["checks"] = [("close", ("details", "max_diag_64"), top, 1e-12, 0.0)]
    return expect


WORKLOADS = {"suite-all": suite_all, "dense-grid": dense_grid,
             "sequence-certify": sequence_certify}
