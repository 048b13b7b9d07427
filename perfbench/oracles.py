"""Reference computations kept apart from formcalc.

Nothing here imports formcalc.  Dense answers come from numpy/scipy
eigensolves and closed forms; series answers come from mpmath
polylogarithms (sum_{n>=1} n^p z^n = Li_{-p}(z), with Li_s(1) = zeta(s)),
from p-series and ratio tests, and from direct evaluation of each
generator.  ``check_report`` compares one written report against the
expectation that a workload generator attached to its input.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg

mpmath.mp.dps = 30


# --- power-geometric rules ---------------------------------------------------
# a rule is a list of terms (coef, alpha, ratio, start) meaning
# a_n = sum coef * n**alpha * ratio**n over the terms with n >= start


def rule_values(terms, ns) -> np.ndarray:
    ns = np.asarray(ns, dtype=float)
    out = np.zeros(ns.shape)
    # growing terms overflow to inf far out; the infimum never lies there
    with np.errstate(over="ignore", under="ignore"):
        for c, a, r, s in terms:
            out += np.where(ns >= s, c * ns ** a * r ** ns, 0.0)
    return out


def rule_product(p, q):
    return [(c1 * c2, a1 + a2, r1 * r2, max(s1, s2))
            for c1, a1, r1, s1 in p for c2, a2, r2, s2 in q]


def series_sum(terms) -> float:
    """Exact sum over n >= 1 of a convergent rule through Li_{-alpha}."""
    total = mpmath.mpf(0)
    for c, a, r, s in terms:
        if c == 0:
            continue
        z = mpmath.mpf(r)
        if z > 1 or (z == 1 and a >= -1):
            raise ValueError("divergent term in the oracle sum")
        full = mpmath.zeta(-a) if z == 1 else mpmath.polylog(-a, z)
        head = mpmath.fsum(mpmath.mpf(n) ** a * z ** n for n in range(1, s))
        total += mpmath.mpf(c) * (full - head)
    return float(total)


def term_converges(a: float, r: float) -> bool:
    """Ratio test for r != 1, p-series test for r == 1."""
    return r < 1.0 or (r == 1.0 and a < -1.0)


def rule_infimum(terms, horizon: int = 4096) -> float:
    """inf over n >= 1 of a nonnegative rule: the minimum over the first
    ``horizon`` indices or the limit at infinity, whichever is lower."""
    head = float(np.min(rule_values(terms, np.arange(1, horizon + 1))))
    grows = any(c > 0 and (r > 1.0 or (r == 1.0 and a > 0.0))
                for c, a, r, _ in terms)
    limit = math.inf if grows else sum(c for c, a, r, _ in terms
                                       if r == 1.0 and a == 0.0)
    return min(head, limit)


def exp_poly_expectation(weight_terms, k: int) -> float:
    """E xi_k = sum_n mu_n n^k / k! for the exp-poly family."""
    return series_sum(rule_product(weight_terms, [(1.0, float(k), 1.0, 1)])) \
        / math.factorial(k)


# --- dense operators ---------------------------------------------------------


def order_verdict(Ma: np.ndarray, Mb: np.ndarray, slack: float = 1e-7) -> str:
    """Order of two Hermitian matrices from the spectrum of their
    difference."""
    lam = scipy.linalg.eigvalsh(Ma - Mb)
    scale = max(float(np.max(np.abs(lam))), 1.0)
    ge = lam[0] >= -slack * scale
    le = lam[-1] <= slack * scale
    if ge and le:
        return "equal"
    if ge:
        return "A>=B"
    if le:
        return "B>=A"
    return "incomparable"


def p1_stiffness(m: int, a: float, b: float, length: float = 1.0) -> np.ndarray:
    """Exact P1 matrix of a u'v' + b u v on a uniform mesh, all hats."""
    h = length / m
    n = m + 1
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    K = (np.diag(main) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h
    M = (np.diag(2.0 * main) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) * h / 6.0
    return a * K + b * M


def discrete_poincare(m: int) -> float:
    """Smallest Dirichlet eigenvalue of the uniform P1 Laplacian pencil on
    (0, 1), in closed form."""
    h = 1.0 / m
    c = math.cos(math.pi * h)
    return 6.0 / h ** 2 * (1.0 - c) / (2.0 + c)


# --- report checks -----------------------------------------------------------


def _get(report, path):
    obj = report
    for key in path:
        obj = obj[key]
    return obj


def _close(got, want, rtol, atol) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def check_report(report: dict, expect: dict, csv_rows=None) -> list[str]:
    """Problems found in one report; empty when it agrees with the oracle.

    ``expect`` holds the expected verdict and, for expected passes, a list
    of checks: ("close", path, value, rtol, atol), ("equal", path, value),
    ("le", path, bound), ("certified", value_path, bound_path, exact) or
    ("csv", column, values, atol) against the scenario's CSV artifact.
    """
    problems = []
    if report.get("verdict") != expect["verdict"]:
        problems.append(f"verdict {report.get('verdict')} != {expect['verdict']}")
        return problems
    if expect["verdict"] != "pass":
        return problems
    for chk in expect.get("checks", ()):
        kind, path = chk[0], chk[1]
        try:
            if kind == "csv":
                header = csv_rows[0]
                col = header.index(path)
                got = [float(r[col]) for r in csv_rows[1:]]
                ok = _close(got, chk[2], 0.0, chk[3])
            else:
                got = _get(report, path)
                if kind == "close":
                    ok = _close(got, chk[2], chk[3], chk[4])
                elif kind == "equal":
                    ok = got == chk[2]
                elif kind == "le":
                    ok = float(got) <= chk[2]
                elif kind == "certified":
                    bound = float(_get(report, chk[2]))
                    exact = chk[3]
                    ok = abs(float(got) - exact) <= bound + 1e-11 * max(1.0, abs(exact))
                else:
                    raise ValueError(kind)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"{kind} {path}: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            problems.append(f"{kind} {path}: got {got!r}, oracle {chk[2:]!r}")
    return problems


def verdict_from_residuals(report: dict) -> str:
    """The verdict rule re-derived from the written residuals."""
    res, tol = report["residuals"], report["tolerances"]
    bad = [k for k, v in res.items() if not float(v) <= float(tol.get(k, math.inf))]
    return "fail" if bad else "pass"
