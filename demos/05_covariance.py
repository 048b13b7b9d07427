"""Covariance operators of sequence-space-valued random variables.

Discrete probability spaces make every Pettis integral a certified sum.
The worked example uses weights c e^(-1.5 n) and values n^k/k!: every
finitely supported functional has finite second moment, while the
harmonic-rule functional f_k = 1/k escapes (its pairing grows like
e^n/n).  Independent sums have covariance equal to the form sum.
"""

import math

import numpy as np

from formcalc import series
from formcalc.covariance import (
    centered, covariance_operator, exp_poly_variable, exponential_space,
    finite_space, independent_sum, paired_rule_space, second_moment_membership,
    signed_basis_variable, table_variable, weak_expectation,
)
from formcalc.duality import Functional, dense_pair, sequence_pair

print("== the second-moment domain of the worked example ==")
sp = exponential_space(1.5)
print(f"normalizing constant c = e^1.5 - 1 = {math.exp(1.5) - 1:.6f}; "
      f"weights sum to {sp.normalization['sum']:.12f}")
xi = exp_poly_variable(sp, sequence_pair(24))

e = weak_expectation(xi)
print("weak expectation, coordinates 1..4:",
      np.round(e.coords[:4].real, 8))

fc = np.zeros(24, dtype=complex)
fc[4] = 1.0
print("coordinate functional e_5* in D?",
      second_moment_membership(xi, Functional(fc, "sequence")).member)

harmonic = series.polynomial(-1.0)
f = Functional(harmonic(np.arange(1, 25)), "sequence", tail=harmonic)
cert = second_moment_membership(xi, f)
print("harmonic functional f_k = 1/k in D?", cert.member)
print("divergence certificate:", cert.certificate["kind"],
      "growth ratios (tail):",
      [round(r, 3) for r in cert.certificate["growth_ratios"][-3:]])

print("\n== a finite-space covariance operator ==")
rng = np.random.default_rng(0)
vals = list(rng.normal(size=(5, 2)))
eta = centered(table_variable(finite_space([0.2] * 5), vals, dense_pair(2)))
Cov = covariance_operator(eta)
print("covariance matrix (X* -> X):\n", np.round(Cov.canonical_matrix().real, 6))

print("\n== independence: covariance of the sum is the form sum ==")
rep = independent_sum(eta, eta)
print(f"finite product space: residual {rep.residual:.2e} (tolerance 1e-10)")

nu = series.geometric(0.25, coef=3.0)
xi1 = signed_basis_variable(paired_rule_space(nu),
                            series.geometric(math.sqrt(2), coef=1 / math.sqrt(3)),
                            sequence_pair(24))
xi2 = signed_basis_variable(paired_rule_space(nu),
                            series.geometric(math.sqrt(4 / 3), coef=1 / math.sqrt(3)),
                            sequence_pair(24))
print("diagonal rules Cov = diag(2^-n) and diag(3^-n): worst ratio of error "
      "to allowed error on a product-space window "
      f"{independent_sum(xi1, xi2).residual:.3f} (at most 1)")
