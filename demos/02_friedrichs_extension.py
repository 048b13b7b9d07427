"""The Friedrichs extension of diagonal operators on sequence space.

A diagonal generator a_n >= gamma > 0 on finitely supported vectors is
extended to the maximal graph domain {y : sum a_n^2 |y_n|^2 < inf}; the
membership question is answered with a series certificate, never a
heuristic.  Truncations of any energy-domain vector converge to it in
the energy norm (the core property), with certified tails.
"""

from formcalc import series
from formcalc.duality import DOMAIN_FINITE, DiagonalOperator, generated_vector, sequence_pair
from formcalc.friedrichs import core_check, friedrichs, in_extension_domain

sp = sequence_pair(64)

print("== a_n = n^2 on finitely supported vectors ==")
a = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
res = friedrichs(a, sp)
print("lower bound preserved:", res.gamma_preserved.gamma)
print("domain rule:", res.extension.domain_rule)

for alpha, label in [(-3.0, "y_n = n^-3"), (-2.0, "y_n = n^-2")]:
    y = generated_vector(series.polynomial(alpha), sp)
    member = in_extension_domain(res, y)
    print(f"{label}: in dom A_F? {member}   "
          f"(graph series exponent {4 + 2 * alpha})")

print("\n== energy-norm truncation witnesses ==")
for rule, label in [(series.geometric(0.5), "y_n = 2^-n"),
                    (series.polynomial(-3.0), "y_n = n^-3")]:
    rep = core_check(res, [generated_vector(rule, sp)])
    w = rep.witnesses[0]
    print(f"{label}: truncate at K = {w.truncation}, certified tail "
          f"{w.tail:.3e}, contraction ratios all < 1: "
          f"{all(r < 1 for r in w.ratios)}")

print("\n== generators without positive lower bound are refused ==")
try:
    friedrichs(DiagonalOperator(series.geometric(0.5), DOMAIN_FINITE), sp)
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
