"""Form sums, their joint factorization, and lifted commutants.

The form sum of two positive operators is represented from t_A + t_B and
factors through H_A (+) H_B; on full domains it collapses to the plain
sum.  A bounded E intertwining with A lifts to a self-adjoint operator
on H_A whose spectrum is real and sits inside the spectrum of E.
"""

import numpy as np

from formcalc import series
from formcalc.duality import (
    DOMAIN_FINITE, DiagonalOperator, dense_pair, operator_from_matrix, sequence_pair,
)
from formcalc.formsum import (
    commutation_formsum, commuting_pair, form_sum, joint_factorize,
    lift_commutant, spectrum_inclusion,
)

dp = dense_pair(2)

print("== everywhere-defined collapse ==")
A = operator_from_matrix(np.diag([1.0, 2.0]))
B = operator_from_matrix(np.diag([3.0, 4.0]))
fs = form_sum(A, B, dp)
print("A (+) B =\n", fs.operator.canonical_matrix().real)

print("\n== the joint factor identity ==")
jf = joint_factorize(A, B, dp)
print(f"J* z = Az (+) Bz residual: {jf.jstar_residual:.2e}")
print(f"[J*y, J*y] = ((A (+) B)y, y) residual: {jf.energy_residual:.2e}")

print("\n== diagonal generators add coefficientwise ==")
sp = sequence_pair(48)
As = DiagonalOperator(series.polynomial(2.0), DOMAIN_FINITE)
Bs = DiagonalOperator(series.polynomial(4.0), DOMAIN_FINITE)
fss = form_sum(As, Bs, sp)
print("summed generator at n = 1..4:",
      np.real(fss.operator.diagonal(np.arange(1, 5))))

print("\n== lifting a commutant ==")
A_mat = np.diag([1.0, 2.0])
K = np.ones((2, 2))
A = operator_from_matrix(A_mat)
E = commuting_pair(A_mat, K)  # E = A^-1 K solves the identity
print("E =\n", E.canonical_matrix().real)
lift = lift_commutant(A, E)
print(f"spectral radius bound r(E^2) = {lift.spectral_radius_sq}; "
      f"lift norm {lift.norm_bound:.6f} <= sqrt(r(E^2)) = "
      f"{np.sqrt(lift.spectral_radius_sq):.6f}")
print(f"self-adjoint in H_A to {lift.selfadjoint_residual:.2e}")

print("\n== commutation survives the form sum ==")
B = operator_from_matrix(3.0 * A_mat)
rep = commutation_formsum(A, B, E, dp)
print(f"E*(A (+) B) vs (A (+) B)E residual: {rep.formsum_inclusion:.2e}")

print("\n== the lift's spectrum sits inside sigma(E) ==")
spect = spectrum_inclusion(A, E)
print("sigma(E)      :", sorted(float(v) for v in np.round(spect.e_eigenvalues.real, 10)))
print("sigma(lift)   :", sorted(float(v) for v in np.round(spect.lift_eigenvalues.real, 10)))
print(f"resolvent identity at {spect.resolvent_points}: residual "
      f"{spect.resolvent_residual:.2e}")
