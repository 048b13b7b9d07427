"""Factorization through an auxiliary space, and the induced order.

Every positive symmetric operator factors as A = JJ* over the Hilbert
space H_A built from [Ax, Ay] = (Ax, y); kernels are quotiented away by
pivoted rank factorization.  The value of the form of A at y is the sup
of |(Ax, y)|^2 over (Ax, x) <= 1, which orders operators by domination.
"""

import numpy as np

from formcalc import series
from formcalc.duality import (
    DOMAIN_FINITE, Vector, dense_pair, diagonal_operator, operator_from_matrix,
    sequence_pair, vector,
)
from formcalc.ordering import (
    antisymmetry_check, compare, factorize, form_on_X, in_dom_Jstar,
)

dp = dense_pair(2)

print("== factorization with a kernel ==")
A = operator_from_matrix(np.diag([1.0, 0.0]), dp)
fac = factorize(A)
print(f"rank after quotient: {fac.rank}, JJ* residual: "
      f"{fac.extension_residual:.2e}")

print("\n== the form of A at y ==")
A = operator_from_matrix(np.diag([1.0, 4.0]), dp)
fv = form_on_X(A, vector([1.0, 1.0], dp))
print(f"value = {fv.value} (saturates at x ~ y: witness {fv.witness.real})")

print("\n== membership in dom J* on the sequence backend ==")
sp = sequence_pair(48)
As = diagonal_operator(series.polynomial(2.0), sp, DOMAIN_FINITE)
for alpha in (-2.0, -1.0):
    y = Vector(series.polynomial(alpha)(np.arange(1, 49)), "sequence",
               tail=series.polynomial(alpha))
    print(f"y_n = n^{alpha}: finite form? {in_dom_Jstar(As, y)}")

print("\n== ordering verdicts are decided, with witnesses ==")
twoI = operator_from_matrix(2 * np.eye(2), dp)
I = operator_from_matrix(np.eye(2), dp)
print("2I vs I:", compare(twoI, I, []).verdict)
C = operator_from_matrix(np.diag([1.0, 4.0]), dp)
D = operator_from_matrix(np.diag([4.0, 1.0]), dp)
print("diag(1,4) vs diag(4,1):", compare(C, D, []).verdict)

print("\n== equal forms force equal operators ==")
M = np.diag([2.0, 3.0])
basis = np.array([[1.0, 1.0], [1.0, -1.0]])
B2 = operator_from_matrix(M, dp)
from formcalc.duality import restricted_operator
B3 = restricted_operator(M, basis, dp)
rep = compare(B2, B3, [])
chk = antisymmetry_check(B2, B3, rep)
print(f"verdict {rep.verdict}; operators agree to "
      f"{chk.matrix_residual:.2e} (basis independence)")
