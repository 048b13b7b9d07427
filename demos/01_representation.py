"""Positive forms and their representing operators.

A Hermitian positive-definite gram on a domain basis defines a form
t(x, y); the representing operator A satisfies t(x, y) = (Ax, y) and its
everywhere-defined inverse B obeys ||B|| <= 1/gamma, where gamma is the
certified lower bound of the form.
"""

import numpy as np

from formcalc import (
    associated_operator, dense_pair, form_from_gram, functional, lower_bound,
    riesz_solve,
)

dp = dense_pair(2)

print("== a diagonal form ==")
t = form_from_gram(np.eye(2), np.diag([2.0, 5.0]))
cert = lower_bound(t, dp)
print(f"lower bound: gamma = {cert.gamma} ({cert.kind})")

rep = associated_operator(t, dp)
print("A =\n", rep.A.canonical_matrix().real)
print("B =\n", rep.B.canonical_matrix().real)
print(f"||B|| = {rep.b_norm} <= 1/gamma = {1 / rep.gamma}")

print("\n== the Riesz solve behind B ==")
f = riesz_solve(t, functional([1.0, 1.0], dp), dp)
print("representer of (v, .) for v = (1, 1):", f.coords.real)

print("\n== a complex off-diagonal form ==")
G = np.array([[2.0, 1j], [-1j, 2.0]])
rep = associated_operator(form_from_gram(np.eye(2), G), dp)
print("eigenvalues of A:", np.linalg.eigvalsh(rep.A.canonical_matrix()))
print(f"gamma = {rep.gamma}, ||B|| = {rep.b_norm:.12f}")

print("\n== the lower bound for p = 1.5 is a certified under-estimate ==")
dp15 = dense_pair(2, p=1.5)
cert15 = lower_bound(form_from_gram(np.eye(2), np.diag([2.0, 3.0])), dp15)
print(f"gamma_1.5 = {cert15.gamma:.6f} ({cert15.kind}, slack {cert15.slack:.6f})")
