"""The 1D divergence-form application, end to end.

Assembly over hat functions, the certified coercivity constant, weak
solves at second order, and the discrete shadow of extension maximality:
the Dirichlet form dominates the Neumann-style form on every probe, with
boundary-heavy probes growing like 1/h.
"""

import math

from formcalc.elliptic import (
    convergence_table, dirichlet_vs_neumann, discrete_poincare, problem,
    sobolev_lower_bound, uniform_mesh, weak_solve,
)

laplace = problem(1.0, "1", "0", 1.0)

print("== certified coercivity ==")
cert = sobolev_lower_bound(laplace, uniform_mesh(32))
print(f"(Af, f) >= {cert.gamma:.6f} ||f||_2^2   (gamma pi^2 / L^2)")
lam = discrete_poincare(uniform_mesh(64))
print(f"discrete Poincare constant at h = 1/64: {lam:.6f} "
      f"(pi^2 = {math.pi ** 2:.6f})")

print("\n== manufactured solution ==")
for row in convergence_table(laplace, "pi^2 * sin(pi*x)", "sin(pi*x)"):
    ratio = "" if row["ratio"] is None else f"  ratio {row['ratio']:.3f}"
    print(f"m = {row['m']:4d}  L2 error {row['l2_error']:.3e}{ratio}")

print("\n== a steep but integrable potential ==")
steep = problem(1.0, "1", "1 / (0.01 + x)", 1.0)
sol = weak_solve(steep, uniform_mesh(64), "1")
print(f"Galerkin residual {sol.galerkin_residual:.2e}, "
      f"energy norm {sol.energy_norm:.6f}")

print("\n== Dirichlet vs Neumann: the maximality shadow ==")
pb = problem(1.0, "1", "1", 1.0)
for m in (16, 32, 64):
    rep = dirichlet_vs_neumann(pb, uniform_mesh(m))
    one = next(r for r in rep.probes if r.label == "constant-1")
    interior = next(r for r in rep.probes if r.label == "interior-sin")
    print(f"h = 1/{m:3d}: verdict {rep.verdict};  constant-1 probe "
          f"D = {one.value_a:8.3f} vs N = {one.value_b:.3f};  interior probe "
          f"equal to {abs(interior.value_a - interior.value_b):.1e}")
