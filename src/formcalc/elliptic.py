"""One-dimensional divergence-form problems solved through hat functions.

The operator  f -> -(a f')' + b f  on (0, L) with a >= gamma > 0 and
b >= 0 is assembled over P1 hats by Gauss quadrature.  Interior hats
(the compactly-supported surrogate) give the Dirichlet space; all hats
give the Neumann-style space, which needs b > 0 to stay definite.

The weak solve is the discrete bounded-inverse applied to the load
functional, so surjectivity shows up as a Galerkin residual at solver
precision.  The ordering comparison between the two discrete extensions
evaluates the form of each operator through the sup characterization on
nine fixed smooth probes, with no random draw; it is the finite shadow
of the maximality statement and is certified over the probe set only.
The Sobolev lower bound of the Dirichlet form is a theorem once the
coefficients pass their check, so it is stated, not sampled.

Functional coordinates here index the full hat basis: the action of the
Dirichlet operator on a hat carries the boundary flux corrections
a(0) x'(0) and -a(L) x'(L) on the boundary coordinates, which is what
lets probes with boundary mass see the domain difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .coeffexpr import compile_rule
from .duality import TO_DUAL, DenseOperator, Vector
from .errors import DomainError, NotPositive
from .forms import LowerBoundCertificate, SesquilinearForm, form_from_gram
from .linalg import generalized_eigvalsh
from .ordering import OrderingReport, ProbeRecord

# 4-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit those of
# numpy.polynomial.legendre.leggauss(4), which is not loaded for them.  In
# closed form the nodes are +-sqrt(3/7 -+ (2/7) sqrt(6/5)) and the weights
# (18 +- sqrt(30)) / 36, but evaluated in floating point that form lands
# up to a few ulps away on three of the four values, so the bits are
# written out.
_GAUSS4 = tuple(np.array([float.fromhex(h) for h in row]) for row in (
    ("-0x1.b8e6dbcf63985p-1", "-0x1.5c23fd9dd3dfcp-2",
     "0x1.5c23fd9dd3dfcp-2", "0x1.b8e6dbcf63985p-1"),
    ("0x1.64340f7e7b666p-2", "0x1.4de5f840c24cdp-1",
     "0x1.4de5f840c24cdp-1", "0x1.64340f7e7b666p-2")))


@dataclass(frozen=True, eq=False)
class EllipticProblem:
    """Coefficients of -(a f')' + b f on (0, length)."""

    length: float
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    gamma: float
    p: float = 2.0


def problem(length: float, a_rule: str, b_rule: str, gamma: float,
            p: float = 2.0) -> EllipticProblem:
    return EllipticProblem(length, compile_rule(a_rule), compile_rule(b_rule),
                           gamma, p)


@dataclass(frozen=True, eq=False)
class Mesh1D:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.size < 3 or np.any(np.diff(nodes) <= 0):
            raise ValueError("need at least 2 elements with increasing nodes")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @cached_property
    def gauss(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only Gauss points, weights and barycentric t of the points
        in their element, each m x 4 with a row per element."""
        x, w = _GAUSS4
        lo, hi = self.nodes[:-1, None], self.nodes[1:, None]
        half = 0.5 * (hi - lo)
        pts = 0.5 * (lo + hi) + half * x
        table = (pts, half * w, (pts - lo) / (hi - lo))
        for values in table:
            values.setflags(write=False)
        return table


def uniform_mesh(m: int, length: float = 1.0) -> Mesh1D:
    return Mesh1D(np.linspace(0.0, length, m + 1))


def _finite(what: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError(f"{what} is not finite at an evaluation node")
    return values


def _check_coefficients(prob: EllipticProblem, mesh: Mesh1D, b: np.ndarray):
    """a and b at the Gauss points of ``mesh``, checked; b comes
    evaluated there, so that each caller evaluates it once."""
    a = _finite("coefficient a(x)", prob.a(mesh.gauss[0]))
    b = _finite("potential b(x)", b)
    if np.any(a < prob.gamma - 1e-12):
        raise NotPositive("coefficient a(x) drops below gamma at a "
                          "quadrature node")
    if np.any(b < -1e-12):
        raise NotPositive("potential b(x) negative at a quadrature node")
    return a, b


def _to_nodes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-node sums of per-element parts on each element's left and
    right node."""
    return np.pad(left, (0, 1)) + np.pad(right, (1, 0))


def _hat_gram(mesh: Mesh1D, a, b):
    """(diag, off) of the tridiagonal hat gram of int a u' v' + b u v,
    with a and b given at the Gauss points of ``mesh`` (or as scalars)."""
    _, wts, t = mesh.gauss
    kaa = np.sum(wts * a, axis=1) / np.diff(mesh.nodes) ** 2
    wb = wts * b
    return (_to_nodes(kaa + np.sum(wb * (1.0 - t) ** 2, axis=1),
                      kaa + np.sum(wb * t ** 2, axis=1)),
            -kaa + np.sum(wb * t * (1.0 - t), axis=1))


def _hat_integrals(mesh: Mesh1D, g: np.ndarray) -> np.ndarray:
    """int g phi_i over every hat, with g given at the Gauss points."""
    _, wts, t = mesh.gauss
    wg = wts * g
    return _to_nodes(np.sum(wg * (1.0 - t), axis=1), np.sum(wg * t, axis=1))


def _tridiag_stiffness(prob: EllipticProblem, mesh: Mesh1D):
    return _hat_gram(mesh, *_check_coefficients(prob, mesh, prob.b(mesh.gauss[0])))


def _dense_from_tridiag(diag, off) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _full_stiffness(prob: EllipticProblem, mesh: Mesh1D) -> np.ndarray:
    return _dense_from_tridiag(*_tridiag_stiffness(prob, mesh))


def assemble(prob: EllipticProblem, mesh: Mesh1D,
             space: str = "dirichlet") -> SesquilinearForm:
    """Stiffness gram over the chosen hat space (interior hats for the
    Dirichlet space, all hats for the Neumann-style space)."""
    S = _full_stiffness(prob, mesh)
    n = mesh.nodes.size
    if space == "dirichlet":
        idx = np.arange(1, n - 1)
    elif space == "neumann":
        idx = np.arange(n)
    else:
        raise ValueError("space must be dirichlet or neumann")
    G = S[np.ix_(idx, idx)].astype(complex)
    basis = np.eye(n, dtype=complex)[:, idx]
    return form_from_gram(basis, G.T)


def dirichlet_operator(prob: EllipticProblem, mesh: Mesh1D) -> DenseOperator:
    """The Dirichlet-space operator with distributional action.

    Functional coordinates live on the full hat basis; the boundary
    coordinates pick up the flux terms a(0) x'(0) and -a(L) x'(L).
    """
    return _dirichlet_from(_full_stiffness(prob, mesh), prob, mesh)


def _dirichlet_from(S, prob: EllipticProblem, mesh: Mesh1D) -> DenseOperator:
    """:func:`dirichlet_operator` from the full stiffness S."""
    n = mesh.nodes.size
    idx = np.arange(1, n - 1)
    Z = S[:, idx].astype(complex)
    h = np.diff(mesh.nodes)
    a0, aL = _finite("coefficient a(x)", prob.a(mesh.nodes[[0, -1]]))
    # phi_1'(0+) = 1/h1 and phi_{n-2}'(L-) = -1/h_m are the only nonzero
    # boundary derivatives among interior hats
    Z[0, 0] += a0 * (1.0 / h[0])
    Z[n - 1, len(idx) - 1] -= aL * (-1.0 / h[-1])
    basis = np.eye(n, dtype=complex)[:, idx]
    return DenseOperator(TO_DUAL, basis, Z)


def neumann_operator(prob: EllipticProblem, mesh: Mesh1D) -> DenseOperator:
    """The operator on all hats; the gate on b comes before the checks."""
    b = prob.b(mesh.gauss[0])
    _positive_potential(b)
    S = _hat_gram(mesh, *_check_coefficients(prob, mesh, b))
    return _neumann_from(_dense_from_tridiag(*S))


def _neumann_from(S) -> DenseOperator:
    """:func:`neumann_operator` from the full stiffness S."""
    return DenseOperator(TO_DUAL, np.eye(len(S), dtype=complex), S.astype(complex))


def _positive_potential(b: np.ndarray) -> None:
    """The Neumann-style gate on b at the Gauss points."""
    if float(np.min(b)) <= 0.0:
        raise DomainError("the Neumann-style comparison needs b > 0 "
                          "(b = 0 leaves constants in the kernel)")


def sobolev_lower_bound(prob: EllipticProblem, mesh: Mesh1D) -> LowerBoundCertificate:
    """(Af, f) >= c ||f||_p^2 for the Dirichlet space, a theorem once the
    coefficients pass their check: a >= gamma and b >= 0 at the
    quadrature nodes give (Af, f) >= gamma ||f'||^2 exactly.

    p = 2: c = gamma pi^2 / L^2 by Poincare's inequality; 4-point Gauss
    integrates |f|^2 exactly.  Otherwise |f(x)| <= sqrt(L) ||f'||_2 and
    ||f||_p^2 <= L^(2/p) max |f|^2 give c = gamma / L^(1 + 2/p).
    """
    _check_coefficients(prob, mesh, prob.b(mesh.gauss[0]))
    L = prob.length
    if prob.p == 2.0:
        c, kind = prob.gamma * math.pi ** 2 / L ** 2, "poincare-p2"
    else:
        c, kind = prob.gamma / L ** (1.0 + 2.0 / prob.p), "sobolev-sup"
    return LowerBoundCertificate(c, kind, detail={"p": prob.p})


def discrete_poincare(mesh: Mesh1D) -> float:
    """Smallest eigenvalue of the Dirichlet a=1, b=0 pencil against the
    mass matrix: converges to (pi/L)^2 from above at O(h^2)."""
    S, M = (_dense_from_tridiag(d[1:-1], e[1:-1])
            for d, e in (_hat_gram(mesh, 1.0, 0.0), _hat_gram(mesh, 0.0, 1.0)))
    return float(generalized_eigvalsh(S, M)[0])


@dataclass(frozen=True, eq=False)
class WeakSolution:
    coefficients: np.ndarray          # interior hat coefficients
    mesh: Mesh1D
    galerkin_residual: float
    energy_norm: float
    lp_norm: float

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.mesh.nodes,
                         self.nodal_values())

    def nodal_values(self) -> np.ndarray:
        return np.concatenate([[0.0], self.coefficients.real, [0.0]])


def _tridiag_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S x = rhs for the symmetric tridiagonal S with this diagonal
    and off-diagonal through S = L D L^T, in O(m) sweeps (the recurrences
    of LAPACK ``dpttrf`` and ``dpttrs``).  A pivot <= 0 raises
    NotPositive."""
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    for i in range(len(d)):
        if not d[i] > 0.0:
            raise NotPositive("stiffness not positive definite")
        if i < len(e):
            ei = e[i]
            e[i] = ei / d[i]
            d[i + 1] -= e[i] * ei
    for i in range(1, len(x)):
        x[i] -= x[i - 1] * e[i - 1]
    x[-1] /= d[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * e[i]
    return np.array(x)


def weak_solve(prob: EllipticProblem, mesh: Mesh1D, g) -> WeakSolution:
    """Galerkin solve of -(a f')' + b f = g over interior hats.

    ``g`` is an expression string or a vectorized callable in L_q.  The
    solve is the discrete bounded-inverse applied to the load functional;
    the Galerkin residual is recorded and must sit at solver precision.
    """
    gfun = compile_rule(g) if isinstance(g, str) else g
    diag, off = _tridiag_stiffness(prob, mesh)
    pts, wts, t = mesh.gauss
    load = _hat_integrals(mesh, _finite("load g(x)", gfun(pts)))[1:-1]
    d_i, o_i = diag[1:-1], off[1:-1]
    def matvec(v):
        out = d_i * v
        out[1:] += o_i * v[:-1]
        out[:-1] += o_i * v[1:]
        return out

    u = _tridiag_solve(d_i, o_i, load)
    u = u + _tridiag_solve(d_i, o_i, load - matvec(u))
    # normwise backward error: ||S u - l|| / (||S|| ||u|| + ||l||)
    s_norm = float(np.max(np.abs(d_i)) + 2 * np.max(np.abs(o_i), initial=0.0))
    res = float(np.linalg.norm(matvec(u) - load)) / max(
        s_norm * float(np.linalg.norm(u)) + float(np.linalg.norm(load)), 1e-300)
    if res > 1e-10:
        raise ArithmeticError(f"Galerkin residual {res:.3e} above tolerance")
    energy = math.sqrt(max(float(u @ matvec(u)), 0.0))
    full = np.concatenate([[0.0], u, [0.0]])
    fq = full[:-1, None] * (1.0 - t) + full[1:, None] * t
    lp = float(np.sum(wts * np.abs(fq) ** prob.p)) ** (1.0 / prob.p)
    return WeakSolution(u.astype(complex), mesh, res, energy, lp)


def l2_error(sol: WeakSolution, exact: Callable[[np.ndarray], np.ndarray]) -> float:
    pts, wts, _ = sol.mesh.gauss
    diff = sol(pts) - exact(pts)
    return math.sqrt(float(np.sum(wts * diff ** 2)))


def convergence_table(prob: EllipticProblem, g, exact,
                      ms: tuple[int, ...] = (16, 32, 64, 128)) -> list[dict]:
    """L2 errors and successive ratios on a refinement ladder."""
    gfun = compile_rule(g) if isinstance(g, str) else g
    efun = compile_rule(exact) if isinstance(exact, str) else exact
    rows = []
    prev = None
    for m in ms:
        err = l2_error(weak_solve(prob, uniform_mesh(m, prob.length), gfun), efun)
        rows.append({"m": m, "h": prob.length / m, "l2_error": err,
                     "ratio": (prev / err) if (prev is not None and err > 0)
                     else None})
        prev = err
    return rows


# (c0, c1, c2) of the cosine-mix probes of smooth_probe_set
COSINE_MIXES = ((1.0, 0.0, -1.0), (1.0, -1.0, 0.0), (0.5, 1.0, 0.5),
                (0.5, 1.5, -1.0))


def smooth_probe_set(mesh: Mesh1D) -> list[tuple[str, Vector]]:
    """Mesh-independent probes: nodal interpolants of nine fixed smooth
    functions.

    The first five are 1, cos(pi x/L), 1 + x/L, exp(x/L) and
    sin(pi x/L).  Then ``cosine-mix:k`` is c0 + c1 cos(pi x/L) +
    c2 cos(2 pi x/L) with the k-th triple of :data:`COSINE_MIXES`:
    1 - cos(2 pi x/L), zero at both ends; 1 - cos(pi x/L), zero at x = 0
    only; 0.5 + cos(pi x/L) + 0.5 cos(2 pi x/L), zero at x = L only; and
    0.5 + 1.5 cos(pi x/L) - cos(2 pi x/L), of opposite signs at the two
    ends.  Pure boundary-hat coefficient probes are excluded on purpose:
    they are h-dependent objects that no fixed function discretizes, and
    the comparison is the shadow of a statement about functions."""
    x = mesh.nodes
    L = x[-1]
    probes = [
        ("constant-1", np.ones_like(x)),
        ("cos-pi", np.cos(math.pi * x / L)),
        ("affine", 1.0 + x / L),
        ("exp", np.exp(x / L)),
        ("interior-sin", np.sin(math.pi * x / L)),
    ]
    for k, (c0, c1, c2) in enumerate(COSINE_MIXES):
        y = c0 + c1 * np.cos(math.pi * x / L) + c2 * np.cos(2 * math.pi * x / L)
        probes.append((f"cosine-mix:{k}", y))
    return [(label, Vector(y.astype(complex))) for label, y in probes]


def dirichlet_vs_neumann(prob: EllipticProblem, mesh: Mesh1D) -> OrderingReport:
    """Form of the Dirichlet extension against the Neumann-style one.

    Evaluates both sup-forms on the probes of :func:`smooth_probe_set`,
    stacked into one matrix and evaluated from one eigensolve per
    operator, and requires the Dirichlet value to dominate on every probe
    within a relative slack of 1e-9.  The probes are fixed, so the
    report depends on the problem and the mesh alone.  The verdict
    certifies the probe set only (see the module docstring).  Both
    operators share one check of a and b and one stiffness."""
    a, b = _check_coefficients(prob, mesh, prob.b(mesh.gauss[0]))
    S = _dense_from_tridiag(*_hat_gram(mesh, a, b))
    A_d = _dirichlet_from(S, prob, mesh)
    _positive_potential(b)
    A_n = _neumann_from(S)
    probes = smooth_probe_set(mesh)
    labels = [label for label, _ in probes]
    Y = np.column_stack([y.coords for _, y in probes])
    values_d = A_d._form_columns(Y)[0].tolist()
    values_n = A_n._form_columns(Y)[0].tolist()
    records = tuple(map(ProbeRecord, labels, values_d, values_n))
    ok = all(math.isinf(u) or not math.isinf(v) and u >= v - 1e-9 * max(abs(u), abs(v), 1.0)
             for u, v in zip(values_d, values_n))
    verdict = "A>=B" if ok else "incomparable"
    return OrderingReport(verdict, records,
                          {"comparison": "dirichlet-vs-neumann",
                           "probe_design": "function-rule probes"})
