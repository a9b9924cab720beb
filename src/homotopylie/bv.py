"""Homotopy BV data and verification: the action/bundle-map triangle,
gauge invariance, tangent-cotangent quasi-isomorphisms, shifted
symplectic checks, pullbacks, effective actions, metric structures,
volume forms and BV orientability as a sign-consistency problem on the
nerve graph.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from . import linalg
from .polynomial import (
    MultiPoly, jacobian, eval_matrix, constant_matrix, linear_forms, poly_matvec, poly_matmul,
)
from .scalars import QQ, GaussianRational


# ------------------------------------------- polynomial views of a tower

def _monomial(word, col, n):
    """The exponent vector alpha of a word over the coordinates `col`, and
    its automorphism factor alpha! = prod_i alpha_i!."""
    e = [0] * n
    for w in word:
        e[col[w]] += 1
    return tuple(e), math.prod(map(math.factorial, e))


def mc_polynomials(alg):
    """The Maurer-Cartan function of a tower as polynomials: one
    polynomial in the degree-1 coordinates per degree-2 generator."""
    field = alg.field
    V = alg.space
    deg1 = V.indices_of_degree(1)
    deg2 = V.indices_of_degree(2)
    n = len(deg1)
    col = {idx: i for i, idx in enumerate(deg1)}
    out = [MultiPoly.zero(n, field) for _ in deg2]
    row = {idx: a for a, idx in enumerate(deg2)}
    for op in alg.sops.values():
        for (word, o), c in op.entries.items():
            if o not in row or any(w not in col for w in word):
                continue
            key, aut = _monomial(word, col, n)
            p = out[row[o]]
            p.terms[key] = p.terms.get(key, field.zero) + field.div(c, aut)
    for p in out:
        p.terms = {e: c for e, c in p.terms.items() if not field.is_zero(c)}
    return out


def anchor_polynomials(alg):
    """For each degree-0 generator, the polynomial vector field on the
    degree-1 coordinates given by the infinitesimal gauge action."""
    field = alg.field
    V = alg.space
    deg0 = V.indices_of_degree(0)
    deg1 = V.indices_of_degree(1)
    n = len(deg1)
    col = {idx: i for i, idx in enumerate(deg1)}
    out = {}
    for g in deg0:
        out[g] = [MultiPoly.zero(n, field) for _ in deg1]
    for op in alg.sops.values():
        for (word, o), c in op.entries.items():
            if o not in col:
                continue
            gs = [w for w in word if w in out]
            rest = [w for w in word if w not in out]
            if len(gs) != 1 or any(w not in col for w in rest):
                continue
            key, aut = _monomial(rest, col, n)
            p = out[gs[0]][col[o]]
            p.terms[key] = p.terms.get(key, field.zero) + field.div(c, aut)
    for g in out:
        for p in out[g]:
            p.terms = {e: c for e, c in p.terms.items() if not field.is_zero(c)}
    return out


# --------------------------------------------------------------- BV data

class BVData:
    """(tower, S, sigma): an action S on the degree-1 coordinates and a
    bundle map sigma with degree-2 rows and degree-1-dual columns, so
    that sigma applied to the MC section gives the exterior derivative
    of S."""

    def __init__(self, algebra, S, sigma):
        self.algebra = algebra
        self.field = algebra.field
        self.S = S
        self.sigma = [list(row) for row in sigma]
        self.n = algebra.space.dim(1)
        self.r = algebra.space.dim(2)
        assert len(self.sigma) == self.r
        assert all(len(row) == self.n for row in self.sigma)


class BVReport:
    def __init__(self, ok, checks, witness=None):
        self.ok = ok
        self.checks = checks
        self.witness = witness  # (class, detail)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "BVReport(ok)"
        return "BVReport(FAIL %s: %r)" % (self.witness[0], self.witness[1])


def _quasi_iso_square(field, J, sigma_pt, n, r):
    """Cone-rank test for the vertical map (sigma^T, sigma) between the
    tangent complex and its shifted dual at one point."""
    # cone: L1 --(J, sigma^T)--> L2 + (L2)* --(sigma | -J^T)--> (L1)*
    M1 = []
    for a in range(r):
        M1.append([J[a][i] for i in range(n)])
    for a in range(r):
        M1.append([sigma_pt[a][i] for i in range(n)])
    M2 = []
    for i in range(n):
        row = [sigma_pt[a][i] for a in range(r)]
        row += [-J[a][i] for a in range(r)]
        M2.append(row)
    kernel, middle, cokernel = linalg.cone_cohomology(field, M1, M2, n)
    if kernel:
        return False, ("kernel in degree 1", kernel)
    if cokernel:
        return False, ("cokernel in degree 2", cokernel)
    if middle:
        return False, ("middle cohomology", middle)
    return True, None


def validate_bv(bv, window=(1, 2)):
    """The three BV axioms plus the quasi-smoothness precondition.
    Triangle and gauge invariance are exact polynomial identities; the
    precondition and the tangent-cotangent quasi-isomorphism are checked
    at the origin."""
    alg, field = bv.algebra, bv.field
    n, r = bv.n, bv.r
    checks = {}
    witness = None

    lam = mc_polynomials(alg)
    origin = [field.zero] * n

    # precondition: quasi-smooth in the window at the origin
    checks["quasi-smooth"] = alg.is_quasi_smooth(window=window)
    if not checks["quasi-smooth"]:
        witness = ("precondition", origin)

    # triangle: sigma . lambda = d S, exactly
    ok_tri = True
    grad = bv.S.gradient()
    for i, (acc, dS) in enumerate(zip(poly_matmul([lam], bv.sigma, n, n, field)[0], grad)):
        if not (acc - dS).is_zero():
            ok_tri = False
            if witness is None:
                witness = ("triangle", (i, acc - dS))
            break
    checks["triangle"] = ok_tri

    # gauge invariance: contraction of d S with every anchor field is zero
    ok_gauge = True
    anchors = anchor_polynomials(alg)
    for g, acc in zip(anchors, poly_matvec(list(anchors.values()), grad, n, field)):
        if not acc.is_zero():
            ok_gauge = False
            if witness is None:
                witness = ("gauge", (g, acc))
            break
    checks["gauge"] = ok_gauge

    # quasi-iso of (sigma^T, sigma) at the origin, when it is an MC point
    ok_qi = True
    if all(field.is_zero(q.evaluate(origin)) for q in lam):
        J = eval_matrix(jacobian(lam, n), origin)
        sig = eval_matrix(bv.sigma, origin)
        ok_qi, detail = _quasi_iso_square(field, J, sig, n, r)
        if not ok_qi and witness is None:
            witness = ("quasi-iso", (origin, detail))
    checks["quasi-iso"] = ok_qi

    ok = all(checks.values())
    return BVReport(ok, checks, witness)


def canonical_dcrit_bv(S):
    """dCrit(S) with the identity bundle map: always homotopy BV data."""
    from .qs import dcrit

    qs = dcrit(S)
    alg = qs.to_linfty()
    sigma = constant_matrix(qs.nvars, linalg.identity(qs.field, qs.nvars), qs.field)
    return BVData(alg, S, sigma)


def extend_by_contractible_bv(S, m):
    """dCrit(S) times a contractible factor: variables extended by m,
    section extended by the new coordinates themselves, action pulled
    back, bundle map extended by zero on the contractible block."""
    from .qs import QsSpace

    field = S.field
    n = S.nvars
    nn = n + m
    xs = linear_forms(linalg.identity(field, nn), field)
    pad = xs[:n]
    qs = QsSpace(nn, nn, [g.substitute(pad) for g in S.gradient()] + xs[n:], field)
    alg = qs.to_linfty()
    S_big = S.substitute(pad)
    sigma = constant_matrix(nn, linalg.identity(field, nn)[:n] + linalg.zeros(field, m, nn), field)
    return BVData(alg, S_big, sigma), qs


# ------------------------------------------------------ symplectic forms

def check_shifted_symplectic(alg, omega, points=None):
    """omega: r x n matrix of polynomials, the pairing of the degree-2
    fiber directions against the degree-1 base one-forms (the only block
    a (-1)-shifted two-form has here).  Closedness is a polynomial
    identity; nondegeneracy is the cone-rank test per sampled MC point."""
    field = alg.field
    n = alg.space.dim(1)
    r = alg.space.dim(2)
    for a in range(r):
        for i in range(n):
            for j in range(i + 1, n):
                if not (omega[a][i].diff(j) - omega[a][j].diff(i)).is_zero():
                    return False, ("not closed", (a, i, j))
    lam = mc_polynomials(alg)
    Jpolys = jacobian(lam, n)
    pts = [[field.zero] * n] + ([list(p) for p in points] if points else [])
    for p in pts:
        if any(not field.is_zero(q.evaluate(p)) for q in lam):
            continue
        J = eval_matrix(Jpolys, p)
        W = eval_matrix(omega, p)
        good, detail = _quasi_iso_square(field, J, W, n, r)
        if not good:
            return False, ("degenerate", (p, detail))
    return True, None


def potential_from_symplectic(alg, omega):
    """A potential (S, sigma) for a closed split two-form: sigma is the
    form itself and S integrates the one-form sigma applied to the MC
    section, when that one-form is closed."""
    field = alg.field
    n = alg.space.dim(1)
    theta = poly_matmul([mc_polynomials(alg)], omega, n, n, field)[0]
    for i in range(n):
        for j in range(i + 1, n):
            if not (theta[i].diff(j) - theta[j].diff(i)).is_zero():
                return None
    # Euler/Poincare integration of a closed polynomial one-form
    S = MultiPoly.zero(n, field)
    for i in range(n):
        for e, c in theta[i].terms.items():
            tot = sum(e) + 1
            key = tuple(m + (1 if k == i else 0) for k, m in enumerate(e))
            S.terms[key] = S.terms.get(key, field.zero) + field.div(c, tot)
    S.terms = {e: c for e, c in S.terms.items() if not field.is_zero(c)}
    grad = S.gradient()
    for i in range(n):
        d = grad[i] - theta[i]
        if not d.is_zero():
            return None
    return S, [list(row) for row in omega]


def pullback_bv(phi, bv_target):
    """Transport BV data along a morphism of local models (base map with
    a bundle map intertwining the sections)."""
    field = bv_target.field
    n_src = phi.source.nvars
    S_src = bv_target.S.substitute(phi.base)
    # sigma_src = B^T . sigma(base) . d base
    sig = [[q.substitute(phi.base) for q in row] for row in bv_target.sigma]
    sig_J = poly_matmul(sig, jacobian(phi.base, n_src), n_src, n_src, field)
    B_T = [[row[b] for row in phi.bundle] for b in range(phi.source.rank)]
    sigma_src = poly_matmul(B_T, sig_J, n_src, n_src, field)
    return BVData(phi.source.to_linfty(), S_src, sigma_src)


def effective_action(split):
    """Quadratic part boxplus minimal part of a Morse-Thom split, as one
    polynomial in the split coordinates."""
    return split.quadratic + split.residual


# ------------------------------------------------------ metric structures

class MetricStructure:
    """A symmetric nondegenerate scalar pairing on the degree-1 slot,
    with a chosen sign of the square root of its determinants."""

    def __init__(self, field, Q, sqrt_sign=1):
        self.field = field
        self.Q = [list(row) for row in Q]
        n = len(Q)
        for i in range(n):
            for j in range(n):
                assert field.eq(Q[i][j], Q[j][i]), "pairing must be symmetric"
        if field.is_zero(linalg.det(field, self.Q)):
            raise ValueError("degenerate pairing")
        self.sqrt_sign = sqrt_sign


class VolumeForm:
    def __init__(self, chart, density, exact):
        self.chart = chart
        self.density = density
        self.exact = exact


def metric_vanishes_on_gauge_directions(ms, alg):
    """Item: the pairing restricted to the tangent of the MC locus is
    zero; tested on the kernel of the linearized section at the origin,
    when the origin is an MC point."""
    field = alg.field
    lam = mc_polynomials(alg)
    n = alg.space.dim(1)
    origin = [field.zero] * n
    if any(not field.is_zero(q.evaluate(origin)) for q in lam):
        return True, None
    J = eval_matrix(jacobian(lam, n), origin)
    kern = linalg.kernel_basis(field, J, n)
    for u in kern:
        for v in kern:
            s = field.zero
            for i in range(n):
                for j in range(n):
                    s = s + u[i] * ms.Q[i][j] * v[j]
            if not field.is_zero(s):
                return False, (origin, u, v)
    return True, None


def _scalar_sqrt(field, x):
    """Exact square root when the field provides one; float fallback with
    a warning otherwise."""
    if field.exact:
        root = field.sqrt(x)
        if root is not None:
            return root, True
        warnings.warn("determinant has no exact square root; degrading to float")
    import cmath

    return cmath.sqrt(complex(field.to_float(x))), False


def restrict_metric(ms, basis):
    """Restriction of the pairing to the span of `basis` (columns), with
    the metric volume density sqrt_sign * sqrt(det)."""
    field = ms.field
    n = len(ms.Q)
    k = len(basis)
    Qr = [[field.zero] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            s = field.zero
            for i in range(n):
                for j in range(n):
                    s = s + basis[a][i] * ms.Q[i][j] * basis[b][j]
            Qr[a][b] = s
    d = linalg.det(field, Qr) if k else field.one
    if field.is_zero(d):
        raise ValueError("restricted pairing is degenerate")
    root, exact = _scalar_sqrt(field, d)
    sign = field.coerce(ms.sqrt_sign) if exact else complex(ms.sqrt_sign)
    return Qr, VolumeForm(basis, sign * root, exact)


# tolerance of the float comparisons in check_volume_pullback and
# check_bv_orientable
VOLUME_TOL = 1e-10
ORIENT_TOL = 1e-9


def check_volume_pullback(field, det_J, vol_total, vol_fiber, vol_base):
    """det(J) . density_total = density_fiber . density_base, exactly in
    exact modes, to within VOLUME_TOL otherwise."""
    lhs = det_J * vol_total.density
    rhs = vol_fiber.density * vol_base.density
    if vol_total.exact and vol_fiber.exact and vol_base.exact and field.exact:
        return field.eq(lhs, rhs)
    return abs(complex(lhs) - complex(rhs)) <= VOLUME_TOL


# ---------------------------------------------------------- orientability

class OrientationCocycle:
    """Per-vertex determinant line values and per-edge transitions on a
    graph of charts."""

    def __init__(self, n_vertices, fiber_values, transitions):
        self.n_vertices = n_vertices
        self.fiber_values = list(fiber_values)
        self.transitions = dict(transitions)  # (i, j) -> scalar


def check_bv_orientable(oc):
    """Search for per-vertex square roots s_v with s_v^2 = fiber value
    and s_j = t_ij s_i along every edge.  Returns (True, section) or
    (False, violating cycle as a vertex list).  When every fiber is +- a
    rational square and every transition is rational, the roots and all
    comparisons are exact (a root of a negative fiber is a
    GaussianRational); otherwise roots are cmath roots compared within
    ORIENT_TOL."""
    import cmath

    n = oc.n_vertices
    roots = _exact_roots(oc.fiber_values)
    if roots is not None and all(isinstance(t, (int, Fraction)) for t in oc.transitions.values()):
        scalar = Fraction

        def near(a, b):
            return a == b
    else:
        roots = [cmath.sqrt(complex(v)) for v in oc.fiber_values]
        scalar = complex

        def near(a, b):
            return abs(a - b) <= ORIENT_TOL
    adj = {}
    for (i, j), t in oc.transitions.items():
        adj.setdefault(i, []).append((j, scalar(t)))
        adj.setdefault(j, []).append((i, 1 / scalar(t)))

    def edge_sign(i, j, t):
        """The sign forced on eps_i * eps_j, or None if the data is not
        even a cocycle candidate on this edge."""
        if near(roots[j], 0) or near(roots[i], 0):
            return None
        q = t * roots[i] / roots[j]
        if near(q, 1):
            return 1
        if near(q, -1):
            return -1
        return None

    eps = [None] * n
    parent = {}
    for start in range(n):
        if eps[start] is not None:
            continue
        eps[start] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for w, t in adj.get(v, []):
                s = edge_sign(v, w, t)
                if s is None:
                    return False, _cycle_to(parent, v) + [w]
                if eps[w] is None:
                    eps[w] = eps[v] * s
                    parent[w] = v
                    stack.append(w)
                elif eps[w] != eps[v] * s:
                    # violating cycle: tree path v -> root -> w plus edge
                    pv = _path_to_root(parent, v)
                    pw = _path_to_root(parent, w)
                    common = set(pv) & set(pw)
                    cyc = []
                    for x in pv:
                        cyc.append(x)
                        if x in common:
                            break
                    tail = []
                    for x in pw:
                        if x in common:
                            break
                        tail.append(x)
                    return False, cyc + list(reversed(tail))
    section = [eps[v] * roots[v] for v in range(n)]
    return True, section


def _exact_roots(values):
    """Square roots of rationals that are +- rational squares: rational
    for a fiber >= 0, i times a rational for a negative one; None when
    some value is not of that form."""
    roots = []
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return None
        r = QQ.sqrt(Fraction(abs(v)))
        if r is None:
            return None
        roots.append(r if v >= 0 else GaussianRational(0, r))
    return roots


def _path_to_root(parent, v):
    out = [v]
    while out[-1] in parent:
        out.append(parent[out[-1]])
    return out


def _cycle_to(parent, v):
    return list(reversed(_path_to_root(parent, v)))
