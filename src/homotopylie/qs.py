"""Quasi-smooth local models: a polynomial section of a trivial bundle
over a polydisc, its two-term tangent complexes, minimal model
decompositions and Morse-type quadratic splittings.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from . import linalg
from .graded import GradedSpace, GradedMap, ChainComplex
from .multilinear import MultiLinearOp
from .linfty import LInftyAlgebra
from .polynomial import (
    MultiPoly, jacobian, eval_matrix, hadamard_factor,
    constant_matrix, linear_forms, poly_matvec, poly_matmul,
)
from .scalars import QQ


class QsSpace:
    """(C^n, trivial rank-r bundle, polynomial section) based at the
    origin; the section must vanish there."""

    def __init__(self, nvars, rank, section, field=None):
        self.nvars = nvars
        self.rank = rank
        self.field = field if field is not None else QQ
        self.section = list(section)
        assert len(self.section) == rank
        for p in self.section:
            if not self.field.is_zero(p.constant_term()):
                raise ValueError("section does not vanish at the basepoint")

    def linear_part(self):
        """r x n matrix of the linearization at the origin."""
        return [p.linear_part_vector() for p in self.section]

    def evaluate(self, point):
        return [p.evaluate(point) for p in self.section]

    def jacobian_at(self, point):
        J = jacobian(self.section, self.nvars)
        return eval_matrix(J, point)

    def dg_tangent(self):
        """Two-term tangent complex (degrees 1 -> 2) at the origin."""
        V = GradedSpace({1: self.nvars, 2: self.rank}, field=self.field)
        d = GradedMap(V, V, 1)
        J = self.jacobian_at([self.field.zero] * self.nvars)
        for a in range(self.rank):
            for i in range(self.nvars):
                if not self.field.is_zero(J[a][i]):
                    d.set_entry(V.index(2, a), V.index(1, i), J[a][i])
        return ChainComplex(V, d, check=False)

    def tangent_cohomology(self):
        return self.dg_tangent().cohomology_ranks()

    def is_minimal(self):
        return all(self.field.is_zero(c) for row in self.linear_part() for c in row)

    def to_linfty(self):
        """The structure tower: L^1 = variables, L^2 = bundle, with
        l_k the k-th Taylor coefficients, so that the Maurer-Cartan
        function reproduces the section exactly."""
        V = GradedSpace({1: self.nvars, 2: self.rank}, field=self.field)
        return LInftyAlgebra(V, taylor_ops(self.section, V))


def taylor_ops(section, space):
    """Taylor encoding of polynomials in the degree-1 coordinates of
    `space`, polynomial a landing on the a-th degree-2 generator: the
    shifted operations {k: q_k} with q_k(x^alpha) = alpha! c_alpha, so
    that the Maurer-Cartan function gives the polynomials back."""
    sp = space.shifted(1)
    ops = {}
    for a, p in enumerate(section):
        out = space.index(2, a)
        for e, c in p.terms.items():
            word = tuple(space.index(1, i) for i, m in enumerate(e) for _ in range(m))
            op = ops.setdefault(len(word), MultiLinearOp(sp, sp, len(word), 1, "sym"))
            op.add_entry(word, out, c * space.field.coerce(math.prod(map(math.factorial, e))))
    return ops


def dcrit(S):
    """Derived critical locus tower of a potential: section = gradient."""
    return QsSpace(S.nvars, S.nvars, S.gradient(), S.field)


class QsMorphism:
    """(base, bundle): base is a list of target.nvars polynomials in the
    source variables; bundle is a target.rank x source.rank matrix of
    polynomials in the source variables, with
    bundle(x) . section_src(x) = section_tgt(base(x)).  The constructor
    takes the maps as given; `compat_defect` checks that identity."""

    def __init__(self, source, target, base, bundle):
        self.source = source
        self.target = target
        self.field = source.field
        # a substitution into a space with no variables gives scalars
        # (`MultiPoly.substitute` has no polynomial to build on): they are
        # constants in the source's variables
        self.base = [self._poly(p) for p in base]
        self.bundle = [[self._poly(p) for p in row] for row in bundle]

    def _poly(self, p):
        if isinstance(p, MultiPoly):
            return p
        return MultiPoly.constant(self.source.nvars, self.field.coerce(p), self.field)

    def compat_defect(self):
        lhs = poly_matvec(self.bundle, self.source.section, self.source.nvars, self.field)
        for a, (left, lam) in enumerate(zip(lhs, self.target.section)):
            defect = left - lam.substitute(self.base)
            if not defect.is_zero():
                return False, (a, defect)
        return True, None

    def base_jacobian_at(self, point):
        J = jacobian(self.base, self.source.nvars)
        return eval_matrix(J, point)

    def bundle_at(self, point):
        return eval_matrix(self.bundle, point)

    def push_point(self, point):
        return [p.evaluate(point) for p in self.base]

    def compose(self, other):
        """self after other."""
        base = [p.substitute(other.base) for p in self.base]
        outer = [[q.substitute(other.base) for q in row] for row in self.bundle]
        bundle = poly_matmul(outer, other.bundle, other.source.rank, other.source.nvars, self.field)
        return QsMorphism(other.source, self.target, base, bundle)

    def is_identity(self):
        if self.source.nvars != self.target.nvars or self.source.rank != self.target.rank:
            return False
        return self.eq(identity_morphism(self.source))

    def eq(self, other):
        for p, q in zip(self.base, other.base):
            if not (p - q).is_zero():
                return False
        for ra, rb in zip(self.bundle, other.bundle):
            for p, q in zip(ra, rb):
                if not (p - q).is_zero():
                    return False
        return True


def identity_morphism(qs):
    base = linear_forms(linalg.identity(qs.field, qs.nvars), qs.field)
    bundle = constant_matrix(qs.nvars, linalg.identity(qs.field, qs.rank), qs.field)
    return QsMorphism(qs, qs, base, bundle)


def is_quasi_iso(morph, points):
    """Quasi-isomorphism of two-term tangent complexes at each point,
    decided through mapping-cone ranks."""
    field = morph.field
    for x in points:
        y = morph.push_point(x)
        J1 = morph.source.jacobian_at(x)
        J2 = morph.target.jacobian_at(y)
        A = morph.base_jacobian_at(x)
        B = morph.bundle_at(x)
        n1, r1 = morph.source.nvars, morph.source.rank
        n2, r2 = morph.target.nvars, morph.target.rank
        # cone: C^n1 -> C^r1 + C^n2 -> C^r2
        M1 = [J1[a][:] for a in range(r1)] + [A[i][:] for i in range(n2)]
        M2 = []
        for a in range(r2):
            row = [B[a][b] for b in range(r1)] + [-J2[a][i] for i in range(n2)]
            M2.append(row)
        if any(linalg.cone_cohomology(field, M1, M2, n1)):
            return False
    return True


# ------------------------------------------------ minimal decomposition

class MinimalDecomposition:
    """Exact splitting of a quasi-smooth model into a minimal part and a
    linear contractible part, in adapted coordinates (z, n):

      adapted section = (lam_tilde(z, n), n)
      minimal section = lam_tilde(z, 0)

    T is the linear source change (rows: z then n coordinates as linear
    forms in the original variables); Theta is the polynomial bundle
    change applied to the original section."""

    exact = True  # the decomposition is built and checked in exact arithmetic

    def __init__(self, original, adapted, minimal, T, Theta, M_rows, n_min, n_con):
        self.original = original
        self.adapted = adapted
        self.minimal = minimal
        self.T = T
        self.Theta = Theta
        self.M_rows = M_rows  # Hadamard remainders: n . M = lam_tilde(z,n) - lam_tilde(z,0)
        self.n_min = n_min
        self.n_con = n_con
        self.field = original.field

    # morphisms of the decomposition, built unchecked: `verify` decides
    # their identities -----------------------------------------------------

    def _scaling(self, size, t):
        """diag(1, ..., 1, t, ..., t), with t on the last n_con entries."""
        D = linalg.identity(self.field, size)
        for i in range(size - self.n_con, size):
            D[i][i] = t
        return D

    def inclusion(self):
        f = self.field
        keep_z = [row[:self.n_min] for row in linalg.identity(f, self.adapted.nvars)]
        base = linear_forms(keep_z, f)
        first = [row[:self.minimal.rank] for row in linalg.identity(f, self.adapted.rank)]
        bundle = constant_matrix(self.n_min, first, f)
        return QsMorphism(self.minimal, self.adapted, base, bundle)

    def projection(self):
        nv, f = self.adapted.nvars, self.field
        base = linear_forms(linalg.identity(f, nv)[:self.n_min], f)
        bundle = [
            row + [-M[a] for M in self.M_rows]
            for a, row in enumerate(constant_matrix(nv, linalg.identity(f, self.minimal.rank), f))
        ]
        return QsMorphism(self.adapted, self.minimal, base, bundle)

    def homotopy_at(self, t):
        """The contraction at parameter value t, as an endomorphism of the
        adapted model: base (z, t n), bundle mixing in the Hadamard rows."""
        f = self.field
        t = f.coerce(t)
        base = linear_forms(self._scaling(self.adapted.nvars, t), f)
        bundle = constant_matrix(self.adapted.nvars, self._scaling(self.adapted.rank, t), f)
        rp = self.minimal.rank
        for a in range(rp):
            for i, M in enumerate(self.M_rows):
                bundle[a][rp + i] = M[a].substitute(base).scale(t) - M[a]
        return QsMorphism(self.adapted, self.adapted, base, bundle)

    def verify(self):
        """All decomposition identities, exactly, from two homotopies.

        H_t scales n to t n.  Write K = lam_tilde - n . M and G(z, n) =
        K(z, n) - K(z, 0), the projection's compat defect.  H_t's compat
        defect is then G(z, n) - G(z, t n) = sum_N (1 - t^|N|) G_N(z) n^N
        in the lam_tilde rows and 0 in the n rows; the terms with |N| = 0
        cancel for every t.  So it vanishes for every t exactly when it
        vanishes at t = 0.  On the slice n = 0, H_t is the identity in z
        and its bundle columns that I reads are I's, so H_t I does not
        depend on t.  H_0 therefore decides both "H_0 = I P" and
        "H_t I = I"; H_1 is built only for "H_1 = id"."""
        out = {}
        I, P = self.inclusion(), self.projection()
        H0 = self.homotopy_at(0)
        out["inclusion compat"] = I.compat_defect()[0]
        out["projection compat"] = P.compat_defect()[0]
        out["P I = id"] = P.compose(I).is_identity()
        out["H_1 = id"] = self.homotopy_at(1).is_identity()
        out["H_0 = I P"] = H0.eq(I.compose(P))
        out["H_t I = I"] = H0.compat_defect()[0] and H0.compose(I).eq(I)
        return out


def _monomials_upto(nvars, deg):
    out = []
    for d in range(deg + 1):
        for c in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in c:
                e[i] += 1
            out.append(tuple(e))
    return out


def _polynomial_linearizers(qs, deg_bound):
    """Rows theta (vectors of polynomials) with theta . section exactly a
    linear form; returns list of (theta, linear coefficient vector)."""
    field = qs.field
    n, r = qs.nvars, qs.rank
    monos = _monomials_upto(n, deg_bound)
    nm = len(monos)
    # unknowns: coefficient of mono m in theta_a -> index a*nm + j
    # constraints: all non-linear coefficients of sum_a theta_a lam_a vanish
    rows_by_mono = {}
    for a in range(r):
        lam = qs.section[a]
        for j, m in enumerate(monos):
            col = a * nm + j
            for e, c in lam.terms.items():
                tot = tuple(x + y for x, y in zip(e, m))
                if sum(tot) == 1:
                    continue  # linear output is allowed
                rows_by_mono.setdefault(tot, {})[col] = (
                    rows_by_mono.setdefault(tot, {}).get(col, field.zero) + c
                )
    nunk = r * nm
    A = []
    for tot in sorted(rows_by_mono):
        row = [field.zero] * nunk
        for col, c in rows_by_mono[tot].items():
            row[col] = c
        A.append(row)
    kern = linalg.kernel_basis(field, A, nunk)
    out = []
    for v in kern:
        theta = []
        for a in range(r):
            p = MultiPoly(n, field)
            for j, m in enumerate(monos):
                c = v[a * nm + j]
                if not field.is_zero(c):
                    p.terms[m] = c
            theta.append(p)
        mu = poly_matvec([theta], qs.section, n, field)[0].linear_part_vector()
        out.append((theta, mu))
    return out


def minimal_decomposition(qs):
    """Adapt coordinates so the section splits as (lam_tilde(z,n), n) and
    return the associated minimal model decomposition.

    The fiber coordinates n are linear forms that lie in the polynomial
    row span of the section, found by polynomial linearizers of degree
    up to the section's degree; if too few exist this raises ValueError."""
    field = qs.field
    n, r = qs.nvars, qs.rank
    D = qs.linear_part()
    r2 = linalg.rank(field, D) if D and D[0] else 0
    deg_bound = max(p.degree() for p in qs.section)
    if r2 == 0:
        return MinimalDecomposition(qs, qs, qs, linalg.identity(field, n),
                                    None, [], n, 0)

    # low degree bounds usually suffice, so escalate instead of solving
    # the full-degree linearizer system outright; keep the first r2
    # linearizers whose linear parts mu are independent
    chosen = []
    for db in range(1, deg_bound + 1):
        sols = _polynomial_linearizers(qs, db)
        piv = linalg.column_space_pivots(field, linalg.transpose([mu for _, mu in sols]))
        chosen = [sols[j] for j in piv[:r2]]
        if len(chosen) == r2:
            break
    if len(chosen) < r2:
        raise ValueError(
            "no exact polynomial adaptation at degree bound %d "
            "(found %d of %d fiber coordinates)" % (deg_bound, len(chosen), r2)
        )
    mu_rows = [mu for _, mu in chosen]

    # source change: z = standard coordinates completing the mu rows
    z_idx = linalg.complement_pivots(field, mu_rows, n)
    n1 = n - r2
    assert len(z_idx) == n1
    E = linalg.identity(field, n)
    T = [E[i] for i in z_idx] + mu_rows
    Tinv = linalg.inverse(field, T)

    # target rows: constant rows completing theta(0), whose rows are
    # independent because theta(0) D is the independent mu rows
    theta0 = [[t.constant_term() for t in theta] for theta, _ in chosen]
    kappa_idx = linalg.complement_pivots(field, theta0, r) if r2 < r else []
    assert len(kappa_idx) == r - r2

    # substitution x = Tinv . y
    x_of_y = linear_forms(Tinv, field)
    lam_y = [p.substitute(x_of_y) for p in qs.section]

    units = constant_matrix(n, linalg.identity(field, r), field)
    Theta = [units[a] for a in kappa_idx] + [
        [t.substitute(x_of_y) for t in theta] for theta, _mu in chosen
    ]
    new_section = poly_matvec(Theta, lam_y, n, field)

    # sanity: the last r2 components are exactly the n coordinates
    for i in range(r2):
        want = MultiPoly.variable(n, n1 + i, field)
        if not (new_section[r - r2 + i] - want).is_zero():
            raise AssertionError("adaptation failed to produce exact fiber coordinates")

    adapted = QsSpace(n, r, new_section, field)
    rp = r - r2
    lam_tilde = new_section[:rp]

    # minimal section: z variables only
    proj_z = linear_forms([row[:n1] for row in E], field)
    minimal = QsSpace(n1, rp, [p.substitute(proj_z) for p in lam_tilde], field)

    # Hadamard rows: lam_tilde(z,n) - lam_tilde(z,0) = sum_i n_i M_i, from
    # partials[i] = lam_tilde with every n_j, j >= i, set to 0
    partials = [
        [p.substitute(linear_forms(E[:n1 + i] + linalg.zeros(field, r2 - i, n), field))
         for p in lam_tilde]
        for i in range(r2 + 1)
    ]
    M_rows = [
        [hadamard_factor(partials[i + 1][a] - partials[i][a], n1 + i) for a in range(rp)]
        for i in range(r2)
    ]

    return MinimalDecomposition(qs, adapted, minimal, T, Theta, M_rows, n1, r2)


# --------------------------------------------------- quadratic splitting

class MorseThomSplit:
    """S(change(z)) = quadratic + residual, where quadratic = sum c_i z_i^2
    over the split variables and the residual is the part of `reduced`
    (S(change(z)) below the cutoff) that involves none of them; `exact`
    when the identity holds without truncation."""

    def __init__(self, original, change, quad_coeffs, reduced, cutoff):
        n, field = original.nvars, original.field
        self.original = original
        self.change = change  # substitution: new vars -> old expression of S
        self.quad_coeffs = quad_coeffs  # c_i for the sum c_i z_i^2 part
        self.quadratic = MultiPoly(n, field, {
            (0,) * i + (2,) + (0,) * (n - i - 1): field.coerce(c)
            for i, c in enumerate(quad_coeffs)
        })
        k = len(quad_coeffs)
        self.residual = MultiPoly(n, field, {e: c for e, c in (reduced - self.quadratic).terms.items()
                                             if not any(e[:k])})
        self.cutoff = cutoff
        self.exact = (self.reconstructed() - self.quadratic - self.residual).is_zero()

    @property
    def split_rank(self):
        return len(self.quad_coeffs)

    def reconstructed(self):
        """S(change(z)) as a polynomial (truncated at the cutoff when the
        split is not exact)."""
        return self.original.substitute(self.change)


def _congruence_diagonalize(field, H):
    """P with P^T H P diagonal; returns (P, diagonal entries)."""
    n = len(H)
    A = [list(row) for row in H]
    P = linalg.identity(field, n)

    def add_col(dst, src, c):
        for r in range(n):
            A[r][dst] = A[r][dst] + c * A[r][src]
        for r in range(n):
            A[dst][r] = A[dst][r] + c * A[src][r]
        for r in range(n):
            P[r][dst] = P[r][dst] + c * P[r][src]

    def swap_cols(a, b):
        for r in range(n):
            A[r][a], A[r][b] = A[r][b], A[r][a]
        A[a], A[b] = A[b], A[a]
        for r in range(n):
            P[r][a], P[r][b] = P[r][b], P[r][a]

    k = 0
    for k in range(n):
        if field.is_zero(A[k][k]):
            # find a nonzero diagonal below, or create one
            done = False
            for j in range(k + 1, n):
                if not field.is_zero(A[j][j]):
                    swap_cols(k, j)
                    done = True
                    break
            if not done:
                for j in range(k + 1, n):
                    if not field.is_zero(A[k][j]):
                        add_col(k, j, field.one)
                        done = True
                        break
            if not done:
                continue
        piv = A[k][k]
        for j in range(k + 1, n):
            if not field.is_zero(A[k][j]):
                add_col(j, k, field.div(-A[k][j], piv))
    diag = [A[i][i] for i in range(n)]
    return P, diag


def morse_thom_split(S):
    """Split off the nondegenerate quadratic part of a potential by a
    degree-by-degree polynomial change of coordinates:
    S(change(z)) = sum c_i z_i^2 + p(z_rest) below the cutoff
    max(deg S + 2, 6)."""
    field = S.field
    n = S.nvars
    cutoff = max(S.degree() + 2, 6)
    S2 = S.homogeneous_part(2)
    H = [[field.zero] * n for _ in range(n)]
    for e, c in S2.terms.items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx[0], idx[1]
        if i == j:
            H[i][i] = H[i][i] + c
        else:
            half = field.div(c, 2)
            H[i][j] = H[i][j] + half
            H[j][i] = H[j][i] + half
    P, diag = _congruence_diagonalize(field, H)
    # order: nonzero diagonal entries first
    order = [i for i in range(n) if not field.is_zero(diag[i])] + [
        i for i in range(n) if field.is_zero(diag[i])
    ]
    d_split = sum(1 for i in range(n) if not field.is_zero(diag[i]))
    coeffs = [diag[i] for i in order[:d_split]]
    # linear change: old x = P . (reordered z)
    change = linear_forms([[row[j] for j in order] for row in P], field)
    cur = S.substitute(change)

    for m in range(3, cutoff + 1):
        # the degree-m monomials that involve a split variable
        R = MultiPoly(n, field, {e: c for e, c in cur.terms.items()
                                 if sum(e) == m and any(e[:d_split])})
        if R.is_zero():
            continue
        # write R = sum_i z_i h_i greedily and absorb via z_i -> z_i - h_i/(2 c_i)
        subs = linear_forms(linalg.identity(field, n), field)
        work = R
        for i in range(d_split):
            hi = hadamard_factor(work, i)
            rest = work - MultiPoly.variable(n, i, field) * hi
            work = rest
            if hi.is_zero():
                continue
            subs[i] = subs[i] - hi.scale(field.div(field.one, 2 * coeffs[i]))
        # truncating here keeps the coordinate change from compounding in
        # degree; anything dropped sits above the cutoff
        change = [p.substitute(subs).truncate(cutoff) for p in change]
        cur = S.substitute(change).truncate(cutoff)

    return MorseThomSplit(S, change, coeffs, cur, cutoff)
