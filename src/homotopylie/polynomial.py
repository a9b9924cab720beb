"""Sparse multivariate polynomials over a scalar field, and the bundle
maps built from them.

Terms are stored as {exponent tuple: coefficient}; printing and
serialization use graded lexicographic term order so output is canonical.

A bundle map is a matrix of polynomials (a list of rows) acting on a
section.  `constant_matrix` turns a matrix of scalars into one (an
identity block is `linalg.identity`), `linear_forms` gives the linear
substitution a matrix of scalars defines, and `poly_matvec` and
`poly_matmul` are the products M . v and A . B.  Every shape carries its
variable count and field, and `poly_matmul` its column count, so empty
rows, columns and sums keep their shape.
"""

from __future__ import annotations

from .scalars import QQ


class MultiPoly:
    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, field=None, terms=None):
        self.nvars = nvars
        self.field = field if field is not None else QQ
        self.terms = {}
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                assert len(e) == nvars
                if not self.field.is_zero(c):
                    self.terms[e] = c

    @classmethod
    def constant(cls, nvars, c, field=None):
        return cls(nvars, field, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, field=None):
        e = [0] * nvars
        e[i] = 1
        p = cls(nvars, field)
        p.terms[tuple(e)] = p.field.one
        return p

    @classmethod
    def zero(cls, nvars, field=None):
        return cls(nvars, field)

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def copy(self):
        p = MultiPoly(self.nvars, self.field)
        p.terms = dict(self.terms)
        return p

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        try:
            c = self.field.coerce(other)
        except TypeError:
            return None
        return MultiPoly.constant(self.nvars, c, self.field)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.copy()
        for e, c in other.terms.items():
            cur = p.terms.get(e, self.field.zero)
            new = cur + c
            if self.field.is_zero(new):
                p.terms.pop(e, None)
            else:
                p.terms[e] = new
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MultiPoly(self.nvars, self.field)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = MultiPoly(self.nvars, self.field)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                cur = p.terms.get(e, self.field.zero)
                new = cur + c1 * c2
                if self.field.is_zero(new):
                    p.terms.pop(e, None)
                else:
                    p.terms[e] = new
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        out = MultiPoly.constant(self.nvars, self.field.one, self.field)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def scale(self, c):
        c = self.field.coerce(c)
        p = MultiPoly(self.nvars, self.field)
        for e, x in self.terms.items():
            v = c * x
            if not self.field.is_zero(v):
                p.terms[e] = v
        return p

    def diff(self, i):
        p = MultiPoly(self.nvars, self.field)
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            k = e2[i]
            e2[i] -= 1
            p.terms[tuple(e2)] = c * self.field.coerce(k)
        return p

    def gradient(self):
        return [self.diff(i) for i in range(self.nvars)]

    def evaluate(self, point):
        assert len(point) == self.nvars
        field = self.field
        out = field.zero
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                for _ in range(k):
                    t = t * x
            out = out + t
        return out

    def substitute(self, polys):
        """Plug polynomials (or scalars) in for the variables."""
        assert len(polys) == self.nvars
        nv = None
        for q in polys:
            if isinstance(q, MultiPoly):
                nv = q.nvars
                break
        if nv is None:
            return self.evaluate(polys)
        out = MultiPoly(nv, self.field)
        for e, c in self.terms.items():
            t = MultiPoly.constant(nv, c, self.field)
            for q, k in zip(polys, e):
                if k == 0:
                    continue
                if not isinstance(q, MultiPoly):
                    q = MultiPoly.constant(nv, self.field.coerce(q), self.field)
                t = t * q**k
            out = out + t
        return out

    def homogeneous_part(self, k):
        p = MultiPoly(self.nvars, self.field)
        p.terms = {e: c for e, c in self.terms.items() if sum(e) == k}
        return p

    def truncate(self, k):
        """Drop terms of total degree > k."""
        p = MultiPoly(self.nvars, self.field)
        p.terms = {e: c for e, c in self.terms.items() if sum(e) <= k}
        return p

    def linear_part_vector(self):
        field = self.field
        out = [field.zero] * self.nvars
        for i in range(self.nvars):
            e = tuple(1 if j == i else 0 for j in range(self.nvars))
            out[i] = self.terms.get(e, field.zero)
        return out

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def sorted_terms(self):
        """Graded lexicographic, highest first."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def __repr__(self):
        return "MultiPoly(%s)" % format_poly(self, ["x%d" % i for i in range(self.nvars)])


def format_poly(p, names):
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            names[i] if k == 1 else "%s^%d" % (names[i], k) for i, k in enumerate(e) if k
        )
        cs = p.field.to_json(c) if not isinstance(c, complex) else repr(c)
        if isinstance(cs, list):
            cs = "(%s+%si)" % tuple(cs)
        if mono:
            parts.append("%s*%s" % (cs, mono) if cs not in ("1",) else mono)
        else:
            parts.append(str(cs))
    return " + ".join(parts)


def jacobian(polys, nvars):
    return [[p.diff(j) for j in range(nvars)] for p in polys]


def eval_matrix(mat, point):
    return [[p.evaluate(point) if isinstance(p, MultiPoly) else p for p in row] for row in mat]


def hadamard_factor(p, i):
    """Write p(x) - p(x with x_i = 0) = x_i * q(x); returns q exactly."""
    q = MultiPoly(p.nvars, p.field)
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        q.terms[tuple(e2)] = c
    return q


def constant_matrix(nvars, mat, field):
    """A matrix of scalars as constant polynomials in `nvars` variables."""
    return [[MultiPoly.constant(nvars, field.coerce(c), field) for c in row] for row in mat]


def linear_forms(mat, field):
    """The linear substitution x_i = sum_j mat[i][j] y_j: one polynomial
    per row, in as many variables as the rows have entries."""
    out = []
    for row in mat:
        n = len(row)
        p = MultiPoly(n, field)
        for j, c in enumerate(row):
            if not field.is_zero(c):
                p.terms[(0,) * j + (1,) + (0,) * (n - j - 1)] = field.coerce(c)
        out.append(p)
    return out


def poly_matvec(mat, vec, nvars, field):
    """mat . vec for polynomials in `nvars` variables."""
    out = []
    for row in mat:
        acc = MultiPoly(nvars, field)
        for m, v in zip(row, vec):
            acc = acc + m * v
        out.append(acc)
    return out


def poly_matmul(A, B, ncols, nvars, field):
    """A . B for polynomials in `nvars` variables, where B has `ncols`
    columns (B has no rows when the inner dimension is 0)."""
    cols = [poly_matvec(A, [row[c] for row in B], nvars, field) for c in range(ncols)]
    return [[col[a] for col in cols] for a in range(len(A))]
