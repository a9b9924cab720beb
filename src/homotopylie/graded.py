"""Graded vector spaces, graded maps and chain complexes.

A GradedSpace is a finite list of basis generators, each carrying an
integer degree and a label.  Vectors are sparse dicts {global index:
scalar}.  A GradedMap of degree s sends degree d to degree d+s and is
stored as one dense block per source degree.
"""

from __future__ import annotations

from . import linalg
from .scalars import QQ


class GradedSpace:
    def __init__(self, dims, labels=None, field=None):
        """dims: {degree: dimension}.  Generators are enumerated degree by
        degree (ascending), position within a degree in order."""
        self.field = field if field is not None else QQ
        self.dims = {d: n for d, n in sorted(dims.items()) if n > 0}
        self._basis = []  # list of (degree, position)
        self._offset = {}
        for d, n in self.dims.items():
            self._offset[d] = len(self._basis)
            for i in range(n):
                self._basis.append((d, i))
        if labels is None:
            labels = {}
            for d, n in self.dims.items():
                labels[d] = ["e%d_%d" % (d, i) for i in range(n)]
        self.labels = labels

    @property
    def total_dim(self):
        return len(self._basis)

    def degrees(self):
        return list(self.dims.keys())

    def dim(self, d):
        return self.dims.get(d, 0)

    def degree_of(self, idx):
        return self._basis[idx][0]

    def position_of(self, idx):
        return self._basis[idx][1]

    def label_of(self, idx):
        d, i = self._basis[idx]
        return self.labels[d][i]

    def index(self, d, i):
        return self._offset[d] + i

    def indices_of_degree(self, d):
        if d not in self.dims:
            return []
        o = self._offset[d]
        return list(range(o, o + self.dims[d]))

    def shifted(self, k):
        """Degree shift: (self[k])^d = self^{d+k}.  Generator order and
        global indices are unchanged."""
        dims = {d - k: n for d, n in self.dims.items()}
        labels = {d - k: list(ls) for d, ls in self.labels.items()}
        return GradedSpace(dims, labels, self.field)


# ---------------------------------------------------------------- vectors

def vec_clean(field, v):
    return {k: c for k, c in v.items() if not field.is_zero(c)}


def vec_norm(field, v):
    """Max-norm (exact Fraction in exact modes; see Field.mag)."""
    m = field.mag(field.zero)
    for c in v.values():
        a = field.mag(c)
        if a > m:
            m = a
    return m


# ------------------------------------------------------------------ maps

class GradedMap:
    """Degree-homogeneous linear map between graded spaces."""

    def __init__(self, source, target, degree, blocks=None):
        self.source = source
        self.target = target
        self.degree = degree
        self.field = source.field
        # blocks[d]: matrix of shape (dim target^{d+degree}, dim source^d)
        self.blocks = {}
        for d in source.degrees():
            m = target.dim(d + degree)
            n = source.dim(d)
            if blocks is not None and d in blocks:
                self.blocks[d] = [[self.field.coerce(x) for x in r] for r in blocks[d]]
            else:
                self.blocks[d] = linalg.zeros(self.field, m, n)

    @classmethod
    def identity(cls, space):
        f = cls(space, space, 0)
        for d in space.degrees():
            f.blocks[d] = linalg.identity(space.field, space.dim(d))
        return f

    def block(self, d):
        return self.blocks.get(
            d, linalg.zeros(self.field, self.target.dim(d + self.degree), self.source.dim(d))
        )

    def set_entry(self, out_idx, in_idx, val):
        d = self.source.degree_of(in_idx)
        assert self.target.degree_of(out_idx) == d + self.degree
        val = self.field.coerce(val)
        self.blocks[d][self.target.position_of(out_idx)][self.source.position_of(in_idx)] = val

    def entry(self, out_idx, in_idx):
        d = self.source.degree_of(in_idx)
        if self.target.degree_of(out_idx) != d + self.degree:
            return self.field.zero
        B = self.block(d)
        return B[self.target.position_of(out_idx)][self.source.position_of(in_idx)]

    def apply(self, v):
        field = self.field
        out = {}
        for idx, c in v.items():
            d = self.source.degree_of(idx)
            j = self.source.position_of(idx)
            B = self.blocks.get(d)
            if B is None:
                continue
            for i, row in enumerate(B):
                a = row[j]
                if field.is_zero(a):
                    continue
                k = self.target.index(d + self.degree, i)
                out[k] = out.get(k, field.zero) + a * c
        return vec_clean(field, out)

    def compose(self, other):
        """self after other."""
        assert other.target.dims == self.source.dims
        out = GradedMap(other.source, self.target, self.degree + other.degree)
        for d in other.source.degrees():
            A = self.blocks.get(d + other.degree)
            B = other.blocks.get(d)
            if A is None or B is None:
                continue
            out.blocks[d] = linalg.mat_mul(self.field, A, B)
        return out

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        assert self.degree == other.degree
        out = GradedMap(self.source, self.target, self.degree)
        for d in self.source.degrees():
            out.blocks[d] = linalg.mat_add(self.block(d), other.block(d))
        return out

    def __sub__(self, other):
        return self + other.scale(-self.field.one)

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        out = GradedMap(self.source, self.target, self.degree)
        for d in self.source.degrees():
            out.blocks[d] = linalg.mat_scale(c, self.block(d))
        return out

    def is_zero(self):
        return all(linalg.is_zero_matrix(self.field, B) for B in self.blocks.values())

    def eq(self, other):
        return (self - other).is_zero()

    def shifted(self, k, src=None, tgt=None):
        """The same map viewed on shifted spaces (pure reindexing; the
        sign bookkeeping of the shift lives in the operation layer)."""
        src = src if src is not None else self.source.shifted(k)
        tgt = tgt if tgt is not None else self.target.shifted(k)
        return GradedMap(src, tgt, self.degree, {d - k: B for d, B in self.blocks.items()})


class ChainComplex:
    def __init__(self, space, d, check=True):
        assert d.degree == 1
        self.space = space
        self.field = space.field
        self.d = d
        if check:
            if not (d @ d).is_zero():
                raise ValueError("differential does not square to zero")

    def cohomology_ranks(self):
        """{degree: dim H^d}."""
        out = {}
        rks = {d: linalg.rank(self.field, self.d.block(d)) for d in self.space.degrees()}
        for d in self.space.degrees():
            out[d] = self.space.dim(d) - rks.get(d, 0) - rks.get(d - 1, 0)
        return out
