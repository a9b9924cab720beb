"""Sparse graded multilinear operations.

An operation of arity k stores entries {(input tuple, output index):
coefficient} with the input tuple in canonical (sorted) order.  Symmetry
type is 'sym' (graded symmetric), 'antisym' (graded antisymmetric) or
'none'.  Evaluation on arbitrary basis tuples reorders to canonical form
and picks up the Koszul sign.
"""

from __future__ import annotations

from .graded import vec_clean


def koszul_sort(indices, deg_of, antisym=False):
    """Sort `indices` ascending; return (tuple, sign) where sign is the
    Koszul sign of the permutation (times the ordinary sign for antisym).
    Insertion sort — tuples are short."""
    idxs = list(indices)
    sign = 1
    for i in range(1, len(idxs)):
        j = i
        while j > 0 and idxs[j - 1] > idxs[j]:
            s = -1 if deg_of(idxs[j - 1]) * deg_of(idxs[j]) % 2 else 1
            if antisym:
                s = -s
            sign *= s
            idxs[j - 1], idxs[j] = idxs[j], idxs[j - 1]
            j -= 1
    return tuple(idxs), sign


def repeat_kills(word, deg_of, antisym=False):
    """True when a repeated generator forces the coefficient to vanish:
    swapping two equal inputs must act by +1."""
    for a, b in zip(word, word[1:]):
        if a == b:
            s = -1 if deg_of(a) * deg_of(a) % 2 else 1
            if antisym:
                s = -s
            if s == -1:
                return True
    return False


class MultiLinearOp:
    def __init__(self, source, target, arity, degree, symmetry="sym"):
        assert symmetry in ("sym", "antisym", "none")
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.symmetry = symmetry
        self.field = source.field
        self.entries = {}

    def _canon(self, ins):
        if self.symmetry == "none":
            return tuple(ins), 1
        word, sign = koszul_sort(ins, self.source.degree_of, self.symmetry == "antisym")
        if repeat_kills(word, self.source.degree_of, self.symmetry == "antisym"):
            return None, 0
        return word, sign

    def add_entry(self, ins, out, c):
        if self.field.is_zero(c):
            return
        word, sign = self._canon(ins)
        if word is None:
            return
        key = (word, out)
        cur = self.entries.get(key, self.field.zero)
        new = cur + (c if sign == 1 else -c)
        if self.field.is_zero(new):
            self.entries.pop(key, None)
        else:
            self.entries[key] = self.field.coerce(new)

    def eval_basis(self, ins):
        """Value on a tuple of basis generators: sparse vector."""
        word, sign = self._canon(ins)
        if word is None:
            return {}
        out = {}
        for (w, o), c in self.entries.items():
            if w == word:
                out[o] = c if sign == 1 else -c
        return out

    def by_word(self):
        """The entries indexed by input word, {word: {output: c}}: the
        values on canonical words, for callers that evaluate many."""
        out = {}
        for (w, o), c in self.entries.items():
            out.setdefault(w, {})[o] = c
        return out

    def evaluate(self, vectors):
        """Value on a list of `arity` sparse vectors.  Koszul reordering
        signs for the scalar coefficients are trivial, so this is a plain
        multilinear expansion over basis supports."""
        assert len(vectors) == self.arity
        field = self.field
        out = {}
        supports = [sorted(v.items()) for v in vectors]

        def rec(i, idxs, coeff):
            if i == len(supports):
                val = self.eval_basis(idxs)
                for o, c in val.items():
                    out[o] = out.get(o, field.zero) + coeff * c
                return
            for idx, c in supports[i]:
                rec(i + 1, idxs + [idx], coeff * c)

        rec(0, [], field.one)
        return vec_clean(field, out)

    def __add__(self, other):
        out = MultiLinearOp(self.source, self.target, self.arity, self.degree, self.symmetry)
        out.entries = dict(self.entries)
        for (w, o), c in other.entries.items():
            out.add_entry(w, o, c)
        return out

    def scale(self, c):
        out = MultiLinearOp(self.source, self.target, self.arity, self.degree, self.symmetry)
        coerce = self.field.coerce
        for (w, o), x in self.entries.items():
            out.entries[(w, o)] = coerce(c * x)
        return out

    def is_zero(self):
        return not self.entries

    def eq(self, other):
        keys = set(self.entries) | set(other.entries)
        z = self.field.zero
        return all(
            self.field.eq(self.entries.get(k, z), other.entries.get(k, z)) for k in keys
        )

    def norm(self):
        """Operator max-norm bound: max over outputs of the coefficient
        l1-mass feeding it."""
        field = self.field
        mass = {}
        for (w, o), c in self.entries.items():
            mass[o] = mass.get(o, field.mag(field.zero)) + field.mag(c)
        return max(mass.values()) if mass else field.mag(field.zero)

    def __repr__(self):
        return "MultiLinearOp(arity=%d, degree=%d, %s, %d entries)" % (
            self.arity,
            self.degree,
            self.symmetry,
            len(self.entries),
        )


def _shift_sign(ins, deg_of, k):
    """Sign (-1)^{sum_i (k-i) |x_i|} relating an arity-k operation to its
    suspended symmetric avatar; i runs 1..k, degrees unsuspended."""
    e = 0
    for i, idx in enumerate(ins, start=1):
        e += (k - i) * deg_of(idx)
    return (-1) ** (e % 2)


def to_shifted(op, shifted_source=None, shifted_target=None):
    """Antisymmetric arity-k, degree 2-k operation on L  ->  symmetric
    degree +1 operation on L[1]."""
    assert op.symmetry == "antisym" or op.arity == 1
    ssrc = shifted_source if shifted_source is not None else op.source.shifted(1)
    stgt = shifted_target if shifted_target is not None else op.target.shifted(1)
    out = MultiLinearOp(ssrc, stgt, op.arity, op.degree + op.arity - 1, "sym")
    for (w, o), c in op.entries.items():
        s = _shift_sign(w, op.source.degree_of, op.arity)
        out.add_entry(w, o, c if s == 1 else -c)
    return out


def to_unshifted(op, source=None, target=None):
    """Inverse of to_shifted: symmetric operation on L[1] -> antisymmetric
    operation on L (arity 1 maps stay 'sym'-stored but are plain maps)."""
    src = source if source is not None else op.source.shifted(-1)
    tgt = target if target is not None else op.target.shifted(-1)
    sym = "antisym" if op.arity > 1 else "none"
    out = MultiLinearOp(src, tgt, op.arity, op.degree - op.arity + 1, sym)
    for (w, o), c in op.entries.items():
        s = _shift_sign(w, src.degree_of, op.arity)
        out.add_entry(w, o, c if s == 1 else -c)
    return out
