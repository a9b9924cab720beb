"""Finite-dimensional homotopy Lie algebras.

Operations are stored in the shifted symmetric convention: a family of
graded symmetric operations q_k of degree +1 on L[1].  The antisymmetric
picture on L is available through the conversion helpers in
`multilinear`.

The operations induce a coderivation Q of the symmetric coalgebra S(L[1]),
and a morphism's components induce a coalgebra map F.  A tower is valid
when Q^2 = 0, a morphism when Q_T F = F Q_S.  Q^2 is a coderivation and
Q_T F - F Q_S a coderivation along F, and such a map of the cofree
conilpotent cocommutative coalgebra is fixed by its corestriction, its
length-1 part (Loday-Vallette, Algebraic Operads, ch. 10).  So both
checks compute only that length-1 part, one word at a time, on the words
up to a configurable length.  pi_1 Q^2 is one sum over the selections of
a word, `words.square_column`, and it is quadratic in the structure
constants: over QQ `validate` scales them all by their common
denominator D, sums in ints and divides only the witness by D^2.  The
first half of the morphism check,
pi_1 Q_T F, and the composite of two morphisms, pi_1 G F, are one sum
over the set partitions of a word, `words.composite_column`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .graded import GradedMap, ChainComplex, vec_clean
from .multilinear import MultiLinearOp, to_shifted, to_unshifted
from .scalars import QQ
from . import words as W


class ValidationReport:
    def __init__(self, ok, witness=None, max_length=None):
        self.ok = ok
        self.witness = witness  # (input word, output word, coefficient)
        self.max_length = max_length

    def __bool__(self):
        return self.ok


class LInftyAlgebra:
    def __init__(self, space, sops):
        """space: unshifted graded space; sops: {arity: symmetric degree +1
        operation on space.shifted(1)}."""
        self.space = space
        self.field = space.field
        self.shifted_space = space.shifted(1)
        self.sops = {k: op for k, op in sops.items() if not op.is_zero()}
        for k, op in self.sops.items():
            assert op.arity == k and op.degree == 1 and op.symmetry == "sym"

    @classmethod
    def from_unshifted_ops(cls, space, ops):
        """ops: {k: antisymmetric arity-k operation of degree 2-k on L}."""
        ssp = space.shifted(1)
        sops = {k: to_shifted(op, ssp, ssp) for k, op in ops.items()}
        return cls(space, sops)

    @property
    def max_arity(self):
        return max(self.sops) if self.sops else 0

    def unshifted_op(self, k):
        if k not in self.sops:
            sym = "antisym" if k > 1 else "none"
            return MultiLinearOp(self.space, self.space, k, 2 - k, sym)
        return to_unshifted(self.sops[k], self.space, self.space)

    # ---------------------------------------------------------- validation

    def validate(self, n_check=3):
        """Check Q^2 = 0 on all words of length <= n_check, Q the
        coderivation induced by the operations.  Words are scanned in
        (length, lexicographic) order for the first w with
        pi_1 Q^2(w) != 0.  Q^2 is a coderivation, so Q^2(w) is a sum of
        pi_1 Q^2 on subwords of w times the letters left over; on that
        first w all proper subwords give zero, hence Q^2(w) = pi_1 Q^2(w),
        and the witness (w, (o,), c) is the first nonzero column of Q^2
        with its smallest output word.

        The sum runs in ints over QQ: every term of pi_1 Q^2(w) is a
        product of exactly two structure constants, so scaling all of
        them by the common denominator D scales the defect by D^2, and
        only the witness is divided back."""
        sp, field = self.shifted_space, self.field
        D, scaled = _integer_constants(field, {k: op.by_word() for k, op in self.sops.items()})
        evals = {k: by_word.get for k, by_word in scaled.items()}
        canon = {}  # (o,) + rest -> canon_word, for this call
        words = W.enumerate_words(sp, n_check)
        bad = _first_defect(words, lambda w: W.square_column(field, evals, w, sp.degree_of, canon))
        if bad is not None:
            w, o, c = bad
            bad = (w, o, field.div(c, D * D))
        return ValidationReport(bad is None, witness=bad, max_length=n_check)

    # ------------------------------------------------------------- tower

    def _check_shifted_zero(self, x):
        for idx in x:
            if self.shifted_space.degree_of(idx) != 0:
                raise ValueError("element must be concentrated in degree 1")

    def mc_function(self, x):
        """F(x) = sum_k 1/k! l_k(x,...,x) for x of degree 1."""
        self._check_shifted_zero(x)
        return taylor_sum(self.field, self.sops, x)

    def mc_residual(self, x):
        from .graded import vec_norm

        return vec_norm(self.field, self.mc_function(x))

    def twisted_ops(self, b):
        """Operations of the algebra twisted by a degree-1 element b:
        l_k^b(...) = sum_j 1/j! l_{j+k}(b,...,b, ...)."""
        self._check_shifted_zero(b)
        sp = self.shifted_space
        return twist_family(self.sops, b, sp, sp, 1)

    def twist(self, b):
        """Twist by b; returns a Twist (curved unless b is Maurer-Cartan)."""
        curv = self.mc_function(b)
        ops = self.twisted_ops(b)
        return Twist(self, b, curv, ops)

    def twisted_differential(self, b):
        """l_1^b as a graded map of degree +1 on the unshifted space."""
        ops = self.twisted_ops(b)
        d = GradedMap(self.space, self.space, 1)
        op1 = ops.get(1)
        if op1 is not None:
            for (win, o), c in op1.entries.items():
                d.set_entry(o, win[0], c)
        return d

    def tangent_complex(self, mu):
        tw = self.twist(mu)
        if not tw.is_flat:
            raise ValueError("twist is curved: element is not Maurer-Cartan")
        return ChainComplex(self.space, self.twisted_differential(mu), check=False)

    def anchor(self, mu):
        """Infinitesimal gauge action at mu: the degree-0 block of the
        twisted differential, as {column index: sparse vector}."""
        d = self.twisted_differential(mu)
        out = {}
        for idx in self.space.indices_of_degree(0):
            out[idx] = d.apply({idx: self.field.one})
        return out

    def is_quasi_smooth(self, window=(1, 2)):
        """True when the tangent complex at the origin has cohomology only
        in the degrees of the window."""
        cc = self.tangent_complex({})
        ranks = cc.cohomology_ranks()
        lo, hi = window
        return all(r == 0 for d, r in ranks.items() if d < lo or d > hi)

    def analytic_bound(self):
        """(C, r): max-norm growth constant with ||l_k|| <= k! C^k and a
        radius r with C*r < 1.  Returns (0.0, inf) for abelian towers."""
        field = self.field
        C = 0.0
        for k, op in self.sops.items():
            nk = field.mag(field.zero) if op.is_zero() else op.norm()
            nk = float(nk) if not isinstance(nk, complex) else abs(nk)
            if field.name == "rational-complex":
                nk = nk ** 0.5  # mag is |.|^2 in that mode
            val = (nk / factorial(k)) ** (1.0 / k)
            C = max(C, val)
        if C == 0.0:
            return 0.0, float("inf")
        return C, 1.0 / (2.0 * C)

    def conjugate(self, g):
        """Transport the structure along an invertible degree-0 map g of
        the underlying space: l_k^g = g^{-1} l_k (g, ..., g)."""
        from . import linalg

        field = self.field
        sp = self.shifted_space
        ginv_blocks = {}
        for d in self.space.degrees():
            ginv_blocks[d] = linalg.inverse(field, g.block(d))
        ginv = GradedMap(self.space, self.space, 0, ginv_blocks)
        gs = g.shifted(1, sp, sp)
        ginvs = ginv.shifted(1, sp, sp)
        out = {}
        for k, op in self.sops.items():
            new = MultiLinearOp(sp, sp, k, 1, "sym")
            # l^g(e_i1..e_ik) = g^{-1} l(g e_i1, ..., g e_ik)
            ws = W.enumerate_words(sp, k, k)
            for w in ws:
                vecs = [gs.apply({i: field.one}) for i in w]
                val = op.evaluate(vecs)
                val = ginvs.apply(val)
                for o, c in val.items():
                    new.add_entry(w, o, c)
            if not new.is_zero():
                out[k] = new
        return LInftyAlgebra(self.space, out)


def _evals(ops):
    """{k: value of op_k on a canonical word} for a family of operations,
    each indexed once by input word."""
    return {k: op.by_word().get for k, op in ops.items()}


def _integer_constants(field, family):
    """(D, {k: {word: {output: D * c}}}) for a family of sparse maps
    {k: {word: {output: c}}}: over QQ, D is the lcm of the denominators
    of all constants, so every scaled constant is an int; over any other
    field D = 1 and the constants are kept as they are."""
    if field is not QQ:
        return 1, family
    D = lcm(*(c.denominator for cols in family.values() for col in cols.values() for c in col.values()))
    return D, {
        k: {w: {o: c.numerator * (D // c.denominator) for o, c in col.items()} for w, col in cols.items()}
        for k, cols in family.items()
    }


def _first_defect(words, defect):
    """(w, (o,), c) for the first word w of `words` with a nonzero
    length-1 defect, o its smallest output letter and c = defect(w)[o];
    None if there is none."""
    for w in words:
        val = defect(w)
        if val:
            o = min(val)
            return (w, (o,), val[o])
    return None


def taylor_sum(field, ops, x, head=()):
    """sum_k 1/(k - |head|)! op_k(head..., x, ..., x) over a family
    {k: op_k} of symmetric operations."""
    out = {}
    for k, op in ops.items():
        j = k - len(head)
        c = field.coerce(Fraction(1, factorial(j)))
        for o, v in op.evaluate(list(head) + [x] * j).items():
            out[o] = out.get(o, field.zero) + c * v
    return vec_clean(field, out)


def twist_family(ops, b, source, target, degree):
    """The family twisted by b, of shifted degree 0:
    {k: sum_j 1/j! op_{k+j}(b, ..., b, -)}, k >= 1, zero ones dropped.
    Every term with j >= 1 vanishes when b = 0."""
    out = {}
    for k in range(1, max(ops, default=0) + 1):
        acc = MultiLinearOp(source, target, k, degree, "sym")
        for m, op in ops.items():
            j = m - k
            if j < 0 or (j and not b):
                continue
            c = source.field.coerce(Fraction(1, factorial(j)))
            # b sits in shifted degree 0, so insertion needs no signs
            acc = acc + _partial_insert(op, b, j).scale(c)
        if not acc.is_zero():
            out[k] = acc
    return out


def _partial_insert(op, b, j):
    """New op of arity op.arity - j: first j slots filled with b (shifted
    degree 0, no signs)."""
    sp = op.source
    field = op.field
    k = op.arity - j
    out = MultiLinearOp(sp, op.target, k, op.degree, "sym")
    if j == 0:
        out.entries = dict(op.entries)
        return out
    ws = W.enumerate_words(sp, k, k)
    for w in ws:
        vecs = [b] * j + [{i: field.one} for i in w]
        val = op.evaluate(vecs)
        for o, c in val.items():
            out.add_entry(w, o, c)
    return out


class Twist:
    """Result of twisting by a degree-1 element.  Curved when the
    Maurer-Cartan value of the element is nonzero."""

    def __init__(self, base, element, curvature, ops):
        self.base = base
        self.element = element
        self.curvature = curvature
        self.ops = ops

    @property
    def is_flat(self):
        return all(self.base.field.is_zero(c) for c in self.curvature.values())

    def algebra(self):
        """The twisted operations as an algebra.  The curvature is not
        checked here: `is_flat` reports it, and `tangent_complex` refuses
        a curved twist."""
        return LInftyAlgebra(self.base.space, self.ops)


class LInftyMorphism:
    """Morphism given by symmetric degree-0 components f_k: S^k(L[1]) -> M[1]."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.field = source.field
        self.components = {k: f for k, f in components.items() if not f.is_zero()}
        for k, f in self.components.items():
            assert f.arity == k and f.degree == 0 and f.symmetry == "sym"

    @property
    def max_arity(self):
        return max(self.components) if self.components else 0

    def apply_point(self, mu):
        """Push a degree-1 element through: sum_k 1/k! f_k(mu,...,mu)."""
        return taylor_sum(self.field, self.components, mu)

    def tangent_at(self, mu):
        """Linearization at mu: x -> sum_j 1/j! f_{1+j}(x, mu, ..., mu)."""
        return lambda x: taylor_sum(self.field, self.components, mu, head=(x,))

    def corestricted_defect(self):
        """The function w -> pi_1 (Q_T F - F Q_S)(w) on words over the
        source's L[1]: the length-1 part of the morphism equation at w, a
        sparse vector."""
        field = self.field
        deg_s = self.source.shifted_space.degree_of
        deg_t = self.target.shifted_space.degree_of
        comps = _evals(self.components)
        q_s, q_t = _evals(self.source.sops), _evals(self.target.sops)

        def at(w):
            out = W.composite_column(field, q_t, comps, w, deg_s, deg_t)
            coder = W.coderivation_column(field, q_s, w, deg_s)
            for o, c in W.corestriction(field, comps, coder).items():
                out[o] = out.get(o, field.zero) - c
            return vec_clean(field, out)

        return at

    def defect(self, n_check=3):
        """First failure of Q_T F = F Q_S on the words of length
        <= n_check, as (w, (o,), c), or None.  The defect is a coderivation
        along F: on a word w it sums pi_1 of the defect on one block of a
        set partition of w times the components on the other blocks.  So,
        as in `LInftyAlgebra.validate`, on the first w (in length, then
        lexicographic order) where the corestricted defect is nonzero the
        whole defect is that length-1 vector, and the witness is its
        smallest output."""
        words = W.enumerate_words(self.source.shifted_space, n_check)
        return _first_defect(words, self.corestricted_defect())

    def is_valid(self, n_check=3):
        return self.defect(n_check) is None

    def compose(self, other, max_arity=None):
        """self after other.  Its arity-k component at a word w of length
        k is pi_1 G F(w), one `words.composite_column`: the sum over set
        partitions of w of +- g_|P|(f(B_1), ..., f(B_|P|))."""
        assert other.target is self.source or other.target.space.dims == self.source.space.dims
        if max_arity is None:
            max_arity = max(self.max_arity, other.max_arity, 1)
        field = self.field
        ssp = other.source.shifted_space
        tsp = self.target.shifted_space
        outer = _evals(self.components)
        inner = _evals(other.components)
        deg_mid = other.target.shifted_space.degree_of
        comps = {}
        for k in range(1, max_arity + 1):
            comp = MultiLinearOp(ssp, tsp, k, 0, "sym")
            for w in W.enumerate_words(ssp, k, k):
                for o, v in W.composite_column(field, outer, inner, w, ssp.degree_of, deg_mid).items():
                    comp.add_entry(w, o, v)
            if not comp.is_zero():
                comps[k] = comp
        return LInftyMorphism(other.source, self.target, comps)

    def is_identity(self):
        if set(self.components) - {1} and any(
            not f.is_zero() for k, f in self.components.items() if k != 1
        ):
            return False
        f1 = self.components.get(1)
        if f1 is None:
            return self.source.space.total_dim == 0
        sp = self.source.shifted_space
        for i in range(sp.total_dim):
            val = f1.eval_basis((i,))
            if not (len(val) == 1 and i in val and self.field.eq(val[i], self.field.one)):
                return False
        return True
