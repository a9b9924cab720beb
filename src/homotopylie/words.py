"""Graded symmetric word spaces over a (shifted) graded space.

A word is a sorted tuple of basis indices; words containing a repeated
generator of odd degree are zero and never appear as keys.  Linear maps
between word spaces are column-sparse dicts.

The structure checks read one column at a time: `coderivation_column`
gives the image of a single word, and `corestriction` keeps the
length-1 part of an operation family applied to such a column.  A
coderivation of the cofree conilpotent cocommutative coalgebra (or a
coderivation along a morphism) is fixed by its corestriction, so that
length-1 part is all the identities Q^2 = 0 and Q_T F = F Q_S need.
For Q^2 the two steps are one sum, `square_column`, which builds no
column.

A coalgebra map is fixed the same way, and the length-1 part of an
operation family after S(inner) is one sum over set partitions,
`composite_column`.  It is the transfer's tree recursion theta, the
first half of a morphism's defect and the composite of two morphisms.
The whole-map builders (`coderivation`, `morphism_lift`, `word_power`,
`symmetrized_homotopy`, `WordMap`) serve only the perturbation-lemma
oracle and the tests.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product
from fractions import Fraction
from math import factorial

from .multilinear import koszul_sort, repeat_kills


def canon_word(idxs, deg_of):
    """Sort a tuple into a canonical word; (word, koszul sign) or (None, 0)."""
    word, sign = koszul_sort(idxs, deg_of)
    if repeat_kills(word, deg_of):
        return None, 0
    return word, sign


def word_degree(word, deg_of):
    return sum(deg_of(i) for i in word)


def enumerate_words(space, max_len, min_len=1):
    """All nonzero words of length min_len..max_len, sorted by (length,
    lexicographic)."""
    deg_of = space.degree_of
    out = []
    idxs = list(range(space.total_dim))
    for n in range(min_len, max_len + 1):
        for w in combinations_with_replacement(idxs, n):
            if not repeat_kills(w, deg_of):
                out.append(w)
    return out


class WordMap:
    """Column-sparse linear map between word bases."""

    def __init__(self, field):
        self.field = field
        self.cols = {}

    def add_to(self, w_in, w_out, c):
        if self.field.is_zero(c):
            return
        col = self.cols.setdefault(w_in, {})
        new = col.get(w_out, self.field.zero) + c
        if self.field.is_zero(new):
            col.pop(w_out, None)
            if not col:
                del self.cols[w_in]
        else:
            col[w_out] = new

    def apply(self, vec):
        field = self.field
        out = {}
        for w, c in vec.items():
            col = self.cols.get(w)
            if col is None:
                continue
            for wo, a in col.items():
                out[wo] = out.get(wo, field.zero) + a * c
        return {k: v for k, v in out.items() if not field.is_zero(v)}

    def column(self, w):
        return dict(self.cols.get(w, {}))

    def compose(self, other):
        """self after other."""
        out = WordMap(self.field)
        for w, col in other.cols.items():
            acc = self.apply(col)
            if acc:
                out.cols[w] = acc
        return out

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        out = WordMap(self.field)
        for w, col in self.cols.items():
            for wo, c in col.items():
                out.add_to(w, wo, c)
        for w, col in other.cols.items():
            for wo, c in col.items():
                out.add_to(w, wo, c)
        return out

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        out = WordMap(self.field)
        for w, col in self.cols.items():
            for wo, x in col.items():
                out.add_to(w, wo, c * x)
        return out

    def is_zero(self):
        z = self.field.is_zero
        return all(z(c) for col in self.cols.values() for c in col.values())


def _select_sign(word, positions, deg_of):
    """Koszul sign of moving the selected positions to the front (order
    preserved within each group)."""
    sel = set(positions)
    sign = 1
    unsel_par = 0  # parity of degree mass of unselected letters seen so far
    for p, idx in enumerate(word):
        if p in sel:
            if (deg_of(idx) % 2) and (unsel_par % 2):
                sign = -sign
        else:
            unsel_par += deg_of(idx) % 2
    return sign


def coderivation(field, ops, words, deg_of):
    """Extend a family {k: symmetric op of degree +1} to a coderivation on
    the span of `words`.  ops[k].eval_basis gives the corolla values."""
    evals = {k: op.eval_basis for k, op in ops.items()}
    Q = WordMap(field)
    for w in words:
        col = coderivation_column(field, evals, w, deg_of)
        if col:
            Q.cols[w] = col
    return Q


def coderivation_column(field, evals, w, deg_of):
    """The coderivation's column at the word w: evals[k](sel) is the
    corolla value of the arity-k operation on a sorted tuple of letters
    (a sparse vector, or empty/None)."""
    out = {}
    n = len(w)
    for k in sorted(evals):
        if k > n:
            continue
        ev = evals[k]
        for positions in combinations(range(n), k):
            val = ev(tuple(w[p] for p in positions))
            if not val:
                continue
            rest = tuple(w[p] for p in range(n) if p not in positions)
            sgn = _select_sign(w, positions, deg_of)
            for o, c in val.items():
                wo, s2 = canon_word((o,) + rest, deg_of)
                if wo is None:
                    continue
                c = c if sgn * s2 == 1 else -c
                out[wo] = out.get(wo, field.zero) + c
    return {wo: c for wo, c in out.items() if not field.is_zero(c)}


def square_column(field, evals, w, deg_of, canon):
    """pi_1 Q^2 at the word w, Q the coderivation of the family evals (as
    in `coderivation_column`): `corestriction` of the coderivation's
    column, summed in one pass without building the column.  Each
    selection S of w with rest R and each output letter o of evals[|S|](S)
    adds +- c_o evals[|R| + 1](canon((o,) + R)); a selection whose
    |R| + 1 is no arity adds nothing and is skipped.  canon is the
    caller's memo of `canon_word` by (o,) + R."""
    out = {}
    n = len(w)
    for k, ev in evals.items():
        outer = evals.get(n - k + 1)  # None for k > n too
        if outer is None:
            continue
        for positions in combinations(range(n), k):
            val = ev(tuple(w[p] for p in positions))
            if not val:
                continue
            rest = tuple(w[p] for p in range(n) if p not in positions)
            sgn = _select_sign(w, positions, deg_of)
            for o, c in val.items():
                key = (o,) + rest
                hit = canon.get(key)
                if hit is None:
                    hit = canon[key] = canon_word(key, deg_of)
                wo, s2 = hit
                val2 = outer(wo) if wo is not None else None
                if not val2:
                    continue
                c = c if sgn * s2 == 1 else -c
                for o2, x in val2.items():
                    out[o2] = out.get(o2, field.zero) + c * x
    return {o: c for o, c in out.items() if not field.is_zero(c)}


def corestriction(field, evals, column):
    """The length-1 part of an operation family applied to a word vector:
    sum over the words u of `column` of column[u] * evals[len(u)](u), as a
    sparse vector over letters.  evals[k] maps a word to a sparse vector,
    or empty/None; words of a length without an operation contribute
    nothing."""
    out = {}
    for u, c in column.items():
        ev = evals.get(len(u))
        val = ev(u) if ev is not None else None
        for o, v in (val or {}).items():
            out[o] = out.get(o, field.zero) + c * v
    return {o: v for o, v in out.items() if not field.is_zero(v)}


def coderivation_preimages(inputs, u, deg_of):
    """The words whose `coderivation_column` can reach the word u, with
    repeats, ignoring cancellation: inputs[o] lists the sorted tuples of
    letters on which some operation has the output letter o."""
    for o in set(u):
        rest = list(u)
        rest.remove(o)
        for sel in inputs.get(o, ()):
            w = tuple(sorted(rest + list(sel)))
            if not repeat_kills(w, deg_of):
                yield w


def _perm_sign(word, perm, deg_of):
    """Koszul sign of rearranging word into (word[perm[0]], word[perm[1]], ...)."""
    sign = 1
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                if (deg_of(word[perm[a]]) % 2) and (deg_of(word[perm[b]]) % 2):
                    sign = -sign
    return sign


def _expand_product(field, vectors, deg_of):
    """Symmetric product of sparse vectors -> sparse word vector."""
    terms = [((), field.one)]
    for v in vectors:
        terms = [(idxs + (idx,), c * x) for idxs, c in terms for idx, x in v.items()]
    out = {}
    for idxs, c in terms:
        w, s = canon_word(idxs, deg_of)
        if w is not None:
            out[w] = out.get(w, field.zero) + (c if s == 1 else -c)
    return {k: v for k, v in out.items() if not field.is_zero(v)}


def word_power(field, apply_one, words, deg_of, deg_out=None):
    """S(f): apply a degree-0 linear map to every letter of every word.
    apply_one: basis index -> sparse vector (target indices, graded by
    deg_out when the map changes spaces)."""
    if deg_out is None:
        deg_out = deg_of
    out = WordMap(field)
    cache = {}
    for w in words:
        vecs = []
        for idx in w:
            if idx not in cache:
                cache[idx] = apply_one(idx)
            vecs.append(cache[idx])
        col = _expand_product(field, vecs, deg_out)
        if col:
            out.cols[w] = col
    return out


def symmetrized_homotopy(field, apply_h, apply_ip, words, deg_of):
    """The standard side-condition homotopy on word spaces:
    S(h) = sym of sum_k (ip)^{k-1} (x) h (x) id^{n-k}, normalized by 1/n!."""
    out = WordMap(field)
    hc, ipc = {}, {}

    def H(idx):
        if idx not in hc:
            hc[idx] = apply_h(idx)
        return hc[idx]

    def IP(idx):
        if idx not in ipc:
            ipc[idx] = apply_ip(idx)
        return ipc[idx]

    for w in words:
        n = len(w)
        inv_fact = field.coerce(Fraction(1, factorial(n)))
        acc = {}
        for perm in permutations(range(n)):
            ps = _perm_sign(w, perm, deg_of)
            arranged = [w[p] for p in perm]
            for k in range(1, n + 1):
                vecs = []
                ok = True
                sgn = ps
                # h has degree -1: moving it past the first k-1 (ip x) slots
                # contributes no sign because ip preserves each letter's
                # degree and h acts in place, applied slotwise left to right
                for j, idx in enumerate(arranged):
                    if j < k - 1:
                        v = IP(idx)
                    elif j == k - 1:
                        v = H(idx)
                        # Koszul: h (odd) passes the letters before it
                        par = sum(deg_of(arranged[t]) for t in range(j)) % 2
                        if par:
                            sgn = -sgn
                    else:
                        v = {idx: field.one}
                    if not v:
                        ok = False
                        break
                    vecs.append(v)
                if not ok:
                    continue
                col = _expand_product(field, vecs, deg_of)
                for wo, c in col.items():
                    acc[wo] = acc.get(wo, field.zero) + (c if sgn == 1 else -c)
        col = {wo: c * inv_fact for wo, c in acc.items() if not field.is_zero(c)}
        if col:
            out.cols[w] = col
    return out


def symmetrized_homotopy_column(field, H, IP, w, deg_of):
    """Column of S(h) at the word w, summed over subsets instead of
    permutations: every permutation that puts the set A of letters in
    front of the h-letter j gives the same term, so the n!*n terms of
    `symmetrized_homotopy` collapse to n*2^(n-1) terms (A, j), weighted
    by |A|!(n-1-|A|)!/n!.  H and IP map a letter to a sparse vector."""
    n = len(w)
    out = {}
    ip_ok = [p for p in range(n) if IP(w[p])]
    h_ok = [(j, H(w[j])) for j in range(n) if H(w[j])]
    for r in range(n):
        acc = {}  # the terms with |A| = r share their weight
        for j, hj in h_ok:
            for A in combinations([p for p in ip_ok if p != j], r):
                rest = [p for p in range(n) if p != j and p not in A]
                sgn = _perm_sign(w, A + (j,) + tuple(rest), deg_of)
                if sum(deg_of(w[a]) for a in A) % 2:
                    sgn = -sgn
                # the rest letters pass unchanged: expand the other factors
                # only, then sort once more (Koszul signs multiply)
                tail = tuple(w[p] for p in rest)
                head = _expand_product(field, [IP(w[a]) for a in A] + [hj], deg_of)
                for u, c in head.items():
                    wo, s2 = canon_word(u + tail, deg_of)
                    if wo is not None:
                        acc[wo] = acc.get(wo, field.zero) + (c if sgn * s2 == 1 else -c)
        weight = field.coerce(Fraction(factorial(r) * factorial(n - 1 - r), factorial(n)))
        for wo, c in acc.items():
            out[wo] = out.get(wo, field.zero) + c * weight
    return {wo: c for wo, c in out.items() if not field.is_zero(c)}


def symmetrized_homotopy_preimages(H, IP, u, deg_of):
    """The words whose `symmetrized_homotopy_column` can reach the word u,
    with repeats, ignoring cancellation: H and IP map a letter y to the
    letters whose image under h and ip has a y-component.  One letter of u
    is the image of the h-letter, a subset of the others are images of
    ip-letters, and the rest pass unchanged."""
    n = len(u)
    for j in range(n):
        if not H.get(u[j]) or (j and u[j] == u[j - 1]):
            continue
        others = u[:j] + u[j + 1 :]
        for r in range(n):
            for A in combinations(range(n - 1), r):
                tail = [others[p] for p in range(n - 1) if p not in A]
                for head in product(H[u[j]], *(IP.get(others[a], ()) for a in A)):
                    w = tuple(sorted(tail + list(head)))
                    if not repeat_kills(w, deg_of):
                        yield w


def _set_partitions(n, value, max_blocks):
    """The set partitions of range(n) into at most max_blocks blocks on
    each of which value(block) is nonzero, as pairs (blocks, values): each
    block ascending, the blocks ordered by their smallest element.  The
    partitions are built block by block, the next block always taking the
    first position left, so a block with a zero value prunes at once every
    partition that contains it."""

    def rec(rest, blocks, values):
        if not rest:
            yield blocks, values
            return
        if len(blocks) == max_blocks:
            return
        first, others = rest[0], rest[1:]
        # the last block allowed takes every position left
        sizes = [len(others)] if len(blocks) + 1 == max_blocks else range(len(others) + 1)
        for r in sizes:
            for sel in combinations(others, r):
                v = value((first,) + sel)
                if v:
                    left = tuple(p for p in others if p not in sel)
                    yield from rec(left, blocks + [(first,) + sel], values + [v])

    return rec(tuple(range(n)), [], [])


def composite_column(field, outer, inner, w, deg_of, deg_mid):
    """pi_1 of (outer after S(inner)) at the word w, for two families
    {k: canonical word of k letters -> sparse vector, or empty/None}: the
    sum over set partitions P of w, with |P| an arity of outer, of
    +- outer[|P|](inner[|B_1|](B_1), ..., inner[|B_k|](B_k)), with the
    Koszul sign of sorting w into its blocks.  Only partitions whose every
    block has a nonzero inner value are visited (`_set_partitions`).
    deg_mid grades the letters of the inner values.  This is the
    transfer's theta, the first half of a morphism's defect and the
    composite of two morphisms."""

    def value(block):
        f = inner.get(len(block))
        return f(tuple(w[p] for p in block)) if f is not None else None

    acc = {}
    for part, vecs in _set_partitions(len(w), value, max(outer, default=0)):
        ev = outer.get(len(part))
        if ev is None:
            continue
        sgn = _perm_sign(w, tuple(p for b in part for p in b), deg_of)
        for u, c in _expand_product(field, vecs, deg_mid).items():
            val = ev(u)
            if val:
                c = c if sgn == 1 else -c
                for o, x in val.items():
                    acc[o] = acc.get(o, field.zero) + c * x
    return {o: c for o, c in acc.items() if not field.is_zero(c)}


def morphism_lift(field, components, words, deg_of, deg_out):
    """Lift morphism components {k: symmetric degree-0 op} to the induced
    map of word spaces: `composite_column` with outer[k](u) = u."""
    inner = {k: f.eval_basis for k, f in components.items()}
    outer = {k: lambda u: {u: field.one} for k in range(1, max(map(len, words), default=0) + 1)}
    F = WordMap(field)
    for w in words:
        col = composite_column(field, outer, inner, w, deg_of, deg_out)
        if col:
            F.cols[w] = col
    return F
