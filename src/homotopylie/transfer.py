"""Homotopy transfer: retracts, perturbation series, word-space transfer,
minimal models and strong decompositions.

`tree_transfer` is the production engine: `minimal_model` and the CLI
`transfer` go through it, and `strong_decomposition` reuses the transfer
and the retract that `minimal_model` returns.  It sums the perturbation
series column by column (tree recursion for the operations and the
inclusion, memoized recursion for the projection) and builds no map of
whole word spaces.  The tree recursion runs only on products of blocks
with a nonzero inclusion, in integers over QQ.  The projection is
computed only on its live words, found by running its recursion
backwards on supports before any exact arithmetic.  `homotopy_transfer`
(the perturbation lemma `hpl_perturb` on word spaces) and
`dgla_tree_transfer` are kept as test oracles; the engine's structure
constants equal `homotopy_transfer`'s exactly.

The perturbation series acts on anything map-like (graded maps or sparse
word maps) over an exact field, where the Neumann series must terminate.
"""

from __future__ import annotations

from . import linalg
from .graded import GradedSpace, GradedMap, ChainComplex, vec_clean
from .multilinear import MultiLinearOp, repeat_kills
from .linfty import LInftyAlgebra, LInftyMorphism, _integer_constants
from . import words as W

MAX_NEUMANN_TERMS = 64


class RetractContext:
    """Strong deformation retract of (V, d_V) onto (W, d_W):
    i includes, p projects, h is the homotopy on V with
    p i = id, 1 - i p = d h + h d, and the side conditions
    h i = 0, p h = 0, h h = 0."""

    def __init__(self, small, big, i, p, h):
        self.small = small
        self.big = big
        self.i = i
        self.p = p
        self.h = h
        self.field = big.field
        errs = self.identity_defects()
        bad = [k for k, v in errs.items() if not v]
        if bad:
            raise ValueError("retract identities fail: %s" % ", ".join(bad))

    def identity_defects(self):
        i, p, h = self.i, self.p, self.h
        dV, dW = self.big.d, self.small.d
        idW = GradedMap.identity(self.small.space)
        idV = GradedMap.identity(self.big.space)
        return {
            "p i = id": (p @ i).eq(idW),
            "chain map i": (dV @ i).eq(i @ dW),
            "chain map p": (p @ dV).eq(dW @ p),
            "homotopy": (idV - i @ p).eq(dV @ h + h @ dV),
            "h i = 0": (h @ i).is_zero(),
            "p h = 0": (p @ h).is_zero(),
            "h h = 0": (h @ h).is_zero(),
        }


class PerturbedRetract:
    def __init__(self, d_small, d_big, i, p, h):
        self.d_small = d_small
        self.d_big = d_big
        self.i = i
        self.p = p
        self.h = h


def _series(first, step):
    """first + step(first) + step(step(first)) + ..., which must reach an
    exact zero term within MAX_NEUMANN_TERMS terms."""
    acc = first
    term = first
    for _ in range(MAX_NEUMANN_TERMS):
        term = step(term)
        if term.is_zero():
            return acc
        acc = acc + term
    raise ValueError("perturbation series did not terminate (perturbation not nilpotent)")


def hpl_perturb(d_small, d_big, i, p, h, mu):
    """Homological perturbation lemma over an exact field.  mu is a degree
    +1 perturbation of d_big with (d_big + mu)^2 = 0, which the caller
    guarantees.  Returns the perturbed retract."""
    hm = h @ mu
    mh = mu @ h
    i_new = _series(i, lambda t: -(hm @ t))
    p_new = _series(p, lambda t: -(t @ mh))
    h_new = _series(h, lambda t: -(hm @ t))
    # d_small' = d_small + p sum_n (-mu h)^n mu i
    d_small_new = d_small + p @ _series(mu @ i, lambda t: -(mh @ t))
    return PerturbedRetract(d_small_new, d_big + mu, i_new, p_new, h_new)


# ------------------------------------------------------------- splittings

class Splitting:
    """h with h^2 = 0, h d h = h, d h d = d on a complex (V, d)."""

    def __init__(self, space, d, h):
        self.space = space
        self.d = d
        self.h = h
        self.field = space.field
        if not (h @ h).is_zero():
            raise ValueError("h^2 != 0")
        if not (h @ d @ h).eq(h):
            raise ValueError("h d h != h")
        if not (d @ h @ d).eq(d):
            raise ValueError("d h d != d")

    def laplacian(self):
        return self.d @ self.h + self.h @ self.d


def standard_splitting(cc):
    """A splitting homotopy for a chain complex from exact elimination:
    transfers onto cohomology (ker of the Laplacian)."""
    field = cc.field
    V = cc.space
    h = GradedMap(V, V, -1)
    for deg in V.degrees():
        tdeg = deg + 1
        B = cc.d.block(deg)  # V^deg -> V^{deg+1}
        if not B or not B[0]:
            continue
        # one elimination of [B | I]: its pivots in B pick a basis of im d
        # and its pivots in I a complement; its right block inverts
        # [image basis | complement], so row a of it is h on the image
        # of the a-th pivot column: h(B e_j) = e_j, h = 0 on the complement
        n_s = len(B[0])
        BI = [row + e for row, e in zip(B, linalg.identity(field, len(B)))]
        R, pivots = linalg.rref(field, BI)
        for a, j in enumerate(p for p in pivots if p < n_s):
            h.blocks[tdeg][j] = R[a][n_s:]
    return Splitting(V, cc.d, h)


def splitting_to_retract(split):
    """Retract of (V, d) onto the harmonic space ker(d h + h d)."""
    field = split.field
    V = split.space
    lap = split.laplacian()
    kernels = {deg: linalg.kernel_basis(field, lap.block(deg), V.dim(deg)) for deg in V.degrees()}
    dims = {deg: len(kernels[deg]) for deg in V.degrees() if kernels[deg]}
    labels = {deg: ["h%d_%d" % (deg, t) for t in range(n)] for deg, n in dims.items()}
    Hsp = GradedSpace(dims, labels, field)
    i = GradedMap(Hsp, V, 0)
    p = GradedMap(V, Hsp, 0)
    for deg in Hsp.degrees():
        K = linalg.transpose(kernels[deg])  # columns = kernel basis
        i.blocks[deg] = K
        n = V.dim(deg)
        ImLap = linalg.mat_sub(linalg.identity(field, n), lap.block(deg))
        X = linalg.solve_matrix(field, K, ImLap)
        if X is None:
            raise ValueError("projection onto harmonics failed")
        p.blocks[deg] = X
    # induced differential on H (zero when ker(Lap) <= ker d, the usual case)
    dH = p @ split.d @ i
    small = ChainComplex(Hsp, dH, check=True)
    big = ChainComplex(V, split.d, check=False)
    return RetractContext(small, big, i, p, h=split.h)


class Gauge:
    """eta with eta^2 = 0 on (V, d); yields a Green operator and a
    splitting homotopy eta G."""

    def __init__(self, space, d, eta):
        self.space = space
        self.d = d
        self.eta = eta
        self.field = space.field
        if not (eta @ eta).is_zero():
            raise ValueError("eta^2 != 0")

    def day_laplacian(self):
        return self.d @ self.eta + self.eta @ self.d

    def green_operator(self):
        """G: inverse of [d, eta] on its image, zero on its kernel.
        Requires V = ker + im (checked)."""
        field = self.field
        A = self.day_laplacian()
        G = GradedMap(self.space, self.space, 0)
        for deg in self.space.degrees():
            M = A.block(deg)
            n = self.space.dim(deg)
            if n == 0:
                continue
            R, piv = linalg.rref(field, M)
            ker = linalg.rref_kernel(field, R, piv, n)
            im_cols = [[M[r][j] for r in range(n)] for j in piv]
            Bmat = linalg.transpose(im_cols + ker)  # columns = (im | ker) basis
            Binv = linalg.solve_matrix(field, Bmat, linalg.identity(field, n))
            if Binv is None:
                raise ValueError("gauge Laplacian kernel meets its image")
            # G on the basis: an image vector M e_j maps to its unique
            # preimage in im A.  e_j is one preimage, and any other differs
            # from it by a kernel vector, whose coordinates are zeroed here
            r_im = len(piv)
            pre = []
            for j in piv:
                coords = [Binv[t][j] if t < r_im else field.zero for t in range(n)]
                pre.append(linalg.mat_vec(field, Bmat, coords))
            Gcols = pre + [[field.zero] * n for _ in ker]
            Gmat = linalg.mat_mul(field, linalg.transpose(Gcols), Binv)
            G.blocks[deg] = Gmat
        return G

    def splitting(self):
        G = self.green_operator()
        h = self.eta @ G
        return Splitting(self.space, self.d, h)


# --------------------------------------------------------- word transfer

class TransferResult:
    def __init__(self, small, inclusion, projection, context):
        self.small = small  # transferred LInftyAlgebra
        self.inclusion = inclusion  # LInftyMorphism small -> big
        self.projection = projection  # LInftyMorphism big -> small
        self.context = context


def homotopy_transfer(alg, ctx, arity_out=3):
    """Transfer the structure of `alg` along a retract of its underlying
    complex (big side must be (alg.space, l_1)) by the perturbation lemma
    on whole word spaces.  Test oracle for `tree_transfer`."""
    field = alg.field
    Vs = alg.shifted_space
    Ws = ctx.small.space.shifted(1)
    dv = W.enumerate_words(Vs, arity_out)
    dw = W.enumerate_words(Ws, arity_out)
    degV = Vs.degree_of
    degW = Ws.degree_of

    q1 = alg.sops.get(1)
    Q1V = (
        W.coderivation(field, {1: q1}, dv, degV) if q1 is not None else W.WordMap(field)
    )
    dW_op = _columns_op(_columns(ctx.small.d), Ws, Ws, 1)
    Q1W = (
        W.coderivation(field, {1: dW_op}, dw, degW)
        if not ctx.small.d.is_zero()
        else W.WordMap(field)
    )
    higher = {k: op for k, op in alg.sops.items() if k >= 2}
    mu = W.coderivation(field, higher, dv, degV)

    i_s = ctx.i.shifted(1, Ws, Vs)
    p_s = ctx.p.shifted(1, Vs, Ws)
    h_s = ctx.h.shifted(1, Vs, Vs)
    ip = i_s @ p_s

    def one(m):
        def f(idx):
            return m.apply({idx: field.one})

        return f

    Si = W.word_power(field, one(i_s), dw, degW, degV)
    Sp = W.word_power(field, one(p_s), dv, degV, degW)
    Sh = W.symmetrized_homotopy(field, one(h_s), one(ip), dv, degV)

    pr = hpl_perturb(Q1W, Q1V, Si, Sp, Sh, mu)

    small = LInftyAlgebra(ctx.small.space, _extract(pr.d_small, Ws, Ws, 1, arity_out))
    inc = LInftyMorphism(small, alg, _extract(pr.i, Ws, Vs, 0, arity_out))
    prj = LInftyMorphism(alg, small, _extract(pr.p, Vs, Ws, 0, arity_out))
    return TransferResult(small, inc, prj, ctx)


def _extract(word_map, src_shifted, tgt_shifted, degree, arity_out):
    """The length-1 outputs of a word map as a family of symmetric
    operations {k: S^k(src) -> tgt} of the given degree."""
    comps = {}
    for w_in, col in word_map.cols.items():
        k = len(w_in)
        if k > arity_out:
            continue
        for w_out, c in col.items():
            if len(w_out) != 1:
                continue
            f = comps.setdefault(
                k, MultiLinearOp(src_shifted, tgt_shifted, k, degree, "sym")
            )
            f.add_entry(w_in, w_out[0], c)
    return {k: f for k, f in comps.items() if not f.is_zero()}


# ------------------------------------------------ tree transfer engine

def tree_transfer(alg, ctx, arity_out=3):
    """Transfer the structure of `alg` along a retract of its underlying
    complex: the production engine.  It sums the HPL series of
    `homotopy_transfer` one column at a time, so its structure constants
    equal the oracle's exactly, without building any word map.

    With mu the coderivation of the q_k, k >= 2, the series satisfy
    I = S(i) - S(h) mu I and P = S(p) - P mu S(h).  On a word w over W[1]
    the first gives the tree recursion (`words.composite_column`)
      theta(w) = sum over set partitions of w into k >= 2 blocks of
                 +- q_k(I(B_1), ..., I(B_k)),
      I(x) = i(x),  I(w) = -h theta(w) for |w| >= 2,
    with transferred operations l_k = p theta and inclusion components I.
    I is known on every shorter word before a length n is reached, so
    theta(w) can be nonzero only when w is the product of m blocks with a
    nonzero I, m an arity of q: theta, l_n and I are computed on those
    words only (`_block_products`), and the partition sum visits only
    partitions into such blocks.  The recursion runs in integers: with
    D_i, D_h, D_p and D_q the lcms of the denominators of i, h, p and all
    q_k over QQ (1 over any other field), the maps i' = D_i i,
    h' = D_h h, p' = D_p p and q'_m = D_q^(m-1) D_h^(m-2) q_m are
    integral.  A tree on n letters has sum (m_j - 1) = n - 1 over its
    nodes, so I'(w) = D_i^n (D_h D_q)^(n-1) I(w) and
    p' theta'(w) = D_p D_i^n D_q^(n-1) D_h^(n-2) l_n(w): one division
    per output entry.
    On a word w over V[1] the second gives the projection components
      f(x) = p(x),  f(w) = -f(mu S(h) w) for |w| >= 2,
    from one column of S(h) and the mu columns of its output words.
    A support pass runs this recursion backwards first: from the letters
    with p(x) != 0 through the preimages of mu, then of S(h), it finds
    the live words, those whose f can be nonzero if nothing cancels.
    Only live words get an S(h) column; every other f is exactly zero."""
    field = alg.field
    Vs = alg.shifted_space
    Ws = ctx.small.space.shifted(1)
    degV, degW = Vs.degree_of, Ws.degree_of
    i_c = _columns(ctx.i.shifted(1, Ws, Vs))
    p_c = _columns(ctx.p.shifted(1, Vs, Ws))
    h_c = _columns(ctx.h.shifted(1, Vs, Vs))
    ip_c = {x: _apply(field, i_c, v) for x, v in p_c.items()}
    q = {k: op.by_word() for k, op in alg.sops.items() if k >= 2}
    q_evals = {k: index.get for k, index in q.items()}

    # the inclusion side in integers: i' = D_i i, h' = D_h h, p' = D_p p
    # and q'_m = D_q^(m-1) D_h^(m-2) q_m have integer entries over QQ
    (D_i, i_z), (D_h, h_z), (D_p, p_z) = (_integer_columns(field, c) for c in (i_c, h_c, p_c))
    D_q, q_z = _integer_constants(field, q)
    q_z = {m: {w: {o: c * (D_q * D_h) ** (m - 2) for o, c in col.items()} for w, col in by_word.items()}
           for m, by_word in q_z.items()}
    q_z_evals = {m: by_word.get for m, by_word in q_z.items()}
    live = {1: {(x,): v for x, v in i_z.items() if v}}  # {n: {w: I'(w) != 0}}
    blocks = {1: live[1].get}

    sops = {}
    if not ctx.small.d.is_zero():
        sops[1] = _columns_op(_columns(ctx.small.d), Ws, Ws, 1)
    inc = {1: _columns_op(i_c, Ws, Vs, 0)}
    for n in range(2, arity_out + 1):
        # I'(w) = D_i^n (D_h D_q)^(n-1) I(w) and p' theta'(w) =
        # D_p D_i^n D_q^(n-1) D_h^(n-2) l_n(w): one division per entry
        den_i = D_i ** n * (D_h * D_q) ** (n - 1)
        den_l = D_p * D_i ** n * D_q ** (n - 1) * D_h ** (n - 2)
        op = MultiLinearOp(Ws, Ws, n, 1, "sym")
        f = MultiLinearOp(Ws, Vs, n, 0, "sym")
        live[n] = {}
        for w in _block_products(live, q_z, n, degW):
            deg = W.word_degree(w, degW)
            # I has degree 0: a word of a degree V[1] lacks maps to zero
            want_l, want_i = deg + 1 in Ws.dims, deg in Vs.dims
            if not (want_l or want_i):
                continue
            theta = W.composite_column(field, q_z_evals, blocks, w, degW, degV)
            if want_l:
                for o, c in _apply(field, p_z, theta).items():
                    op.add_entry(w, o, field.div(c, den_l))
            if want_i:
                v = _neg(_apply(field, h_z, theta))
                if v:
                    live[n][w] = v
                for o, c in v.items():
                    f.add_entry(w, o, field.div(c, den_i))
        blocks[n] = live[n].get
        sops[n], inc[n] = op, f

    f_mus, projs = {}, {}  # memos over words on V[1]

    def f_mu(u):
        """f(mu u), memoized: the S(h) columns of different words share
        output words."""
        if u not in f_mus:
            out = {}
            for u2, c in W.coderivation_column(field, q_evals, u, degV).items():
                _add_into(field, out, projection(u2), c)
            f_mus[u] = vec_clean(field, out)
        return f_mus[u]

    # The support pass: it ignores cancellation, so f = 0 exactly off
    # `live`.  `reach` holds the words u with a live word in the support
    # of mu u, the only words whose f(mu u) can be nonzero.
    h_inv, ip_inv = _inverse(h_c.items()), _inverse(ip_c.items())
    q_inv = _inverse(item for index in q.values() for item in index.items())
    live = {(x,) for x, v in p_c.items() if v}
    reach = set()
    for n in range(1, arity_out):
        for u2 in [w for w in live if len(w) == n]:
            reach.update(
                u for u in W.coderivation_preimages(q_inv, u2, degV) if len(u) <= arity_out
            )
        for u in [u for u in reach if len(u) == n + 1]:
            live.update(W.symmetrized_homotopy_preimages(h_inv, ip_inv, u, degV))

    def projection(w):
        if len(w) == 1:
            return p_c[w[0]]
        if w not in live:
            return {}
        if w not in projs:
            out = {}
            col = W.symmetrized_homotopy_column(field, h_c.__getitem__, ip_c.__getitem__, w, degV)
            for u, c in col.items():
                if u in reach:
                    _add_into(field, out, f_mu(u), -c)
            projs[w] = vec_clean(field, out)
        return projs[w]

    prj = {1: _columns_op(p_c, Vs, Ws, 0)}
    for k in range(2, arity_out + 1):
        f = MultiLinearOp(Vs, Ws, k, 0, "sym")
        for w in sorted(w for w in live if len(w) == k):
            for o, c in projection(w).items():
                f.add_entry(w, o, c)
        prj[k] = f

    small = LInftyAlgebra(ctx.small.space, sops)
    return TransferResult(
        small, LInftyMorphism(small, alg, inc), LInftyMorphism(alg, small, prj), ctx
    )


def _integer_columns(field, cols):
    """(D, D * cols) for a map given by columns: integer entries over QQ
    (`linfty._integer_constants`)."""
    D, scaled = _integer_constants(field, {1: cols})
    return D, scaled[1]


def _block_products(live, arities, n, deg_of):
    """The canonical words of length n that are products of m blocks of
    `live` ({length: {word: ...}}, lengths below n), m an arity of the
    family `arities`: the only words of length n on which the tree
    recursion can be nonzero.  Sorted, as `words.enumerate_words` lists
    them."""
    blocks = sorted((b for k in range(1, n) for b in live[k]), key=lambda b: (len(b), b))
    out = set()

    def rec(start, m, left, letters):
        if m == 0:
            if left == 0:
                w = tuple(sorted(letters))
                if not repeat_kills(w, deg_of):
                    out.add(w)
            return
        for j in range(start, len(blocks)):
            b = blocks[j]
            if len(b) * m > left:  # the blocks from j on are no shorter
                break
            rec(j, m - 1, left - len(b), letters + b)

    for m in arities:
        rec(0, m, n, ())
    return sorted(out)


def _columns(gmap):
    """A graded map as {source index: sparse image vector}."""
    one = gmap.field.one
    return {x: gmap.apply({x: one}) for x in range(gmap.source.total_dim)}


def _columns_op(cols, source, target, degree):
    """Arity-1 symmetric operation from columns {x: image of x}."""
    op = MultiLinearOp(source, target, 1, degree, "sym")
    for x, v in cols.items():
        for o, c in v.items():
            op.add_entry((x,), o, c)
    return op


def _apply(field, cols, v):
    out = {}
    for x, c in v.items():
        _add_into(field, out, cols[x], c)
    return vec_clean(field, out)


def _inverse(images):
    """{y: [x, ...]} from pairs (x, image of x): the x whose image has a
    y-component."""
    out = {}
    for x, v in images:
        for y in v:
            out.setdefault(y, []).append(x)
    return out


def _add_into(field, acc, v, c):
    """acc += c v for sparse vectors."""
    zero = field.zero
    for k, x in v.items():
        acc[k] = acc.get(k, zero) + c * x


def minimal_model(alg, arity_out=3):
    """Transfer onto harmonic representatives of the cohomology of
    (L, l_1) via an elimination splitting."""
    cc = ChainComplex(alg.space, alg.twisted_differential({}), check=False)
    split = standard_splitting(cc)
    ctx = splitting_to_retract(split)
    return tree_transfer(alg, ctx, arity_out=arity_out)


# ------------------------------------------------- dgla tree recursion

def dgla_tree_transfer(alg, ctx, arity_out=3):
    """Independent route for dgla inputs: the binary-tree recursion
    theta_n = sum over splits q2(I_a, I_b), I_n = -h theta_n, with
    transferred operation p theta_n."""
    assert alg.max_arity <= 2, "tree recursion needs a dgla"
    field = alg.field
    Vs = alg.shifted_space
    Ws = ctx.small.space.shifted(1)
    degW = Ws.degree_of
    q2 = alg.sops.get(2)
    i_s = ctx.i.shifted(1, Ws, Vs)
    p_s = ctx.p.shifted(1, Vs, Ws)
    h_s = ctx.h.shifted(1, Vs, Vs)

    Icomp = {}  # word over W -> sparse vector over V[1]

    def I(word):
        if word in Icomp:
            return Icomp[word]
        n = len(word)
        if n == 1:
            v = i_s.apply({word[0]: field.one})
        else:
            v = _neg(h_s.apply(theta(word)))
        Icomp[word] = v
        return v

    def theta(word):
        n = len(word)
        out = {}
        if q2 is None:
            return out
        from itertools import combinations as combs

        for r in range(1, n):
            for positions in combs(range(1, n), r):
                Bpos = positions
                Apos = tuple(p for p in range(n) if p not in Bpos)
                # position 0 always in A: each unordered split counted once
                sgnA = W._select_sign(word, Apos, degW)
                A = tuple(word[p] for p in Apos)
                B = tuple(word[p] for p in Bpos)
                vA = I(A)
                vB = I(B)
                val = q2.evaluate([vA, vB])
                # sign from moving B-letters out is already in sgnA; the
                # q2 evaluation handles internal Koszul ordering
                for o, c in val.items():
                    out[o] = out.get(o, field.zero) + (c if sgnA == 1 else -c)
        return {k: v for k, v in out.items() if not field.is_zero(v)}

    ops = {}
    for k in range(2, arity_out + 1):
        op = MultiLinearOp(Ws, Ws, k, 1, "sym")
        for w in W.enumerate_words(Ws, k, k):
            val = p_s.apply(theta(w))
            for o, c in val.items():
                op.add_entry(w, o, c)
        if not op.is_zero():
            ops[k] = op
    return ops


def _neg(v):
    return {k: -c for k, c in v.items()}


# ------------------------------------------------- strong decomposition

class StrongDecomposition:
    def __init__(self, minimal, contractible_dims, morphism, source):
        self.minimal = minimal  # minimal LInftyAlgebra on H
        self.contractible_dims = contractible_dims
        self.morphism = morphism  # L-infinity iso (H x N) -> L
        self.source = source  # product algebra on H x N


def strong_decomposition(alg):
    """Split L as (minimal model) x (linear contractible) through an
    L-infinity isomorphism, solved order by order up to arity 3.  The
    minimal model and its retract come from `minimal_model`."""
    field = alg.field
    arity_out = 3
    tr = minimal_model(alg, arity_out=arity_out)
    ctx = tr.context
    d, H = ctx.big.d, tr.small.space

    # source space: H x N with N = a complement of H carrying d
    lap = d @ ctx.h + ctx.h @ d
    Ndims = {}
    Ncols = {}
    for deg in alg.space.degrees():
        M = lap.block(deg)
        piv = linalg.column_space_pivots(field, M)
        cols = [[M[r][j] for r in range(alg.space.dim(deg))] for j in piv]
        if cols:
            Ndims[deg] = len(cols)
            Ncols[deg] = cols
    labels = {}
    dims = {}
    for deg in sorted(set(H.degrees()) | set(Ndims)):
        nH = H.dim(deg)
        nN = Ndims.get(deg, 0)
        dims[deg] = nH + nN
        labels[deg] = ["h%d_%d" % (deg, t) for t in range(nH)] + [
            "n%d_%d" % (deg, t) for t in range(nN)
        ]
    S = GradedSpace(dims, labels, field)

    # linear part of the iso: harmonics via i, N part via the image columns
    f1 = MultiLinearOp(S.shifted(1), alg.shifted_space, 1, 0, "sym")
    dS = GradedMap(S, S, 1)
    for deg in S.degrees():
        nH = H.dim(deg)
        for t in range(nH):
            src = S.index(deg, t)
            v = ctx.i.apply({H.index(deg, t): field.one})
            for o, c in v.items():
                f1.add_entry((src,), o, c)
        for t in range(Ndims.get(deg, 0)):
            src = S.index(deg, nH + t)
            col = Ncols[deg][t]
            for r, c in enumerate(col):
                if not field.is_zero(c):
                    f1.add_entry((src,), alg.space.index(deg, r), c)

    # differential on the source: transferred d on H (usually 0) plus the
    # restriction of d to N, expressed back in the N basis
    for deg in S.degrees():
        nH = H.dim(deg)
        # d on N part: d(N_col) lies in V; rewrite in H+N coordinates of S
        vs = [d.apply({alg.space.index(deg, r): c for r, c in enumerate(col)})
              for col in Ncols.get(deg, [])]
        for t, coords in enumerate(_coords_in_f1(field, f1, S, alg.space, vs, deg + 1)):
            src = S.index(deg, nH + t)
            for o, c in coords.items():
                dS.set_entry(o, src, c)
    srcops = {1: _columns_op(_columns(dS), S.shifted(1), S.shifted(1), 1)}
    # higher operations: the minimal ones, living on the H part
    for k, op in tr.small.sops.items():
        new = MultiLinearOp(S.shifted(1), S.shifted(1), k, 1, "sym")
        for (w, o), c in op.entries.items():
            wS = tuple(S.index(H.degree_of(x), H.position_of(x)) for x in w)
            od = H.degree_of(o)
            new.add_entry(wS, S.index(od, H.position_of(o)), c)
        srcops[k] = new
    source = LInftyAlgebra(S, {k: v for k, v in srcops.items() if not v.is_zero()})

    comps = _solve_morphism_components(source, alg, f1, arity_out)
    phi = LInftyMorphism(source, alg, comps)
    return StrongDecomposition(tr.small, Ndims, phi, source)


def _coords_in_f1(field, f1, S, V, vs, deg):
    """Solve f1(x) = v within a single degree for every v of vs, by one
    elimination."""
    idxs = S.indices_of_degree(deg)
    vidx = V.indices_of_degree(deg)
    cols = []
    for s in idxs:
        val = f1.eval_basis((s,))
        cols.append([val.get(t, field.zero) for t in vidx])
    A = linalg.transpose(cols)
    B = [[v.get(t, field.zero) for v in vs] for t in vidx]
    X = linalg.solve_matrix(field, A, B)
    if X is None:
        raise ValueError("vector not in the linear image")
    return [{s: row[j] for s, row in zip(idxs, X) if not field.is_zero(row[j])}
            for j in range(len(vs))]


def _solve_morphism_components(source, target, f1, arity_out):
    """Order-by-order solve of the morphism equation with prescribed
    linear part f1."""
    comps = {1: f1}
    for k in range(2, arity_out + 1):
        comps[k] = _solve_arity(source, target, comps, k)
    return {k: f for k, f in comps.items() if not f.is_zero()}


def _solve_arity(source, target, comps, k):
    """Find f_k so that the morphism defect vanishes on words of length k."""
    field = source.field
    Ss = source.shifted_space
    Ts = target.shifted_space
    degS = Ss.degree_of
    degT = Ts.degree_of

    # the length-1 defect with f_k = 0
    partial = LInftyMorphism(source, target, {a: f for a, f in comps.items() if a < k})
    defect = partial.corestricted_defect()

    # unknown f_k contributes  q1_t f_k(w) - f_k(Q1_s-part of w)  on
    # length-k words; assemble one global linear system
    kwords = W.enumerate_words(Ss, k, k)
    unknown_index = {}
    cells = []  # (word, output index)
    for w in kwords:
        wdeg = W.word_degree(w, degS)
        for o in range(Ts.total_dim):
            if degT(o) == wdeg:
                unknown_index[(w, o)] = len(cells)
                cells.append((w, o))
    nunk = len(cells)
    rows = []
    rhs = []
    q1t = target.sops.get(1)
    q1s = {1: source.sops[1].eval_basis} if 1 in source.sops else {}

    for w in kwords:
        dcol = defect(w)
        q1s_col = W.coderivation_column(field, q1s, w, degS)
        # outputs live in length-1 words of degree wdeg+1
        wdeg = W.word_degree(w, degS)
        for o in range(Ts.total_dim):
            if degT(o) != wdeg + 1:
                continue
            row = [field.zero] * nunk
            # q1_t f_k(w): sum over e with q1(e) having o-component
            if q1t is not None:
                for (win, oo), c in q1t.entries.items():
                    if oo == o:
                        key = (w, win[0])
                        if key in unknown_index:
                            row[unknown_index[key]] = row[unknown_index[key]] + c
            # - f_k(Q1_s w)
            for w2, c in q1s_col.items():
                key = (w2, o)
                if key in unknown_index:
                    row[unknown_index[key]] = row[unknown_index[key]] - c
            rows.append(row)
            rhs.append(-dcol.get(o, field.zero))
    if not cells:
        return MultiLinearOp(Ss, Ts, k, 0, "sym")
    sol = linalg.solve(field, rows, rhs)
    if sol is None:
        raise ValueError("no exact solution at arity %d" % k)
    f = MultiLinearOp(Ss, Ts, k, 0, "sym")
    for (w, o), t in unknown_index.items():
        if not field.is_zero(sol[t]):
            f.add_entry(w, o, sol[t])
    return f
