"""Seeded random corpora: chain complexes, retract contexts with
nilpotent perturbations, rigid nilpotent dglas, unconstrained two-degree
dglas, and adaptable polynomial sections.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .scalars import QQ
from .graded import GradedSpace, GradedMap, ChainComplex
from .multilinear import MultiLinearOp
from .linfty import LInftyAlgebra
from .polynomial import MultiPoly, constant_matrix, linear_forms, poly_matvec, poly_matmul
from .transfer import Splitting, standard_splitting, splitting_to_retract
from .qs import QsSpace, taylor_ops


def random_complex(rng, degs=(0, 1, 2), dmax=3):
    """Random finite complex with exact d^2 = 0."""
    dims = {d: rng.randint(1, dmax) for d in degs}
    V = GradedSpace(dims)
    d = GradedMap(V, V, 1)
    for deg in degs[:-1]:
        m, n = dims[deg + 1], dims[deg]
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.4:
                    d.set_entry(V.index(deg + 1, i), V.index(deg, j), Fraction(rng.randint(-2, 2)))
    if not (d @ d).is_zero():
        for deg in degs[:-2]:
            B = d.block(deg)
            ker = linalg.kernel_basis(QQ, linalg.transpose(B), dims[deg + 1])
            rows = []
            for _ in range(dims[deg + 2]):
                r = [QQ.zero] * dims[deg + 1]
                for kv in ker:
                    if rng.random() < 0.5:
                        c = Fraction(rng.randint(-2, 2))
                        r = [x + c * y for x, y in zip(r, kv)]
                rows.append(r)
            d.blocks[deg + 1] = rows
    assert (d @ d).is_zero()
    return ChainComplex(V, d)


def rand_invertible(rng, field, n):
    while True:
        A = [[field.coerce(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if not field.is_zero(linalg.det(field, A)):
            return A


def block_perturbed_context(rng, depth=3, max_dim=12):
    """A retract context on a direct sum of blocks, with a nilpotent
    perturbation raising the block index, corrected exactly so that
    (d + mu)^2 = 0."""
    while True:
        ccs = [random_complex(rng, degs=(0, 1, 2), dmax=2)]
        for _ in range(depth - 1):
            n = rng.randint(1, 2)
            lo = rng.choice([0, 1])
            sp = GradedSpace({lo: n, lo + 1: n})
            dd = GradedMap(sp, sp, 1)
            for t in range(n):
                dd.set_entry(sp.index(lo + 1, t), sp.index(lo, t), Fraction(1))
            ccs.append(ChainComplex(sp, dd))
        if sum(cc.space.total_dim for cc in ccs) <= max_dim:
            break

    dims = {}
    for cc in ccs:
        for deg, n in cc.space.dims.items():
            dims[deg] = dims.get(deg, 0) + n
    V = GradedSpace(dims)
    offs = []
    used = {deg: 0 for deg in dims}
    for cc in ccs:
        off = {}
        for deg, n in cc.space.dims.items():
            off[deg] = used[deg]
            used[deg] += n
        offs.append(off)
    embs, rests = [], []
    for b, cc in enumerate(ccs):
        E = GradedMap(cc.space, V, 0)
        R = GradedMap(V, cc.space, 0)
        for idx in range(cc.space.total_dim):
            deg = cc.space.degree_of(idx)
            big = V.index(deg, offs[b][deg] + cc.space.position_of(idx))
            E.set_entry(big, idx, Fraction(1))
            R.set_entry(idx, big, Fraction(1))
        embs.append(E)
        rests.append(R)

    d = GradedMap(V, V, 1)
    h = GradedMap(V, V, -1)
    for b, cc in enumerate(ccs):
        split = standard_splitting(cc)
        d = d + embs[b] @ cc.d @ rests[b]
        h = h + embs[b] @ split.h @ rests[b]
    ctx = splitting_to_retract(Splitting(V, d, h))

    mu = GradedMap(V, V, 1)
    for b in range(len(ccs) - 1):
        src, tgt = ccs[b], ccs[b + 1]
        s = GradedMap(src.space, tgt.space, 0)
        for deg in src.space.degrees():
            for i_t in range(tgt.space.dim(deg)):
                for j_s in range(src.space.dim(deg)):
                    if rng.random() < 0.6:
                        s.set_entry(
                            tgt.space.index(deg, i_t),
                            src.space.index(deg, j_s),
                            Fraction(rng.randint(-2, 2)),
                        )
        mu1 = tgt.d @ s - s @ src.d
        mu = mu + embs[b + 1] @ mu1 @ rests[b]

    # higher corrections: the square defect targets contractible blocks,
    # where X = h R solves dX + Xd = R
    dd = (d + mu) @ (d + mu)
    guard = 0
    while not dd.is_zero():
        guard += 1
        assert guard < 10
        mu = mu - (h @ dd)
        dd = (d + mu) @ (d + mu)
    return ctx, mu


def two_degree_dgla(rng, n1=4, n2=3):
    """Random dgla concentrated in degrees 1, 2: any differential and any
    bracket work (everything above lands in degree 3 = 0)."""
    V = GradedSpace({1: n1, 2: n2})
    d = GradedMap(V, V, 1)
    for i in range(n2):
        for j in range(n1):
            if rng.random() < 0.5:
                d.set_entry(V.index(2, i), V.index(1, j), Fraction(rng.randint(-2, 2)))
    l2 = MultiLinearOp(V, V, 2, 0, "antisym")
    for a in range(n1):
        for b in range(a, n1):
            for o in range(n2):
                if rng.random() < 0.4:
                    l2.add_entry((V.index(1, a), V.index(1, b)), V.index(2, o), Fraction(rng.randint(-2, 2)))
    ops = {}
    dop = MultiLinearOp(V, V, 1, 1, "none")
    for idx in range(V.total_dim):
        for o, c in d.apply({idx: QQ.one}).items():
            dop.add_entry((idx,), o, c)
    if not dop.is_zero():
        ops[1] = dop
    if not l2.is_zero():
        ops[2] = l2
    return LInftyAlgebra.from_unshifted_ops(V, ops)


def weighted_nilpotent_dgla(rng, m=None):
    """Strictly upper triangular m x m matrices graded by a nondecreasing
    weight vector; bracket = graded commutator, differential = bracket
    with a square-zero degree-1 element.  Rigid: perturbing a single
    structure constant breaks the Jacobi or Leibniz identities."""
    if m is None:
        m = 4
    while True:
        w = sorted(rng.choice([0, 1, 2]) for _ in range(m))
        degs = {w[j] - w[i] for i in range(m) for j in range(i + 1, m)}
        if len(degs) >= 2:
            break
    basis = [(i, j) for i in range(m) for j in range(i + 1, m)]
    deg_of_gen = {g: w[g[1]] - w[g[0]] for g in basis}
    dims = {}
    for g in basis:
        dims[deg_of_gen[g]] = dims.get(deg_of_gen[g], 0) + 1
    V = GradedSpace(dims)
    pos = {}
    used = {d: 0 for d in dims}
    for g in basis:
        d = deg_of_gen[g]
        pos[g] = V.index(d, used[d])
        used[d] += 1

    def comm(ga, gb):
        """Graded commutator of two elementary matrices."""
        out = {}
        (a, b), (c, dd) = ga, gb
        if b == c:
            out[(a, dd)] = out.get((a, dd), 0) + 1
        sgn = (-1) ** (deg_of_gen[ga] * deg_of_gen[gb])
        if dd == a:
            out[(c, b)] = out.get((c, b), 0) - sgn
        return {g: v for g, v in out.items() if v and g in pos}

    l2 = MultiLinearOp(V, V, 2, 0, "antisym")
    for x in range(len(basis)):
        for y in range(x + 1, len(basis)):
            for g, v in comm(basis[x], basis[y]).items():
                l2.add_entry((pos[basis[x]], pos[basis[y]]), pos[g], Fraction(v))

    xi_cands = [g for g in basis if deg_of_gen[g] == 1]
    d = GradedMap(V, V, 1)
    if xi_cands:
        xi = rng.choice(xi_cands)
        c_xi = Fraction(rng.choice([1, -1, 2]))
        for g in basis:
            for g2, v in comm(xi, g).items():
                d.set_entry(pos[g2], pos[g], c_xi * Fraction(v))
    dop = MultiLinearOp(V, V, 1, 1, "none")
    for idx in range(V.total_dim):
        for o, c in d.apply({idx: QQ.one}).items():
            dop.add_entry((idx,), o, c)
    ops = {}
    if not dop.is_zero():
        ops[1] = dop
    if not l2.is_zero():
        ops[2] = l2
    alg = LInftyAlgebra.from_unshifted_ops(V, ops)
    g = GradedMap(V, V, 0)
    for deg in V.degrees():
        A = rand_invertible(rng, QQ, V.dim(deg))
        g.blocks[deg] = A
    return alg.conjugate(g)


def corrupt_one_constant(alg, rng, n_check=3):
    """A copy of the tower with one structure constant changed so that it
    fails validation; returns (copy, (arity, word, out)) or None if no
    single perturbation is detectable."""
    sp = alg.sops[min(alg.sops)].source
    n = sp.total_dim
    candidates = []
    for k in (1, 2):
        words = (
            [(i,) for i in range(n)]
            if k == 1
            else [(i, j) for i in range(n) for j in range(i, n)]
        )
        for word in words:
            wdeg = sum(sp.degree_of(i) for i in word)
            for out in range(n):
                if sp.degree_of(out) == wdeg + 1:
                    candidates.append((k, word, out))
    rng.shuffle(candidates)
    for k, word, out in candidates:
        sops = {}
        for kk, op in alg.sops.items():
            new = MultiLinearOp(op.source, op.target, op.arity, op.degree, "sym")
            new.entries = dict(op.entries)
            sops[kk] = new
        if k not in sops:
            sops[k] = MultiLinearOp(sp, sp, k, 1, "sym")
        sops[k].add_entry(word, out, QQ.one)
        bad = LInftyAlgebra(alg.space, sops)
        if not bad.validate(n_check).ok:
            return bad, (k, word, out)
    return None


def nilpotent_tower_with_corruption(rng, n_check=3):
    """A validating nilpotent tower together with a single-constant
    corruption that fails validation; regenerates until the corruption is
    detectable."""
    while True:
        alg = weighted_nilpotent_dgla(rng)
        found = corrupt_one_constant(alg, rng, n_check=n_check)
        if found is not None:
            bad, loc = found
            return alg, bad, loc


def random_adaptable_section(rng, nvars=None):
    """A polynomial section admitting an exact minimal model
    decomposition: built in adapted coordinates (lam_tilde(z, n), n) and
    scrambled by a linear source change and a polynomial bundle change
    with polynomial inverse."""
    if nvars is None:
        nvars = rng.randint(2, 4)
    # degree and term budget shrink with the variable count to keep the
    # exact linear algebra in the decomposition tractable
    max_deg = {2: 4, 4: 2}.get(nvars, 3)
    n_terms = 4 if nvars == 2 else (3 if nvars == 3 else 2)
    n_con = rng.randint(1, nvars - 1)
    n_min = nvars - n_con
    r_min = 1 if nvars >= 3 else rng.randint(1, 2)
    r = r_min + n_con

    def rand_poly(min_deg, deg_cap=None):
        cap = max_deg if deg_cap is None else deg_cap
        p = MultiPoly.zero(nvars, QQ)
        for _ in range(rng.randint(1, n_terms)):
            deg = rng.randint(min_deg, max(min_deg, cap))
            e = [0] * nvars
            for _ in range(deg):
                e[rng.randrange(nvars)] += 1
            c = rng.randint(-2, 2)
            if c:
                p.terms[tuple(e)] = p.terms.get(tuple(e), QQ.zero) + Fraction(c)
        p.terms = {e: c for e, c in p.terms.items() if c}
        return p

    # adapted shape: the first r_min rows have no linear part (so the
    # minimal factor really is minimal), the last n_con rows are the
    # fiber coordinates themselves
    section = [rand_poly(2) for _ in range(r_min)]
    section += [MultiPoly.variable(nvars, n_min + i, QQ) for i in range(n_con)]

    # source scramble x -> T x
    Tx = linear_forms(rand_invertible(rng, QQ, nvars), QQ)
    lam_T = [p.substitute(Tx) for p in section]

    # bundle scramble G = C (I + N): constant invertible times unipotent
    # polynomial, so G has a polynomial inverse
    C = rand_invertible(rng, QQ, r)
    N = constant_matrix(nvars, linalg.identity(QQ, r), QQ)
    # a single linear off-diagonal entry keeps the inverse bundle change
    # (hence the polynomial linearizer degree) small
    if r >= 2:
        a = rng.randrange(r - 1)
        b = rng.randrange(a + 1, r)
        N[a][b] = rand_poly(1, deg_cap=1)
    G = poly_matmul(constant_matrix(nvars, C, QQ), N, r, nvars, QQ)
    return QsSpace(nvars, r, poly_matvec(G, lam_T, nvars, QQ))

# -------------------------------------------- gl2-coefficient dglas

GL2 = [(0, 0), (0, 1), (1, 0), (1, 1)]  # E_{ab} basis


def _comm(u, v):
    """[E_u, E_v] as {basis position: coeff}."""
    out = {}
    (a, b), (c, d) = GL2[u], GL2[v]
    if b == c:
        k = GL2.index((a, d))
        out[k] = out.get(k, 0) + 1
    if d == a:
        k = GL2.index((c, b))
        out[k] = out.get(k, 0) - 1
    return {k: c2 for k, c2 in out.items() if c2}


def lambda_dgla(coupled=False):
    """gl2 tensored with the exterior algebra on two odd generators;
    with `coupled` an extra acyclic pair (e1 -> e2) of gl2's is glued in
    through the differential and a mixed bracket."""
    # coefficient words with degrees: () : 0, (1,), (2,) : 1, (1,2) : 2
    coefs = [((), 0), ((1,), 1), ((2,), 1), ((1, 2), 2)]
    if coupled:
        coefs += [(("e1",), 1), (("e2",), 2)]
    gens = []  # (coef word, matrix position)
    for w, d in coefs:
        for m in range(4):
            gens.append((w, d, m))
    dims = {}
    for _, d, _ in gens:
        dims[d] = dims.get(d, 0) + 1
    space = GradedSpace(dims, field=QQ)
    # index lookup: enumerate degree by degree in generator order
    by_deg = {}
    idx_of = {}
    for w, d, m in gens:
        by_deg.setdefault(d, []).append((w, m))
    for d, lst in by_deg.items():
        for pos, (w, m) in enumerate(lst):
            idx_of[(w, m)] = space.index(d, pos)

    def wdeg(w):
        return sum(1 for _ in w)

    def wmul(wa, wb):
        if wa == ():
            return wb, 1
        if wb == ():
            return wa, 1
        if any(x in ("e1", "e2") for x in wa) or any(x in ("e1", "e2") for x in wb):
            return None, 0
        merged = list(wa) + list(wb)
        if len(set(merged)) != len(merged):
            return None, 0
        sign = 1
        arr = list(merged)
        for i in range(len(arr)):
            for j in range(len(arr) - 1 - i):
                if arr[j] > arr[j + 1]:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    sign = -sign
        t = tuple(arr)
        if wdeg(t) > 2:
            return None, 0
        return t, sign

    l2 = MultiLinearOp(space, space, 2, 0, "antisym")
    n = space.total_dim

    def gen_of(idx):
        d = space.degree_of(idx)
        return by_deg[d][space.position_of(idx)]

    for i in range(n):
        for j in range(i + 1, n):
            (wa, ma), (wb, mb) = gen_of(i), gen_of(j)
            if coupled and {tuple(wa), tuple(wb)} == {(1,), ("e1",)}:
                # antisymmetry in odd-odd pairs is symmetric after signs,
                # so both orders of (theta1, e1) take sign +1
                tgt_w, sign = ("e2",), 1
            else:
                tgt_w, sign = wmul(wa, wb)
            if sign == 0 or tgt_w is None:
                continue
            for mk, c in _comm(ma, mb).items():
                l2.add_entry((i, j), idx_of[(tgt_w, mk)], QQ.coerce(sign * c))

    ops = {2: l2}
    if coupled:
        d1 = MultiLinearOp(space, space, 1, 1, "sym")
        for m in range(4):
            d1.add_entry((idx_of[((1,), m)],), idx_of[(("e2",), m)], QQ.one)
            d1.add_entry((idx_of[(("e1",), m)],), idx_of[(("e2",), m)], QQ.one)
        ops[1] = d1
    alg = LInftyAlgebra.from_unshifted_ops(space, ops)
    alg._idx_of = idx_of
    return alg


def mat_vec(alg, word, x):
    """Embed a 2x2 matrix at coefficient word `word`."""
    out = {}
    for m, (a, b) in enumerate(GL2):
        c = x[a][b]
        if c:
            out[alg._idx_of[(word, m)]] = QQ.coerce(c)
    return out


def read_mat(alg, word, v):
    import numpy as np

    out = np.zeros((2, 2), dtype=complex)
    for m, (a, b) in enumerate(GL2):
        out[a][b] = complex(v.get(alg._idx_of[(word, m)], 0))
    return out


def expm2(A, t=1.0):
    import numpy as np

    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 30):
        term = term @ (t * A) / k
        out = out + term
    return out


def brst_circle(rho=((0, -1), (1, 0))):
    """One rotation generator acting on the plane, with the rotation
    invariant action ((x1^2+x2^2-1)^2 - 1)/4-style section lam = dS."""
    from .bv import BVData

    x1, x2 = MultiPoly.variable(2, 0, QQ), MultiPoly.variable(2, 1, QQ)
    S = (x1 * x1 + x2 * x2 - MultiPoly.constant(2, QQ.one, QQ)) ** 2
    lam = S.gradient()
    V = GradedSpace({0: 1, 1: 2, 2: 2}, field=QQ)
    sp = V.shifted(1)
    # section part: Taylor coefficients on the degree-1 coordinates
    sops = taylor_ops(lam, V)
    # gauge generator: rotation on the x's, minus transpose on the fibers
    g = V.index(0, 0)
    q2 = sops.setdefault(2, MultiLinearOp(sp, sp, 2, 1, "sym"))
    for i in range(2):
        for j in range(2):
            if rho[i][j]:
                q2.add_entry((g, V.index(1, j)), V.index(1, i), QQ.coerce(rho[i][j]))
                q2.add_entry((g, V.index(2, i)), V.index(2, j), QQ.coerce(-rho[i][j]))
    alg = LInftyAlgebra(V, sops)
    return BVData(alg, S, constant_matrix(2, linalg.identity(QQ, 2), QQ))
