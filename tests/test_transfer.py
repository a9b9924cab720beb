import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homotopylie import GradedSpace, GradedMap, ChainComplex, LInftyAlgebra, MultiLinearOp
from homotopylie.scalars import QQ, QQi, GaussianRational
from homotopylie import linalg
from homotopylie import words as W
from homotopylie.generators import (
    random_complex,
    block_perturbed_context,
    two_degree_dgla,
    lambda_dgla,
)
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import dcrit
from exactness import assert_exact
from homotopylie.transfer import (
    RetractContext,
    Splitting,
    Gauge,
    standard_splitting,
    splitting_to_retract,
    hpl_perturb,
    homotopy_transfer,
    minimal_model,
    dgla_tree_transfer,
    strong_decomposition,
    tree_transfer,
    _inverse,
)


def F(*a):
    return Fraction(*a)


def _retract(alg):
    cc = ChainComplex(alg.space, alg.twisted_differential({}), check=False)
    return splitting_to_retract(standard_splitting(cc))


def _entries(family):
    return {k: f.entries for k, f in family.items() if not f.is_zero()}


def assert_same_transfer(a, b):
    """Two TransferResults with the same structure constants, exactly."""
    assert a.small.space.dims == b.small.space.dims
    assert _entries(a.small.sops) == _entries(b.small.sops), "operations differ"
    assert _entries(a.inclusion.components) == _entries(b.inclusion.components), "inclusion differs"
    assert _entries(a.projection.components) == _entries(b.projection.components), "projection differs"


def _potential(nvars, terms):
    """sum of c * z^e over {exponent tuple: c}."""
    S = MultiPoly.zero(nvars, QQ)
    for e, c in terms.items():
        m = MultiPoly.constant(nvars, QQ.coerce(c), QQ)
        for i, a in enumerate(e):
            m = m * MultiPoly.variable(nvars, i, QQ) ** a
        S = S + m
    return S



# --------------------------------------------------- splittings / retracts

def test_standard_splitting_and_retract():
    rng = random.Random(7)
    for _ in range(8):
        cc = random_complex(rng)
        split = standard_splitting(cc)  # constructor checks identities
        ctx = splitting_to_retract(split)
        defects = ctx.identity_defects()
        assert all(defects.values()), defects
        # laplacian idempotent
        lap = split.laplacian()
        assert (lap @ lap).eq(lap)
        # harmonic dimensions equal cohomology
        ranks = cc.cohomology_ranks()
        for deg, r in ranks.items():
            assert ctx.small.space.dim(deg) == r


def test_gauge_green_splitting():
    rng = random.Random(3)
    for _ in range(6):
        cc = random_complex(rng)
        # a gauge from any splitting homotopy, rescaled: eta = 2h still has
        # eta^2 = 0 but eta d eta != eta
        h = standard_splitting(cc).h
        eta = h.scale(F(2))
        g = Gauge(cc.space, cc.d, eta)
        split = g.splitting()  # constructor checks the splitting identities
        ctx = splitting_to_retract(split)
        assert all(ctx.identity_defects().values())


# --------------------------------------------------------------- HPL


def test_hpl_five_identities():
    rng = random.Random(11)
    for _ in range(6):
        ctx, mu = block_perturbed_context(rng)
        pr = hpl_perturb(ctx.small.d, ctx.big.d, ctx.i, ctx.p, ctx.h, mu)
        idW = GradedMap.identity(ctx.small.space)
        idV = GradedMap.identity(ctx.big.space)
        assert (pr.d_big @ pr.i).eq(pr.i @ pr.d_small)
        assert (pr.p @ pr.d_big).eq(pr.d_small @ pr.p)
        assert (pr.p @ pr.i).eq(idW)
        assert (idV - pr.i @ pr.p).eq(pr.d_big @ pr.h + pr.h @ pr.d_big)
        assert (pr.d_small @ pr.d_small).is_zero()


# ------------------------------------------------------ dgla fixtures


def _d_as_op(V, d):
    op = MultiLinearOp(V, V, 1, 1, "none")
    for idx in range(V.total_dim):
        for o, c in d.apply({idx: QQ.one}).items():
            op.add_entry((idx,), o, c)
    return op


def test_transfer_validates_and_pi_is_identity():
    rng = random.Random(23)
    found_l3 = False
    for _ in range(6):
        alg = two_degree_dgla(rng)
        tr = minimal_model(alg, arity_out=4)
        assert tr.small.validate(4).ok
        assert tr.inclusion.is_valid(3)
        assert tr.projection.is_valid(3)
        comp = tr.projection.compose(tr.inclusion, max_arity=3)
        assert comp.is_identity()
        if 3 in tr.small.sops:
            found_l3 = True
    assert found_l3, "corpus should contain a fixture with nonzero l3"


def test_tree_recursion_matches_hpl():
    rng = random.Random(5)
    for _ in range(8):
        alg = two_degree_dgla(rng)
        cc = ChainComplex(alg.space, alg.twisted_differential({}), check=False)
        ctx = splitting_to_retract(standard_splitting(cc))
        tr = homotopy_transfer(alg, ctx, arity_out=3)
        tree = dgla_tree_transfer(alg, ctx, arity_out=3)
        for k in (2, 3):
            a = tr.small.sops.get(k)
            b = tree.get(k)
            if a is None:
                assert b is None or b.is_zero()
            else:
                assert b is not None and a.eq(b), "arity %d mismatch" % k


# ---------------------------------------------------- minimal model values

def dcrit_tower(*, quartic=True):
    """Tower of z1^2 + z2^2 + z3^3 (+ z3^4): L^1 = k^3, L^2 = k^3."""
    V = GradedSpace({1: 3, 2: 3})
    sp = V.shifted(1)
    q1 = MultiLinearOp(sp, sp, 1, 1, "sym")
    q1.add_entry((0,), 3, F(2))
    q1.add_entry((1,), 4, F(2))
    q2 = MultiLinearOp(sp, sp, 2, 1, "sym")
    q2.add_entry((2, 2), 5, F(6))
    ops = {1: q1, 2: q2}
    if quartic:
        q3 = MultiLinearOp(sp, sp, 3, 1, "sym")
        q3.add_entry((2, 2, 2), 5, F(24))
        ops[3] = q3
    return LInftyAlgebra(V, ops)


def test_minimal_model_of_dcrit_sum():
    tr = minimal_model(dcrit_tower(), arity_out=4)
    H = tr.small.space
    assert H.dims == {1: 1, 2: 1}
    e = H.index(1, 0)
    f = H.index(2, 0)
    assert 1 not in tr.small.sops
    q2 = tr.small.sops[2]
    assert q2.entries == {((e, e), f): F(6)}
    q3 = tr.small.sops[3]
    assert q3.entries == {((e, e, e), f): F(24)}
    assert set(tr.small.sops) == {2, 3}


# ------------------------------------------------- strong decomposition

def test_strong_decomposition():
    rng = random.Random(41)
    for _ in range(4):
        alg = two_degree_dgla(rng, n1=3, n2=2)
        dec = strong_decomposition(alg)
        phi = dec.morphism
        assert phi.defect(3) is None
        # linear part is an isomorphism degreewise
        for deg in dec.source.space.degrees():
            n = dec.source.space.dim(deg)
            assert alg.space.dim(deg) == n
            cols = []
            for t in range(n):
                val = phi.components[1].eval_basis((dec.source.space.index(deg, t),))
                cols.append([val.get(alg.space.index(deg, r), F(0)) for r in range(n)])
            assert linalg.rank(QQ, linalg.transpose(cols)) == n


# ------------------------------------------- tree engine against HPL

def test_minimal_model_matches_hpl_on_benchmark_shapes():
    """minimal_model against the HPL oracle on the same retract, for each
    input shape of the exact_transfer benchmark workload: dgla towers at
    arity 4 and 5, the coupled lambda dgla, and dCrit towers of native
    arity 3 and 4."""
    reduced = _potential(3, {(2, 0, 0): 3, (0, 2, 0): -2, (0, 0, 3): 2, (0, 0, 4): -1, (0, 0, 5): 3})
    four = _potential(4, {
        (2, 0, 0, 0): 2, (0, 2, 0, 0): -1, (0, 0, 3, 0): 3, (0, 0, 0, 3): -2, (1, 0, 1, 1): 1,
        (0, 1, 2, 0): -3, (0, 0, 2, 2): 2, (0, 0, 0, 4): 1, (2, 0, 2, 0): -1,
    })
    cases = [
        (two_degree_dgla(random.Random(1), n1=6), 4),
        (two_degree_dgla(random.Random(2), n1=4), 5),
        (lambda_dgla(coupled=True), 3),
        (dcrit(reduced).to_linfty(), 5),
        (dcrit(four).to_linfty(), 4),
    ]
    for alg, arity in cases:
        hp = homotopy_transfer(alg, _retract(alg), arity_out=arity)
        assert_same_transfer(minimal_model(alg, arity_out=arity), hp)


def _gauge_retract(alg):
    """A second retract of the same complex: the splitting of the gauge
    eta = 2 h, whose homotopy differs from the elimination one."""
    cc = ChainComplex(alg.space, alg.twisted_differential({}), check=False)
    eta = standard_splitting(cc).h.scale(F(2))
    return splitting_to_retract(Gauge(cc.space, cc.d, eta).splitting())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n1=st.integers(2, 4), n2=st.integers(1, 3),
       gauge=st.booleans())
def test_tree_engine_equals_hpl_on_random_dglas(seed, n1, n2, gauge):
    alg = two_degree_dgla(random.Random(seed), n1=n1, n2=n2)
    ctx = _gauge_retract(alg) if gauge else _retract(alg)
    assert_same_transfer(tree_transfer(alg, ctx, 4), homotopy_transfer(alg, ctx, 4))


# monomials of dCrit potentials in three variables: a quadratic part, and
# cubic to quintic terms, so that the towers have native arity 3 or 4
_MONOMIALS = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 2), (0, 0, 3), (1, 0, 2), (0, 1, 2),
              (1, 1, 1), (0, 0, 4), (2, 0, 2), (0, 1, 3), (0, 0, 5)]


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=len(_MONOMIALS), max_size=len(_MONOMIALS)),
       quartic=st.integers(1, 3), gauge=st.booleans())
def test_tree_engine_equals_hpl_on_dcrit_towers(coeffs, quartic, gauge):
    terms = dict(zip(_MONOMIALS, coeffs))
    terms[(0, 0, 4)] = quartic
    alg = dcrit(_potential(3, terms)).to_linfty()
    assert alg.max_arity >= 3
    ctx = _gauge_retract(alg) if gauge else _retract(alg)
    assert_same_transfer(tree_transfer(alg, ctx, 4), homotopy_transfer(alg, ctx, 4))


def _random_tower(rng, density=0.5):
    """Random symmetric q_2 and q_3 over a random complex whose letters on
    V[1] have both parities.  The operations satisfy no Jacobi identity:
    the perturbation series and the tree recursions are identities of
    formal sums, valid for any family q_k.  In the two-degree dglas and the
    dCrit towers above, every word with a nonzero I is made of even
    letters, so no Koszul sign of the tree recursion is -1 there."""
    cc = random_complex(rng, degs=(-1, 0, 1, 2))
    Vs = cc.space.shifted(1)
    ops = {1: MultiLinearOp(Vs, Vs, 1, 1, "sym")}
    for x in range(Vs.total_dim):
        for o, c in cc.d.apply({x: QQ.one}).items():
            ops[1].add_entry((x,), o, c)
    for k in (2, 3):
        ops[k] = MultiLinearOp(Vs, Vs, k, 1, "sym")
        for w in W.enumerate_words(Vs, k, k):
            for o in Vs.indices_of_degree(W.word_degree(w, Vs.degree_of) + 1):
                if rng.random() < density:
                    ops[k].add_entry(w, o, F(rng.randint(-3, 3)))
    return LInftyAlgebra(cc.space, ops)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), gauge=st.booleans())
def test_tree_engine_equals_hpl_on_towers_with_odd_letters(seed, gauge):
    alg = _random_tower(random.Random(seed))
    ctx = _gauge_retract(alg) if gauge else _retract(alg)
    assert_same_transfer(tree_transfer(alg, ctx, 4), homotopy_transfer(alg, ctx, 4))


def _over_gaussian(alg):
    """The tower over QQi with q_k scaled by (1 + i)^k: scaling q_k by
    s t^(k-1) keeps Q^2 = 0 for any s and t, here s = t = 1 + i."""
    V = GradedSpace(alg.space.dims, field=QQi)
    Vs = V.shifted(1)
    ops = {}
    for k, op in alg.sops.items():
        scale = QQi.one
        for _ in range(k):
            scale = scale * GaussianRational(1, 1)
        ops[k] = MultiLinearOp(Vs, Vs, k, 1, "sym")
        for (w, o), c in op.entries.items():
            ops[k].add_entry(w, o, scale * c)
    return LInftyAlgebra(V, ops)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), dgla=st.booleans(), gauge=st.booleans())
def test_tree_engine_equals_hpl_over_gaussian_rationals(seed, dgla, gauge):
    """Over QQi no constant is scaled to an integer (D = 1): the engine
    still equals HPL, and its result holds only exact scalars."""
    rng = random.Random(seed)
    if dgla:
        base = two_degree_dgla(rng, n1=3, n2=2)
    else:
        # no z3^2 term: z3 spans the cohomology, and l_2 and I_2 are nonzero
        terms = {m: rng.choice((-2, -1, 1, 2)) for m in _MONOMIALS if m != (0, 0, 2)}
        base = dcrit(_potential(3, terms)).to_linfty()
    alg = _over_gaussian(base)
    assert alg.field is QQi and alg.validate(3).ok
    ctx = _gauge_retract(alg) if gauge else _retract(alg)
    tr = tree_transfer(alg, ctx, 4)
    assert dgla or (2 in tr.small.sops and 2 in tr.inclusion.components)
    assert_same_transfer(tr, homotopy_transfer(alg, ctx, 4))
    assert_exact(tr)


def test_projection_takes_s_h_columns_only_for_live_words(monkeypatch):
    """p-infinity builds an S(h) column only for words whose component can
    be nonzero.  On the coupled lambda dgla at arity 3, 38 words have a
    nonzero projection component of arity >= 2; 680 words of V[1] have an
    h-letter and a degree of W[1]."""
    column = W.symmetrized_homotopy_column
    calls = []

    def counted(*args):
        calls.append(args[3])
        return column(*args)

    monkeypatch.setattr(W, "symmetrized_homotopy_column", counted)
    tr = minimal_model(lambda_dgla(coupled=True), 3)
    nonzero = {w for k, f in tr.projection.components.items() if k >= 2 for w, _ in f.entries}
    assert len(nonzero) == 38
    assert len(calls) <= 2 * len(nonzero)


def test_inclusion_takes_theta_only_on_products_of_live_blocks(monkeypatch):
    """theta runs only on the words that are products of blocks with a
    nonzero inclusion component.  On the coupled lambda dgla at arity 5
    those are 122 words of length 2, where a run over every word of W[1]
    up to length 5 makes 11,536 theta calls."""
    column = W.composite_column
    calls = []

    def counted(*args):
        calls.append(args[3])
        return column(*args)

    monkeypatch.setattr(W, "composite_column", counted)
    minimal_model(lambda_dgla(coupled=True), 5)
    assert 0 < len(calls) <= 2 * 122


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_support_preimages_cover_the_columns(seed):
    """Every word in the S(h) column or the coderivation column of a word
    w of length 2 or 3 has w among its support preimages, over letters of
    both parities: the live-word pass of `tree_transfer` rests on this."""
    alg = _random_tower(random.Random(seed))
    ctx = _retract(alg)
    Vs = alg.shifted_space
    deg = Vs.degree_of
    Ws = ctx.small.space.shifted(1)
    h = ctx.h.shifted(1, Vs, Vs)
    ip = ctx.i.shifted(1, Ws, Vs) @ ctx.p.shifted(1, Vs, Ws)
    h_c = {x: h.apply({x: QQ.one}) for x in range(Vs.total_dim)}
    ip_c = {x: ip.apply({x: QQ.one}) for x in range(Vs.total_dim)}
    h_inv, ip_inv = _inverse(h_c.items()), _inverse(ip_c.items())
    higher = {k: op for k, op in alg.sops.items() if k >= 2}
    evals = {k: op.eval_basis for k, op in higher.items()}
    inputs = _inverse((w, [o]) for op in higher.values() for w, o in op.entries)

    for word in W.enumerate_words(Vs, 3, 2):
        for u in W.symmetrized_homotopy_column(QQ, h_c.__getitem__, ip_c.__getitem__, word, deg):
            assert word in set(W.symmetrized_homotopy_preimages(h_inv, ip_inv, u, deg)), (word, u)
        for u in W.coderivation_column(QQ, evals, word, deg):
            assert word in set(W.coderivation_preimages(inputs, u, deg)), (word, u)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), letters=st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
def test_subset_form_of_symmetrized_homotopy(seed, letters):
    """The n*2^(n-1)-term column of S(h) equals the n!*n-term
    permutation form on words of length up to 5, over a complex with
    letters of both parities."""
    cc = random_complex(random.Random(seed), degs=(-1, 0, 1, 2))
    ctx = splitting_to_retract(standard_splitting(cc))
    Vs = cc.space.shifted(1)
    Ws = ctx.small.space.shifted(1)
    h = ctx.h.shifted(1, Vs, Vs)
    ip = ctx.i.shifted(1, Ws, Vs) @ ctx.p.shifted(1, Vs, Ws)

    def H(x):
        return h.apply({x: QQ.one})

    def IP(x):
        return ip.apply({x: QQ.one})

    word, _ = W.canon_word(tuple(x % Vs.total_dim for x in letters), Vs.degree_of)
    if word is None:
        return
    perm = W.symmetrized_homotopy(QQ, H, IP, [word], Vs.degree_of)
    assert W.symmetrized_homotopy_column(QQ, H, IP, word, Vs.degree_of) == perm.column(word)
