"""The structure checks read only the length-1 part of Q^2 and of
Q_T F - F Q_S.  These tests compare them with oracles that build the
whole word maps (`coderivation`, `morphism_lift`) and compose them: the
verdict and the witness, the first nonzero column in (length,
lexicographic) order with its smallest output word, must agree.  The
composite of two morphisms is checked the same way, and the set
partitions that all of these sums run over are checked on their own."""

import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

from hypothesis import given, settings, strategies as st

from homotopylie import LInftyAlgebra, LInftyMorphism, MultiLinearOp
from homotopylie.graded import GradedMap
from homotopylie import words as W
from homotopylie.generators import (
    nilpotent_tower_with_corruption,
    random_complex,
    two_degree_dgla,
    weighted_nilpotent_dgla,
)
from homotopylie.transfer import minimal_model

seeds = st.integers(0, 10**6)


def first_nonzero_column(M, words):
    """(w, smallest output word, coefficient) of the first nonzero column
    of a word map, or None."""
    for w in words:
        col = M.cols.get(w)
        if col:
            wo = min(col)
            return (w, wo, col[wo])
    return None


def square_oracle(alg, n_check):
    sp = alg.shifted_space
    ws = W.enumerate_words(sp, n_check)
    Q = W.coderivation(alg.field, alg.sops, ws, sp.degree_of)
    return first_nonzero_column(Q.compose(Q), ws)


def morphism_oracle(mor, n_check):
    ssp, tsp = mor.source.shifted_space, mor.target.shifted_space
    ws = W.enumerate_words(ssp, n_check)
    F = W.morphism_lift(mor.field, mor.components, ws, ssp.degree_of, tsp.degree_of)
    Qs = W.coderivation(mor.field, mor.source.sops, ws, ssp.degree_of)
    Qt = W.coderivation(mor.field, mor.target.sops, W.enumerate_words(tsp, n_check), tsp.degree_of)
    D = Qt.compose(F) + F.compose(Qs).scale(-mor.field.one)
    return first_nonzero_column(D, ws)


@settings(max_examples=8, deadline=None)
@given(seed=seeds, n_check=st.sampled_from([3, 4]))
def test_validate_matches_the_squared_coderivation(seed, n_check):
    alg, bad, _ = nilpotent_tower_with_corruption(random.Random(seed), n_check=n_check)
    for tower in (alg, bad):
        # every length up to n_check: the first violation may sit at any
        for n in range(1, n_check + 1):
            rep = tower.validate(n)
            oracle = square_oracle(tower, n)
            assert rep.ok is (oracle is None)
            assert rep.witness == oracle
    assert not bad.validate(n_check).ok


def raised_family(ops, rng):
    """A copy of a family {k: op} with one structure constant of one
    operation raised by 1."""
    k = rng.choice(sorted(k for k, f in ops.items() if f.entries))
    out = {}
    for a, f in ops.items():
        out[a] = MultiLinearOp(f.source, f.target, f.arity, f.degree, "sym")
        out[a].entries = dict(f.entries)
    word, o = rng.choice(sorted(out[k].entries))
    out[k].add_entry(word, o, 1)
    return out


def raise_one_constant(mor, rng):
    """A copy of mor with one structure constant of one component raised
    by 1."""
    return LInftyMorphism(mor.source, mor.target, raised_family(mor.components, rng))


def sign_presented(alg, rng):
    """The same tower in a seeded basis e_i -> +-e_i."""
    g = GradedMap(alg.space, alg.space, 0)
    for d in alg.space.degrees():
        n = alg.space.dim(d)
        g.blocks[d] = [[rng.choice((1, -1)) if i == j else 0 for j in range(n)] for i in range(n)]
    return alg.conjugate(g)


@settings(max_examples=4, deadline=None)
@given(seed=seeds)
def test_validate_matches_the_squared_coderivation_on_fractional_towers(seed):
    """validate scales the constants by their common denominator D and
    divides the witness by D^2.  On the benchmark's kind of tower, whose
    constants are mostly fractions (D > 1), and on a copy with one
    constant raised by 1, the verdict and the witness equal the oracle's
    for every length up to 3, and the witness coefficient is in normal
    form: an int when it is integral."""
    rng = random.Random(seed)
    alg = sign_presented(weighted_nilpotent_dgla(rng, m=6), rng)
    bad = LInftyAlgebra(alg.space, raised_family(alg.sops, rng))
    assert lcm(*(c.denominator for op in bad.sops.values() for c in op.entries.values())) > 1
    for tower in (alg, bad):
        sp = tower.shifted_space
        ws = W.enumerate_words(sp, 3)
        Q = W.coderivation(tower.field, tower.sops, ws, sp.degree_of)
        Q2 = Q.compose(Q)  # Q keeps or shortens words: its columns do not depend on the length bound
        for n in (1, 2, 3):
            rep = tower.validate(n)
            assert rep.witness == first_nonzero_column(Q2, [w for w in ws if len(w) <= n])
            assert rep.ok is (rep.witness is None)
            if rep.witness is not None:
                c = rep.witness[2]
                assert type(c) is (int if c.denominator == 1 else Fraction)
    assert alg.validate(3).ok


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_morphism_defect_matches_the_composed_maps(seed):
    """The transfer morphisms have no defect; raising one structure
    constant of one component by 1 gives the oracle's defect."""
    rng = random.Random(seed)
    tr = minimal_model(weighted_nilpotent_dgla(rng), arity_out=3)
    for mor in (tr.inclusion, tr.projection):
        assert mor.defect(3) is None
        bad = raise_one_constant(mor, rng)
        for n_check in (2, 3):
            assert bad.defect(n_check) == morphism_oracle(bad, n_check)


def random_components(rng, source, target, arity=3, density=0.3):
    """Random symmetric degree-0 components f_1, ..., f_arity from the
    shifted space of `source` to that of `target`; no morphism equation
    holds, and none is needed for composition."""
    S, T = source.shifted_space, target.shifted_space
    comps = {}
    for k in range(1, arity + 1):
        comps[k] = MultiLinearOp(S, T, k, 0, "sym")
        for w in W.enumerate_words(S, k, k):
            for o in T.indices_of_degree(W.word_degree(w, S.degree_of)):
                if rng.random() < density:
                    comps[k].add_entry(w, o, rng.randint(-3, 3))
    return LInftyMorphism(source, target, comps)


def compositions(n):
    """The tuples of positive integers with sum n."""
    if n == 0:
        yield ()
    for m in range(1, n + 1):
        for rest in compositions(n - m):
            yield (m,) + rest


def permutation_lift_column(mor, w):
    """S(f) at the word w, summed over every ordering of w cut into
    consecutive blocks instead of over set partitions: a partition into
    k blocks arises k! * prod |B|! times, each with its Koszul sign."""
    deg_s, deg_t = mor.source.shifted_space.degree_of, mor.target.shifted_space.degree_of
    out = {}
    for perm in permutations(range(len(w))):
        arranged = tuple(w[p] for p in perm)
        sign = int(W.canon_word(arranged, deg_s)[1])  # (-1) ** negative is a float
        for cuts in compositions(len(w)):
            weight, vecs, start = Fraction(sign, factorial(len(cuts))), [], 0
            for m in cuts:
                block, s = W.canon_word(arranged[start : start + m], deg_s)
                start += m
                f = mor.components.get(m)
                val = f.eval_basis(block) if f is not None and block else None
                if not val:
                    break
                weight *= Fraction(int(s), factorial(m))
                vecs.append(val)
            else:
                for u, c in W._expand_product(mor.field, vecs, deg_t).items():
                    out[u] = out.get(u, 0) + weight * c
    return {u: c for u, c in out.items() if c}


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_compose_matches_the_lifted_maps(seed):
    """g.compose(f) equals the length-1 part of g over the columns of
    `words.morphism_lift` of f, entry for entry, and those columns equal
    the permutation form of the lift.  The morphisms are the transfer
    morphisms of a two-degree dgla, composed both ways round, with a
    constant of the projection raised by 1 so that the composite is not
    the identity; and random components between spaces with letters of
    both parities, where partition signs of -1 occur (the dgla's transfer
    morphisms see almost only even letters)."""
    rng = random.Random(seed)
    tr = minimal_model(two_degree_dgla(rng), arity_out=3)
    A, B, C = (LInftyAlgebra(random_complex(rng, degs=(-1, 0, 1, 2)).space, {}) for _ in range(3))
    bad_p = raise_one_constant(tr.projection, rng)
    pairs = [
        (bad_p, tr.inclusion),
        (tr.inclusion, bad_p),
        (random_components(rng, B, C), random_components(rng, A, B)),
    ]
    for g, f in pairs:
        ssp = f.source.shifted_space
        ws = W.enumerate_words(ssp, 3)
        F = W.morphism_lift(f.field, f.components, ws, ssp.degree_of, f.target.shifted_space.degree_of)
        assert all(F.column(w) == permutation_lift_column(f, w) for w in ws)
        evals = {k: op.eval_basis for k, op in g.components.items()}
        oracle = {(w, o): c for w in ws for o, c in W.corestriction(g.field, evals, F.column(w)).items()}
        gf = g.compose(f, max_arity=3)
        assert {key: c for op in gf.components.values() for key, c in op.entries.items()} == oracle
    # the linear part of i p' has rank at most dim W; when W = V, i p is
    # the identity and i p' differs from it (i_1 is injective)
    assert not tr.inclusion.compose(bad_p, max_arity=3).is_identity()


def test_set_partitions_come_once_each_in_block_order():
    """Bell(n) distinct partitions of n items, each block ascending and
    the blocks ordered by their smallest element; a block value or a block
    count that is out keeps exactly the partitions that avoid it."""
    bell = [1]
    for n in range(6):
        bell.append(sum(comb(n, k) * bell[k] for k in range(n + 1)))
    for n in range(7):
        full = list(W._set_partitions(n, lambda b: {b: 1}, n))
        parts = [part for part, _ in full]
        assert len(parts) == bell[n]
        assert len({tuple(part) for part in parts}) == bell[n]
        assert all(values == [{b: 1} for b in part] for part, values in full)
        for part in parts:
            assert sorted(p for b in part for p in b) == list(range(n))
            assert all(list(b) == sorted(b) for b in part)
            assert [b[0] for b in part] == sorted(b[0] for b in part)
        # no block with both 0 and 1, at most three blocks
        kept = [part for part, _ in W._set_partitions(n, lambda b: not {0, 1} <= set(b), 3)]
        assert kept == [part for part in parts if len(part) <= 3 and not any({0, 1} <= set(b) for b in part)]