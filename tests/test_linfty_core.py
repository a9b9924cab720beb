import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from homotopylie import GradedMap, GradedSpace, LInftyAlgebra, MultiLinearOp, to_shifted, to_unshifted
from homotopylie.generators import (
    corrupt_one_constant,
    rand_invertible,
    random_complex,
    two_degree_dgla,
    weighted_nilpotent_dgla,
)
from homotopylie.multilinear import koszul_sort
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import dcrit
from homotopylie.words import canon_word
from homotopylie.scalars import QQ


def F(*a):
    return Fraction(*a)


# ------------------------------------------------------------------ signs

def test_koszul_sort_signs():
    degs = {0: 1, 1: 1, 2: 2}  # two odd, one even

    def d(i):
        return degs[i]

    assert koszul_sort((1, 0), d) == ((0, 1), -1)  # odd past odd
    assert koszul_sort((2, 0), d) == ((0, 2), 1)  # even past odd
    assert koszul_sort((1, 0), d, antisym=True) == ((0, 1), 1)


def test_signs_are_ints_on_negative_degrees():
    # shifted degrees -2..1: products of degrees of opposite signs are
    # negative, where (-1) ** p is a float
    space = random_complex(random.Random(4), degs=(-1, 0, 1, 2)).space.shifted(1)
    deg_of = space.degree_of
    n = space.total_dim
    assert min(map(deg_of, range(n))) < 0 < max(map(deg_of, range(n)))

    def old_sign(tup, antisym):
        # the sign the float formula gave: one factor per inverted pair
        sign = 1
        for i in range(len(tup)):
            for j in range(i + 1, len(tup)):
                if tup[i] > tup[j]:
                    sign *= (-1) ** (deg_of(tup[i]) * deg_of(tup[j])) * (-1 if antisym else 1)
        return sign

    ops = {sym: MultiLinearOp(space, space, 3, 1, sym) for sym in ("sym", "antisym")}
    tuples = [t for k in (1, 2, 3) for t in product(range(n), repeat=k)]
    for tup in tuples:
        cases = [(canon_word(tup, deg_of), False)]
        cases += [(op._canon(tup), sym == "antisym") for sym, op in ops.items()]
        for (word, sign), antisym in cases:
            assert type(sign) is int, (tup, sign)
            assert sign == (0 if word is None else old_sign(tup, antisym)), tup


# ------------------------------------------------------- gl2 as a Lie algebra

def gl2():
    """gl_2 in degree 0 with the commutator bracket."""
    V = GradedSpace({0: 4}, labels={0: ["E11", "E12", "E21", "E22"]})
    mats = [
        ((0, 0),),  # E11: positions of ones
        ((0, 1),),
        ((1, 0),),
        ((1, 1),),
    ]

    def mat(i):
        M = [[0, 0], [0, 0]]
        for (r, c) in mats[i]:
            M[r][c] = 1
        return M

    def comm(a, b):
        A, B = mat(a), mat(b)
        C = [
            [
                sum(A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        return C

    basis_pos = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    l2 = MultiLinearOp(V, V, 2, 0, "antisym")
    for a in range(4):
        for b in range(a + 1, 4):
            C = comm(a, b)
            for (r, c), out in basis_pos.items():
                if C[r][c]:
                    l2.add_entry((a, b), out, F(C[r][c]))
    return LInftyAlgebra.from_unshifted_ops(V, {2: l2})


def test_gl2_validates():
    rep = gl2().validate(3)
    assert rep.ok


def test_gl2_perturbed_fails_at_length_3():
    alg = gl2()
    bad = dict(alg.sops)
    op = bad[2]
    op2 = MultiLinearOp(op.source, op.target, 2, 1, "sym")
    op2.entries = dict(op.entries)
    op2.add_entry((0, 1), 0, F(1))  # corrupt one structure constant
    rep = LInftyAlgebra(alg.space, {2: op2}).validate(3)
    assert not rep.ok
    win, wout, coeff = rep.witness
    assert len(win) == 3
    assert coeff != 0


# ------------------------------------------------- suspension round trip

def test_shift_round_trip():
    alg = gl2()
    l2 = alg.unshifted_op(2)
    q2 = to_shifted(l2, alg.shifted_space, alg.shifted_space)
    back = to_unshifted(q2, alg.space, alg.space)
    assert back.eq(l2)


# ------------------------------------- cubic section tower x1^3 - x1 x2

def cubic_tower():
    """Tower with F(x) = x1^3 - x1 x2 in matrix-free form: L^1 = k^2,
    L^2 = k, l2(e1,e2) = -f, l3(e1,e1,e1) = 6 f (shifted storage)."""
    V = GradedSpace({1: 2, 2: 1}, labels={1: ["x1", "x2"], 2: ["f"]})
    sp = V.shifted(1)
    q2 = MultiLinearOp(sp, sp, 2, 1, "sym")
    q2.add_entry((0, 1), 2, F(-1))
    q3 = MultiLinearOp(sp, sp, 3, 1, "sym")
    q3.add_entry((0, 0, 0), 2, F(6))
    return LInftyAlgebra(V, {2: q2, 3: q3})


def test_cubic_tower_validates():
    assert cubic_tower().validate(4).ok


def test_mc_function_matches_polynomial():
    alg = cubic_tower()
    for a, b in [(F(2), F(3)), (F(-1), F(5)), (F(1, 2), F(1, 3))]:
        val = alg.mc_function({0: a, 1: b})
        expected = a**3 - a * b
        assert val.get(2, F(0)) == expected


def test_twisted_differential_is_jacobian():
    alg = cubic_tower()
    a, b = F(2), F(-3)
    d = alg.twisted_differential({0: a, 1: b})
    # gradient of x1^3 - x1 x2
    assert d.entry(2, 0) == 3 * a**2 - b
    assert d.entry(2, 1) == -a


def test_twist_by_zero_is_l1():
    """twisted_differential({}) is l_1 itself, on a dgla and on a dCrit
    tower with brackets up to arity 3."""
    x, y = MultiPoly.variable(2, 0, QQ), MultiPoly.variable(2, 1, QQ)
    S = x * x + x * y * QQ.coerce(2) - y ** 3 + x * y ** 3
    for alg in (two_degree_dgla(random.Random(6)), dcrit(S).to_linfty()):
        assert 1 in alg.sops and alg.max_arity >= 2
        d = alg.twisted_differential({})
        q1 = alg.sops[1]
        assert all(d.apply({i: QQ.one}) == q1.eval_basis((i,)) for i in range(alg.space.total_dim))


def test_twist_flatness():
    alg = cubic_tower()
    assert alg.twist({0: F(2), 1: F(4)}).is_flat  # on the branch x2 = x1^2
    assert not alg.twist({0: F(2), 1: F(1)}).is_flat


def test_analytic_bound():
    C, r = cubic_tower().analytic_bound()
    assert C > 0 and C * r < 1
    C0, r0 = LInftyAlgebra(GradedSpace({1: 2}), {}).analytic_bound()
    assert C0 == 0.0 and r0 == float("inf")


# ------------------------------------------------ conjugation invariance

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_conjugate_validates_iff_the_tower_does(seed):
    """Conjugating by an invertible degree-0 map keeps a tower valid and
    keeps a corrupted one invalid."""
    rng = random.Random(seed)
    alg = weighted_nilpotent_dgla(rng)
    found = corrupt_one_constant(alg, rng)
    assume(found is not None)
    bad, _ = found
    g = GradedMap(alg.space, alg.space, 0)
    for deg in alg.space.degrees():
        g.blocks[deg] = rand_invertible(rng, QQ, alg.space.dim(deg))
    for tower, ok in ((alg, True), (bad, False)):
        assert tower.validate(3).ok is ok
        assert tower.conjugate(g).validate(3).ok is ok
