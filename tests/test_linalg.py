from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactness import assert_exact
from homotopylie import linalg
from homotopylie.scalars import QQ, QQi, GaussianRational, FloatComplexField


def F(*a):
    return Fraction(*a)


def test_rref_rank_known():
    A = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.rank(QQ, A) == 1
    R, piv = linalg.rref(QQ, A)
    assert piv == [0]
    assert R[0] == [F(1), F(2)]
    assert R[1] == [F(0), F(0)]


def test_solve_and_inverse():
    A = [[F(2), F(1)], [F(1), F(1)]]
    b = [F(3), F(2)]
    x = linalg.solve(QQ, A, b)
    assert linalg.mat_vec(QQ, A, x) == b
    Ai = linalg.inverse(QQ, A)
    assert linalg.mat_mul(QQ, A, Ai) == linalg.identity(QQ, 2)


def test_solve_inconsistent():
    A = [[F(1), F(1)], [F(1), F(1)]]
    assert linalg.solve(QQ, A, [F(0), F(1)]) is None


def test_det():
    A = [[F(2), F(1)], [F(1), F(1)]]
    assert linalg.det(QQ, A) == 1
    assert linalg.det(QQ, [[F(0), F(1)], [F(0), F(2)]]) == 0


def test_gaussian_rational_field():
    i = GaussianRational(0, 1)
    A = [[QQi.one, i], [-i, QQi.one]]
    assert linalg.rank(QQi, A) == 1
    assert linalg.det(QQi, A) == QQi.zero


def test_float_field_pivoting():
    f = FloatComplexField(1e-9)
    A = [[1e-30 + 0j, 1 + 0j], [1 + 0j, 1 + 0j]]
    # tiny entry must not get picked as pivot
    assert linalg.rank(f, A) == 2


# a matrix has all-int or all-Fraction entries: exact elimination must
# take both, and an int pivot divided with a plain / gives a float
kinds = st.sampled_from([int, F])
mats = kinds.flatmap(lambda kind: st.lists(
    st.lists(st.integers(-5, 5).map(kind), min_size=3, max_size=3),
    min_size=2,
    max_size=4,
))


@given(mats)
def test_kernel_annihilated(A):
    for v in linalg.kernel_basis(QQ, A):
        assert all(c == 0 for c in linalg.mat_vec(QQ, A, v))


@given(mats)
def test_rank_nullity(A):
    n = len(A[0])
    assert linalg.rank(QQ, A) + len(linalg.kernel_basis(QQ, A)) == n


@given(mats, st.lists(st.integers(-3, 3).map(F), min_size=3, max_size=3))
def test_solve_consistency(A, x):
    b = linalg.mat_vec(QQ, A, x)
    y = linalg.solve(QQ, A, b)
    assert y is not None
    assert linalg.mat_vec(QQ, A, y) == b


# ------------------------------------------------------ sympy as oracle

square = st.tuples(st.integers(1, 4), kinds).flatmap(
    lambda nk: st.lists(st.lists(st.integers(-4, 4).map(nk[1]), min_size=nk[0], max_size=nk[0]),
                        min_size=nk[0], max_size=nk[0])
)


@settings(max_examples=60, deadline=None)
@given(mats)
def test_rank_and_kernel_match_sympy(A):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(A)
    assert linalg.rank(QQ, A) == M.rank()
    ker = linalg.kernel_basis(QQ, A)
    assert_exact([linalg.rref(QQ, A), ker])
    assert len(ker) == len(M.nullspace())
    if ker:
        K = sympy.Matrix(ker).T
        assert M * K == sympy.zeros(M.rows, len(ker)) and K.rank() == len(ker)


@settings(max_examples=60, deadline=None)
@given(square)
def test_det_and_inverse_match_sympy(A):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(A)
    assert linalg.det(QQ, A) == M.det()
    assert_exact(linalg.det(QQ, A))
    if M.det() == 0:
        with pytest.raises(ValueError):
            linalg.inverse(QQ, A)
    else:
        inv = linalg.inverse(QQ, A)
        assert sympy.Matrix(inv) == M.inv()
        # A is invertible, so A x = (row sums of A) has the one solution x = 1
        x = linalg.solve(QQ, A, [sum(row) for row in A])
        assert x == [1] * len(A)
        assert_exact([inv, x])


# solve_matrix, complement_pivots and det over QQ and QQi: QQ entries are
# ints or Fractions as above, QQi entries Gaussian rationals
def _entries(field):
    if field is QQ:
        return kinds.flatmap(lambda kind: st.integers(-2, 2).map(kind))
    return st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


def _matrix(field, m, n):
    return st.lists(st.lists(_entries(field), min_size=n, max_size=n), min_size=m, max_size=m)


def _to_sympy(sympy, A):
    def conv(x):
        g = x if isinstance(x, GaussianRational) else GaussianRational(x)
        return sympy.Rational(g.re) + sympy.I * sympy.Rational(g.im)
    return sympy.Matrix([[conv(x) for x in row] for row in A])


fields = st.sampled_from([QQ, QQi])
systems = st.tuples(fields, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda f_m_n_k: st.tuples(
        st.just(f_m_n_k[0]),
        _matrix(f_m_n_k[0], f_m_n_k[1], f_m_n_k[2]),
        _matrix(f_m_n_k[0], f_m_n_k[2], f_m_n_k[3]),  # X0: B = A X0 is consistent
        _matrix(f_m_n_k[0], f_m_n_k[1], f_m_n_k[3]),  # a B that may not be
        st.booleans(),
    )
)


@settings(max_examples=60, deadline=None)
@given(systems)
def test_solve_matrix_matches_sympy(system):
    sympy = pytest.importorskip("sympy")
    field, A, X0, B_free, consistent = system
    B = linalg.mat_mul(field, A, X0) if consistent else B_free
    M, MB = _to_sympy(sympy, A), _to_sympy(sympy, B)
    X = linalg.solve_matrix(field, A, B)
    if M.rank() < M.row_join(MB).rank():
        assert X is None
        return
    assert X is not None and len(X) == len(A[0]) and all(len(row) == len(B[0]) for row in X)
    assert linalg.is_zero_matrix(field, linalg.mat_sub(linalg.mat_mul(field, A, X), B))
    assert_exact(X)


def _greedy_complement(field, cols, m):
    """The standard vectors that raise the rank of `cols`, added one at a
    time: the rank-increase loop `complement_pivots` replaced."""
    chosen, cur = [], list(cols)
    for i in range(m):
        e = [field.one if j == i else field.zero for j in range(m)]
        if linalg.rank(field, cur + [e]) > linalg.rank(field, cur):
            cur.append(e)
            chosen.append(i)
    return chosen


spans = st.tuples(fields, st.integers(1, 4), st.integers(0, 4)).flatmap(
    lambda f_m_k: st.tuples(st.just(f_m_k[0]), st.just(f_m_k[1]), _matrix(f_m_k[0], f_m_k[2], f_m_k[1]))
)


@settings(max_examples=60, deadline=None)
@given(spans)
def test_complement_pivots_match_the_greedy_loop(span):
    field, m, cols = span
    chosen = linalg.complement_pivots(field, cols, m)
    assert chosen == _greedy_complement(field, cols, m)
    basis = list(cols) + [[field.one if j == i else field.zero for j in range(m)] for i in chosen]
    assert linalg.rank(field, basis) == m == len(chosen) + linalg.rank(field, cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _matrix(QQi, n, n)))
def test_det_over_gaussian_rationals_matches_sympy(A):
    sympy = pytest.importorskip("sympy")
    d = linalg.det(QQi, A)
    assert_exact(d)
    assert sympy.expand(_to_sympy(sympy, [[d]])[0, 0] - _to_sympy(sympy, A).det()) == 0
