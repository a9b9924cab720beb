import os
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from homotopylie import QQ, serialize
from homotopylie.cli import main
from homotopylie.generators import random_adaptable_section
from homotopylie.polynomial import (
    MultiPoly, hadamard_factor, constant_matrix, linear_forms, poly_matvec, poly_matmul,
)
from homotopylie.qs import (
    QsSpace,
    QsMorphism,
    dcrit,
    identity_morphism,
    is_quasi_iso,
    minimal_decomposition,
    morse_thom_split,
)


def F(*a):
    return Fraction(*a)


def var(n, i):
    return MultiPoly.variable(n, i, QQ)


def const(n, c):
    return MultiPoly.constant(n, QQ.coerce(c), QQ)


# ----------------------------------------------------------- polynomials

def test_poly_arithmetic_and_diff():
    x, y = var(2, 0), var(2, 1)
    p = (x + y) * (x - y)
    assert (p - (x * x - y * y)).is_zero()
    q = x * x * y + y.scale(F(3))
    assert (q.diff(0) - (x * y).scale(F(2))).is_zero()
    assert (q.diff(1) - (x * x + const(2, 3))).is_zero()
    assert q.evaluate([F(2), F(5)]) == 4 * 5 + 15


def test_poly_substitute_composes():
    x, y = var(2, 0), var(2, 1)
    p = x * x + x * y
    sub = [y + const(2, 1), x.scale(F(2))]
    got = p.substitute(sub)
    want = (y + const(2, 1)) * (y + const(2, 1)) + (y + const(2, 1)) * x.scale(F(2))
    assert (got - want).is_zero()


def test_hadamard_factor_exact():
    x, y = var(2, 0), var(2, 1)
    p = x * x * y + x.scale(F(7)) + y * y
    q = hadamard_factor(p, 0)
    # p - p|_{x=0} = x * q
    assert (p - p.substitute([const(2, 0), y]) - x * q).is_zero()


# ------------------------------------------- bundle maps against sympy

def _sym(p, xs):
    """A polynomial as a sympy expression in the symbols xs."""
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod([x ** k for x, k in zip(xs, e)])
                for e, c in p.terms.items()), sympy.Integer(0))


def _sym_matrix(M, nrows, ncols, xs):
    return sympy.Matrix(nrows, ncols, [_sym(p, xs) for row in M for p in row])


def _same(got, want, nrows, ncols, xs):
    """got (a list of rows of polynomials) has the shape and the entries
    of the sympy matrix want."""
    assert len(got) == nrows and all(len(row) == ncols for row in got)
    assert (_sym_matrix(got, nrows, ncols, xs) - want).expand() == sympy.zeros(nrows, ncols)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
dims = st.integers(0, 3)


def polys(nvars):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exps, rationals, max_size=3).map(lambda t: MultiPoly(nvars, QQ, t))


def poly_matrices(nvars, nrows, ncols):
    return st.lists(st.lists(polys(nvars), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def scalar_matrices(nrows, ncols):
    return st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def matmul_cases(draw):
    nvars, m, k, n = draw(st.integers(0, 2)), draw(dims), draw(dims), draw(dims)
    return nvars, m, k, n, draw(poly_matrices(nvars, m, k)), draw(poly_matrices(nvars, k, n))


@settings(max_examples=60, deadline=None)
@given(matmul_cases())
def test_poly_matmul_and_matvec_match_sympy(case):
    nvars, m, k, n, A, B = case
    xs = sympy.symbols("x0:%d" % nvars)
    want = _sym_matrix(A, m, k, xs) * _sym_matrix(B, k, n, xs)
    _same(poly_matmul(A, B, n, nvars, QQ), want, m, n, xs)
    for c in range(n):
        col = poly_matvec(A, [row[c] for row in B], nvars, QQ)
        _same([[p] for p in col], want[:, c], m, 1, xs)


@st.composite
def substitution_cases(draw):
    m, n = draw(dims), draw(dims)
    return m, n, draw(scalar_matrices(m, n)), draw(polys(m))


@settings(max_examples=60, deadline=None)
@given(substitution_cases())
def test_constant_matrix_and_linear_forms_match_sympy(case):
    m, n, A, q = case
    ys = sympy.symbols("y0:%d" % n)
    SA = sympy.Matrix(m, n, [sympy.Rational(c.numerator, c.denominator) for row in A for c in row])
    _same(constant_matrix(n, A, QQ), SA, m, n, ys)
    forms = linear_forms(A, QQ)
    _same([[p] for p in forms], SA * sympy.Matrix(n, 1, list(ys)), m, 1, ys)
    if m:  # the substitution x = A y, on a polynomial in the m variables x
        xs = sympy.symbols("x0:%d" % m)
        want = _sym(q, xs).subs(dict(zip(xs, SA * sympy.Matrix(n, 1, list(ys)))), simultaneous=True)
        _same([[q.substitute(forms)]], sympy.Matrix([[want]]), 1, 1, ys)


def test_compose_through_a_rank_zero_bundle_keeps_its_columns():
    z = var(1, 0)
    cusp, line = dcrit(z * z * z), QsSpace(1, 0, [])
    onto_line = QsMorphism(cusp, line, [z], [], check=False)
    from_line = QsMorphism(line, cusp, [z], [[]], check=False)
    composite = from_line.compose(onto_line)
    assert len(composite.bundle) == 1 and len(composite.bundle[0]) == 1
    assert composite.bundle[0][0].is_zero()


def test_compose_through_a_space_with_no_variables():
    """Through the point, substitution has no polynomial to plug in; the
    composite's base and bundle are still polynomials in the source's
    variables, whether the point's map has a scalar or a polynomial base."""
    z = var(1, 0)
    cusp, pt = dcrit(z * z * z), QsSpace(0, 0, [])
    to_pt = QsMorphism(cusp, pt, [], [], check=False)
    for base in ([0], [MultiPoly.zero(0, QQ)]):
        composite = QsMorphism(pt, cusp, base, [[]], check=False).compose(to_pt)
        polys = composite.base + [p for row in composite.bundle for p in row]
        assert len(polys) == 2 and all(isinstance(p, MultiPoly) and p.nvars == 1 for p in polys)
        assert composite.base_jacobian_at([F(2)]) == [[0]]
        assert composite.compat_defect()[0]


# ------------------------------------------------------- towers from sections

def test_tower_mc_function_reproduces_section():
    # section (x1^2 + x1 x2, x2^3) on C^2
    x1, x2 = var(2, 0), var(2, 1)
    qs = QsSpace(2, 2, [x1 * x1 + x1 * x2, x2 * x2 * x2])
    alg = qs.to_linfty()
    rep = alg.validate()
    assert rep.ok
    rng = random.Random(7)
    V = alg.space
    for _ in range(5):
        pt = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        vec = {V.index(1, i): c for i, c in enumerate(pt) if c != 0}
        got = alg.mc_function(vec)
        want = qs.evaluate(pt)
        for a in range(2):
            assert got.get(V.index(2, a), QQ.zero) == want[a]


def test_dcrit_and_tangent_cohomology():
    z1, z2, z3 = (var(3, i) for i in range(3))
    S = z1 * z1 + z2 * z2 + z3 * z3 * z3 + z3 * z3 * z3 * z3
    qs = dcrit(S)
    assert qs.rank == 3
    # gradient: (2 z1, 2 z2, 3 z3^2 + 4 z3^3)
    assert (qs.section[0] - z1.scale(F(2))).is_zero()
    ranks = qs.tangent_cohomology()
    assert ranks == {1: 1, 2: 1}


def test_dg_tangent_of_minimal_model_is_zero():
    x1, x2 = var(2, 0), var(2, 1)
    S = x1 * x1 * x1 - x1 * x2
    qs = dcrit(S)
    dec = minimal_decomposition(qs)
    assert dec.minimal.is_minimal()
    d = dec.minimal.dg_tangent().d
    assert d.is_zero()


# ------------------------------------------------------------ quasi-isos

def test_identity_is_quasi_iso():
    x1, x2 = var(2, 0), var(2, 1)
    qs = dcrit(x1 * x1 * x1 - x1 * x2)
    pts = [[F(0), F(0)], [F(1, 2), F(3, 4)]]
    assert is_quasi_iso(identity_morphism(qs), pts)


def test_non_quasi_iso_detected():
    # point into a tower with nonzero tangent cohomology
    z = var(1, 0)
    fat = dcrit(z * z * z)  # H^1 = H^2 = 1 at the origin
    pt = QsSpace(0, 0, [])
    m = QsMorphism(pt, fat, [MultiPoly.zero(0, QQ)], [], check=False)
    assert not is_quasi_iso(m, [[]])


# ------------------------------------------------- minimal decomposition

def _adapted_example():
    # adapted shape: lam = (lam_tilde_1, lam_tilde_2, n1) in coords (z1, z2, n1)
    z1, z2, n1 = (var(3, i) for i in range(3))
    lam = [z1 * z1 + z1 * n1, z1 * z2 + n1 * n1, n1]
    return QsSpace(3, 3, lam)


def _scrambled_example():
    """Conjugate the adapted example by a linear source change and a
    unipotent polynomial bundle change."""
    qs = _adapted_example()
    x1, x2, x3 = (var(3, i) for i in range(3))
    # source: y = T x with T = [[1,1,0],[0,1,0],[1,0,1]]
    Tx = [x1 + x2, x2, x1 + x3]
    lam_T = [p.substitute(Tx) for p in qs.section]
    # bundle: G = I + strictly upper triangular polynomial entries
    G = [
        [const(3, 1), x1, x2 * x2],
        [const(3, 0), const(3, 1), x3],
        [const(3, 0), const(3, 0), const(3, 1)],
    ]
    out = []
    for a in range(3):
        acc = MultiPoly.zero(3, QQ)
        for b in range(3):
            acc = acc + G[a][b] * lam_T[b]
        out.append(acc)
    return QsSpace(3, 3, out)


def test_minimal_decomposition_identities_exact():
    for qs in (_adapted_example(), _scrambled_example()):
        dec = minimal_decomposition(qs)
        assert dec.exact
        checks = dec.verify()
        assert all(checks.values()), checks
        assert dec.minimal.is_minimal()
        # adapted section really ends with the fiber coordinates
        r2 = dec.n_con
        for i in range(r2):
            want = var(dec.adapted.nvars, dec.n_min + i)
            assert (dec.adapted.section[dec.adapted.rank - r2 + i] - want).is_zero()


def test_verify_reports_a_corrupted_hadamard_row():
    dec = minimal_decomposition(_scrambled_example())
    dec.M_rows[0][0] = dec.M_rows[0][0] + var(dec.adapted.nvars, 0)
    checks = dec.verify()
    assert checks["projection compat"] is False
    # H_t's compat defect at t = 0 is the same Hadamard defect
    assert checks["H_t I = I"] is False
    assert checks["inclusion compat"] and checks["P I = id"] and checks["H_0 = I P"]


def _example_sections(tmp_path):
    """The sections of `gen-examples --seed 1..5`, and random adaptable
    sections in 2, 3 and 4 variables from three seeds."""
    out = []
    for seed in range(1, 6):
        ex = str(tmp_path / ("ex%d" % seed))
        assert main(["gen-examples", "--seed", str(seed), "--out", ex]) == 0
        for name in ("section_0.json", "section_1.json"):
            with open(os.path.join(ex, name)) as fh:
                out.append(serialize.section_from_payload(serialize.loads(fh.read(), "qs_section")[1]))
    out += [random_adaptable_section(random.Random(s), nvars=nv) for s in range(3) for nv in (2, 3, 4)]
    return out


SAMPLED_T = (F(1, 2), 2, -1, 3)


def test_homotopy_samples_agree_with_the_decision_at_t_0(tmp_path):
    # verify decides "H_t I = I" from H_0 alone; the other samples of t
    # must give the same answer, on sound and on corrupted decompositions
    for qs in _example_sections(tmp_path):
        dec = minimal_decomposition(qs)
        assert dec.n_con > 0 and all(dec.verify().values())
        I = dec.inclusion()
        for t in SAMPLED_T:
            Ht = dec.homotopy_at(t)
            assert Ht.compat_defect()[0], t
            assert Ht.compose(I).eq(I), t
    bad = minimal_decomposition(_scrambled_example())
    bad.M_rows[0][0] = bad.M_rows[0][0] + var(bad.adapted.nvars, 0)
    assert bad.verify()["H_t I = I"] is False
    for t in SAMPLED_T:
        assert not bad.homotopy_at(t).compat_defect()[0], t


def test_minimal_decomposition_preserves_tangent_cohomology():
    qs = _scrambled_example()
    dec = minimal_decomposition(qs)
    assert dec.minimal.tangent_cohomology() == qs.tangent_cohomology()
    # and the inclusion is a quasi-iso at the basepoint
    assert is_quasi_iso(dec.inclusion(), [[QQ.zero] * dec.minimal.nvars])


def test_minimal_decomposition_of_already_minimal():
    x1, x2 = var(2, 0), var(2, 1)
    qs = QsSpace(2, 2, [x1 * x1, x1 * x2])
    dec = minimal_decomposition(qs)
    assert dec.n_con == 0
    assert dec.minimal is qs or dec.minimal.section == qs.section


# --------------------------------------------------- quadratic splitting

def test_morse_split_pure_sum():
    z1, z2, z3 = (var(3, i) for i in range(3))
    S = z1 * z1 + z2 * z2 + z3 * z3 * z3 + z3 * z3 * z3 * z3
    sp = morse_thom_split(S)
    assert sp.exact
    assert sp.split_rank == 2
    # residual is the degenerate-direction tail
    assert sp.residual.degree() == 4


def test_morse_split_absorbs_cross_terms():
    x, y = var(2, 0), var(2, 1)
    S = x * x + x * y * y + (y * y * y * y).scale(F(1, 3))
    sp = morse_thom_split(S)
    assert sp.exact
    assert sp.split_rank == 1
    # completing the square: residual is y^4/3 - y^4/4 = y^4/12
    want = (y * y * y * y).scale(F(1, 12))
    assert (sp.residual - want).is_zero()
    # reconstruction identity S(change(z)) = quad + residual
    quad = MultiPoly.zero(2, QQ)
    for i, c in enumerate(sp.quad_coeffs):
        quad = quad + (var(2, i) * var(2, i)).scale(c)
    assert (sp.reconstructed() - quad - sp.residual).is_zero()


def test_morse_split_hyperbolic_quadratic():
    x, y = var(2, 0), var(2, 1)
    S = x * y
    sp = morse_thom_split(S)
    assert sp.exact
    assert sp.split_rank == 2
    assert sp.residual.is_zero()
