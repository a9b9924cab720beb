import random
from fractions import Fraction

from homotopylie import QQ
from homotopylie.polynomial import MultiPoly, hadamard_factor
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
