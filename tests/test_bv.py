import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homotopylie import QQ
from homotopylie.graded import GradedSpace
from homotopylie.multilinear import MultiLinearOp
from homotopylie.linfty import LInftyAlgebra
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import QsSpace, QsMorphism, dcrit, morse_thom_split
from homotopylie.generators import brst_circle
from homotopylie.bv import (
    BVData,
    validate_bv,
    canonical_dcrit_bv,
    extend_by_contractible_bv,
    mc_polynomials,
    anchor_polynomials,
    check_shifted_symplectic,
    potential_from_symplectic,
    pullback_bv,
    effective_action,
    MetricStructure,
    metric_vanishes_on_gauge_directions,
    restrict_metric,
    check_volume_pullback,
    VolumeForm,
    OrientationCocycle,
    check_bv_orientable,
)


def F(*a):
    return Fraction(*a)


def var(n, i):
    return MultiPoly.variable(n, i, QQ)


def const(n, c):
    return MultiPoly.constant(n, QQ.coerce(c), QQ)


# -------------------------------------------------------------- fixtures


def test_brst_tower_is_linfty():
    bv = brst_circle()
    rep = bv.algebra.validate(3)
    assert rep.ok, rep


def test_mc_and_anchor_polynomials():
    bv = brst_circle()
    lam = mc_polynomials(bv.algebra)
    assert [(p - q).is_zero() for p, q in zip(lam, bv.S.gradient())] == [True, True]
    anchors = anchor_polynomials(bv.algebra)
    (vf,) = anchors.values()
    x1, x2 = var(2, 0), var(2, 1)
    assert (vf[0] + x2).is_zero() and (vf[1] - x1).is_zero()


# --------------------------------------------------------- validate_bv

def test_canonical_dcrit_valid():
    x1, x2 = var(2, 0), var(2, 1)
    for S in (x1 * x1 * x1 - x1 * x2, x1 * x1 + x2 * x2 + x2 * x2 * x2):
        bv = canonical_dcrit_bv(S)
        rep = validate_bv(bv)
        assert rep.ok, rep


def test_extend_by_contractible_valid_and_locus_shrinks():
    z = var(1, 0)
    S = z * z * z
    bv, qs = extend_by_contractible_bv(S, 2)
    rep = validate_bv(bv)
    assert rep.ok, rep
    # (0, x) with x != 0 is critical for the pulled-back action but not a
    # point of the classical locus
    p = [F(0), F(1), F(2)]
    assert all(QQ.is_zero(g.evaluate(p)) for g in bv.S.gradient())
    assert not all(QQ.is_zero(v) for v in qs.evaluate(p))


def test_brst_circle_valid():
    bv = brst_circle()
    rep = validate_bv(bv, window=(0, 2))
    assert rep.ok, rep


def test_triangle_mutation_detected():
    x1, x2 = var(2, 0), var(2, 1)
    bv = canonical_dcrit_bv(x1 * x1 * x1 - x1 * x2)
    bv.sigma[0][1] = bv.sigma[0][1] + x1
    rep = validate_bv(bv)
    # a failed report is falsy, so `assert rep` cannot pass it
    assert not rep.ok and not rep
    assert rep.witness[0] == "triangle"


def test_gauge_mutation_detected():
    bv = brst_circle(rho=((0, 1), (1, 0)))  # not a symmetry of the action
    rep = validate_bv(bv, window=(0, 2))
    assert not rep.ok
    assert rep.witness[0] == "gauge"
    # triangle is untouched by the corrupted group action
    assert rep.checks["triangle"]


def test_quasi_iso_mutation_detected():
    u, x = var(2, 0), var(2, 1)
    S = u * u * u  # degenerate direction x
    qs = QsSpace(2, 2, [S.diff(0), MultiPoly.zero(2, QQ)])
    alg = qs.to_linfty()
    sigma = [[const(2, 1), const(2, 0)], [const(2, 0), const(2, 0)]]
    rep = validate_bv(BVData(alg, S, sigma))
    assert not rep.ok
    assert rep.witness[0] == "quasi-iso"
    assert rep.checks["triangle"] and rep.checks["gauge"]


# ------------------------------------------------------- symplectic side

def test_symplectic_from_bv_data():
    x1, x2 = var(2, 0), var(2, 1)
    bv = canonical_dcrit_bv(x1 * x1 * x1 - x1 * x2)
    ok, _ = check_shifted_symplectic(bv.algebra, bv.sigma)
    assert ok


def test_symplectic_zero_fails():
    # noncontractible: the tangent complex at 0 has cohomology, so the
    # zero form cannot induce isomorphisms there
    z = var(1, 0)
    bv = canonical_dcrit_bv(z * z * z)
    zero = [[const(1, 0)]]
    ok, why = check_shifted_symplectic(bv.algebra, zero)
    assert not ok and why[0] == "degenerate"


def test_symplectic_rank_drop_at_second_point():
    x = var(1, 0)
    lam = x * (x - const(1, 1)) * (x - const(1, 1))
    alg = QsSpace(1, 1, [lam]).to_linfty()
    omega = [[const(1, 1) - x]]
    ok, why = check_shifted_symplectic(alg, omega, points=[[F(1)]])
    assert not ok
    assert why[0] == "degenerate" and why[1][0] == [F(1)]


def test_potential_recovers_action():
    x1, x2 = var(2, 0), var(2, 1)
    S = x1 * x1 * x1 - x1 * x2
    bv = canonical_dcrit_bv(S)
    got = potential_from_symplectic(bv.algebra, bv.sigma)
    assert got is not None
    S2, sig2 = got
    assert (S2 - S).is_zero()


# --------------------------------------------------------------- pullback

def test_pullback_along_contractible_inclusion():
    z = var(1, 0)
    S = z * z * z
    bv_big, qs_big = extend_by_contractible_bv(S, 1)
    qs_small = dcrit(S)
    base = [var(1, 0), MultiPoly.zero(1, QQ)]
    bundle = [[const(1, 1)], [const(1, 0)]]
    phi = QsMorphism(qs_small, qs_big, base, bundle)
    assert phi.compat_defect()[0]
    bv_small = pullback_bv(phi, bv_big)
    assert (bv_small.S - S).is_zero()
    assert (bv_small.sigma[0][0] - const(1, 1)).is_zero()
    assert validate_bv(bv_small).ok


def test_pullback_identity_fixed_point():
    x1, x2 = var(2, 0), var(2, 1)
    S = x1 * x1 * x1 - x1 * x2
    bv = canonical_dcrit_bv(S)
    qs = dcrit(S)
    from homotopylie.qs import identity_morphism

    bv2 = pullback_bv(identity_morphism(qs), bv)
    assert (bv2.S - bv.S).is_zero()
    for a in range(2):
        for i in range(2):
            assert (bv2.sigma[a][i] - bv.sigma[a][i]).is_zero()


# -------------------------------------------------------- effective action

def test_effective_action_boxplus():
    z1, z2 = var(2, 0), var(2, 1)
    S = z1 * z1 + z2 * z2 * z2
    sp = morse_thom_split(S)
    eff = effective_action(sp)
    assert (eff - (z1 * z1 + z2 * z2 * z2)).is_zero()


# ------------------------------------------------------ metric structures

def test_metric_vanishing_on_gauge_directions():
    x2 = var(2, 1)
    alg = QsSpace(2, 2, [x2, MultiPoly.zero(2, QQ)]).to_linfty()
    good = MetricStructure(QQ, [[F(0), F(1)], [F(1), F(0)]])
    bad = MetricStructure(QQ, [[F(1), F(0)], [F(0), F(1)]])
    assert metric_vanishes_on_gauge_directions(good, alg)[0]
    assert not metric_vanishes_on_gauge_directions(bad, alg)[0]


def test_restrict_metric_density_scaling():
    ms = MetricStructure(QQ, [[F(1), F(0)], [F(0), F(1)]])
    _, vol = restrict_metric(ms, [[F(1), F(0)], [F(0), F(1)]])
    assert vol.density == 1 and vol.exact
    _, vol2 = restrict_metric(ms, [[F(2), F(0)], [F(0), F(1)]])
    assert vol2.density == 2


def test_restrict_metric_float_degrade():
    ms = MetricStructure(QQ, [[F(2), F(0)], [F(0), F(1)]])
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        _, vol = restrict_metric(ms, [[F(1), F(0)]])
        assert not vol.exact
        assert any("square root" in str(x.message) for x in w)


def test_volume_pullback_identity_and_sign():
    vol_fiber = VolumeForm(None, F(3), True)
    vol_base = VolumeForm(None, F(5), True)
    vol_total = VolumeForm(None, F(15), True)
    assert check_volume_pullback(QQ, F(1), vol_total, vol_fiber, vol_base)
    flipped = VolumeForm(None, F(-3), True)
    assert not check_volume_pullback(QQ, F(1), vol_total, flipped, vol_base)


# ----------------------------------------------------------- orientation

def test_orientable_tree():
    fibers = [F(4), F(9), F(25)]
    transitions = {(0, 1): F(3, 2), (1, 2): F(-5, 3)}
    ok, section = check_bv_orientable(OrientationCocycle(3, fibers, transitions))
    assert ok and section == [(2, 1), (3, 1), (-5, 1)]
    for (i, j), t in transitions.items():
        assert t * section[i][0] == section[j][0]


def test_three_cycle_holonomy_not_orientable():
    fibers = [F(1), F(1), F(1)]
    transitions = {(0, 1): F(1), (1, 2): F(1), (2, 0): F(-1)}
    ok, cyc = check_bv_orientable(OrientationCocycle(3, fibers, transitions))
    assert not ok
    assert set(cyc) <= {0, 1, 2} and len(cyc) >= 3


def test_single_vertex_orientable():
    ok, section = check_bv_orientable(OrientationCocycle(1, [F(7)], {}))
    assert ok and section == [(1, 7)]


@st.composite
def rational_cocycles(draw):
    """Cocycles of up to five vertices, one edge per pair of vertices at
    most: per component a root fiber f_r (a rational square, minus one,
    or neither) and fibers c_v^2 f_r, tree edges in either direction with
    transitions c_w / c_v, some of them flipped or doubled, and maybe one
    closing edge (0, n - 1)."""
    q = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    n = draw(st.integers(1, 5))
    c = [draw(q) for _ in range(n)]
    fr = [draw(st.one_of(q.map(lambda x: x * x), q.map(lambda x: -x * x), q)) for _ in range(n)]
    top, edges = list(range(n)), {}
    for w in range(1, n):
        if draw(st.booleans()):
            continue  # w starts a component of its own
        v = draw(st.integers(0, w - 1))
        top[w] = top[v]
        edges[(v, w)] = c[w] / c[v]
    if n > 2 and (0, n - 1) not in edges:
        edges[(0, n - 1)] = c[n - 1] / c[0]
    transitions = {}
    for (v, w), t in edges.items():
        t *= draw(st.sampled_from([1, 1, 1, -1, 2]))
        if draw(st.booleans()):
            transitions[(v, w)] = t
        else:
            transitions[(w, v)] = 1 / t
    return OrientationCocycle(n, [c[v] * c[v] * fr[top[v]] for v in range(n)], transitions)


def _transition(oc, v, w):
    """The transition from v to w along their edge."""
    t = oc.transitions.get((v, w))
    return t if t is not None else 1 / oc.transitions[(w, v)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(oc=rational_cocycles())
def test_the_exact_walk_gives_a_section_or_a_witness(oc):
    ok, data = check_bv_orientable(oc)
    f = oc.fiber_values
    if ok:
        for (c, d), fv in zip(data, f):
            assert c * c * d == fv
        for (i, j), t in oc.transitions.items():
            assert data[j][0] == t * data[i][0] and data[i][1] == data[j][1]
        return
    # every step of the witness is an edge
    ts = [_transition(oc, v, w) for v, w in zip(data, data[1:])]
    v, w = data[-2], data[-1]
    if ts[-1] * ts[-1] * f[v] != f[w]:
        return  # it ends at an edge whose transition does not match its fibers
    assert len(data) >= 3 and math.prod(ts) * _transition(oc, w, data[0]) == -1
