"""The exactness contract: no float enters an exact-mode result.

Each test builds exact results from seeded random inputs and walks them
with the guard of `exactness.py`: the generators (also after a float
conversion), `minimal_model` (ops, inclusion and projection),
`strong_decomposition`, the quasi-smooth decompositions and the BV layer.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exactness import assert_exact, inexact_values
from homotopylie import QQ
from homotopylie.bv import (
    MetricStructure,
    OrientationCocycle,
    anchor_polynomials,
    canonical_dcrit_bv,
    check_bv_orientable,
    mc_polynomials,
    potential_from_symplectic,
    restrict_metric,
    validate_bv,
)
from homotopylie.generators import (
    block_perturbed_context,
    brst_circle,
    lambda_dgla,
    random_adaptable_section,
    two_degree_dgla,
    weighted_nilpotent_dgla,
)
from homotopylie.mc import to_float_algebra
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import dcrit, minimal_decomposition, morse_thom_split
from homotopylie.scalars import FloatComplexField, GaussianRational
from homotopylie.transfer import minimal_model, strong_decomposition

seeds = st.integers(0, 10**6)
# potentials in two variables: every monomial of degree 2 to 4
_MONOMIALS = [(a, d - a) for d in range(2, 5) for a in range(d + 1)]
potentials = st.lists(st.integers(-3, 3), min_size=len(_MONOMIALS), max_size=len(_MONOMIALS))


def _potential(coeffs):
    return MultiPoly(2, QQ, {e: QQ.coerce(c) for e, c in zip(_MONOMIALS, coeffs)})


def test_guard_flags_floats_and_float_fields():
    p = MultiPoly(1, QQ, {(2,): Fraction(1, 2), (1,): 3})
    assert inexact_values(p) == []
    p.terms[(0,)] = 0.5
    assert [v for _, v in inexact_values(p)] == [0.5]
    assert inexact_values({"x": [GaussianRational(1, Fraction(2, 3))]}) == []
    assert len(inexact_values(MultiPoly(1, FloatComplexField()))) == 1


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_generators_are_exact(seed):
    rng = random.Random(seed)
    assert_exact(weighted_nilpotent_dgla(rng))
    assert_exact(two_degree_dgla(rng))
    assert_exact(block_perturbed_context(rng, depth=2, max_dim=8))
    assert_exact(random_adaptable_section(rng))
    if seed % 5 == 0:
        assert_exact([lambda_dgla(), lambda_dgla(coupled=True), brst_circle()])


def test_a_tower_stays_exact_after_its_float_conversion():
    alg = lambda_dgla()
    to_float_algebra(alg)
    assert_exact(alg)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, arity=st.integers(3, 4))
def test_minimal_models_are_exact(seed, arity):
    rng = random.Random(seed)
    for alg in (weighted_nilpotent_dgla(rng), two_degree_dgla(rng, n1=3, n2=2)):
        tr = minimal_model(alg, arity_out=arity)
        assert_exact([tr.small, tr.inclusion, tr.projection, tr.context])


@settings(max_examples=10, deadline=None)
@given(coeffs=potentials)
def test_minimal_models_of_dcrit_towers_are_exact(coeffs):
    tr = minimal_model(dcrit(_potential(coeffs)).to_linfty(), arity_out=4)
    assert_exact([tr.small, tr.inclusion, tr.projection, tr.context])


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_strong_decompositions_are_exact(seed):
    alg = two_degree_dgla(random.Random(seed), n1=3, n2=2)
    assert_exact(strong_decomposition(alg))


@settings(max_examples=5, deadline=None)
@given(seed=seeds, coeffs=potentials)
def test_qs_decompositions_are_exact(seed, coeffs):
    dec = minimal_decomposition(random_adaptable_section(random.Random(seed)))
    assert_exact([dec, dec.inclusion(), dec.projection(), dec.homotopy_at(Fraction(1, 3))])
    S = _potential(coeffs)
    assert_exact([morse_thom_split(S), dcrit(S).to_linfty()])


@settings(max_examples=10, deadline=None)
@given(coeffs=potentials, roots=st.lists(st.integers(-4, 4).filter(bool), min_size=2, max_size=4))
def test_bv_layer_is_exact(coeffs, roots):
    bv = canonical_dcrit_bv(_potential(coeffs))
    alg = bv.algebra
    assert_exact([bv, mc_polynomials(alg), validate_bv(bv)])
    circle = brst_circle()
    assert_exact([mc_polynomials(circle.algebra), anchor_polynomials(circle.algebra)])
    omega = [[MultiPoly.constant(2, QQ.one if a == i else QQ.zero, QQ) for i in range(2)]
             for a in range(2)]
    assert_exact(potential_from_symplectic(alg, omega))
    # a diagonal pairing of squares has an exact volume density
    n = len(roots)
    Q = [[QQ.coerce(r * r) if i == j else QQ.zero for j in range(n)] for i, r in enumerate(roots)]
    basis = [[QQ.one if i == j else QQ.zero for j in range(n)] for i in range(n)]
    assert_exact(restrict_metric(MetricStructure(QQ, Q), basis))
    # fibers r_v^2 with transitions r_v / r_u: a tree, so orientable
    oc = OrientationCocycle(n, [r * r for r in roots],
                            {(v - 1, v): Fraction(roots[v], roots[v - 1]) for v in range(1, n)})
    ok, section = check_bv_orientable(oc)
    assert ok
    assert_exact(section)
