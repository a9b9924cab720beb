from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homotopylie.scalars import QQ, QQi, FloatComplexField, GaussianRational


def test_rationals_are_ints_when_integral():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for x in (3, Fraction(3), Fraction(6, 2), "6/2"):
        assert type(QQ.coerce(x)) is int and QQ.coerce(x) == 3
    assert QQ.coerce(Fraction(-7, 2)) == Fraction(-7, 2)
    assert QQ.sqrt(Fraction(9, 1)) == 3 and type(QQ.sqrt(Fraction(9, 1))) is int
    assert QQ.sqrt(Fraction(4, 9)) == Fraction(2, 3)


def test_division_goes_through_the_field():
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert QQ.div(-7, 2) == Fraction(-7, 2)
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    assert QQi.div(1, 2) == GaussianRational(Fraction(1, 2), 0)


@pytest.mark.parametrize("x", [0.5, 2.0, True])
def test_rational_field_rejects_floats_and_bools(x):
    with pytest.raises(TypeError):
        QQ.coerce(x)


@pytest.mark.parametrize("x", [0.5, 1j, 2 + 0j])
def test_gaussian_field_rejects_floats_and_complexes(x):
    with pytest.raises(TypeError):
        QQi.coerce(x)


def test_json_form_does_not_depend_on_the_type():
    assert QQ.to_json(3) == QQ.to_json(Fraction(3)) == QQ.to_json(Fraction(6, 2)) == "3"
    assert QQ.to_json(Fraction(-7, 2)) == "-7/2"
    back = QQ.from_json("6/3")
    assert back == 2 and type(back) is int
    assert QQ.from_json("-7/2") == Fraction(-7, 2)
    assert QQi.to_json(QQi.coerce(3)) == QQi.to_json(GaussianRational(Fraction(6, 2))) == ["3", "0"]


def test_every_field_answers_the_protocol_that_generic_code_calls():
    # generic code calls eq and mag on whatever field it is given
    # (MultiLinearOp.eq and norm, LInftyMorphism.is_identity,
    # MetricStructure, the float pivot of linalg) and sqrt on every exact
    # field (bv._scalar_sqrt): a field without one fails them on it alone
    half = Fraction(1, 2)
    cases = [
        (QQ, half, -half),
        (QQi, GaussianRational(half, 1), GaussianRational(half, -1)),
        (FloatComplexField(), 0.5 + 1j, 0.5 - 1j),
    ]
    for field, a, b in cases:
        assert field.eq(a, a) and not field.eq(a, b)
        assert field.mag(field.zero) == 0 < field.mag(a)
    assert FloatComplexField().eq(1 + 0j, 1 + 1e-12j)
    assert QQi.sqrt(GaussianRational(Fraction(4, 9))) == GaussianRational(Fraction(2, 3))
    assert QQi.sqrt(GaussianRational(2)) is None and QQi.sqrt(GaussianRational(0, 4)) is None


@pytest.mark.parametrize("x, root", [
    (GaussianRational(-4), GaussianRational(0, 2)),  # (2i)^2 = -4
    (GaussianRational(0, 2), GaussianRational(1, 1)),  # (1 + i)^2 = 2i
    (GaussianRational(0, -2), GaussianRational(1, -1)),
    (GaussianRational(-3, 4), GaussianRational(1, 2)),
    (GaussianRational(Fraction(-9, 4)), GaussianRational(0, Fraction(3, 2))),
    (GaussianRational(0), GaussianRational(0)),
    (GaussianRational(0, 4), None),  # |4i| = 4, but 2 is not a square
    (GaussianRational(3), None),
])
def test_gaussian_square_roots_are_exact_and_principal(x, root):
    assert QQi.sqrt(x) == root


_rationals = st.fractions(max_denominator=50).filter(lambda q: abs(q) <= 100)


@given(re=_rationals, im=_rationals)
def test_the_gaussian_root_of_a_square_squares_back(re, im):
    z = GaussianRational(re, im)
    r = QQi.sqrt(z * z)
    assert r is not None and r * r == z * z
    assert r.re > 0 or (r.re == 0 and r.im >= 0)
    assert r == z or r == -z
