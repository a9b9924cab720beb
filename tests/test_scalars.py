from fractions import Fraction

import pytest

from homotopylie.scalars import QQ, QQi, GaussianRational


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
