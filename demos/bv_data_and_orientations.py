"""Verifying BV data and determinant-line orientations.

The canonical BV package of a potential passes the verifier; corrupting
any one of the triangle, gauge or quasi-isomorphism conditions is
detected with the matching witness class.  Orientation cocycles on chart
graphs admit a global square-root section exactly when every edge matches
its fibers and every cycle has trivial holonomy; the section is exact,
rational coefficients times the root of one radicand per component.
"""

from fractions import Fraction

from homotopylie import QQ
from homotopylie.polynomial import MultiPoly
from homotopylie.bv import (
    canonical_dcrit_bv,
    validate_bv,
    OrientationCocycle,
    check_bv_orientable,
)
from homotopylie.generators import brst_circle


def written_out(section):
    """A section s_v = c_v sqrt(d_v) as the list of its terms."""
    return ", ".join("%s sqrt(%s)" % (c, d) for c, d in section)


x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
bv = canonical_dcrit_bv(x1 ** 3 - x1 * x2)
print("canonical data:", validate_bv(bv))

bad = canonical_dcrit_bv(x1 ** 3 - x1 * x2)
bad.sigma[0][1] = bad.sigma[0][1] + x1
print("corrupted bundle map:", validate_bv(bad))

rot = brst_circle()
print("circle action on the plane:", validate_bv(rot, window=(0, 2)))
wrong = brst_circle(rho=((0, 1), (1, 0)))
print("non-symmetry generator:", validate_bv(wrong, window=(0, 2)))

tree = OrientationCocycle(
    3,
    [Fraction(4), Fraction(9), Fraction(25)],
    {(0, 1): Fraction(3, 2), (1, 2): Fraction(5, 3)},
)
ok, section = check_bv_orientable(tree)
print("tree cocycle orientable:", ok, "section:", written_out(section))

# fibers that are not rational squares keep an exact section:
# (sqrt 2, 2 sqrt 2), the root of the first fiber times rationals
non_square = OrientationCocycle(2, [Fraction(2), Fraction(8)], {(0, 1): Fraction(2)})
ok, section = check_bv_orientable(non_square)
print("non-square cocycle orientable:", ok, "section:", written_out(section))

loop = OrientationCocycle(
    3,
    [Fraction(1)] * 3,
    {(0, 1): Fraction(1), (1, 2): Fraction(1), (0, 2): Fraction(-1)},
)
ok, cycle = check_bv_orientable(loop)
print("odd holonomy loop orientable:", ok, "violating cycle:", cycle)
