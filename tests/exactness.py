"""Exactness guard: an exact-mode result holds no float.

`inexact_values` walks a result (operations, morphisms, graded and word
maps, polynomials, retracts, decompositions, reports, and the containers
that hold them) and lists every scalar that is not an `int`, a `Fraction`
or a `GaussianRational` with `Fraction` parts.  `assert_exact` fails on
the first few.  `assert_exact_document` does the same for a JSON document
of an exact scalar mode, where every coefficient is a string.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from homotopylie.scalars import GaussianRational, RationalField, GaussianRationalField

# flags, labels and absent values sit beside the scalars in results
_PLAIN = (bool, str, type(None))
_EXACT_FIELDS = (RationalField, GaussianRationalField)


def inexact_values(result):
    """[(path, value)] for every inexact scalar reachable from `result`."""
    found, seen = [], set()

    def walk(x, path):
        if isinstance(x, _PLAIN) or type(x) in (int, Fraction):
            return
        if isinstance(x, GaussianRational):
            if not (type(x.re) is Fraction and type(x.im) is Fraction):
                found.append((path, x))
            return
        if isinstance(x, _EXACT_FIELDS):
            return
        if id(x) in seen:
            return
        seen.add(id(x))
        if isinstance(x, dict):
            for k, v in x.items():
                walk(k, "%s key %r" % (path, k))
                walk(v, "%s[%r]" % (path, k))
        elif isinstance(x, (list, tuple, set, frozenset)):
            for i, v in enumerate(x):
                walk(v, "%s[%d]" % (path, i))
        elif hasattr(x, "__dict__") or hasattr(type(x), "__slots__"):
            names = list(getattr(x, "__dict__", {})) + list(getattr(type(x), "__slots__", ()))
            for name in names:
                walk(getattr(x, name), "%s.%s" % (path, name))
        else:
            # a float, a complex, a numpy scalar or array, a float field
            found.append((path, x))

    walk(result, "result")
    return found


def assert_exact(result):
    bad = inexact_values(result)
    assert not bad, "inexact values: %s" % "; ".join("%s = %r" % b for b in bad[:5])


_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")


def assert_exact_document(text):
    """A document of an exact scalar mode holds no JSON float, and every
    coefficient string is an integer or a reduced fraction."""

    def walk(x, path):
        if isinstance(x, float):
            raise AssertionError("JSON float %r at %s" % (x, path))
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, "%s.%s" % (path, k))
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, "%s[%d]" % (path, i))
        elif isinstance(x, str) and x and x[0] in "-0123456789":
            assert _RATIONAL.match(x), "coefficient %r at %s is not exact" % (x, path)
            if "/" in x:
                q = Fraction(x)
                assert "%d/%d" % (q.numerator, q.denominator) == x, "%r not reduced" % x

    walk(json.loads(text), "document")
