import random

from hypothesis import given, settings, strategies as st

from homotopylie import serialize
from homotopylie.generators import (
    weighted_nilpotent_dgla,
    random_adaptable_section,
    two_degree_dgla,
)
from homotopylie.qs import dcrit
from homotopylie.transfer import minimal_model
from homotopylie.bv import canonical_dcrit_bv, validate_bv, OrientationCocycle
from homotopylie.polynomial import MultiPoly
from homotopylie.scalars import QQ
from fractions import Fraction


def _alg_eq(a, b):
    if a.space.dims != b.space.dims or set(a.sops) != set(b.sops):
        return False
    return all(a.sops[k].eq(b.sops[k]) for k in a.sops)


def test_algebra_round_trip():
    rng = random.Random(5)
    for _ in range(4):
        alg = weighted_nilpotent_dgla(rng)
        text = serialize.dumps("linfty_algebra", serialize.algebra_payload(alg))
        kind, payload = serialize.loads(text, "linfty_algebra")
        back = serialize.algebra_from_payload(payload)
        assert _alg_eq(alg, back)


def test_morphism_round_trip():
    rng = random.Random(8)
    alg = weighted_nilpotent_dgla(rng)
    tr = minimal_model(alg, arity_out=3)
    for mor in (tr.inclusion, tr.projection):
        text = serialize.dumps("linfty_morphism", serialize.morphism_payload(mor))
        _, payload = serialize.loads(text)
        back = serialize.morphism_from_payload(payload)
        assert _alg_eq(mor.source, back.source)
        assert _alg_eq(mor.target, back.target)
        assert set(mor.components) == set(back.components)
        for k in mor.components:
            assert mor.components[k].eq(back.components[k])


def test_section_round_trip():
    rng = random.Random(12)
    qs = random_adaptable_section(rng)
    text = serialize.dumps("qs_section", serialize.section_payload(qs))
    _, payload = serialize.loads(text)
    back = serialize.section_from_payload(payload)
    assert back.nvars == qs.nvars and back.rank == qs.rank
    assert all(p == q for p, q in zip(back.section, qs.section))


def test_bv_round_trip():
    x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
    S = x1 * x1 * x1 - x1 * x2
    bv = canonical_dcrit_bv(S)
    text = serialize.dumps("bv_data", serialize.bv_payload(bv))
    _, payload = serialize.loads(text)
    back = serialize.bv_from_payload(payload)
    assert validate_bv(back).ok
    assert back.S == bv.S


def test_cocycle_round_trip():
    oc = OrientationCocycle(
        3,
        [Fraction(4), Fraction(9), Fraction(25)],
        {(0, 1): Fraction(3, 2), (1, 2): Fraction(5, 3)},
    )
    text = serialize.dumps("orientation_cocycle", serialize.cocycle_payload(oc))
    _, payload = serialize.loads(text)
    back = serialize.cocycle_from_payload(payload)
    assert back.fiber_values == oc.fiber_values
    assert back.transitions == oc.transitions


def test_dumps_deterministic():
    rng = random.Random(5)
    alg = weighted_nilpotent_dgla(rng)
    a = serialize.dumps("linfty_algebra", serialize.algebra_payload(alg))
    b = serialize.dumps("linfty_algebra", serialize.algebra_payload(alg))
    assert a == b
    kind, payload = serialize.loads(a)
    c = serialize.dumps(kind, serialize.algebra_payload(serialize.algebra_from_payload(payload)))
    assert c == a


def _random_potential(rng):
    """A potential in 2-3 variables with terms of degree 2-4."""
    n = rng.randint(2, 3)
    S = MultiPoly.zero(n, QQ)
    for _ in range(rng.randint(1, 5)):
        e = [0] * n
        for _ in range(rng.randint(2, 4)):
            e[rng.randrange(n)] += 1
        S = S + MultiPoly(n, QQ, {tuple(e): Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
    return S


TOWERS = {
    "two_degree_dgla": lambda rng: two_degree_dgla(rng, n1=rng.randint(1, 4), n2=rng.randint(1, 3)),
    "weighted_nilpotent_dgla": weighted_nilpotent_dgla,
    "dcrit": lambda rng: dcrit(_random_potential(rng)).to_linfty(),
}


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(TOWERS)), seed=st.integers(0, 10**6))
def test_random_towers_round_trip_byte_identically(family, seed):
    alg = TOWERS[family](random.Random(seed))
    text = serialize.dumps("linfty_algebra", serialize.algebra_payload(alg))
    _, payload = serialize.loads(text, "linfty_algebra")
    back = serialize.algebra_from_payload(payload)
    assert back.space.dims == alg.space.dims
    assert {k: op.entries for k, op in back.sops.items()} == {k: op.entries for k, op in alg.sops.items()}
    assert serialize.dumps("linfty_algebra", serialize.algebra_payload(back)) == text
