"""Helpers shared by the workloads."""

from __future__ import annotations

import hashlib
from fractions import Fraction

from homotopylie.graded import GradedMap


def sign_presented(alg, rng):
    """The same tower in a seeded basis e_i -> +-e_i.

    A diagonal +-1 change of basis keeps the sparsity and the size of
    every Fraction, so the work a job does is the same for every seed,
    while every structure constant's sign depends on the seed."""
    g = GradedMap(alg.space, alg.space, 0)
    for d in alg.space.degrees():
        n = alg.space.dim(d)
        g.blocks[d] = [[Fraction(rng.choice((1, -1))) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return alg.conjugate(g)


def nonzero(rng, lo=1, hi=3):
    return rng.choice([c for c in range(-hi, hi + 1) if abs(c) >= lo])


def ops_digest(*families):
    """Digest of operation families {arity: MultiLinearOp}."""
    h = hashlib.sha1()
    for fam in families:
        for k in sorted(fam):
            h.update(repr((k, sorted(fam[k].entries.items()))).encode())
    return h.hexdigest()
