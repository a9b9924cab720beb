"""exact_transfer: `transfer.minimal_model` on exact towers.

HPL on words is where the program hits a wall: most of the time goes to
`words.symmetrized_homotopy` and to Fraction arithmetic.  The inputs mix
dgla towers (two_degree_dgla, lambda_dgla) and towers with native higher
operations (dCrit of potentials), so a new transfer engine has to win on
both.  No float code runs.

Random two_degree_dgla towers differ in cost by up to 5x between
generator seeds, which no run of a few rounds can average out.  Their
generator seeds are therefore fixed per slot, and --seed presents each in
a seeded signed basis (see `common.sign_presented`).  The potentials'
coefficients come from --seed directly.
"""

from __future__ import annotations

import random

from homotopylie import QQ, transfer
from homotopylie.generators import lambda_dgla, two_degree_dgla
from homotopylie.graded import ChainComplex
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import dcrit

from .. import checks
from ..harness import Job
from .common import nonzero, ops_digest, sign_presented

# (label, two_degree_dgla generator seed, n1, arity)
DGLA_SLOTS = [("dgla6_a4_s1", 1, 6, 4), ("dgla6_a4_s3", 3, 6, 4), ("dgla4_a5_s2", 2, 4, 5)]


def reduced_potential(rng):
    """q(z1, z2) + f(z3) with q a nondegenerate diagonal quadratic form
    and f = a3 w^3 + a4 w^4 + a5 w^5; native arity 4."""
    z1, z2, z3 = (MultiPoly.variable(3, i, QQ) for i in range(3))
    coeffs = {m: nonzero(rng) for m in (3, 4, 5)}
    S = z1 * z1 * QQ.coerce(nonzero(rng)) + z2 * z2 * QQ.coerce(nonzero(rng))
    for m, a in coeffs.items():
        S = S + (z3 ** m) * QQ.coerce(a)
    return S, coeffs


def four_variable_potential(rng):
    """Quadratic in z1, z2, cubic and quartic terms on a fixed support
    with seeded coefficients: a two-variable minimal model."""
    z = [MultiPoly.variable(4, i, QQ) for i in range(4)]
    monos = [
        z[0] * z[0], z[1] * z[1],
        z[2] ** 3, z[3] ** 3, z[0] * z[2] * z[3], z[1] * z[2] * z[2],
        z[2] * z[2] * z[3] * z[3], z[3] ** 4, z[0] * z[0] * z[2] * z[2],
    ]
    S = MultiPoly.zero(4, QQ)
    for m in monos:
        S = S + m * QQ.coerce(nonzero(rng))
    return S


def _retract(alg):
    cc = ChainComplex(alg.space, alg.twisted_differential({}), check=False)
    return transfer.splitting_to_retract(transfer.standard_splitting(cc))


def _digest(tr):
    return (tuple(sorted(tr.small.space.dims.items())),
            ops_digest(tr.small.sops, tr.inclusion.components, tr.projection.components))


def _job(name, alg, arity, extra_check):
    def run(prev):
        return transfer.minimal_model(alg, arity_out=arity)

    def check(tr):
        checks.check_transfer_result(alg, tr, arity)
        extra_check(tr)

    return Job(name, run, check, digest=_digest)


def _tree_agrees(alg, arity):
    def check(tr):
        # second route for dgla inputs: the binary-tree recursion
        tree = transfer.dgla_tree_transfer(alg, _retract(alg), arity_out=arity)
        checks.check_ops_agree(tr.small.sops, tree, arity)

    return check


def setup(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for label, gen_seed, n1, arity in DGLA_SLOTS:
        alg = sign_presented(two_degree_dgla(random.Random(gen_seed), n1=n1), rng)
        jobs.append(_job(label, alg, arity, _tree_agrees(alg, arity)))
    cpl = sign_presented(lambda_dgla(coupled=True), rng)
    jobs.append(_job("lambda_coupled_a3", cpl, 3, _tree_agrees(cpl, 3)))
    for t in range(2):
        S, coeffs = reduced_potential(rng)
        alg = dcrit(S).to_linfty()
        jobs.append(_job("reduced_a5_%d" % t, alg, 5,
                         lambda tr, c=coeffs: checks.check_reduced_potential(tr.small, c)))
    alg = dcrit(four_variable_potential(rng)).to_linfty()
    jobs.append(_job("quartic4_a4", alg, 4, lambda tr: None))
    return jobs
