"""mc_geometry: float Maurer-Cartan geometry through the public API.

Towers are prepared in set-up and passed as exact algebras, the way the
API and the acceptance tests use them, so every call converts the tower
and rebuilds its dense form.  The jobs exercise the float kernels: the
dense tower, tensordot, Gauss-Newton, RK4 and edge shooting.  The exact
word layer does not run in the timed phase.

The nerve job runs on fixed inputs (not on --seed): it fails every time
today, and its failure share must not depend on the seed.
"""

from __future__ import annotations

import random

import numpy as np

from homotopylie import QQ, mc, transfer
from homotopylie.generators import GL2, lambda_dgla, read_mat
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import dcrit

from .. import checks
from ..harness import Job, KnownFault

NERVE_FAULT = KnownFault("build_nerve never joins gauge-equivalent vertices (mc._shoot_edge step)",
                         "are not joined")
MC_TOL = 1e-12
SLACK = 1e-11  # recomputing a residual in another summation order


def commuting_pair(rng, scale=0.5):
    """(A, B) with [A, B] = 0, so A theta1 + B theta2 is MC in lambda_dgla."""
    A = np.array([[rng.uniform(-scale, scale) for _ in range(2)] for _ in range(2)])
    B = rng.uniform(-1, 1) * A + rng.uniform(-scale, scale) * np.eye(2)
    return A, B


def gl2(rng, scale=1.0):
    return np.array([[rng.uniform(-scale, scale) for _ in range(2)] for _ in range(2)])


def embed(alg, mats):
    """Float vector with 2x2 matrix coefficients at the given words."""
    out = {}
    for word, X in mats.items():
        for m, (a, b) in enumerate(GL2):
            if X[a][b]:
                out[alg._idx_of[(word, m)]] = complex(X[a][b])
    return out


def dcrit_tower(rng, nvars):
    """dCrit of a potential with a nondegenerate quadratic part and terms
    up to degree 6 (native arity 5), seeded coefficients."""
    z = [MultiPoly.variable(nvars, i, QQ) for i in range(nvars)]
    S = MultiPoly.zero(nvars, QQ)
    for zi in z:
        S = S + zi * zi * QQ.coerce(rng.randint(1, 3))
    for term in (z[0] * z[1] * z[2], z[3] ** 4, z[4] ** 6, z[0] * z[0] * z[nvars - 1] ** 4):
        S = S + term * QQ.coerce(rng.choice((1, 2, -1)))
    return dcrit(S).to_linfty()


def normal_seeds(rng, alg, count, scale):
    idx = alg.space.indices_of_degree(1)
    return [{i: complex(rng.gauss(0.0, scale)) for i in idx} for _ in range(count)]


def _vec_digest(v):
    return tuple(sorted(v.items()))


def _path_digest(path):
    return (tuple(path.times), tuple(_vec_digest(s) for s in path.samples), path.ok)


# Outputs are kept for checking after the timed phase.  Results of exact
# algebras hold the float algebra and its dense tower (tens of MB), so
# keep only the numbers; otherwise peak_rss_mb would measure the harness.

def _solutions(elements):
    return [(m.converged, m.vector) for m in elements]


def _bare_path(path):
    return mc.GaugePath(None, path.times, path.samples, path.eta_samples, path.ok)


def _nerve(graph):
    return [v.vector for v in graph.vertices], [(i, j) for i, j, _ in graph.edges]


def nerve_inputs(lam):
    """Three vertices of lambda_dgla and the endpoints of their flows
    along known gauge parameters: three gauge-equivalent pairs."""
    rng = random.Random(0)
    seeds, pairs = [], []
    for _ in range(3):
        A, B = commuting_pair(rng)
        v = embed(lam, {(1,): A, (2,): B})
        eta = embed(lam, {(): gl2(rng, 0.4)})
        end = mc.gauge_flow(lam, v, eta, step=0.02).end
        seeds += [v, end]
        pairs.append((v, end))
    return seeds, pairs


def setup(seed, workdir):
    rng = random.Random(seed)
    lam = lambda_dgla()
    cpl = lambda_dgla(coupled=True)
    res = transfer.minimal_model(cpl, arity_out=3)
    small = res.small
    d5, d6 = dcrit_tower(rng, 5), dcrit_tower(rng, 6)
    mcs = {id(a): checks.SparseMC.of(a) for a in (lam, cpl, small, d5, d6)}

    def solve_job(name, alg, seeds):
        mcf = mcs[id(alg)]
        return Job(
            name,
            lambda prev: [mc.solve_mc(alg, s, tol=MC_TOL) for s in seeds],
            lambda out: checks.check_mc_points(mcf, out, MC_TOL + SLACK, (len(seeds) + 1) // 2),
            digest=lambda out: tuple((ok, _vec_digest(x)) for ok, x in out),
            collect=_solutions,
        )

    lam_seeds = []
    for _ in range(16):
        A, B = commuting_pair(rng)
        v = embed(lam, {(1,): A, (2,): B})
        lam_seeds.append({i: c + rng.gauss(0.0, 0.05) for i, c in v.items()})

    jobs = [
        solve_job("solve_lambda", lam, lam_seeds),
        solve_job("solve_coupled", cpl, normal_seeds(rng, cpl, 16, 0.1)),
        solve_job("solve_minimal", small, normal_seeds(rng, small, 16, 0.1)),
        solve_job("solve_dcrit5", d5, normal_seeds(rng, d5, 2, 0.2)),
        solve_job("solve_dcrit6", d6, normal_seeds(rng, d6, 1, 0.2)),
    ]

    # flows with a closed form: conjugation of every matrix coefficient
    def flow_job(name, alg, mats):
        eta = gl2(rng)
        start = embed(alg, mats)
        eta_v = embed(alg, {(): eta})
        mcf = mcs[id(alg)]

        def check(path):
            checks.check_flow_endpoint(lambda w, v: read_mat(alg, w, v), path.end, mats, eta, 1e-9)
            checks.check_path_residual(mcf, path.samples, 1e-8)

        return Job(name, lambda prev: mc.gauge_flow(alg, start, eta_v, step=1e-3), check,
                   digest=_path_digest, collect=_bare_path)

    A, B = commuting_pair(rng)
    jobs.append(flow_job("flow_lambda", lam, {(1,): A, (2,): B}))
    A, B = commuting_pair(rng)
    # d(A theta1) = A e2 = d(A e1): A theta1 - A e1 + B theta2 is MC
    jobs.append(flow_job("flow_coupled", cpl, {(1,): A, ("e1",): -A, (2,): B}))

    # a flow on the minimal model, pushed through the transfer inclusion
    m0 = mc.solve_mc(small, normal_seeds(rng, small, 1, 0.1)[0], tol=MC_TOL)
    while not m0.converged:
        m0 = mc.solve_mc(small, normal_seeds(rng, small, 1, 0.1)[0], tol=MC_TOL)
    eta_small = {i: complex(rng.gauss(0.0, 0.5)) for i in small.space.indices_of_degree(0)}
    jobs.append(Job(
        "flow_minimal",
        lambda prev: mc.gauge_flow(small, m0.vector, eta_small, step=1e-3),
        lambda path: checks.check_path_residual(mcs[id(small)], path.samples, 1e-6),
        digest=_path_digest,
        collect=_bare_path,
    ))
    jobs.append(Job(
        "pushforward",
        lambda prev: mc.pushforward_path(res.inclusion, prev["flow_minimal"]),
        lambda path: checks.check_path_residual(mcs[id(cpl)], path.samples, 1e-8),
        digest=_path_digest,
        collect=_bare_path,
    ))

    nerve_seeds, pairs = nerve_inputs(lam)
    jobs.append(Job(
        "nerve_lambda",
        lambda prev: mc.build_nerve(lam, nerve_seeds),
        lambda g: checks.check_nerve(mcs[id(lam)], g[0], g[1], pairs, 1e-8),
        digest=lambda g: (tuple(_vec_digest(v) for v in g[0]), tuple(g[1])),
        collect=_nerve,
        known_fault=NERVE_FAULT,
    ))
    return jobs
