import random
import time
import warnings
from fractions import Fraction
from itertools import product
from math import factorial as fact

import numpy as np
import pytest

from homotopylie import QQ
from homotopylie.bv import extend_by_contractible_bv
from homotopylie.graded import GradedSpace, GradedMap
from homotopylie.multilinear import MultiLinearOp
from homotopylie.linfty import LInftyAlgebra
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import QsSpace, dcrit
from homotopylie.transfer import minimal_model
from homotopylie.generators import (
    GL2,
    brst_circle,
    lambda_dgla,
    mat_vec,
    weighted_nilpotent_dgla,
    read_mat,
    expm2,
)
from homotopylie.mc import (
    solve_mc,
    gauge_flow,
    pushforward_path,
    build_nerve,
    to_float_algebra,
    vec_dist,
    OmegaModel,
    homotopy_gauge_action,
    _sparse_tower,
    _affine_apply,
    _affine_power,
    _constant_flow,
    _rk4_map,
    _rk4_step,
)
from homotopylie import mc


def F(*a):
    return Fraction(*a)


# ------------------------------------------------ gl2-coefficient dglas

def test_lambda_dgla_is_a_dgla():
    assert lambda_dgla().validate(3).ok
    assert lambda_dgla(coupled=True).validate(3).ok


def test_flow_matches_conjugation_and_conserves_mc():
    alg = lambda_dgla()
    X1 = [[0, 1], [0, 0]]
    X2 = [[0, 2], [0, 0]]  # commutes with X1: genuine MC point
    gamma0 = {**mat_vec(alg, (1,), X1), **mat_vec(alg, (2,), X2)}
    Hm = [[1, 0], [0, -1]]
    eta = mat_vec(alg, (), Hm)
    path = gauge_flow(alg, gamma0, eta, step=1e-3, n_samples=201)
    assert path.max_mc_residual() < 1e-6
    # closed form: both components conjugated, gamma(t) = e^{-t eta} g0 e^{t eta}
    E = expm2(np.array(Hm, dtype=complex), -1.0)
    Einv = expm2(np.array(Hm, dtype=complex), 1.0)
    for w, X in (((1,), X1), ((2,), X2)):
        want = E @ np.array(X, dtype=complex) @ Einv
        got = read_mat(alg, w, path.end)
        assert np.max(np.abs(got - want)) < 1e-8
    assert path.max_ode_defect() < 1e-3


def test_rk4_order():
    alg = lambda_dgla()
    gamma0 = mat_vec(alg, (1,), [[0, 1], [1, 0]])
    eta = mat_vec(alg, (), [[1, 2], [0, -1]])
    Hm = np.array([[1, 2], [0, -1]], dtype=complex)
    E, Einv = expm2(Hm, -1.0), expm2(Hm, 1.0)
    want = E @ np.array([[0, 1], [1, 0]], dtype=complex) @ Einv
    errs = []
    for step in (0.05, 0.025):
        p = gauge_flow(alg, gamma0, eta, step=step)
        errs.append(np.max(np.abs(read_mat(alg, (1,), p.end) - want)))
    factor = errs[0] / errs[1]
    assert 12 <= factor <= 20, factor


def test_reverse_flow_returns():
    alg = lambda_dgla()
    gamma0 = mat_vec(alg, (1,), [[1, 1], [0, -1]])
    eta = mat_vec(alg, (), [[0, 1], [1, 0]])
    fwd = gauge_flow(alg, gamma0, eta, step=1e-3)
    back = gauge_flow(alg, fwd.end, {i: -c for i, c in eta.items()}, step=1e-3)
    assert vec_dist(back.end, gauge_flow(alg, gamma0, eta, step=1).start) < 1e-8


def max_sample_gap(a, b):
    """The largest difference of two lists of samples, relative to the
    largest sample entry of the first (at least 1)."""
    scale = max(1.0, max(vec_max_norm(s) for s in a))
    return max(vec_dist(x, y) for x, y in zip(a, b)) / scale


def stepwise_flow(alg, mu, eta, step):
    """Oracle for `gauge_flow` with its default 11 samples: (times,
    samples, eta samples) of one classical RK4 step at a time on the
    anchor at eta, sampled at the marks of `gauge_flow`, every
    n_steps // 10 steps and at the last."""
    alg = to_float_algebra(alg)
    tower = _sparse_tower(alg)
    E = mc._to_dense(tower.n, eta)[None]
    anchor = tower.anchor(E)
    n_steps = max(1, int(round(1.0 / step)))
    h = 1.0 / n_steps
    every = max(1, n_steps // 10)
    G = mc._to_dense(tower.n, mu)[None]
    times, samples = [0.0], [mc._to_dict(G[0])]
    for s in range(n_steps):
        G = _rk4_step(lambda g: -anchor(g), G, h)
        if (s + 1) % every == 0 or s + 1 == n_steps:
            times.append(s * h + h)
            samples.append(mc._to_dict(G[0]))
    return times, samples, [mc._to_dict(E[0]) for _ in times]


def test_constant_eta_flows_like_the_stepwise_oracle():
    # the BRST circle has a bracket of arity 3, so its flow steps
    alg = brst_circle().algebra
    V = alg.space
    gamma0 = {V.index(1, 0): 1.0 + 0j, V.index(1, 1): 0.2 + 0j}
    eta = {V.index(0, 0): 0.7 + 0j}
    path = gauge_flow(alg, gamma0, eta, step=0.01)
    times, samples, etas = stepwise_flow(alg, gamma0, eta, 0.01)
    assert path.times == times and path.samples == samples and path.eta_samples == etas
    # on a dgla the flow takes powers of the step map, the oracle steps:
    # the same method, rounded differently
    alg = lambda_dgla(coupled=True)
    gamma0 = mat_vec(alg, (1,), [[1, 1], [0, -1]])
    eta = mat_vec(alg, (), [[0, 1], [1, 0]])
    path = gauge_flow(alg, gamma0, eta, step=0.01)
    times, samples, etas = stepwise_flow(alg, gamma0, eta, 0.01)
    assert path.times == times and path.eta_samples == etas
    assert max_sample_gap(path.samples, samples) <= 1e-12


def nilpotent_dgla_with_d_eta():
    """A dgla whose differential is nonzero on degree 0, so that the step
    map of a constant gauge parameter has a translation part q."""
    return weighted_nilpotent_dgla(random.Random(4))


def test_a_flow_with_a_remainder_samples_at_the_stepwise_times():
    # 143 steps with a sample every 14: ten powers of 14 steps, then 3
    alg = lambda_dgla(coupled=True)
    nil = nilpotent_dgla_with_d_eta()
    flows = [
        (alg, mat_vec(alg, (1,), [[1, 1], [0, -1]]), mat_vec(alg, (), [[0, 1], [1, 0]])),
        (nil, {}, {i: 0.5 + 0.25j * i for i in nil.space.indices_of_degree(0)}),
    ]
    for alg, gamma0, eta in flows:
        path = gauge_flow(alg, gamma0, eta, step=0.007)
        times, samples, etas = stepwise_flow(alg, gamma0, eta, 0.007)
        assert len(path.times) == 12 and path.times == times
        assert path.eta_samples == etas
        assert vec_max_norm(path.end) > 0.1
        assert max_sample_gap(path.samples, samples) <= 1e-12


def test_anchor_lands_in_kernel_of_twisted_differential():
    alg = lambda_dgla()
    mu = {**mat_vec(alg, (1,), [[0, 1], [0, 0]]), **mat_vec(alg, (2,), [[0, 3], [0, 0]])}
    assert alg.mc_residual(mu) == 0
    d_mu = alg.twisted_differential(mu)
    for src, vec in alg.anchor(mu).items():
        assert all(QQ.is_zero(c) for c in d_mu.apply(vec).values())


# ------------------------------------------------- float kernel oracle

def dense_tensors(alg):
    """Oracle for the sparse plan: every one of the n^k input tuples of
    arity k through eval_basis, as an n^(k+1) tensor."""
    n = alg.space.total_dim
    tensors = {}
    for k, op in alg.sops.items():
        T = np.zeros((n,) * k + (n,), dtype=complex)
        for tup in product(range(n), repeat=k):
            for o, c in op.eval_basis(tup).items():
                T[tup + (o,)] = complex(c)
        tensors[k] = T
    return tensors


def contract(T, vectors):
    """Contract the first len(vectors) input slots of T."""
    for v in vectors:
        T = np.tensordot(v, T, axes=(0, 0))
    return T


def dense_kernels(tensors, g, e):
    """The MC function, its Jacobian (out, in) and the anchor rate at g
    applied to e, from the dense tensors."""
    mc = sum(contract(T, [g] * k) / fact(k) for k, T in tensors.items())
    jac = sum(contract(T, [g] * (k - 1)).T / fact(k - 1) for k, T in tensors.items())
    anchor = sum(contract(T, [e] + [g] * (k - 1)) / fact(k - 1) for k, T in tensors.items())
    return mc, jac, anchor


def dcrit_arity5(nvars):
    """dCrit of a potential with a nondegenerate quadratic part and terms
    up to degree 6, so native arity 5."""
    z = [MultiPoly.variable(nvars, i, QQ) for i in range(nvars)]
    S = z[0] * z[1] * z[2] - z[3] ** 4 + z[0] * z[0] * z[nvars - 1] ** 4 * QQ.coerce(2)
    S = S + z[1] ** 6 * QQ.coerce(-1) + z[2] * z[3] ** 5
    for i, zi in enumerate(z):
        S = S + zi * zi * QQ.coerce(i % 3 + 1)
    return dcrit(S).to_linfty()


def _potential(n, make):
    return make(*(MultiPoly.variable(n, i, QQ) for i in range(n)))


# the five nerve fixtures of c09 first
ORACLE_TOWERS = {
    "lambda coupled": lambda: lambda_dgla(coupled=True),
    "lambda": lambda_dgla,
    "dcrit x1^3 - x1 x2": lambda: dcrit(_potential(2, lambda x1, x2: x1 ** 3 - x1 * x2)).to_linfty(),
    "dcrit z1^2 + z2^2 + z3^3 + z3^4": lambda: dcrit(
        _potential(3, lambda z1, z2, z3: z1 * z1 + z2 * z2 + z3 ** 3 + z3 ** 4)
    ).to_linfty(),
    "u^3 + u^4 plus contractible": lambda: extend_by_contractible_bv(
        _potential(1, lambda u: u ** 3 + u ** 4), 2
    )[1].to_linfty(),
    "lambda coupled, minimal model": lambda: minimal_model(
        lambda_dgla(coupled=True), arity_out=3
    ).small,
    "brst circle": lambda: brst_circle().algebra,
    "dcrit, 4 variables, arity 5": lambda: dcrit_arity5(4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_TOWERS))
def test_sparse_kernels_match_the_dense_oracle(name):
    alg = to_float_algebra(ORACLE_TOWERS[name]())
    tower = _sparse_tower(alg)
    tensors = dense_tensors(alg)
    n = alg.space.total_dim
    deg0 = list(alg.space.indices_of_degree(0))
    rng = np.random.default_rng(17)
    for _ in range(3):
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        e = np.zeros(n, dtype=complex)
        e[deg0] = rng.normal(size=len(deg0)) + 1j * rng.normal(size=len(deg0))
        got = (tower.mc(g), tower.derivative(g), tower.anchor(e)(g))
        for what, a, b in zip(("mc", "derivative", "anchor"), got, dense_kernels(tensors, g, e)):
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, (name, what)


@pytest.mark.parametrize("name", sorted(ORACLE_TOWERS))
def test_batched_anchor_rows_equal_single_rows(name):
    alg = to_float_algebra(ORACLE_TOWERS[name]())
    tower = _sparse_tower(alg)
    n = alg.space.total_dim
    deg0 = list(alg.space.indices_of_degree(0))
    rng = np.random.default_rng(23)
    G = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    E = np.zeros((5, n), dtype=complex)
    E[:, deg0] = rng.normal(size=(5, len(deg0))) + 1j * rng.normal(size=(5, len(deg0)))
    batched = tower.anchor(E)(G)
    assert batched.shape == (5, n)
    for b in range(5):
        assert np.array_equal(batched[b], tower.anchor(E[b])(G[b])), (name, b)


@pytest.mark.parametrize("name", sorted(ORACLE_TOWERS))
def test_affine_steps_match_the_rk4_stages_and_batch_bitwise(name):
    alg = to_float_algebra(ORACLE_TOWERS[name]())
    tower = _sparse_tower(alg)
    n = alg.space.total_dim
    deg0 = list(alg.space.indices_of_degree(0))
    rng = np.random.default_rng(29)
    E = np.zeros((5, n), dtype=complex)
    E[:, deg0] = rng.normal(size=(5, len(deg0))) + 1j * rng.normal(size=(5, len(deg0)))
    G = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    h = 0.05
    if max(alg.sops) > 2:
        assert tower.affine(E) is None
    else:
        b, A = tower.affine(E)
        assert b.shape == (5, n) and A.shape == (5, n, n)
        for r in range(5):
            b1, A1 = tower.affine(E[r])
            assert np.array_equal(b[r], b1[0]) and np.array_equal(A[r], A1[0]), (name, r)
    # one step: on a dgla the step map (a power of 1 is the map itself),
    # on any other tower the four stages
    got = _constant_flow(tower, E, h)(0, 1, G)
    want = _rk4_step(lambda g: -tower.anchor(E)(g), G, h)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
    for r in range(5):
        single = _constant_flow(tower, E[r:r + 1], h)(0, 1, G[r:r + 1])
        assert np.array_equal(got[r], single[0]), (name, r)


# the oracle towers all have l_1 = 0 on degree 0, so q = 0 on them
POWER_TOWERS = {**ORACLE_TOWERS, "nilpotent dgla, d eta != 0": nilpotent_dgla_with_d_eta}


@pytest.mark.parametrize("name", sorted(POWER_TOWERS))
def test_affine_powers_match_repeated_steps_and_batch_bitwise(name):
    alg = to_float_algebra(POWER_TOWERS[name]())
    tower = _sparse_tower(alg)
    deg0 = list(alg.space.indices_of_degree(0))
    rng = np.random.default_rng(31)
    E = np.zeros((4, tower.n), dtype=complex)
    E[:, deg0] = rng.normal(size=(4, len(deg0))) + 1j * rng.normal(size=(4, len(deg0)))
    part = tower.affine(E)
    if part is None:
        return  # a bracket above arity 2: these flows step
    P, q = _rk4_map(*part, 0.01)
    one = _affine_power(P, q, 1)
    assert np.array_equal(one[0], P) and np.array_equal(one[1], q), name
    G = rng.normal(size=(4, tower.n)) + 1j * rng.normal(size=(4, tower.n))
    for m in (50, 100):
        Pm, qm = _affine_power(P, q, m)
        for r in range(4):
            single = _affine_power(P[r:r + 1], q[r:r + 1], m)
            assert np.array_equal(single[0][0], Pm[r]) and np.array_equal(single[1][0], qm[r])
        want = G
        for _ in range(m):
            want = _affine_apply((P, q), want)
        got = _affine_apply((Pm, qm), G)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, (name, m)


def test_float_conversion_is_memoized(monkeypatch):
    alg = lambda_dgla()
    algf = to_float_algebra(alg)
    assert to_float_algebra(alg) is algf
    assert to_float_algebra(algf) is algf
    built = []

    class CountedTower(mc._SparseTower):
        def __init__(self, a):
            built.append(a)
            super().__init__(a)

    monkeypatch.setattr(mc, "_SparseTower", CountedTower)
    exact = lambda_dgla(coupled=True)
    seed = {i: 0.1 + 0j for i in exact.space.indices_of_degree(1)}
    solve_mc(exact, seed)
    solve_mc(exact, seed)
    assert built == [to_float_algebra(exact)]


def test_solve_mc_on_an_arity_5_dcrit_tower_builds_no_dense_tensors():
    # built as n^(k+1) dense tensors, this 12-dimensional tower took 1.5 s
    alg = dcrit_arity5(6)
    rng = np.random.default_rng(5)
    seed = {i: complex(rng.normal() * 0.2) for i in alg.space.indices_of_degree(1)}
    t0 = time.perf_counter()
    m = solve_mc(alg, seed, tol=1e-10)
    elapsed = time.perf_counter() - t0
    assert m.converged
    assert elapsed < 0.25, elapsed


# ------------------------------------------------------------ MC solving

def cubic_tower():
    x1, x2 = MultiPoly.variable(2, 0, QQ), MultiPoly.variable(2, 1, QQ)
    S = x1 * x1 * x1 - x1 * x2
    from homotopylie.qs import dcrit

    return dcrit(S)


def test_solve_mc_lands_on_branches():
    qs = cubic_tower()
    alg = qs.to_linfty()
    V = alg.space
    hits = 0
    for a in (-1.0, -0.4, 0.3, 1.1):
        for b in (-0.8, 0.2, 0.9):
            seed = {V.index(1, 0): complex(a), V.index(1, 1): complex(b)}
            m = solve_mc(alg, seed, tol=1e-12)
            if not m.converged:
                continue
            hits += 1
            x1 = m.vector.get(V.index(1, 0), 0j)
            x2 = m.vector.get(V.index(1, 1), 0j)
            assert m.residual < 1e-12
            assert min(abs(x1), abs(x2 - x1 * x1)) < 1e-8
    assert hits >= 8


# ----------------------------------------------------------- pushforward

def test_pushforward_through_transfer_inclusion():
    big = lambda_dgla(coupled=True)
    res = minimal_model(big, arity_out=3)
    small = res.small
    assert res.inclusion.is_valid(2)
    # a flow in the transferred model, pushed into the ambient dgla
    V = small.space
    rng = np.random.default_rng(3)
    pushed = 0
    for _ in range(3):
        seed = {V.index(1, i): complex(c) for i, c in enumerate(rng.normal(size=V.dim(1)) * 0.2)}
        m = solve_mc(small, seed, tol=1e-12)
        if not m.converged:
            continue
        eta = {V.index(0, i): complex(c) for i, c in enumerate(rng.normal(size=V.dim(0)) * 0.5)}
        path = gauge_flow(small, m.vector, eta, step=1e-3)
        assert path.max_mc_residual() < 1e-8
        target_path = pushforward_path(res.inclusion, path)
        assert target_path.max_mc_residual() < 1e-8
        pushed += 1
    assert pushed >= 2


# ----------------------------------------------------------------- nerve

def test_nerve_no_gauge_directions():
    alg = cubic_tower().to_linfty()
    V = alg.space
    seeds = []
    for a in (-1.0, -0.5, 0.5, 1.0):
        for b in (-1.0, 1.0):
            seeds.append({V.index(1, 0): complex(a), V.index(1, 1): complex(b)})
    g = build_nerve(alg, seeds)
    assert not g.edges
    assert len(g.components()) == len(g.vertices)
    assert g.vertices


def flow_endpoint_seeds(alg):
    """The benchmark's nerve inputs: commuting pairs (A, B) give MC points
    A theta1 + B theta2 of lambda_dgla; their flows along a fixed eta end
    at gauge-equivalent points."""
    rng = random.Random(0)

    def uniform(scale):
        return np.array([[rng.uniform(-scale, scale) for _ in range(2)] for _ in range(2)])

    def embed(word, X):
        return {alg._idx_of[(word, m)]: complex(X[a][b]) for m, (a, b) in enumerate(GL2) if X[a][b]}

    seeds = []
    for _ in range(3):
        A = uniform(0.5)
        B = rng.uniform(-1, 1) * A + rng.uniform(-0.5, 0.5) * np.eye(2)
        v = {**embed((1,), A), **embed((2,), B)}
        seeds += [v, gauge_flow(alg, v, embed((), uniform(0.4)), step=0.02).end]
    return seeds


def test_nerve_of_flow_endpoints_raises_no_warnings():
    alg = lambda_dgla()
    seeds = flow_endpoint_seeds(alg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_nerve(alg, seeds)
    assert len(g.vertices) == 6


def test_the_shooter_integrates_each_distinct_gauge_row_once(monkeypatch):
    lam = lambda_dgla()
    alg = to_float_algebra(lam)
    vertices = [v.vector for v in build_nerve(alg, flow_endpoint_seeds(lam)).vertices]
    d = alg.space.dim(0)
    assert len(vertices) == 6 and d == 4
    rows = []

    def counted(P, q, m):
        rows.append(len(q))
        return _affine_power(P, q, m)

    monkeypatch.setattr(mc, "_affine_power", counted)
    mc._shoot_edge(alg, vertices[0], vertices[1:], 0.02)
    # five targets at eta = 0 share one base row and d bumped rows
    assert rows[0] == d + 1 < 5 * (d + 1)


def vec_max_norm(x):
    return max((abs(c) for c in x.values()), default=0.0)


def shoot_one_pair(alg, v_from, v_to, step, max_iter=12, tol=1e-6, fd=1e-6):
    """Oracle for the lockstep shooter: one pair at a time, one gauge flow
    per base and bumped parameter."""
    deg0 = alg.space.indices_of_degree(0)
    if not deg0:
        return None
    deg1 = alg.space.indices_of_degree(1)
    eta = {i: 0j for i in deg0}

    def endpoint(e):
        return gauge_flow(alg, v_from, e, step=step, n_samples=2).end

    for _ in range(max_iter):
        endp = endpoint(eta)
        r = [endp.get(i, 0j) - v_to.get(i, 0j) for i in deg1]
        if max((abs(c) for c in r), default=0.0) <= tol:
            path = gauge_flow(alg, v_from, eta, step=step)
            if path.max_mc_residual() <= 1e-5:
                return path
            return None
        J = np.zeros((len(deg1), len(deg0)), dtype=complex)
        for col, i in enumerate(deg0):
            bumped = dict(eta)
            bumped[i] = bumped.get(i, 0j) + fd
            pe = endpoint(bumped)
            for row, o in enumerate(deg1):
                J[row, col] = (pe.get(o, 0j) - endp.get(o, 0j)) / fd
        stepv, *_ = np.linalg.lstsq(J, -np.array(r), rcond=None)
        if not np.all(np.isfinite(stepv)):
            return None
        eta = {i: eta.get(i, 0j) + stepv[col] for col, i in enumerate(deg0)}
        if vec_max_norm(eta) > 1e4:
            return None
    return None


def test_nerve_of_the_brst_circle_joins_every_pair_as_the_oracle_does():
    alg = brst_circle().algebra
    V = alg.space
    seeds = [
        {V.index(1, 0): complex(1.02 * np.cos(a)), V.index(1, 1): complex(0.99 * np.sin(a))}
        for a in (0.1, 1.0, 2.0, 3.0)
    ]
    g = build_nerve(alg, seeds)
    assert len(g.vertices) == 4 and len(g.edges) == 12
    assert g.components() == [[0, 1, 2, 3]]
    want = []
    for i, vi in enumerate(g.vertices):
        for j, vj in enumerate(g.vertices):
            if i != j:
                path = shoot_one_pair(g.algebra, vi.vector, vj.vector, 0.02)
                if path is not None:
                    want.append((i, j, path))
    assert [(i, j) for i, j, _ in g.edges] == [(i, j) for i, j, _ in want]
    for (_, _, got), (_, _, ref) in zip(g.edges, want):
        # repr tells -0.0 from 0.0: the same bits, not merely equal values
        for attr in ("times", "samples", "eta_samples"):
            assert repr(getattr(got, attr)) == repr(getattr(ref, attr)), attr


def test_nerve_matches_minimal_model():
    big = lambda_dgla(coupled=True)
    res = minimal_model(big, arity_out=3)
    small = res.small
    V = small.space
    rng = np.random.default_rng(11)
    seeds_small = []
    for _ in range(4):
        seeds_small.append(
            {V.index(1, i): complex(c) for i, c in enumerate(rng.normal(size=V.dim(1)) * 0.2)}
        )
    incl_f = None
    from homotopylie.mc import to_float_morphism

    incl_f = to_float_morphism(res.inclusion)
    seeds_big = [incl_f.apply_point(s) for s in seeds_small]
    g_small = build_nerve(small, seeds_small, flow_step=0.05)
    g_big = build_nerve(big, seeds_big, flow_step=0.05)
    assert len(g_small.components()) == len(g_big.components())


# --------------------------------------------------- homotopy gauge action

def test_homotopy_gauge_action_composition():
    big = lambda_dgla()
    res = minimal_model(big, arity_out=3)
    small = res.small

    bigf = to_float_algebra(big)

    def ad(g):
        ginv = np.linalg.inv(g)
        m = GradedMap(bigf.space, bigf.space, 0)
        for w, d in ((((), 0)), (((1,), 1)), (((2,), 1)), (((1, 2), 2))):
            for mm, (a, b) in enumerate(GL2):
                X = np.zeros((2, 2), dtype=complex)
                X[a][b] = 1.0
                Y = ginv @ X @ g
                for m2, (c, dd) in enumerate(GL2):
                    if abs(Y[c][dd]) > 1e-15:
                        m.set_entry(
                            big._idx_of[(w, m2)], big._idx_of[(w, mm)], Y[c][dd]
                        )
        return m

    def trans(g):
        return {}

    from homotopylie.mc import to_float_morphism

    model = OmegaModel(
        to_float_algebra(small),
        bigf,
        to_float_morphism(res.inclusion),
        to_float_morphism(res.projection),
        ad,
        trans,
    )
    mu = {
        small.space.index(1, i): complex(c)
        for i, c in enumerate(
            to_float_morphism(res.projection)
            .apply_point(mat_vec(bigf if False else big, (1,), [[0, 1], [0, 0]]))
            .values()
        )
    }
    # simpler: project a known MC point of the big algebra
    Pf = to_float_morphism(res.projection)
    mu = Pf.apply_point(
        {k: complex(v) for k, v in mat_vec(big, (1,), [[0, 1], [0, 0]]).items()}
    )
    g1 = expm2(np.array([[0, 1], [0, 0]], dtype=complex), 0.3)
    g2 = expm2(np.array([[1, 0], [0, -1]], dtype=complex), 0.2)
    star1, phi1 = homotopy_gauge_action(model, g1, mu)
    star12, phi12 = homotopy_gauge_action(model, g2, star1)
    star_both, phi_both = homotopy_gauge_action(model, g1 @ g2, mu)
    assert vec_dist(star12, star_both) < 1e-8
    comp = phi12.compose(phi1)
    # images of a sample point agree for the composite and the one-shot action
    sample = {k: 0.1 * v for k, v in mu.items()}
    assert vec_dist(comp.apply_point(sample), phi_both.apply_point(sample)) < 1e-8
