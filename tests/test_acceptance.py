"""Acceptance gate: one test per headline guarantee, with pinned
tolerances and runtime budgets.  Run with -v for one pass/fail line per
criterion."""

import json
import os
import random
import time
from fractions import Fraction

import numpy as np

from exactness import assert_exact_document
from homotopylie import QQ, serialize
from homotopylie.graded import GradedMap
from homotopylie.multilinear import MultiLinearOp
from homotopylie.linfty import LInftyAlgebra
from homotopylie import linalg
from homotopylie.polynomial import MultiPoly
from homotopylie.transfer import (
    hpl_perturb,
    homotopy_transfer,
    minimal_model,
    dgla_tree_transfer,
    splitting_to_retract,
    standard_splitting,
)
from homotopylie.graded import ChainComplex
from homotopylie.qs import QsSpace, dcrit, minimal_decomposition
from homotopylie.mc import (
    solve_mc,
    gauge_flow,
    pushforward_path,
    build_nerve,
    to_float_morphism,
)
from homotopylie.bv import (
    BVData,
    validate_bv,
    canonical_dcrit_bv,
    extend_by_contractible_bv,
    MetricStructure,
    restrict_metric,
    check_volume_pullback,
    OrientationCocycle,
    check_bv_orientable,
)
from homotopylie.generators import (
    nilpotent_tower_with_corruption,
    block_perturbed_context,
    two_degree_dgla,
    random_adaptable_section,
    rand_invertible,
    lambda_dgla,
    mat_vec,
    read_mat,
    expm2,
    brst_circle,
    GL2,
)
from homotopylie.cli import main as cli_main


def F(*a):
    return Fraction(*a)


def _entries(family):
    return {k: f.entries for k, f in family.items() if not f.is_zero()}


def _assert_same_transfer(a, b):
    """Equal operations, inclusion and projection entries, exactly."""
    assert _entries(a.small.sops) == _entries(b.small.sops)
    assert _entries(a.inclusion.components) == _entries(b.inclusion.components)
    assert _entries(a.projection.components) == _entries(b.projection.components)


def _budget(t0, limit):
    assert time.perf_counter() - t0 < limit, "over the %gs budget" % limit


def test_c01_nilpotent_towers_validate_and_corruptions_are_caught():
    t0 = time.perf_counter()
    for i in range(25):
        rng = random.Random(100 + i)
        alg, bad, loc = nilpotent_tower_with_corruption(rng)
        assert alg.space.total_dim <= 8
        assert alg.max_arity <= 4
        assert alg.validate(4).ok
        rep = bad.validate(4)
        assert not rep.ok
        assert rep.witness is not None  # located: failing word and output
        w_in, w_out, coeff = rep.witness
        assert not alg.field.is_zero(coeff)
    _budget(t0, 10.0)


def test_c02_hpl_identities_exact_on_perturbed_retracts():
    t0 = time.perf_counter()
    for i in range(25):
        rng = random.Random(200 + i)
        ctx, mu = block_perturbed_context(rng)
        assert ctx.big.space.total_dim <= 12
        pr = hpl_perturb(ctx.small.d, ctx.big.d, ctx.i, ctx.p, ctx.h, mu)
        idW = GradedMap.identity(ctx.small.space)
        idV = GradedMap.identity(ctx.big.space)
        assert (pr.d_big @ pr.i).eq(pr.i @ pr.d_small)
        assert (pr.p @ pr.d_big).eq(pr.d_small @ pr.p)
        assert (pr.p @ pr.i).eq(idW)
        assert (idV - pr.i @ pr.p).eq(pr.d_big @ pr.h + pr.h @ pr.d_big)
        assert (pr.d_small @ pr.d_small).is_zero()
    _budget(t0, 5.0)


def test_c03_transfer_valid_to_arity_4_and_tree_recursion_agrees():
    t0 = time.perf_counter()
    for i in range(8):
        rng = random.Random(300 + i)
        alg = two_degree_dgla(rng)
        tr = minimal_model(alg, arity_out=4)
        assert tr.small.validate(4).ok
        comp = tr.projection.compose(tr.inclusion, max_arity=4)
        assert comp.is_identity()
        cc = ChainComplex(alg.space, alg.twisted_differential({}), check=False)
        ctx = splitting_to_retract(standard_splitting(cc))
        hp = homotopy_transfer(alg, ctx, arity_out=4)
        _assert_same_transfer(tr, hp)
        tree = dgla_tree_transfer(alg, ctx, arity_out=3)
        for k in (2, 3):
            a = hp.small.sops.get(k)
            b = tree.get(k)
            if a is None:
                assert b is None or b.is_zero()
            else:
                assert b is not None and a.eq(b)
    _budget(t0, 60.0)


def test_c04_cubic_section_mc_solutions_land_on_the_two_branches():
    t0 = time.perf_counter()
    x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
    qs = dcrit(x1 * x1 * x1 - x1 * x2)
    alg = qs.to_linfty()
    V = alg.space
    hits = 0
    for a in np.linspace(-1.0, 1.0, 5):
        for b in np.linspace(-1.0, 1.0, 4):
            seed = {V.index(1, 0): complex(a), V.index(1, 1): complex(b)}
            m = solve_mc(alg, seed, tol=1e-13)
            if m is None or not m.converged:
                continue
            assert m.residual < 1e-12
            z1 = m.vector.get(V.index(1, 0), 0j)
            z2 = m.vector.get(V.index(1, 1), 0j)
            assert min(abs(z1), abs(z2 - z1 * z1)) < 1e-8
            hits += 1
    assert hits == 20
    dec = minimal_decomposition(qs)
    assert dec.minimal.dg_tangent().d.is_zero()
    _budget(t0, 2.0)


def test_c05_minimal_model_of_sum_matches_the_reduced_potential():
    t0 = time.perf_counter()
    z1, z2, z3 = (MultiPoly.variable(3, i, QQ) for i in range(3))
    S = z1 * z1 + z2 * z2 + z3 ** 3 + z3 ** 4
    big = dcrit(S).to_linfty()
    tr = minimal_model(big, arity_out=4)
    cc = ChainComplex(big.space, big.twisted_differential({}), check=False)
    _assert_same_transfer(
        tr, homotopy_transfer(big, splitting_to_retract(standard_splitting(cc)), arity_out=4)
    )
    w = MultiPoly.variable(1, 0, QQ)
    target = dcrit(w ** 3 + w ** 4).to_linfty()
    small = tr.small
    assert small.space.dims == target.space.dims == {1: 1, 2: 1}
    assert set(small.sops) == set(target.sops)
    sp = small.shifted_space
    e = sp.index(0, 0)
    f = sp.index(1, 0)
    # align bases: rescale e by a and f by b so every arity matches
    c2 = small.sops[2].entries[((e, e), f)]
    c3 = small.sops[3].entries[((e, e, e), f)]
    t2 = target.sops[2].entries[((e, e), f)]
    t3 = target.sops[3].entries[((e, e, e), f)]
    a = (t3 * c2) / (t2 * c3)
    b = a * a * c2 / t2
    assert not QQ.is_zero(a) and not QQ.is_zero(b)
    for k, op in small.sops.items():
        for (word, out), c in op.entries.items():
            assert word == (e,) * k and out == f
            assert target.sops[k].entries[(word, out)] == a ** k * c / b
    _budget(t0, 5.0)


def test_c06_section_decomposition_identities_hold_exactly():
    t0 = time.perf_counter()
    for i in range(20):
        rng = random.Random(1000 + i)
        qs = random_adaptable_section(rng)
        assert qs.nvars <= 4
        assert max(p.degree() for p in qs.section) <= 5
        dec = minimal_decomposition(qs)
        assert dec.exact
        # P I = id, H^1 = id, H^0 = I P, H^t I = I, all exact in t
        checks = dec.verify()
        assert set(checks) == {"inclusion compat", "projection compat", "P I = id",
                               "H_1 = id", "H_0 = I P", "H_t I = I"}
        for name, ok in checks.items():
            assert ok is True, name
    _budget(t0, 10.0)


def test_c07_gauge_flow_accuracy_and_convergence_order():
    t0 = time.perf_counter()
    alg = lambda_dgla()
    X1 = [[0, 1], [0, 0]]
    X2 = [[0, 2], [0, 0]]
    gamma0 = {**mat_vec(alg, (1,), X1), **mat_vec(alg, (2,), X2)}
    eta = mat_vec(alg, (), [[1, 0], [0, -1]])
    path = gauge_flow(alg, gamma0, eta, step=1e-3)
    assert path.max_mc_residual() < 1e-6

    gamma0 = mat_vec(alg, (1,), [[0, 1], [1, 0]])
    eta = mat_vec(alg, (), [[1, 2], [0, -1]])
    Hm = np.array([[1, 2], [0, -1]], dtype=complex)
    E, Einv = expm2(Hm, -1.0), expm2(Hm, 1.0)
    want = E @ np.array([[0, 1], [1, 0]], dtype=complex) @ Einv
    errs = []
    for step in (0.05, 0.025):
        p = gauge_flow(alg, gamma0, eta, step=step)
        got = read_mat(alg, (1,), p.end)
        errs.append(np.max(np.abs(got - want)))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0
    _budget(t0, 5.0)


def test_c08_flows_push_through_transfer_inclusions():
    t0 = time.perf_counter()
    big = lambda_dgla(coupled=True)
    res = minimal_model(big, arity_out=3)
    small = res.small
    V = small.space
    rng = np.random.default_rng(8)
    pushed = 0
    for _ in range(12):
        seed = {
            V.index(1, i): complex(c)
            for i, c in enumerate(rng.normal(size=V.dim(1)) * 0.2)
        }
        m = solve_mc(small, seed, tol=1e-12)
        if m is None or not m.converged:
            continue
        eta = {
            V.index(0, i): complex(c)
            for i, c in enumerate(rng.normal(size=V.dim(0)) * 0.5)
        }
        path = gauge_flow(small, m.vector, eta, step=2e-3)
        target_path = pushforward_path(res.inclusion, path)
        assert target_path.max_mc_residual() < 1e-8
        pushed += 1
        if pushed == 10:
            break
    assert pushed == 10
    _budget(t0, 5.0)


def _nerve_pair_fixture(which):
    if which == 0:
        return lambda_dgla(coupled=True)
    if which == 1:
        return lambda_dgla(coupled=False)
    if which == 2:
        x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
        return dcrit(x1 * x1 * x1 - x1 * x2).to_linfty()
    if which == 3:
        z1, z2, z3 = (MultiPoly.variable(3, i, QQ) for i in range(3))
        return dcrit(z1 * z1 + z2 * z2 + z3 ** 3 + z3 ** 4).to_linfty()
    u = MultiPoly.variable(1, 0, QQ)
    _, qs = extend_by_contractible_bv(u ** 3 + u ** 4, 2)
    return qs.to_linfty()


def test_c09_nerve_components_match_across_quasi_isomorphism():
    t0 = time.perf_counter()
    for which in range(5):
        big = _nerve_pair_fixture(which)
        res = minimal_model(big, arity_out=3)
        small = res.small
        V = small.space
        rng = np.random.default_rng(900 + which)
        seeds_small = []
        for _ in range(6):
            seeds_small.append(
                {
                    V.index(1, i): complex(c)
                    for i, c in enumerate(rng.normal(size=V.dim(1)) * 0.4)
                }
            )
        incl_f = to_float_morphism(res.inclusion)
        seeds_big = [incl_f.apply_point(s) for s in seeds_small]
        g_small = build_nerve(small, seeds_small, flow_step=0.05)
        g_big = build_nerve(big, seeds_big, flow_step=0.05)
        assert len(g_small.components()) == len(g_big.components())
    _budget(t0, 30.0)


def test_c10_bv_verifier_accepts_canonical_data_and_rejects_mutations():
    t0 = time.perf_counter()
    x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
    z1, z2, z3 = (MultiPoly.variable(3, i, QQ) for i in range(3))
    u = MultiPoly.variable(1, 0, QQ)
    accepted = [
        canonical_dcrit_bv(x1 * x1 * x1 - x1 * x2),
        canonical_dcrit_bv(z1 * z1 + z2 * z2 + z3 ** 3 + z3 ** 4),
        extend_by_contractible_bv(u ** 3 + u ** 4, 2)[0],
    ]
    for bv in accepted:
        rep = validate_bv(bv)
        assert rep.ok, rep

    tri = canonical_dcrit_bv(x1 * x1 * x1 - x1 * x2)
    tri.sigma[0][1] = tri.sigma[0][1] + x1
    rep = validate_bv(tri)
    assert not rep.ok and rep.witness[0] == "triangle"

    gauge = brst_circle(rho=((0, 1), (1, 0)))
    rep = validate_bv(gauge, window=(0, 2))
    assert not rep.ok and rep.witness[0] == "gauge"
    assert rep.checks["triangle"]

    uu, _ = (MultiPoly.variable(2, i, QQ) for i in range(2))
    S = uu * uu * uu
    qs = QsSpace(2, 2, [S.diff(0), MultiPoly.zero(2, QQ)])
    one = MultiPoly.constant(2, QQ.one, QQ)
    zero = MultiPoly.zero(2, QQ)
    rep = validate_bv(BVData(qs.to_linfty(), S, [[one, zero], [zero, zero]]))
    assert not rep.ok and rep.witness[0] == "quasi-iso"
    assert rep.checks["triangle"] and rep.checks["gauge"]
    _budget(t0, 10.0)


def test_c11_metric_volume_factorizes_through_splits():
    t0 = time.perf_counter()
    for i in range(10):
        rng = random.Random(1100 + i)
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        n = k + m
        M = rand_invertible(rng, QQ, k)
        N = rand_invertible(rng, QQ, m)
        A = linalg.mat_mul(QQ, linalg.transpose(M), M)
        B = linalg.mat_mul(QQ, linalg.transpose(N), N)
        Q = [[QQ.zero] * n for _ in range(n)]
        for a in range(k):
            for b in range(k):
                Q[a][b] = A[a][b]
        for a in range(m):
            for b in range(m):
                Q[k + a][k + b] = B[a][b]
        ms = MetricStructure(QQ, Q)
        P = rand_invertible(rng, QQ, k)
        if linalg.det(QQ, P) < 0:
            P[0], P[1 % k] = P[1 % k], P[0]
            if k == 1:
                P[0][0] = -P[0][0]
        det_P = linalg.det(QQ, P)
        assert det_P > 0
        full = [[QQ.one if a == b else QQ.zero for b in range(n)] for a in range(n)]
        base_chart = [[P[a][b] for a in range(k)] + [QQ.zero] * m for b in range(k)]
        fiber = [
            [QQ.zero] * k + [QQ.one if a == b else QQ.zero for b in range(m)]
            for a in range(m)
        ]
        _, vol_total = restrict_metric(ms, full)
        _, vol_base = restrict_metric(ms, base_chart)
        _, vol_fiber = restrict_metric(ms, fiber)
        assert vol_total.exact and vol_base.exact and vol_fiber.exact
        # det(J) . vol(ambient) = vol(fiber) . vol(base chart)
        assert check_volume_pullback(QQ, det_P, vol_total, vol_fiber, vol_base)
        flipped = MetricStructure(QQ, Q, sqrt_sign=-1)
        _, vol_base_bad = restrict_metric(flipped, base_chart)
        assert not check_volume_pullback(QQ, det_P, vol_total, vol_fiber, vol_base_bad)
    _budget(t0, 2.0)


def test_c12_orientability_trees_pass_and_odd_holonomy_fails():
    t0 = time.perf_counter()
    for i in range(5):
        rng = random.Random(1200 + i)
        nv = rng.randint(2, 6)
        roots = [F(rng.randint(1, 5)) for _ in range(nv)]
        fibers = [r * r for r in roots]
        transitions = {}
        for v in range(1, nv):
            u = rng.randrange(v)  # tree edge to an earlier vertex
            transitions[(u, v)] = roots[v] / roots[u]
        ok, section = check_bv_orientable(
            OrientationCocycle(nv, fibers, transitions)
        )
        assert ok and len(section) == nv
    badc = OrientationCocycle(
        3,
        [F(1)] * 3,
        {(0, 1): F(1), (1, 2): F(1), (0, 2): F(-1)},
    )
    ok, cycle = check_bv_orientable(badc)
    assert not ok
    assert len(cycle) >= 3 and set(cycle) <= {0, 1, 2}
    _budget(t0, 1.0)


def _pipeline(out):
    ex = os.path.join(out, "ex")
    assert cli_main(["gen-examples", "--out", ex, "--seed", "5"]) == 0
    assert cli_main(["check", os.path.join(ex, "tower_0.json"),
                     "--out", os.path.join(out, "chk")]) == 0
    assert cli_main(["transfer", os.path.join(ex, "tower_1.json"),
                     "--out", os.path.join(out, "tr")]) == 0
    assert cli_main(["dcrit", os.path.join(ex, "potential_0.json"),
                     "--out", os.path.join(out, "dc")]) == 0
    assert cli_main(["solve-mc", os.path.join(out, "dc", "dcrit_tower.json"),
                     "--seed", "2", "--n-seeds", "6",
                     "--out", os.path.join(out, "mc")]) == 0
    assert cli_main(["nerve", os.path.join(out, "dc", "dcrit_tower.json"),
                     "--seed", "2", "--n-seeds", "8",
                     "--out", os.path.join(out, "nv")]) == 0
    assert cli_main(["morse-split", os.path.join(ex, "potential_0.json"),
                     "--out", os.path.join(out, "ms")]) == 0
    assert cli_main(["qs-minimal-model", os.path.join(ex, "section_0.json"),
                     "--out", os.path.join(out, "qm")]) == 0
    assert cli_main(["bv-verify", os.path.join(ex, "bv_0.json"),
                     "--out", os.path.join(out, "bvr")]) == 0


def test_c13_reruns_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "runA"), str(tmp_path / "runB")
    _pipeline(a)
    _pipeline(b)
    files_a, files_b = [], []
    for root, base in ((a, files_a), (b, files_b)):
        for dirpath, _, names in os.walk(root):
            for nm in sorted(names):
                base.append(os.path.relpath(os.path.join(dirpath, nm), root))
    assert sorted(files_a) == sorted(files_b) and files_a
    for rel in sorted(files_a):
        with open(os.path.join(a, rel), "rb") as fa, open(os.path.join(b, rel), "rb") as fb:
            text = fa.read()
            assert text == fb.read(), "differs: %s" % rel
        # solve-mc and nerve are the float-mode commands
        if rel.split(os.sep)[0] not in ("mc", "nv"):
            assert_exact_document(text)
