"""Maurer-Cartan geometry: numerical MC solving, gauge flows along the
interval path object, pushforward of flows through morphisms, the
1-truncated Maurer-Cartan nerve, and the homotopy gauge action of a
dgla model with a retract.

Flows always run in float mode; exact algebras are converted first, once
each, and each float algebra keeps one sparse evaluation plan.
Gauge parameters are constant.  On a tower with no bracket above arity 2
(a dgla) the anchor at a fixed gauge parameter is affine in the point, so
every classical RK4 step is the same affine map G -> P G + q, and m steps
are the one power (P, q)^m, taken by repeated squaring for every flow of
a batch at once; other towers run the four RK4 stages per step on the
plan.
"""

from __future__ import annotations

import weakref
from math import factorial

from .scalars import FloatComplexField
from .graded import GradedSpace, vec_clean
from .multilinear import MultiLinearOp
from .linfty import LInftyAlgebra, LInftyMorphism, taylor_sum, twist_family
from .transfer import _columns, _columns_op

DEFAULT_STEP = 1e-3
DEDUP_RADIUS = 1e-6
# Gauss-Newton iterations of solve_mc, and the norm at which it gives up
MC_MAX_ITER = 50
MC_RADIUS = 1e8
# nerve shooting: Gauss-Newton iterations per target, the finite-difference
# bump of the sensitivities, and the end-point distance that makes an edge
SHOOT_MAX_ITER = 12
SHOOT_FD = 1e-6
EDGE_TOL = 1e-6

# memos keyed weakly by algebra: an exact algebra's float conversion and a
# float algebra's sparse tower.  They live here, not on the algebra, so
# that an exact algebra holds no float after a conversion.
_FLOAT_ALGEBRAS = weakref.WeakKeyDictionary()
_SPARSE_TOWERS = weakref.WeakKeyDictionary()


# ------------------------------------------------------- float conversion

def to_float_algebra(alg):
    """The same structure constants over approximate complex scalars.

    The result is memoized for each exact algebra, so one exact tower
    keeps one float algebra and one sparse tower.  The exact algebra is
    treated as immutable after its first conversion, as the sparse tower
    cache already assumes of the float one."""
    if not alg.field.exact:
        return alg
    if alg not in _FLOAT_ALGEBRAS:
        space = GradedSpace(alg.space.dims, alg.space.labels, field=FloatComplexField())
        sp = space.shifted(1)
        _FLOAT_ALGEBRAS[alg] = LInftyAlgebra(space, {k: _float_op(op, sp, sp) for k, op in alg.sops.items()})
    return _FLOAT_ALGEBRAS[alg]


def to_float_morphism(F):
    src = to_float_algebra(F.source)
    tgt = to_float_algebra(F.target)
    comps = {
        k: _float_op(f, src.shifted_space, tgt.shifted_space) for k, f in F.components.items()
    }
    return LInftyMorphism(src, tgt, comps)


def _float_op(op, source, target):
    """op with its entries coerced to the float field of `source`."""
    new = MultiLinearOp(source, target, op.arity, op.degree, op.symmetry)
    new.entries = {key: source.field.coerce(c) for key, c in op.entries.items()}
    return new


def vec_dist(x, y):
    keys = set(x) | set(y)
    return max((abs(x.get(i, 0j) - y.get(i, 0j)) for i in keys), default=0.0)


# --------------------------------------------------- sparse fast path

class _SparseTower:
    """Structure constants of a tower as a sparse evaluation plan for the
    numerical solvers and integrators, which work on dense numpy vectors.
    Per arity k the plan has one row per input tuple with a nonzero
    value: every distinct permutation of a stored word, with the Koszul
    sign `eval_basis` gives it.  The rows are the arrays idx (m x k),
    out (m) and coef (m)."""

    def __init__(self, alg):
        import numpy as np
        from itertools import permutations

        self.n = alg.space.total_dim
        self.deg1 = list(alg.space.indices_of_degree(1))
        self.deg2 = list(alg.space.indices_of_degree(2))
        self.plan = {}
        for k, op in alg.sops.items():
            rows, outs, coefs = [], [], []
            for (word, o), c in op.entries.items():
                for tup in sorted(set(permutations(word))):
                    canon, sign = op._canon(tup)
                    if canon == word:
                        rows.append(tup)
                        outs.append(o)
                        coefs.append(sign * complex(c))
            idx = np.array(rows, dtype=np.intp).reshape(len(rows), k)
            self.plan[k] = (idx, np.array(outs, dtype=np.intp), np.array(coefs, dtype=complex))

    def _taylor(self, g, free_last=False):
        """sum_k 1/k! l_k(g, ..., g); with free_last, the last input stays
        free and the result is the (out, in) matrix of
        sum_k 1/(k-1)! l_k(g, ..., g, -)."""
        import numpy as np

        m = int(free_last)
        out = np.zeros((self.n, self.n) if free_last else self.n, dtype=complex)
        for k, (idx, o, vals) in self.plan.items():
            # product order as in the tensor contraction of the test oracle:
            # outputs with one term per arity match it bitwise
            for j in range(k - m):
                vals = g[idx[:, j]] * vals
            np.add.at(out, (o, idx[:, -1]) if free_last else o, vals / factorial(k - m))
        return out

    def mc(self, g):
        """sum_k 1/k! l_k(g, ..., g) as a dense vector."""
        return self._taylor(g)

    def mc_residual(self, g):
        import numpy as np

        return float(np.max(np.abs(self.mc(g)))) if self.n else 0.0

    def derivative(self, g):
        """Jacobian of the Maurer-Cartan function at g, shape (out, in)."""
        return self._taylor(g, free_last=True)

    def anchor(self, e):
        """The anchor at a fixed gauge parameter e, as the function
        g -> sum_k 1/(k-1)! l_k(e, g, ..., g).  The first input is
        contracted here, once; each call gathers only the g inputs.  e and
        g may carry the same leading batch axis, one flow per row."""
        import numpy as np

        rows = np.arange(e.shape[0] if e.ndim == 2 else 1)[:, None] * self.n
        plan = [
            (idx[:, 1:], (rows + o).reshape(-1), e[..., idx[:, 0]] * coef, factorial(k - 1))
            for k, (idx, o, coef) in self.plan.items()
        ]

        def rate(g):
            out = np.zeros(e.shape, dtype=complex)
            for idx, flat, vals, f in plan:
                for j in range(idx.shape[1]):
                    vals = g[..., idx[:, j]] * vals
                np.add.at(out.reshape(-1), flat, (vals / f).reshape(-1))
            return out

        return rate

    def affine(self, e):
        """The anchor at e as the affine map g -> b + A g, for the rows of
        e (one row without a batch axis): b of shape (rows, n), A of shape
        (rows, n, n).  None when a bracket above arity 2 makes the anchor
        nonlinear in g."""
        import numpy as np

        if any(k > 2 for k in self.plan):
            return None
        E = e.reshape(-1, self.n)
        rows = np.arange(len(E))[:, None]
        b = np.zeros(E.shape, dtype=complex)
        A = np.zeros((len(E), self.n, self.n), dtype=complex)
        if 1 in self.plan:
            idx, o, coef = self.plan[1]
            np.add.at(b, (rows, o), E[:, idx[:, 0]] * coef)
        if 2 in self.plan:
            idx, o, coef = self.plan[2]
            np.add.at(A, (rows, o, idx[:, 1]), E[:, idx[:, 0]] * coef)
        return b, A


def _sparse_tower(alg):
    if alg not in _SPARSE_TOWERS:
        _SPARSE_TOWERS[alg] = _SparseTower(alg)
    return _SPARSE_TOWERS[alg]


def _to_dense(n, x):
    import numpy as np

    v = np.zeros(n, dtype=complex)
    for i, c in x.items():
        v[i] = complex(c)
    return v


def _to_dict(v):
    return {i: c for i, c in enumerate(v) if abs(c) > 0}


# ------------------------------------------------------------- MC solving

class MCElement:
    def __init__(self, algebra, vector, residual, converged, iterations):
        self.algebra = algebra
        self.vector = vector
        self.residual = residual
        self.converged = converged
        self.iterations = iterations

    def to_json_dict(self):
        """The solution as plain JSON: its vector as [re, im] by index,
        and its residual."""
        return {
            "vector": {str(i): [c.real, c.imag] for i, c in sorted(self.vector.items())},
            "residual": self.residual,
        }


def solve_mc(alg, seed, tol=1e-10):
    """Gauss-Newton iteration on the Maurer-Cartan function, float mode."""
    import numpy as np

    algf = to_float_algebra(alg)
    field = algf.field
    tower = _sparse_tower(algf)
    deg1, deg2 = tower.deg1, tower.deg2
    x = np.zeros(tower.n, dtype=complex)
    for i, c in seed.items():
        x[i] = complex(field.coerce(c))
    res = None
    it = 0
    for it in range(MC_MAX_ITER + 1):
        Fv = tower.mc(x)
        res = float(np.max(np.abs(Fv[deg2]))) if deg2 else 0.0
        if res <= tol:
            return MCElement(algf, _to_dict(x), res, True, it)
        if it == MC_MAX_ITER:
            break
        J = tower.derivative(x)[np.ix_(deg2, deg1)]
        step, *_ = np.linalg.lstsq(J, -Fv[deg2], rcond=None)
        x = x.copy()
        x[deg1] = x[deg1] + step
        if np.max(np.abs(x)) > MC_RADIUS:
            return MCElement(algf, _to_dict(x), res, False, it)
    return MCElement(algf, _to_dict(x), res, False, it)


# ------------------------------------------------------------ gauge flows

class GaugePath:
    """A sampled solution of gamma' = -anchor(gamma)(eta) together with
    the gauge parameter samples; connects gamma(0) to gamma(1)."""

    def __init__(self, algebra, times, samples, eta_samples, ok=True):
        self.algebra = algebra
        self.times = times
        self.samples = samples
        self.eta_samples = eta_samples
        self.ok = ok

    @property
    def start(self):
        return self.samples[0]

    @property
    def end(self):
        return self.samples[-1]

    def max_mc_residual(self):
        tower = _sparse_tower(self.algebra)
        return max(tower.mc_residual(_to_dense(tower.n, s)) for s in self.samples)

    def max_ode_defect(self):
        """Central-difference consistency of the samples with the flow ODE."""
        worst = 0.0
        for j in range(1, len(self.times) - 1):
            dt = self.times[j + 1] - self.times[j - 1]
            rate = {}
            keys = set(self.samples[j + 1]) | set(self.samples[j - 1])
            for i in keys:
                rate[i] = (self.samples[j + 1].get(i, 0j) - self.samples[j - 1].get(i, 0j)) / dt
            want = _anchor_apply(self.algebra, self.samples[j], self.eta_samples[j])
            worst = max(worst, vec_dist(rate, {i: -c for i, c in want.items()}))
        return worst


def _anchor_apply(alg, gamma, eta):
    """anchor(gamma)(eta) = sum_k 1/(k-1)! l_k(eta, gamma, ..., gamma)."""
    return taylor_sum(alg.field, alg.sops, gamma, head=(eta,))


def _rk4_step(rate, g, h):
    """One classical Runge-Kutta step of the autonomous g' = rate(g)."""
    k1 = rate(g)
    k2 = rate(g + k1 * (h / 2))
    k3 = rate(g + k2 * (h / 2))
    k4 = rate(g + k3 * h)
    return g + (k1 + 2 * k2 + 2 * k3 + k4) * (h / 6)


def _rk4_map(b, A, h):
    """(P, q) such that one classical RK4 step of g' = -(b + A g) is
    g -> P g + q, one map per row of b and A.  P is the RK4 stability
    polynomial 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -hA (Hairer-Norsett-
    Wanner, Solving ODEs I, II.1).  Matrix products are stacked matmuls
    and matrix-vector products per-row sums, so the bits of a row do not
    depend on the batch it sits in."""
    import numpy as np

    eye = np.eye(A.shape[-1])
    K, k = -A, -b  # stage 1 as the affine map g -> K g + k
    P, q = K, k
    for c, w in ((h / 2, 2), (h / 2, 2), (h, 1)):
        # the next stage's rate at g + c * (K g + k)
        K, k = -(A @ (eye + c * K)), -((A * (c * k)[:, None, :]).sum(-1) + b)
        P, q = P + w * K, q + w * k
    return eye + (h / 6) * P, (h / 6) * q


def _affine_power(P, q, m):
    """(P, q)^m for a batch of affine maps g -> P g + q, one per row: the
    pair (P^m, (P^(m-1) + ... + P + 1) q), by repeated squaring of the
    augmented matrices [[P, q], [0, 1]] (Knuth, TAOCP vol. 2, 4.6.3).
    Every product is a stacked matmul, so the bits of a row do not depend
    on the batch it sits in."""
    import numpy as np

    rows, n = q.shape
    M = np.zeros((rows, n + 1, n + 1), dtype=complex)
    M[:, :n, :n], M[:, :n, n], M[:, n, n] = P, q, 1
    M = np.linalg.matrix_power(M, m)
    return M[:, :n, :n], M[:, :n, n]


def _affine_apply(Pq, G):
    """G -> P G + q, per row, as per-row sums."""
    P, q = Pq
    return (P * G[:, None, :]).sum(-1) + q


def _constant_flow(tower, E, h):
    """The map (done, upto, G) -> G after the RK4 steps done, ..., upto - 1
    of G' = -anchor(e)(G), one flow per row of G and of the constant gauge
    parameters E.  On a dgla, where the anchor is affine in G, that is one
    power of the step map (`_affine_power`), memoized per number of steps;
    on any other tower, the four RK4 stages per step on the anchor,
    contracted once."""
    part = tower.affine(E)
    if part is None:
        anchor = tower.anchor(E)

        def rate(G):
            return -anchor(G)

        def advance(done, upto, G):
            for _ in range(done, upto):
                G = _rk4_step(rate, G, h)
            return G

        return advance
    step_map, powers = _rk4_map(*part, h), {}

    def advance(done, upto, G):
        if upto - done not in powers:
            powers[upto - done] = _affine_power(*step_map, upto - done)
        return _affine_apply(powers[upto - done], G)

    return advance


def _n_steps(step):
    """The number and the length of the RK4 steps that reach time 1."""
    n_steps = max(1, int(round(1.0 / step)))
    return n_steps, 1.0 / n_steps


def gauge_flow(alg, mu, eta, step=DEFAULT_STEP, n_samples=11):
    """Integrate gamma' = -anchor(gamma)(eta), for a constant degree-0
    vector eta, from mu to time 1 by fixed-step RK4, as a batch of one
    flow, keeping about n_samples samples.  The stretch between two
    samples is one call of `_constant_flow`: on a dgla, one power of the
    RK4 step map."""
    algf = to_float_algebra(alg)
    tower = _sparse_tower(algf)
    E = _to_dense(tower.n, eta)
    n_steps, h = _n_steps(step)
    sample_every = max(1, n_steps // max(1, n_samples - 1))
    advance = _constant_flow(tower, E[None], h)
    G = _to_dense(tower.n, mu)[None]
    times, samples = [0.0], [_to_dict(G[0])]
    done = 0
    for upto in list(range(sample_every, n_steps, sample_every)) + [n_steps]:
        G, done = advance(done, upto, G), upto
        times.append((upto - 1) * h + h)  # the bits of a time stepped to as s * h + h
        samples.append(_to_dict(G[0]))
    return GaugePath(algf, times, samples, [_to_dict(E) for _ in times])


def pushforward_path(F, path):
    """Map a gauge path through a morphism: points by the Maurer-Cartan
    pushforward, gauge parameters by the tangent map at each sample."""
    Ff = to_float_morphism(F) if F.field.exact else F
    samples = [Ff.apply_point(g) for g in path.samples]
    etas = []
    for g, e in zip(path.samples, path.eta_samples):
        etas.append(vec_clean(Ff.target.field, Ff.tangent_at(g)(e)))
    return GaugePath(Ff.target, list(path.times), samples, etas, path.ok)


# ------------------------------------------------------------------ nerve

class NerveGraph:
    def __init__(self, algebra, vertices, edges, n_seeds, failures):
        self.algebra = algebra
        self.vertices = vertices  # list of MCElement
        self.edges = edges  # list of (i, j, GaugePath); plus implicit loops
        self.n_seeds = n_seeds
        self.failures = failures

    def components(self):
        parent = list(range(len(self.vertices)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j, _ in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups = {}
        for v in range(len(self.vertices)):
            groups.setdefault(find(v), []).append(v)
        return sorted(groups.values())

    def to_json_dict(self):
        edges = [{"from": i, "to": j} for i, j, _ in self.edges]
        return {
            "vertices": [m.to_json_dict() for m in self.vertices],
            "edges": edges,
            "components": self.components(),
            "seeds": self.n_seeds,
            "failed_seeds": self.failures,
        }

    def to_graph_text(self):
        """Trivial graph format: vertex lines, '#', edge lines."""
        lines = ["%d v%d" % (i, i) for i in range(len(self.vertices))]
        lines.append("#")
        for i, j, _ in self.edges:
            lines.append("%d %d" % (i, j))
        return "\n".join(lines) + "\n"


def _max_abs(v):
    return max((abs(c) for c in v.tolist()), default=0.0)


def _shoot_edge(alg, v_from, targets, step):
    """Search, for each target vertex, for a constant gauge parameter whose
    time-1 flow from v_from reaches it: Gauss-Newton with finite-difference
    sensitivities.  Each iteration integrates the base flow and the bumped
    flows of every live target at once, as the rows of one batch, each
    distinct row once; on a dgla that is one power of the RK4 step map per
    row.  A target leaves the batch once it is reached or given up.
    Returns one GaugePath or None per target."""
    import numpy as np

    tower = _sparse_tower(alg)
    deg0 = list(alg.space.indices_of_degree(0))
    deg1 = list(alg.space.indices_of_degree(1))
    d = len(deg0)
    n_steps, h = _n_steps(step)
    start = _to_dense(tower.n, v_from)
    goals = [_to_dense(tower.n, v)[deg1] for v in targets]
    live = {p: np.zeros(d, dtype=complex) for p in range(len(targets))}
    paths = [None] * len(targets)
    for _ in range(SHOOT_MAX_ITER):
        if not live:
            break
        # per live target one base row, then one row per bumped coordinate
        block = np.repeat(np.stack(list(live.values()))[:, None], d + 1, axis=1)
        block[:, np.arange(1, d + 1), np.arange(d)] += SHOOT_FD
        # the targets of the first iteration all start from eta = 0, so
        # their rows repeat; a row's bits do not depend on its batch
        rows, back = np.unique(block.reshape(-1, d), axis=0, return_inverse=True)
        E = np.zeros((len(rows), tower.n), dtype=complex)
        E[:, deg0] = rows
        # a row whose Gauss-Newton iterate diverged may overflow to inf or
        # nan; its target is dropped by the finiteness or 1e4 checks below
        with np.errstate(over="ignore", invalid="ignore"):
            G = _constant_flow(tower, E, h)(0, n_steps, np.repeat(start[None], len(E), axis=0))
        # an entry that is 0 or nan reads as 0, as in a path sample
        ends = np.where(np.abs(G) > 0, G, 0)[back][:, deg1].reshape(len(live), d + 1, len(deg1))
        for (p, eta), end in zip(list(live.items()), ends):
            r = end[0] - goals[p]
            if _max_abs(r) <= EDGE_TOL:
                del live[p]
                path = gauge_flow(alg, v_from, dict(zip(deg0, eta)), step=step)
                paths[p] = path if path.max_mc_residual() <= 1e-5 else None
                continue
            J = ((end[1:] - end[0]) / SHOOT_FD).T
            stepv, *_ = np.linalg.lstsq(J, -r, rcond=None)
            live[p] = eta = eta + stepv
            if not np.all(np.isfinite(stepv)) or _max_abs(eta) > 1e4:
                del live[p]
    return paths


def build_nerve(alg, seeds, tol=1e-10, flow_step=0.02):
    """Vertices from deduplicated MC solves, edges from constant-parameter
    flow shooting, from each vertex to all the others at once."""
    algf = to_float_algebra(alg)
    vertices = []
    failures = 0
    for seed in seeds:
        m = solve_mc(algf, seed, tol=tol)
        if not m.converged:
            failures += 1
            continue
        if any(vec_dist(m.vector, v.vector) <= DEDUP_RADIUS for v in vertices):
            continue
        vertices.append(m)
    edges = []
    if algf.space.dim(0):
        for i, v in enumerate(vertices):
            others = [j for j in range(len(vertices)) if j != i]
            paths = _shoot_edge(algf, v.vector, [vertices[j].vector for j in others], flow_step)
            edges.extend((i, j, path) for j, path in zip(others, paths) if path is not None)
    return NerveGraph(algf, vertices, edges, len(seeds), failures)


# ------------------------------------------------- homotopy gauge action

def twist_morphism(F, b):
    """Morphism between twisted algebras: components
    f_k^b = sum_j 1/j! f_{k+j}(b, ..., b, -), from the twist at b to the
    twist at the pushforward of b."""
    src = F.source.twist(b).algebra()
    tgt = F.target.twist(F.apply_point(b)).algebra()
    comps = twist_family(F.components, b, src.shifted_space, tgt.shifted_space, 0)
    return LInftyMorphism(src, tgt, comps)


class OmegaModel:
    """An L-infinity model sitting inside a dgla via a retract (I, P),
    with the discrete gauge group acting on the dgla by
    g . x = ad(g)(x) + trans(g)."""

    def __init__(self, small, big, incl, proj, ad, trans):
        self.small = small
        self.big = big
        self.incl = incl
        self.proj = proj
        self.ad = ad  # g -> GradedMap, degree 0
        self.trans = trans  # g -> degree-1 vector (the inhomogeneous term)
        if any(k > 2 for k in big.sops):
            raise ValueError("the ambient model must be a dgla (no brackets above arity 2)")

    def group_action(self, g, x):
        out = self.ad(g).apply(x)
        for i, c in self.trans(g).items():
            out[i] = out.get(i, self.big.field.zero) + c
        return vec_clean(self.big.field, out)


def homotopy_gauge_action(model, g, mu):
    """(g * mu, Phi): the transported point P(g . I(mu)) and the morphism
    of twisted algebras obtained by conjugating the retract with the
    group action."""
    big = model.big
    Imu = model.incl.apply_point(mu)
    gImu = model.group_action(g, Imu)
    star = model.proj.apply_point(gImu)

    I_tw = twist_morphism(model.incl, mu)
    # the group action is affine; between the twists at I(mu) and g.I(mu)
    # its derivative ad(g) is a strict morphism
    ad_map = model.ad(g).shifted(1, big.shifted_space, big.shifted_space)
    f1 = _columns_op(_columns(ad_map), big.shifted_space, big.shifted_space, 0)
    src_tw = big.twist(Imu).algebra()
    tgt_tw = big.twist(gImu).algebra()
    G = LInftyMorphism(src_tw, tgt_tw, {1: f1})
    P_tw = twist_morphism(model.proj, gImu)
    Phi = P_tw.compose(G.compose(I_tw))
    return star, Phi
