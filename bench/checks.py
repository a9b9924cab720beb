"""Checks on the program's outputs, computed apart from the program.

Every function raises `CheckFailed` with a reason when the output is
wrong.  The oracles read structure constants straight from the sparse
entries and recompute what they need with numpy, scipy or sympy: exact
ranks for cohomology, Maurer-Cartan residuals, closed-form flows, the
dgla identities, polynomial expansions and exact square roots.  Where a
program routine is used (validation, composition, the dgla tree
recursion) it is a second route to the same answer, named as such.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


# ------------------------------------------------------- graded layout

def index_degrees(dims):
    """Unshifted degree of every basis index: generators are laid out
    degree by degree in ascending order."""
    dims = {int(d): int(n) for d, n in dims.items()}
    return [d for d in sorted(dims) for _ in range(dims[d])]


def _q1_matrix_blocks(degs, q1_entries):
    """Blocks d_k : V^k -> V^{k+1} of the differential as sympy matrices;
    q1_entries yields (input word, output index, coefficient)."""
    import sympy

    pos = {}
    for i, d in enumerate(degs):
        pos[i] = sum(1 for j in range(i) if degs[j] == d)
    counts = {}
    for d in degs:
        counts[d] = counts.get(d, 0) + 1
    blocks = {d: sympy.zeros(counts.get(d + 1, 0), counts[d]) for d in counts}
    for word, out, c in q1_entries:
        (i,) = word
        require(degs[out] == degs[i] + 1, "differential entry changes degree by %d", degs[out] - degs[i])
        blocks[degs[i]][pos[out], pos[i]] += sympy.Rational(str(c))
    return counts, blocks


def cohomology_dims(dims, q1_entries):
    """dim H^k = dim V^k - rank d_k - rank d_{k-1}, with exact ranks."""
    degs = index_degrees(dims)
    counts, blocks = _q1_matrix_blocks(degs, q1_entries)
    rank = {d: (B.rank() if B.rows and B.cols else 0) for d, B in blocks.items()}
    out = {}
    for d, n in counts.items():
        h = n - rank.get(d, 0) - rank.get(d - 1, 0)
        if h:
            out[d] = h
    return out


def op_entries(alg, k):
    op = alg.sops.get(k)
    return [] if op is None else [(w, o, c) for (w, o), c in op.entries.items()]


# ------------------------------------------------------- exact transfer

def check_transfer_result(alg, tr, arity):
    """The transferred tower validates, p o i is the identity, and the
    small space has the cohomology dimensions of the input differential."""
    require(tr.small.validate(arity).ok, "transferred tower fails validation to arity %d", arity)
    comp = tr.projection.compose(tr.inclusion, max_arity=arity)
    require(comp.is_identity(), "projection after inclusion is not the identity")
    want = cohomology_dims(alg.space.dims, op_entries(alg, 1))
    got = {d: n for d, n in tr.small.space.dims.items() if n}
    require(got == want, "transferred space has dims %r, cohomology is %r", got, want)


def check_ops_agree(small_sops, other_sops, arity):
    """Operations k = 2..arity agree entry by entry."""
    for k in range(2, arity + 1):
        a = small_sops.get(k)
        b = other_sops.get(k)
        ea = dict(a.entries) if a is not None else {}
        eb = dict(b.entries) if b is not None else {}
        require(ea == eb, "arity-%d operations differ from the second route", k)


def check_reduced_potential(small, coeffs):
    """Acceptance test c05, rescaled: the minimal model of
    dCrit(q(z1, z2) + f(z3)) with q a nondegenerate quadratic form is
    dCrit(f) up to rescaling the two generators.  coeffs = {m: a_m} for
    f = sum a_m w^m; dCrit(f) has l_k = (k+1)! a_{k+1} on (e, ..., e)."""
    target = {m - 1: Fraction(factorial(m)) * Fraction(a) for m, a in coeffs.items() if a}
    require(dict(small.space.dims) == {1: 1, 2: 1}, "minimal model dims %r, want {1: 1, 2: 1}", small.space.dims)
    require(set(small.sops) == set(target), "minimal model arities %r, want %r", sorted(small.sops), sorted(target))
    e, f = 0, 1
    c = {}
    for k, op in small.sops.items():
        for (word, out), val in op.entries.items():
            require(word == (e,) * k and out == f, "unexpected entry %r -> %r", word, out)
            c[k] = val
    ks = sorted(target)
    require(len(ks) >= 3 and ks[1] == ks[0] + 1, "need three arities for a non-trivial rescaling check")
    k2, k3 = ks[0], ks[1]
    # solve t_k = a^k c_k / b on the two lowest arities, then test the rest
    a = (target[k3] * c[k2]) / (target[k2] * c[k3])
    require(a != 0, "no rescaling of the generators fits")
    b = a ** k2 * c[k2] / target[k2]
    for k in ks:
        require(target[k] == a ** k * c[k] / b, "arity %d does not match dCrit(f) after rescaling", k)


# ---------------------------------------------------------- MC geometry

class SparseMC:
    """Maurer-Cartan function of a tower on degree-1 points, evaluated
    from the sparse symmetric entries: points sit in shifted degree 0, so
    F_o(x) = sum over entries (w, o, c) of c * prod x_w / prod m_j!."""

    def __init__(self, dims, entries):
        """entries = {arity: [(word, out, coefficient)]}."""
        degs = index_degrees(dims)
        self.n = len(degs)
        self.terms = []
        for k, ents in entries.items():
            rows = []
            for word, out, c in ents:
                word = tuple(word)
                if any(degs[i] != 1 for i in word):
                    continue
                mult = 1
                for i in set(word):
                    mult *= factorial(word.count(i))
                rows.append((word, out, complex(Fraction(c)) / mult))
            if rows:
                words = np.array([r[0] for r in rows], dtype=np.int64).reshape(len(rows), k)
                outs = np.array([r[1] for r in rows], dtype=np.int64)
                coef = np.array([r[2] for r in rows], dtype=complex)
                self.terms.append((words, outs, coef))

    @classmethod
    def of(cls, alg):
        return cls(alg.space.dims, {k: op_entries(alg, k) for k in alg.sops})

    def dense(self, x):
        v = np.zeros(self.n, dtype=complex)
        for i, c in x.items():
            v[i] = complex(c)
        return v

    def value(self, x):
        v = self.dense(x) if isinstance(x, dict) else x
        out = np.zeros(self.n, dtype=complex)
        for words, outs, coef in self.terms:
            np.add.at(out, outs, coef * np.prod(v[words], axis=1))
        return out

    def residual(self, x):
        return float(np.max(np.abs(self.value(x)))) if self.n else 0.0


def check_mc_points(mc, solutions, tol, min_converged):
    """Every point reported converged is a Maurer-Cartan point when its
    residual is recomputed; at least `min_converged` of them converged.
    solutions: (converged, vector) pairs."""
    conv = [x for ok, x in solutions if ok]
    require(len(conv) >= min_converged, "%d of %d solves converged, want >= %d", len(conv), len(solutions), min_converged)
    for x in conv:
        r = mc.residual(x)
        require(r <= tol, "reported MC point has recomputed residual %.3g > %.3g", r, tol)


def check_path_residual(mc, samples, tol):
    worst = max(mc.residual(s) for s in samples)
    require(worst <= tol, "path leaves the MC locus: recomputed residual %.3g > %.3g", worst, tol)


def conjugation_flow_endpoint(mats, eta):
    """Closed form of the flow along a constant gl2 gauge parameter:
    every matrix coefficient X evolves as exp(-t eta) X exp(t eta)."""
    from scipy.linalg import expm

    E, Einv = expm(-np.asarray(eta, dtype=complex)), expm(np.asarray(eta, dtype=complex))
    return {w: E @ np.asarray(X, dtype=complex) @ Einv for w, X in mats.items()}


def check_flow_endpoint(read_mat, end, mats, eta, tol):
    want = conjugation_flow_endpoint(mats, eta)
    for w, M in want.items():
        err = float(np.max(np.abs(read_mat(w, end) - M)))
        require(err <= tol, "flow endpoint at %r is %.3g from the closed form", w, err)


def components_of(n_vertices, edges):
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in edges:
        parent[find(i)] = find(j)
    return [find(v) for v in range(n_vertices)]


def check_nerve(mc, vertices, edges, pairs, tol):
    """Vertices are MC points, and the two ends of every pair that is
    gauge equivalent by construction lie in one component."""
    for v in vertices:
        require(mc.residual(v) <= tol, "nerve vertex is not an MC point")
    comp = components_of(len(vertices), edges)

    def nearest(x):
        dist = []
        for v in vertices:
            keys = set(x) | set(v)
            dist.append(max(abs(complex(x.get(i, 0)) - complex(v.get(i, 0))) for i in keys))
        j = int(np.argmin(dist))
        require(dist[j] <= 1e-5, "no nerve vertex at a constructed MC point")
        return j

    for a, b in pairs:
        i, j = nearest(a), nearest(b)
        require(comp[i] == comp[j], "gauge-equivalent vertices %d and %d are not joined", i, j)


# -------------------------------------------------------- dgla identities

def dgla_identity_defect(dims, entries):
    """Largest defect of the shifted dgla identities q1 q1 = 0, the
    Leibniz rule and the Jacobi identity, over all basis inputs.
    entries = {1: [(word, out, c)], 2: [...]}; degrees are shifted
    (unshifted minus one), and q2 is graded symmetric in them."""
    degs = np.array(index_degrees(dims)) - 1
    n = len(degs)
    T1 = np.zeros((n, n))
    T2 = np.zeros((n, n, n))
    for (i,), o, c in entries.get(1, []):
        T1[o, i] += float(Fraction(c))
    for (a, b), o, c in entries.get(2, []):
        c = float(Fraction(c))
        T2[a, b, o] += c
        if a != b:
            T2[b, a, o] += c * (-1) ** int(degs[a] * degs[b])
    par = degs % 2
    sx = (-1.0) ** par  # (-1)^|x|
    d1 = np.abs(T1 @ T1).max() if n else 0.0
    leib = (
        np.einsum("xyo,po->xyp", T2, T1)
        + np.einsum("mx,myp->xyp", T1, T2)
        + sx[:, None, None] * np.einsum("my,xmp->xyp", T1, T2)
    )
    s_yz = (-1.0) ** np.outer(par, par)  # (-1)^{|y||z|}
    s_x_yz = (-1.0) ** (par[:, None, None] * (par[None, :, None] + par[None, None, :]))
    jac = (
        np.einsum("xym,mzp->xyzp", T2, T2)
        + s_yz[None, :, :, None] * np.einsum("xzm,myp->xyzp", T2, T2)
        + s_x_yz[:, :, :, None] * np.einsum("yzm,mxp->xyzp", T2, T2)
    )
    return max(d1, np.abs(leib).max(initial=0.0), np.abs(jac).max(initial=0.0))


def payload_entries(payload):
    return {int(k): [(tuple(w), o, c) for w, o, c in ents] for k, ents in payload["ops"].items()}


def is_dgla_tower(payload, tol=1e-9):
    ents = payload_entries(payload)
    scale = max((abs(float(Fraction(c))) for es in ents.values() for _, _, c in es), default=1.0)
    return bool(dgla_identity_defect(payload["dims"], ents) <= tol * max(1.0, scale) ** 2)


# ------------------------------------------------------------- CLI output

def read_doc(text, kind):
    doc = json.loads(text)
    require(doc.get("kind") == kind, "document kind %r, want %r", doc.get("kind"), kind)
    return doc["payload"]


def check_check_report(rc, text, expect_ok, max_len):
    rep = read_doc(text, "validation_report")
    require(rc == (0 if expect_ok else 1), "check exited %d on a %s tower", rc, "valid" if expect_ok else "corrupted")
    require(rep["ok"] is expect_ok, "check reports ok=%r", rep["ok"])
    if not expect_ok:
        wit = rep.get("witness")
        require(wit is not None, "failed check carries no witness")
        require(1 <= len(wit["input_word"]) <= max_len, "witness word has length %d", len(wit["input_word"]))
        require(Fraction(wit["coefficient"]) != 0, "witness coefficient is zero")


def check_minimal_dims(text, input_payload):
    small = read_doc(text, "linfty_algebra")
    got = {int(d): n for d, n in small["dims"].items() if n}
    q1 = payload_entries(input_payload).get(1, [])
    want = cohomology_dims({int(d): n for d, n in input_payload["dims"].items()}, q1)
    require(got == want, "transferred dims %r, cohomology is %r", got, want)


def sympy_poly(payload, gens):
    import sympy

    terms = {tuple(e): sympy.Rational(c) for e, c in payload["terms"]}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ") if terms else sympy.Poly(0, *gens, domain="QQ")


def check_dcrit_tower(text, potential_payload):
    """The tower's MC polynomials are the gradient of the potential:
    entry (w, o, c) contributes c / prod m_j! times the monomial of w."""
    import sympy

    tower = read_doc(text, "linfty_algebra")
    n = potential_payload["nvars"]
    gens = sympy.symbols("z0:%d" % n)
    S = sympy_poly(potential_payload, gens)
    require({int(d): k for d, k in tower["dims"].items()} == {1: n, 2: n}, "dcrit tower dims %r", tower["dims"])
    got = [dict() for _ in range(n)]
    for k, ents in tower["ops"].items():
        for word, out, c in ents:
            e = [0] * n
            for i in word:
                require(0 <= i < n, "dcrit entry reads a degree-2 input")
                e[i] += 1
            mult = 1
            for m in e:
                mult *= factorial(m)
            key = tuple(e)
            got[out - n][key] = got[out - n].get(key, 0) + sympy.Rational(c) / mult
    for a in range(n):
        want = S.diff(gens[a])
        have = sympy.Poly.from_dict(got[a], *gens, domain="QQ") if got[a] else sympy.Poly(0, *gens, domain="QQ")
        require((want - have).is_zero, "dcrit section %d differs from dS/dz%d", a, a)


def _truncate(p, cutoff):
    import sympy

    return sympy.Poly.from_dict(
        {m: c for m, c in p.as_dict().items() if sum(m) <= cutoff} or {(0,) * len(p.gens): 0},
        *p.gens,
        domain="QQ",
    )


def check_morse_split(text, potential_payload):
    """S(change) - sum c_i z_i^2 - residual has no terms up to the cutoff,
    the residual avoids the split variables, and the split rank is the
    rank of the Hessian at the origin."""
    import sympy

    out = read_doc(text, "morse_split")
    n = potential_payload["nvars"]
    gens = sympy.symbols("z0:%d" % n)
    S = sympy_poly(potential_payload, gens)
    cutoff = max(S.total_degree() + 2, 6)  # the documented default of morse_thom_split
    change = [sympy_poly(p, gens) for p in out["change"]]
    coeffs = [sympy.Rational(c) for c in out["quadratic_coefficients"]]
    residual = sympy_poly(out["residual"], gens)
    require(out["split_rank"] == len(coeffs), "split rank disagrees with the coefficient count")
    # S(change), expanded with truncation after every product
    acc = sympy.Poly(0, *gens, domain="QQ")
    powers = [[sympy.Poly(1, *gens, domain="QQ")] for _ in range(n)]
    for mono, c in S.as_dict().items():
        term = sympy.Poly(c, *gens, domain="QQ")
        for i, m in enumerate(mono):
            while len(powers[i]) <= m:
                powers[i].append(_truncate(powers[i][-1] * change[i], cutoff))
            term = _truncate(term * powers[i][m], cutoff)
        acc = acc + term
    quad = sum((c * sympy.Poly(gens[i] ** 2, *gens, domain="QQ") for i, c in enumerate(coeffs)), sympy.Poly(0, *gens, domain="QQ"))
    diff = _truncate(acc - quad - residual, cutoff)
    require(diff.is_zero, "S(change) - quadratic - residual has terms up to the cutoff")
    split = len(coeffs)
    for mono in residual.as_dict():
        require(not any(mono[:split]), "residual involves a split variable")
    H = sympy.hessian(S.as_expr(), gens).subs({g: 0 for g in gens})
    require(H.rank() == split, "split rank %d, Hessian rank %d", split, H.rank())


def check_qs_minimal(rc, text, section_payload):
    import sympy

    out = read_doc(text, "qs_minimal_model")
    require(rc == 0, "qs-minimal-model exited %d", rc)
    ids = out["identities_hold"]
    named = ids if isinstance(ids, dict) else {"all": ids}
    for name, ok in named.items():
        require(ok is True, "identity %r does not hold", name)
    n = section_payload["nvars"]
    lin = sympy.zeros(len(section_payload["section"]), n)
    for a, p in enumerate(section_payload["section"]):
        for e, c in p["terms"]:
            if sum(e) == 1:
                lin[a, e.index(1)] += sympy.Rational(c)
    require(out["contractible_variables"] == lin.rank(), "contractible part %d, linear rank %d", out["contractible_variables"], lin.rank())
    require(out["minimal_variables"] + out["contractible_variables"] == n, "variable count does not add up")
    for p in out["minimal"]["section"]:
        require(all(sum(e) >= 2 for e, _ in p["terms"]), "minimal section has a linear or constant term")


def check_bv_rejected(report, expect_class):
    require(not report.ok, "mutated BV data is accepted")
    require(report.witness is not None and report.witness[0] == expect_class,
            "witness %r, want class %r", report.witness, expect_class)


def check_bv_report(rc, text, expect_ok, expect_class=None):
    out = read_doc(text, "bv_report")
    require(rc == (0 if expect_ok else 1), "bv-verify exited %d", rc)
    require(out["ok"] is expect_ok, "bv-verify reports ok=%r", out["ok"])
    if not expect_ok:
        require(out.get("witness", {}).get("class") == expect_class, "witness class %r, want %r", out.get("witness"), expect_class)


def check_solve_mc(rc, text, tower_payload):
    out = read_doc(text, "mc_solutions")
    require(rc == 0, "solve-mc exited %d", rc)
    sols = out["solutions"]
    require(sols, "solve-mc reports no solutions")
    mc = SparseMC(tower_payload["dims"], payload_entries(tower_payload))
    for sol in sols:
        x = {int(i): complex(re, im) for i, (re, im) in sol["vector"].items()}
        r = mc.residual(x)
        require(r <= out["tolerance"] + 1e-13, "reported solution has recomputed residual %.3g", r)


def check_orientation(rc, text, fibers, transitions, orientable):
    """Sections square exactly to the fibers and are compatible along
    every edge; a non-orientable cocycle is reported with a cycle."""
    out = read_doc(text, "orientation_report")
    require(rc == (0 if orientable else 1), "orient exited %d", rc)
    if not orientable:
        require(out["orientable"] is False, "orient accepts a cocycle with odd holonomy")
        cyc = out["cycle"]
        require(len(cyc) >= 3 and all(0 <= v < len(fibers) for v in cyc), "bad violating cycle %r", cyc)
        return
    require(out["orientable"] is True, "orient rejects an orientable cocycle")
    sec = out["section"]
    require(len(sec) == len(fibers), "section has %d entries for %d vertices", len(sec), len(fibers))
    s = [_gaussian(x) for x in sec]
    for v, ((re, im), f) in enumerate(zip(s, fibers)):
        sq = (re * re - im * im, 2 * re * im)
        require(sq == (Fraction(f), 0), "section at vertex %d squares to %s, fiber is %s", v, sq, f)
    for (i, j), t in transitions.items():
        t = Fraction(t)
        require(s[j] == (t * s[i][0], t * s[i][1]), "section is not compatible along edge (%d, %d)", i, j)


def _gaussian(x):
    """A rational ("p/q") or Gaussian rational ([re, im]) JSON scalar."""
    if isinstance(x, str):
        return Fraction(x), Fraction(0)
    return Fraction(x[0]), Fraction(x[1])
