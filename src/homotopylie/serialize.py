"""Canonical JSON encoding of towers, retracts, sections, BV data and
computation results.

Every document is an envelope {"kind": ..., "version": 1, "payload":
...}; scalars are printed through the field's exact string form, keys are
sorted, so serialization is byte-deterministic.  Loading checks the
shapes a payload must have (index ranges, arities, degrees, matrix
sizes) and raises ValueError on a malformed one.
"""

from __future__ import annotations

import json

from .scalars import QQ, get_field
from .graded import GradedSpace, GradedMap
from .multilinear import MultiLinearOp
from .linfty import LInftyAlgebra, LInftyMorphism
from .transfer import RetractContext
from .polynomial import MultiPoly
from .qs import QsSpace
from .bv import BVData, OrientationCocycle
from .words import word_degree

VERSION = 1


def dumps(kind, payload):
    doc = {"kind": kind, "version": VERSION, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text, kind=None):
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("payload"), dict):
        raise ValueError("a document is an object whose payload is an object")
    if doc.get("version") != VERSION:
        raise ValueError("unsupported document version %r" % doc.get("version"))
    if kind is not None and doc.get("kind") != kind:
        raise ValueError("expected kind %r, got %r" % (kind, doc.get("kind")))
    return doc["kind"], doc["payload"]


# ---------------------------------------------------------------- spaces

def space_payload(space):
    return {"dims": {str(d): n for d, n in space.dims.items()}}


def space_from_payload(payload, field=None):
    if not isinstance(payload["dims"], dict):
        raise ValueError("dims must be an object: %r" % (payload["dims"],))
    dims = {int(d): n for d, n in payload["dims"].items()}
    if not all(isinstance(n, int) and n >= 0 for n in dims.values()):
        raise ValueError("dimensions must be nonnegative integers: %r" % (payload["dims"],))
    return GradedSpace(dims, field=field)


def map_payload(gm):
    entries = []
    field = gm.field
    for d in sorted(gm.blocks):
        B = gm.blocks[d]
        for i, row in enumerate(B):
            for j, c in enumerate(row):
                if not field.is_zero(c):
                    entries.append(
                        [
                            gm.target.index(d + gm.degree, i),
                            gm.source.index(d, j),
                            field.to_json(c),
                        ]
                    )
    return {
        "degree": gm.degree,
        "source": space_payload(gm.source),
        "target": space_payload(gm.target),
        "entries": entries,
    }


def map_from_payload(payload, field):
    src = space_from_payload(payload["source"], field)
    tgt = space_from_payload(payload["target"], field)
    gm = GradedMap(src, tgt, payload["degree"])
    for out, inp, c in payload["entries"]:
        gm.set_entry(out, inp, field.from_json(c))
    return gm


# ---------------------------------------------------------------- towers

def op_payload(op):
    entries = []
    for (word, out), c in sorted(op.entries.items()):
        entries.append([list(word), out, op.field.to_json(c)])
    return entries


def algebra_payload(alg):
    return {
        "scalar": alg.field.name,
        "dims": {str(d): n for d, n in alg.space.dims.items()},
        "ops": {str(k): op_payload(op) for k, op in sorted(alg.sops.items())},
    }


def op_from_payload(entries, k, source, target, degree, field):
    """A symmetric arity-k operation from its entries, checked: indices in
    range, words of length k, output degree = word degree + degree."""
    k = int(k)
    if k < 1:
        raise ValueError("arity %d is not positive" % k)
    if not isinstance(entries, list):
        raise ValueError("the entries of arity %d must be a list: %r" % (k, entries))
    op = MultiLinearOp(source, target, k, degree, "sym")
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], list)):
            raise ValueError("entry %r is not [word, output, coefficient]" % (entry,))
        word, out, c = entry
        if len(word) != k:
            raise ValueError("arity-%d entry with a word of length %d: %r" % (k, len(word), word))
        for x, space in [(x, source) for x in word] + [(out, target)]:
            if not (isinstance(x, int) and 0 <= x < space.total_dim):
                raise ValueError("index %r out of range in entry %r" % (x, entry))
        want = word_degree(word, source.degree_of) + degree
        if target.degree_of(out) != want:
            raise ValueError("entry %r: output of degree %d, expected %d"
                             % (entry, target.degree_of(out), want))
        op.add_entry(tuple(word), out, field.from_json(c))
    return op


def algebra_from_payload(payload, field=None):
    if not isinstance(payload, dict):
        raise ValueError("tower %r is not an object" % (payload,))
    field = field if field is not None else get_field(payload["scalar"])
    space = space_from_payload(payload, field)
    sp = space.shifted(1)
    if not isinstance(payload["ops"], dict):
        raise ValueError("ops must be an object: %r" % (payload["ops"],))
    sops = {int(k): op_from_payload(entries, k, sp, sp, 1, field)
            for k, entries in payload["ops"].items()}
    return LInftyAlgebra(space, sops)


def morphism_payload(mor):
    return {
        "scalar": mor.field.name,
        "source": algebra_payload(mor.source),
        "target": algebra_payload(mor.target),
        "components": {str(k): op_payload(f) for k, f in sorted(mor.components.items())},
    }


def morphism_from_payload(payload):
    field = get_field(payload["scalar"])
    src = algebra_from_payload(payload["source"], field)
    tgt = algebra_from_payload(payload["target"], field)
    comps = {int(k): op_from_payload(entries, k, src.shifted_space, tgt.shifted_space, 0, field)
             for k, entries in payload["components"].items()}
    return LInftyMorphism(src, tgt, comps)


def retract_payload(ctx, mu=None):
    out = {
        "scalar": ctx.big.field.name,
        "big_d": map_payload(ctx.big.d),
        "small_d": map_payload(ctx.small.d),
        "i": map_payload(ctx.i),
        "p": map_payload(ctx.p),
        "h": map_payload(ctx.h),
    }
    if mu is not None:
        out["mu"] = map_payload(mu)
    return out


def retract_from_payload(payload):
    from .graded import ChainComplex

    field = get_field(payload["scalar"])
    d_big = map_from_payload(payload["big_d"], field)
    d_small = map_from_payload(payload["small_d"], field)
    i = map_from_payload(payload["i"], field)
    p = map_from_payload(payload["p"], field)
    h = map_from_payload(payload["h"], field)
    ctx = RetractContext(
        ChainComplex(d_small.source, d_small, check=False),
        ChainComplex(d_big.source, d_big, check=False),
        i,
        p,
        h,
    )
    mu = map_from_payload(payload["mu"], field) if "mu" in payload else None
    return ctx, mu


# ------------------------------------------------------------- sections

def poly_payload(p):
    return {
        "nvars": p.nvars,
        "terms": [[list(e), p.field.to_json(c)] for e, c in sorted(p.terms.items())],
    }


def poly_from_payload(payload, field, nvars=None):
    """A polynomial, checked to have `nvars` variables when given."""
    if not isinstance(payload, dict):
        raise ValueError("polynomial %r is not an object" % (payload,))
    n = payload["nvars"]
    if not (isinstance(n, int) and n >= 0):
        raise ValueError("polynomial in %r variables" % (n,))
    if nvars is not None and n != nvars:
        raise ValueError("polynomial in %r variables, expected %d" % (n, nvars))
    terms = payload["terms"]
    if not (isinstance(terms, list) and all(isinstance(t, list) and len(t) == 2 for t in terms)):
        raise ValueError("polynomial terms %r are not a list of [exponent, coefficient]" % (terms,))
    p = MultiPoly(n, field)
    for e, c in terms:
        if not (isinstance(e, list) and len(e) == n
                and all(type(m) is int and m >= 0 for m in e)):  # not a bool
            raise ValueError("exponent %r is not %r nonnegative integers" % (e, n))
        p.terms[tuple(e)] = field.from_json(c)
    return p


def section_payload(qs):
    return {
        "scalar": qs.field.name,
        "nvars": qs.nvars,
        "rank": qs.rank,
        "section": [poly_payload(p) for p in qs.section],
    }


def section_from_payload(payload):
    field = get_field(payload["scalar"])
    if not (isinstance(payload["nvars"], int) and payload["nvars"] >= 0):
        raise ValueError("section in %r variables" % (payload["nvars"],))
    if not isinstance(payload["section"], list):
        raise ValueError("section %r is not a list" % (payload["section"],))
    if len(payload["section"]) != payload["rank"]:
        raise ValueError("section has %d components, rank is %r"
                         % (len(payload["section"]), payload["rank"]))
    section = [poly_from_payload(sp, field, payload["nvars"]) for sp in payload["section"]]
    return QsSpace(payload["nvars"], payload["rank"], section, field=field)


def bv_payload(bv):
    return {
        "scalar": bv.field.name,
        "algebra": algebra_payload(bv.algebra),
        "action": poly_payload(bv.S),
        "sigma": [[poly_payload(p) for p in row] for row in bv.sigma],
    }


def bv_from_payload(payload):
    field = get_field(payload["scalar"])
    alg = algebra_from_payload(payload["algebra"], field)
    n, r = alg.space.dim(1), alg.space.dim(2)
    rows = payload["sigma"]
    if not (isinstance(rows, list) and len(rows) == r
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise ValueError("sigma must be %d x %d" % (r, n))
    S = poly_from_payload(payload["action"], field, n)
    sigma = [[poly_from_payload(p, field, n) for p in row] for row in rows]
    return BVData(alg, S, sigma)


# ---------------------------------------------------------- orientations

def cocycle_payload(oc):
    return {
        "n_vertices": oc.n_vertices,
        "fibers": [QQ.to_json(QQ.coerce(v)) for v in oc.fiber_values],
        "transitions": [
            [i, j, QQ.to_json(QQ.coerce(t))]
            for (i, j), t in sorted(oc.transitions.items())
        ],
    }


def cocycle_from_payload(payload):
    n = payload["n_vertices"]
    for key in ("fibers", "transitions"):
        if not isinstance(payload[key], list):
            raise ValueError("%s must be a list: %r" % (key, payload[key]))
    fibers = [QQ.from_json(v) for v in payload["fibers"]]
    if len(fibers) != n:
        raise ValueError("%d fibers for %r vertices" % (len(fibers), n))
    transitions = {}
    for edge in payload["transitions"]:
        if not (isinstance(edge, list) and len(edge) == 3):
            raise ValueError("transition %r is not [i, j, value]" % (edge,))
        i, j, t = edge
        if not all(isinstance(v, int) and 0 <= v < n for v in (i, j)):
            raise ValueError("transition %r, %r between vertices out of range" % (i, j))
        t = QQ.from_json(t)
        if t == 0:
            raise ValueError("transition %r, %r is 0 and not invertible" % (i, j))
        transitions[(i, j)] = t
    return OrientationCocycle(n, fibers, transitions)
