"""Command line entry points.

Subcommands read and write the JSON envelopes of `serialize`.  Exit
codes: 0 on success, 1 when a check fails (the output carries a
witness), 2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction

from . import serialize
from .scalars import QQ, QQi, FloatComplexField, GaussianRational, get_field
from .polynomial import MultiPoly
from .transfer import minimal_model
from .qs import dcrit, minimal_decomposition, morse_thom_split
from .mc import to_float_algebra, solve_mc, build_nerve
from .bv import validate_bv, check_bv_orientable
from . import generators

OK, CHECK_FAILED, BAD_INPUT = 0, 1, 2


def _read_doc(path, kind=None):
    with open(path) as fh:
        return serialize.loads(fh.read(), kind=kind)


def _emit(args, name, text):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_out(args):
    """Commands that write several documents need --out: several
    documents on stdout would not parse as one."""
    if not args.out:
        raise ValueError("%s writes several files: give --out DIR" % args.command)


def _json_word(field, witness):
    w_in, w_out, coeff = witness
    return {
        "input_word": list(w_in),
        "output_word": list(w_out),
        "coefficient": field.to_json(coeff),
    }


def _json_detail(field, x):
    """A witness detail (scalars, polynomials, indices, labels, nested in
    tuples) as plain JSON."""
    if isinstance(x, MultiPoly):
        return serialize.poly_payload(x)
    if isinstance(x, (list, tuple)):
        return [_json_detail(field, y) for y in x]
    if isinstance(x, (str, int)):
        return x
    return field.to_json(field.coerce(x))


def _load_algebra(path):
    kind, payload = _read_doc(path)
    if kind == "linfty_algebra":
        return serialize.algebra_from_payload(payload)
    if kind == "qs_section":
        return serialize.section_from_payload(payload).to_linfty()
    raise ValueError("expected a tower or section document, got kind %r" % kind)


def _load_poly(path):
    kind, payload = _read_doc(path)
    if kind == "polynomial":
        field = get_field(payload.get("scalar", "rational"))
        return serialize.poly_from_payload(payload, field)
    raise ValueError("expected a polynomial document, got kind %r" % kind)


# ------------------------------------------------------------ subcommands

def cmd_check(args):
    alg = _load_algebra(args.file)
    rep = alg.validate(args.arity_check)
    payload = {"ok": rep.ok, "max_word_length": args.arity_check}
    if not rep.ok:
        payload["witness"] = _json_word(alg.field, rep.witness)
    _emit(args, "check.json", serialize.dumps("validation_report", payload))
    return OK if rep.ok else CHECK_FAILED


def cmd_transfer(args):
    _require_out(args)
    alg = _load_algebra(args.file)
    tr = minimal_model(alg, arity_out=args.arity_out)
    _emit(args, "minimal.json",
          serialize.dumps("linfty_algebra", serialize.algebra_payload(tr.small)))
    _emit(args, "inclusion.json",
          serialize.dumps("linfty_morphism", serialize.morphism_payload(tr.inclusion)))
    _emit(args, "projection.json",
          serialize.dumps("linfty_morphism", serialize.morphism_payload(tr.projection)))
    return OK


def _mc_seeds(alg, args):
    """args.n_seeds random real starting points on the degree-1
    coordinates, from args.seed."""
    idx = alg.space.indices_of_degree(1)
    rng = random.Random(args.seed)
    return [{i: complex(rng.uniform(-1, 1), 0.0) for i in idx} for _ in range(args.n_seeds)]


def cmd_solve_mc(args):
    alg = to_float_algebra(_load_algebra(args.file), tol=args.tol_mc)
    sols = []
    for seed in _mc_seeds(alg, args):
        sol = solve_mc(alg, seed, tol=args.tol_mc)
        if sol.converged:
            sols.append(
                {
                    "vector": {str(i): [c.real, c.imag] for i, c in sorted(sol.vector.items())},
                    "residual": sol.residual,
                }
            )
    payload = {
        "solutions": sols,
        "seeds": args.n_seeds,
        "failed_seeds": args.n_seeds - len(sols),
        "tolerance": args.tol_mc,
    }
    _emit(args, "mc_solutions.json", serialize.dumps("mc_solutions", payload))
    return OK if sols else CHECK_FAILED


def cmd_nerve(args):
    alg = to_float_algebra(_load_algebra(args.file), tol=args.tol_mc)
    graph = build_nerve(alg, _mc_seeds(alg, args), tol=args.tol_mc, flow_step=args.step)
    if args.format == "text":
        _emit(args, "nerve.txt", graph.to_graph_text() + "\n")
    else:
        _emit(args, "nerve.json", serialize.dumps("nerve_graph", graph.to_json_dict()))
    return OK


def cmd_dcrit(args):
    _require_out(args)
    S = _load_poly(args.file)
    qs = dcrit(S)
    _emit(args, "dcrit_section.json",
          serialize.dumps("qs_section", serialize.section_payload(qs)))
    _emit(args, "dcrit_tower.json",
          serialize.dumps("linfty_algebra", serialize.algebra_payload(qs.to_linfty())))
    return OK


def cmd_morse_split(args):
    S = _load_poly(args.file)
    split = morse_thom_split(S)
    payload = {
        "exact": split.exact,
        "split_rank": split.split_rank,
        "change": [serialize.poly_payload(p) for p in split.change],
        "quadratic_coefficients": [S.field.to_json(c) for c in split.quad_coeffs],
        "residual": serialize.poly_payload(split.residual),
    }
    _emit(args, "morse_split.json", serialize.dumps("morse_split", payload))
    return OK


def cmd_qs_minimal_model(args):
    _, payload = _read_doc(args.file, "qs_section")
    qs = serialize.section_from_payload(payload)
    dec = minimal_decomposition(qs)
    checks = dec.verify()
    out = {
        "exact": dec.exact,
        "identities_hold": checks,
        "minimal_variables": dec.n_min,
        "contractible_variables": dec.n_con,
        "minimal": serialize.section_payload(dec.minimal),
        "adapted": serialize.section_payload(dec.adapted),
    }
    _emit(args, "qs_minimal.json", serialize.dumps("qs_minimal_model", out))
    return OK if all(checks.values()) else CHECK_FAILED


def cmd_bv_verify(args):
    _, payload = _read_doc(args.file, "bv_data")
    bv = serialize.bv_from_payload(payload)
    rep = validate_bv(bv)
    out = {"ok": rep.ok, "checks": rep.checks}
    if not rep.ok:
        out["witness"] = {"class": rep.witness[0], "detail": _json_detail(bv.field, rep.witness[1])}
    _emit(args, "bv_report.json", serialize.dumps("bv_report", out))
    return OK if rep.ok else CHECK_FAILED


def cmd_orient(args):
    _, payload = _read_doc(args.file, "orientation_cocycle")
    oc = serialize.cocycle_from_payload(payload)
    ok, data = check_bv_orientable(oc)
    if ok:
        # exact roots as Gaussian rationals, cmath roots as floats
        section = [
            QQi.to_json(QQi.coerce(s))
            if isinstance(s, (int, Fraction, GaussianRational))
            else FloatComplexField().to_json(complex(s))
            for s in data
        ]
        out = {"orientable": True, "section": section}
    else:
        out = {"orientable": False, "cycle": list(data)}
    _emit(args, "orientation.json", serialize.dumps("orientation_report", out))
    return OK if ok else CHECK_FAILED


def cmd_gen_examples(args):
    _require_out(args)
    rng = random.Random(args.seed)
    docs = {}
    for t in range(3):
        alg = generators.weighted_nilpotent_dgla(rng)
        docs["tower_%d.json" % t] = serialize.dumps(
            "linfty_algebra", serialize.algebra_payload(alg)
        )
    ctx, mu = generators.block_perturbed_context(rng)
    docs["retract_0.json"] = serialize.dumps("retract", serialize.retract_payload(ctx, mu))
    for t in range(2):
        qs = generators.random_adaptable_section(rng)
        docs["section_%d.json" % t] = serialize.dumps(
            "qs_section", serialize.section_payload(qs)
        )
    x1 = MultiPoly.variable(2, 0, QQ)
    x2 = MultiPoly.variable(2, 1, QQ)
    docs["potential_0.json"] = serialize.dumps(
        "polynomial", dict(serialize.poly_payload(x1 ** 3 - x1 * x2), scalar="rational")
    )
    from .bv import canonical_dcrit_bv

    docs["bv_0.json"] = serialize.dumps(
        "bv_data", serialize.bv_payload(canonical_dcrit_bv(x1 ** 3 - x1 * x2))
    )
    for name, text in sorted(docs.items()):
        _emit(args, name, text)
    return OK


# ------------------------------------------------------------------ main

@functools.cache
def build_parser():
    """The argument parser, built once per process.  Each subcommand names
    its handler, which `main` looks up at call time, so a handler that is
    replaced on the module (as a tracer does) is the one that runs."""
    ap = argparse.ArgumentParser(
        prog="homotopylie",
        description="exact homotopy Lie algebra computations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR", default=None,
                        help="write outputs into DIR instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, handler, **extra):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        for aname, kw in extra.items():
            p.add_argument("--" + aname.replace("_", "-"), **kw)
        return p

    p = add("check", "cmd_check",
            arity_check=dict(type=int, default=3, help="max word length"))
    p.add_argument("file")

    p = add("transfer", "cmd_transfer",
            arity_out=dict(type=int, default=3, help="highest transferred arity"))
    p.add_argument("file")

    p = add("solve-mc", "cmd_solve_mc",
            tol_mc=dict(type=float, default=1e-10),
            seed=dict(type=int, default=0),
            n_seeds=dict(type=int, default=10))
    p.add_argument("file")

    p = add("nerve", "cmd_nerve",
            tol_mc=dict(type=float, default=1e-10),
            seed=dict(type=int, default=0),
            n_seeds=dict(type=int, default=20),
            step=dict(type=float, default=0.02),
            format=dict(choices=["json", "text"], default="json"))
    p.add_argument("file")

    p = add("dcrit", "cmd_dcrit")
    p.add_argument("file")

    p = add("morse-split", "cmd_morse_split")
    p.add_argument("file")

    p = add("qs-minimal-model", "cmd_qs_minimal_model")
    p.add_argument("file")

    p = add("bv-verify", "cmd_bv_verify")
    p.add_argument("file")

    p = add("orient", "cmd_orient")
    p.add_argument("file")

    add("gen-examples", "cmd_gen_examples", seed=dict(type=int, default=0))
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return BAD_INPUT if ex.code not in (0, None) else 0
    try:
        return globals()[args.handler](args)
    except (OSError, ValueError, KeyError) as ex:
        sys.stderr.write("error: %s\n" % ex)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
