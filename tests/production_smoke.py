"""A fixed production smoke, run under a function-level trace.

The smoke is what a user of the package runs: the CLI on the documents of
`gen-examples --seed 5` with every subcommand that reads each kind,
`check` on the two morphisms of a `transfer` and on a corrupted
inclusion, the first tower again over the Gaussian rationals, the nerve of the BRST
circle, a Morse split that swaps coordinates, one failing `check`, one
rejected `bv-verify`, orientable cocycles with square and with non-square
roots, two non-orientable ones, and the three demos.  The trace records every
function code object of the package that is called (comprehensions are
not functions here).

    python tests/production_smoke.py DIR

runs the smoke in DIR, in a fresh process, so that no memo of an earlier
run hides a call, and prints the reached functions as a JSON list of
["module.qualname", first line].  `tests/test_dead_code.py` compares that
list with the package's functions.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import runpy
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homotopylie"

# the commands that read each kind of data document that a command writes
COMMANDS_OF_KIND = {
    "linfty_algebra": ["check", "transfer", "solve-mc", "nerve"],
    "linfty_morphism": ["check"],
    "qs_section": ["check", "transfer", "solve-mc", "nerve", "qs-minimal-model"],
    "polynomial": ["dcrit", "morse-split"],
    "bv_data": ["bv-verify"],
    "orientation_cocycle": ["orient"],
}
# few seeds for the nerve, which shoots between every pair of vertices
FEW_SEEDS = {"nerve": ["--n-seeds", "4"]}
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def definition_key(code):
    """("module.qualname", first line) of a function code object of the
    package, or None for module and class bodies, comprehensions and code
    elsewhere.  The first line tells apart two functions of one qualname
    (two lambdas of one function, say)."""
    if code.co_name in COMPREHENSIONS or not code.co_flags & inspect.CO_OPTIMIZED:
        return None
    path = Path(code.co_filename).resolve()
    if path.parent != PACKAGE:
        return None
    return "%s.%s" % (path.stem, code.co_qualname), code.co_firstlineno


def _cli(argv, expect):
    from homotopylie.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != expect:
        raise AssertionError("%s exited %d, not %d" % (" ".join(map(str, argv)), code, expect))


def _write(path, kind, payload):
    from homotopylie import serialize

    path.write_text(serialize.dumps(kind, payload))
    return path


def run(work):
    """The smoke, in the directory `work`."""
    from homotopylie import QQ, generators, serialize
    from homotopylie.polynomial import MultiPoly

    ex = work / "ex"
    _cli(["gen-examples", "--out", ex, "--seed", "5"], 0)
    for path in sorted(ex.iterdir()):
        kind = json.loads(path.read_text())["kind"]
        for command in COMMANDS_OF_KIND.get(kind, []):
            _cli([command, path, "--out", work / command] + FEW_SEEDS.get(command, []), 0)
    _cli(["nerve", ex / "tower_0.json", "--format", "text", "--out", work / "nerve"]
         + FEW_SEEDS["nerve"], 0)
    # the two morphisms of the last transfer, and its inclusion with one
    # constant raised by one
    for name in ("inclusion.json", "projection.json"):
        _cli(["check", work / "transfer" / name, "--out", work / "morphism"], 0)
    doc = json.loads((work / "transfer" / "inclusion.json").read_text())
    entry = doc["payload"]["components"]["1"][0]
    entry[2] = str(Fraction(entry[2]) + 1)
    bad = work / "bad_inclusion.json"
    bad.write_text(json.dumps(doc))
    _cli(["check", bad, "--out", work / "bad"], 1)

    # the same tower over the Gaussian rationals, through the exact and
    # the float commands
    doc = json.loads((ex / "tower_0.json").read_text())
    doc["payload"]["scalar"] = "rational-complex"
    qqi = work / "tower_qqi.json"
    qqi.write_text(json.dumps(doc))
    for command in COMMANDS_OF_KIND["linfty_algebra"]:
        _cli([command, qqi, "--out", work / "qqi"] + FEW_SEEDS.get(command, []), 0)
    # a tower with a bracket of arity 3 and gauge directions: its nerve
    # shoots through the RK4 stages
    brst = _write(work / "brst.json", "linfty_algebra",
                  serialize.algebra_payload(generators.brst_circle().algebra))
    _cli(["nerve", brst, "--out", work / "brst"] + FEW_SEEDS["nerve"], 0)

    doc = json.loads((ex / "tower_0.json").read_text())
    doc["payload"]["ops"]["1"][0][2] = "1"
    bad = work / "bad_tower.json"
    bad.write_text(json.dumps(doc))
    _cli(["check", bad, "--out", work / "bad"], 1)

    # a Hessian whose first diagonal entry is 0
    x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
    potential = dict(serialize.poly_payload(x1 ** 3 + x2 * x2), scalar="rational")
    _cli(["morse-split", _write(work / "potential.json", "polynomial", potential),
          "--out", work / "morse-split"], 0)

    _, payload = serialize.loads((ex / "bv_0.json").read_text())
    data = serialize.bv_from_payload(payload)
    data.sigma[0][1] = data.sigma[0][1] + MultiPoly.variable(data.n, 0, QQ)
    _cli(["bv-verify", _write(work / "bad_bv.json", "bv_data", serialize.bv_payload(data)),
          "--out", work / "bad"], 1)

    cocycles = [
        ({"n_vertices": 2, "fibers": ["4", "9"], "transitions": [[0, 1, "3/2"]]}, 0),
        ({"n_vertices": 3, "fibers": ["1", "1", "1"],
          "transitions": [[0, 1, "1"], [1, 2, "1"], [0, 2, "-1"]]}, 1),
        # fibers that are not rational squares: non-square roots
        ({"n_vertices": 2, "fibers": ["2", "8"], "transitions": [[0, 1, "2"]]}, 0),
        # a transition that is not +- the ratio of the roots
        ({"n_vertices": 2, "fibers": ["4", "9"], "transitions": [[0, 1, "1"]]}, 1),
    ]
    for t, (payload, expect) in enumerate(cocycles):
        path = _write(work / ("cocycle_%d.json" % t), "orientation_cocycle", payload)
        _cli(["orient", path, "--out", work / "orient"], expect)

    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def reached(work):
    """The sorted ("module.qualname", first line) of every package
    function the smoke calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run(work)
    finally:
        sys.setprofile(None)
    return sorted({key for key in map(definition_key, codes) if key})


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(reached(Path(sys.argv[1]))))
