import contextlib
import copy
import functools
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homotopylie import QQ, serialize
from production_smoke import COMMANDS_OF_KIND
from exactness import assert_exact_document
from homotopylie.cli import main
from homotopylie.generators import nilpotent_tower_with_corruption
from homotopylie.bv import OrientationCocycle, canonical_dcrit_bv
from homotopylie.mc import to_float_algebra
from homotopylie.polynomial import MultiPoly
from homotopylie.qs import dcrit
from fractions import Fraction


def _run(tmp_path, *argv):
    return main(list(argv))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write(path, kind, payload):
    with open(path, "w") as fh:
        fh.write(serialize.dumps(kind, payload))
    return path


def test_gen_examples_and_check(tmp_path):
    ex = str(tmp_path / "ex")
    assert main(["gen-examples", "--out", ex, "--seed", "3"]) == 0
    towers = sorted(f for f in os.listdir(ex) if f.startswith("tower"))
    assert len(towers) == 3
    for f in towers:
        assert main(["check", os.path.join(ex, f), "--out", str(tmp_path)]) == 0
    rep = json.loads(_read(str(tmp_path / "check.json")))
    assert rep["kind"] == "validation_report"
    assert rep["payload"]["ok"] is True


def test_gen_examples_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["gen-examples", "--out", a, "--seed", "7"]) == 0
    assert main(["gen-examples", "--out", b, "--seed", "7"]) == 0
    files = sorted(os.listdir(a))
    assert files == sorted(os.listdir(b))
    for f in files:
        assert _read(os.path.join(a, f)) == _read(os.path.join(b, f))


def test_check_rejects_corrupted_tower(tmp_path):
    rng = random.Random(40)
    alg, bad, loc = nilpotent_tower_with_corruption(rng)
    good_p = str(tmp_path / "good.json")
    bad_p = str(tmp_path / "bad.json")
    with open(good_p, "w") as fh:
        fh.write(serialize.dumps("linfty_algebra", serialize.algebra_payload(alg)))
    with open(bad_p, "w") as fh:
        fh.write(serialize.dumps("linfty_algebra", serialize.algebra_payload(bad)))
    assert main(["check", good_p, "--out", str(tmp_path / "g")]) == 0
    assert main(["check", bad_p, "--out", str(tmp_path / "b")]) == 1
    rep = json.loads(_read(str(tmp_path / "b" / "check.json")))
    assert rep["payload"]["ok"] is False
    assert "witness" in rep["payload"]
    assert rep["payload"]["witness"]["input_word"]


def test_transfer_outputs_parse(tmp_path):
    ex = str(tmp_path / "ex")
    main(["gen-examples", "--out", ex, "--seed", "1"])
    out = str(tmp_path / "tr")
    assert main(["transfer", os.path.join(ex, "tower_0.json"), "--out", out]) == 0
    _, payload = serialize.loads(_read(os.path.join(out, "minimal.json")))
    small = serialize.algebra_from_payload(payload)
    assert small.validate(3).ok
    _, pincl = serialize.loads(_read(os.path.join(out, "inclusion.json")))
    serialize.morphism_from_payload(pincl)


def test_check_reads_the_morphisms_that_transfer_writes(tmp_path):
    for seed in range(1, 6):
        ex = tmp_path / ("ex%d" % seed)
        assert main(["gen-examples", "--out", str(ex), "--seed", str(seed)]) == 0
        for t in range(3):
            tr = tmp_path / ("tr%d_%d" % (seed, t))
            assert main(["transfer", str(ex / ("tower_%d.json" % t)), "--out", str(tr)]) == 0
            for name in ("inclusion.json", "projection.json"):
                out = tmp_path / "chk"
                assert main(["check", str(tr / name), "--out", str(out)]) == 0, (seed, t, name)
                rep = json.loads(_read(str(out / "check.json")))
                assert rep["kind"] == "validation_report"
                assert rep["payload"] == {"ok": True, "max_word_length": 3}


def test_check_rejects_a_corrupted_inclusion_with_a_witness(tmp_path):
    ex, tr = tmp_path / "ex", tmp_path / "tr"
    assert main(["gen-examples", "--out", str(ex), "--seed", "5"]) == 0
    assert main(["transfer", str(ex / "tower_1.json"), "--out", str(tr)]) == 0
    doc = json.loads((tr / "inclusion.json").read_text())
    entry = doc["payload"]["components"]["2"][0]
    entry[2] = str(Fraction(entry[2]) + 1)
    bad = _write(str(tmp_path / "bad.json"), "linfty_morphism", doc["payload"])
    assert main(["check", bad, "--out", str(tmp_path / "b")]) == 1
    rep = json.loads(_read(str(tmp_path / "b" / "check.json")))["payload"]
    assert rep["ok"] is False
    # the witness is a nonzero value of pi_1 (Q_T F - F Q_S)
    mor = serialize.morphism_from_payload(doc["payload"])
    w, (o,) = tuple(rep["witness"]["input_word"]), rep["witness"]["output_word"]
    c = mor.corestricted_defect()(w)[o]
    assert c != 0 and rep["witness"]["coefficient"] == QQ.to_json(c)
    # a transfer is truncated at its --arity-out: checked above it, the
    # morphism equation fails at the first length it leaves out
    inclusion = str(tr / "inclusion.json")
    assert main(["check", inclusion, "--arity-check", "4", "--out", str(tmp_path / "c4")]) == 1
    assert main(["transfer", str(ex / "tower_1.json"), "--arity-out", "4", "--out", str(tmp_path / "tr4")]) == 0
    assert main(["check", str(tmp_path / "tr4" / "inclusion.json"), "--arity-check", "4",
                 "--out", str(tmp_path / "c4")]) == 0


def test_every_document_a_command_writes_is_read_by_a_command(tmp_path):
    # the commands that write data documents: gen-examples, and transfer
    # and dcrit on what it writes
    ex = tmp_path / "ex"
    assert main(["gen-examples", "--out", str(ex), "--seed", "5"]) == 0
    assert main(["transfer", str(ex / "tower_0.json"), "--out", str(tmp_path / "tr")]) == 0
    assert main(["dcrit", str(ex / "potential_0.json"), "--out", str(tmp_path / "dc")]) == 0
    kinds = {}
    for d in (ex, tmp_path / "tr", tmp_path / "dc"):
        for path in sorted(d.iterdir()):
            kinds[path.name] = json.loads(path.read_text())["kind"]
    assert {name: kind for name, kind in kinds.items() if kind not in COMMANDS_OF_KIND} == {}
    assert len(kinds) == 7 + 3 + 2


@pytest.mark.parametrize("command, option, value", [
    ("check", "--arity-check", "0"),
    ("check", "--arity-check", "-1"),
    ("transfer", "--arity-out", "0"),
    ("solve-mc", "--n-seeds", "-3"),
    ("solve-mc", "--tol-mc", "nan"),
    ("solve-mc", "--tol-mc", "0"),
    ("nerve", "--tol-mc", "inf"),
    ("nerve", "--step", "0"),
    ("nerve", "--step", "-0.02"),
    ("nerve", "--step", "nan"),
    ("nerve", "--n-seeds", "-1"),
])
def test_numeric_options_out_of_range_exit_2(tmp_path, capsys, command, option, value):
    # a check of no word passes anything, a zero step divides by zero, a
    # negative seed count or a nan tolerance writes nonsense: none runs
    rng = random.Random(40)
    _, bad, _ = nilpotent_tower_with_corruption(rng)
    path = _write(str(tmp_path / "bad.json"), "linfty_algebra", serialize.algebra_payload(bad))
    out = tmp_path / "out"
    assert main([command, path, option, value, "--out", str(out)]) == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_orient_exit_codes(tmp_path):
    good = OrientationCocycle(
        2, [Fraction(4), Fraction(9)], {(0, 1): Fraction(3, 2)}
    )
    badc = OrientationCocycle(
        3,
        [Fraction(1)] * 3,
        {(0, 1): Fraction(1), (1, 2): Fraction(1), (0, 2): Fraction(-1)},
    )
    gp, bp = str(tmp_path / "g.json"), str(tmp_path / "b.json")
    with open(gp, "w") as fh:
        fh.write(serialize.dumps("orientation_cocycle", serialize.cocycle_payload(good)))
    with open(bp, "w") as fh:
        fh.write(serialize.dumps("orientation_cocycle", serialize.cocycle_payload(badc)))
    assert main(["orient", gp, "--out", str(tmp_path / "og")]) == 0
    assert main(["orient", bp, "--out", str(tmp_path / "ob")]) == 1
    rep = json.loads(_read(str(tmp_path / "ob" / "orientation.json")))
    assert rep["payload"]["orientable"] is False
    assert len(rep["payload"]["cycle"]) >= 3


def test_malformed_input_is_structural_error(tmp_path):
    p = str(tmp_path / "junk.json")
    with open(p, "w") as fh:
        fh.write("{not json")
    assert main(["check", p]) == 2
    q = str(tmp_path / "wrongkind.json")
    with open(q, "w") as fh:
        fh.write(serialize.dumps("polynomial", {"nvars": 1, "terms": [], "scalar": "rational"}))
    assert main(["bv-verify", q]) == 2


def test_solve_mc_writes_only_converged_solves(tmp_path):
    # Gauss-Newton stalls from one of the ten seeds of --seed 0 here
    z1, z2, z3 = (MultiPoly.variable(3, i, QQ) for i in range(3))
    S = (z1 * z1 * QQ.coerce(2) - z1 * z2 + z2 * z2 * QQ.coerce(3)
         + z1 * z3 * z3 * QQ.coerce(3) - z3 ** 3 + z2 ** 3 * z3 * QQ.coerce(3))
    alg = dcrit(S).to_linfty()
    path = _write(str(tmp_path / "t.json"), "linfty_algebra", serialize.algebra_payload(alg))
    out = str(tmp_path / "mc")
    assert main(["solve-mc", path, "--seed", "0", "--n-seeds", "10", "--out", out]) == 0
    rep = json.loads(_read(os.path.join(out, "mc_solutions.json")))["payload"]
    assert rep["failed_seeds"] >= 1
    assert len(rep["solutions"]) + rep["failed_seeds"] == 10
    algf = to_float_algebra(alg)
    for sol in rep["solutions"]:
        x = {int(i): complex(re, im) for i, (re, im) in sol["vector"].items()}
        assert algf.mc_residual(x) <= rep["tolerance"]
    # no seed at all: nothing converges, and the command says so
    assert main(["solve-mc", path, "--n-seeds", "0", "--out", out]) == 1


def test_orient_negative_fibers_give_imaginary_section(tmp_path):
    oc = OrientationCocycle(2, [Fraction(-4), Fraction(-9)], {(0, 1): Fraction(3, 2)})
    path = _write(str(tmp_path / "c.json"), "orientation_cocycle", serialize.cocycle_payload(oc))
    assert main(["orient", path, "--out", str(tmp_path / "o")]) == 0
    rep = json.loads(_read(str(tmp_path / "o" / "orientation.json")))["payload"]
    assert rep["orientable"] is True
    assert rep["section"] == [["0", "2"], ["0", "3"]]  # (2i, 3i)
    assert rep["radicand"] == ["1", "1"]


def test_orient_writes_an_exact_section_for_fibers_that_are_not_squares(tmp_path):
    # fibers (2, 8) along a transition 2: the section (sqrt 2, 2 sqrt 2)
    oc = OrientationCocycle(2, [Fraction(2), Fraction(8)], {(0, 1): Fraction(2)})
    path = _write(str(tmp_path / "c.json"), "orientation_cocycle", serialize.cocycle_payload(oc))
    assert main(["orient", path, "--out", str(tmp_path / "o")]) == 0
    text = _read(str(tmp_path / "o" / "orientation.json"))
    assert_exact_document(text)
    rep = json.loads(text)["payload"]
    assert rep["section"] == [["1", "0"], ["2", "0"]]
    assert rep["radicand"] == ["2", "2"]


def test_float_commands_read_a_rational_complex_tower_as_its_rational_twin(tmp_path):
    # the float conversion takes complex() of every Gaussian rational
    # (GaussianRational.__complex__): the same bits as of the rational
    ex = tmp_path / "ex"
    assert main(["gen-examples", "--out", str(ex), "--seed", "5"]) == 0
    doc = json.loads((ex / "tower_0.json").read_text())
    doc["payload"]["scalar"] = "rational-complex"
    twin = _write(str(tmp_path / "qqi.json"), "linfty_algebra", doc["payload"])
    for command, name in (("solve-mc", "mc_solutions.json"), ("nerve", "nerve.json")):
        for tag, path in (("qq", str(ex / "tower_0.json")), ("qqi", twin)):
            assert main([command, path, "--n-seeds", "4", "--out", str(tmp_path / tag)]) == 0
        assert _read(str(tmp_path / "qq" / name)) == _read(str(tmp_path / "qqi" / name))


def test_bv_verify_rejection_carries_a_json_witness(tmp_path):
    x1, x2 = (MultiPoly.variable(2, i, QQ) for i in range(2))
    data = canonical_dcrit_bv(x1 ** 3 - x1 * x2)
    data.sigma[0][1] = data.sigma[0][1] + x1
    path = _write(str(tmp_path / "bv.json"), "bv_data", serialize.bv_payload(data))
    assert main(["bv-verify", path, "--out", str(tmp_path / "b")]) == 1
    rep = json.loads(_read(str(tmp_path / "b" / "bv_report.json")))["payload"]
    assert rep["ok"] is False and rep["checks"]["triangle"] is False
    row, defect = rep["witness"]["detail"]
    assert rep["witness"]["class"] == "triangle" and row == 1
    assert serialize.poly_from_payload(defect, QQ).terms


def test_qs_minimal_model_exits_1_when_an_identity_fails(tmp_path, monkeypatch):
    from homotopylie import qs

    ex = str(tmp_path / "ex")
    assert main(["gen-examples", "--out", ex, "--seed", "3"]) == 0
    section = os.path.join(ex, "section_0.json")
    assert main(["qs-minimal-model", section, "--out", str(tmp_path / "good")]) == 0
    monkeypatch.setattr(qs.QsMorphism, "is_identity", lambda self: False)
    assert main(["qs-minimal-model", section, "--out", str(tmp_path / "bad")]) == 1
    rep = json.loads(_read(str(tmp_path / "bad" / "qs_minimal.json")))["payload"]
    assert rep["identities_hold"]["P I = id"] is False


def test_qs_minimal_model_exits_2_on_a_section_it_cannot_adapt(tmp_path, capsys):
    # theta (x + x^2) is linear for no nonzero polynomial theta, so the
    # rank-1 linear part has no exact polynomial adaptation
    x = MultiPoly.variable(1, 0, QQ)
    payload = {"scalar": "rational", "nvars": 1, "rank": 1,
               "section": [serialize.poly_payload(x + x * x)]}
    path = _write(str(tmp_path / "s.json"), "qs_section", payload)
    out = tmp_path / "out"
    assert main(["qs-minimal-model", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no exact polynomial adaptation at degree bound 2"), err
    assert not (out / "qs_minimal.json").exists()


# ------------------------------------------------ malformed documents

def _tower_payload(edit):
    from homotopylie.generators import lambda_dgla

    payload = serialize.algebra_payload(lambda_dgla())
    edit(payload)
    return payload


def _tower_with(edit):
    # the first q2 entry is ([0, 1], 1, "1") -- degree -1 output
    return _tower_payload(lambda payload: edit(payload["ops"]["2"][0]))


def _set_output(index):
    def edit(entry):
        entry[1] = index
    return edit


def _set_coefficient(c):
    def edit(entry):
        entry[2] = c
    return edit


def _gaussian_tower_with_float_part():
    payload = _tower_with(_set_coefficient([0.5, "0"]))
    payload["scalar"] = "rational-complex"
    return payload


def _float_tower_with_three_part_coefficient():
    from homotopylie.generators import lambda_dgla

    payload = serialize.algebra_payload(to_float_algebra(lambda_dgla()))
    payload["ops"]["2"][0][2] = ["1", "0", "7"]
    return payload


def _section():
    return serialize.section_payload(dcrit(MultiPoly.variable(1, 0, QQ) ** 3))


def _section_with_extra_row():
    payload = _section()
    payload["section"].append(payload["section"][0])
    return payload


def _section_with(key, value):
    payload = _section()
    payload[key] = value
    return payload


def _section_with_null_terms():
    payload = _section()
    payload["section"][0]["terms"] = None
    return payload


def _potential_with_int_terms():
    return dict(serialize.poly_payload(MultiPoly.variable(2, 0, QQ) ** 3), scalar="rational", terms=3)


def _potential_with_boolean_exponent():
    payload = dict(serialize.poly_payload(MultiPoly.variable(2, 0, QQ) ** 3), scalar="rational")
    payload["terms"][0][0][0] = True
    return payload


def _bv_with(key, value):
    payload = serialize.bv_payload(canonical_dcrit_bv(MultiPoly.variable(2, 0, QQ) ** 3))
    payload[key] = value
    return payload


def _bv_with_null_sigma_row():
    return _bv_with("sigma", [None, None])


def _bv_with_short_sigma():
    payload = serialize.bv_payload(canonical_dcrit_bv(MultiPoly.variable(2, 0, QQ) ** 3))
    payload["sigma"][0].pop()
    return payload


def _cocycle_with_stray_edge():
    oc = OrientationCocycle(2, [Fraction(4), Fraction(9)], {(0, 1): Fraction(3, 2), (1, 2): Fraction(1)})
    return serialize.cocycle_payload(oc)


def _cocycle_with_zero_transition():
    return {"n_vertices": 2, "fibers": ["1", "4"], "transitions": [[0, 1, "0"]]}


def _morphism_with(key, value):
    from homotopylie.generators import weighted_nilpotent_dgla
    from homotopylie.transfer import minimal_model

    payload = serialize.morphism_payload(minimal_model(weighted_nilpotent_dgla(random.Random(1))).inclusion)
    payload[key] = value
    return payload


MALFORMED = {
    "output index out of range": ("linfty_algebra", lambda: _tower_with(_set_output(999)),
                                  ["check", "transfer"]),
    "output of the wrong degree": ("linfty_algebra", lambda: _tower_with(_set_output(4)),
                                   ["check", "transfer"]),
    "word longer than its arity": ("linfty_algebra", lambda: _tower_with(lambda e: e[0].append(2)),
                                   ["check", "transfer"]),
    "coefficient that is a list": ("linfty_algebra", lambda: _tower_with(_set_coefficient(["1", "2"])),
                                   ["check", "transfer"]),
    "coefficient with a zero denominator": ("linfty_algebra",
                                            lambda: _tower_with(_set_coefficient("1/0")),
                                            ["check", "transfer"]),
    "coefficient that is a JSON float": ("linfty_algebra", lambda: _tower_with(_set_coefficient(0.1)),
                                         ["check", "transfer"]),
    "coefficient that is a JSON boolean": ("linfty_algebra", lambda: _tower_with(_set_coefficient(True)),
                                           ["check", "transfer"]),
    "rational-complex coefficient with a float part": ("linfty_algebra", _gaussian_tower_with_float_part,
                                                       ["check", "transfer"]),
    "float coefficient with three parts": ("linfty_algebra", _float_tower_with_three_part_coefficient,
                                           ["check", "transfer"]),
    "section longer than its rank": ("qs_section", _section_with_extra_row,
                                     ["check", "qs-minimal-model"]),
    "section whose nvars is null": ("qs_section", lambda: _section_with("nvars", None),
                                    ["check", "qs-minimal-model"]),
    "section that is an int": ("qs_section", lambda: _section_with("section", 3),
                               ["check", "qs-minimal-model"]),
    "section component that is null": ("qs_section", lambda: _section_with("section", [None]),
                                       ["check", "qs-minimal-model"]),
    "section component whose terms are null": ("qs_section", _section_with_null_terms,
                                               ["check", "qs-minimal-model"]),
    "section payload that is a list": ("qs_section", lambda: [_section()],
                                       ["check", "qs-minimal-model"]),
    "polynomial whose terms are an int": ("polynomial", _potential_with_int_terms, ["dcrit", "morse-split"]),
    "exponent that is a JSON boolean": ("polynomial", _potential_with_boolean_exponent, ["dcrit", "morse-split"]),
    "sigma not r x n": ("bv_data", _bv_with_short_sigma, ["bv-verify"]),
    "sigma that is an int": ("bv_data", lambda: _bv_with("sigma", 3), ["bv-verify"]),
    "sigma with a null row": ("bv_data", _bv_with_null_sigma_row, ["bv-verify"]),
    "action that is null": ("bv_data", lambda: _bv_with("action", None), ["bv-verify"]),
    "algebra that is a boolean": ("bv_data", lambda: _bv_with("algebra", True), ["bv-verify"]),
    "edge to a missing vertex": ("orientation_cocycle", _cocycle_with_stray_edge, ["orient"]),
    "transition that is 0": ("orientation_cocycle", _cocycle_with_zero_transition, ["orient"]),
    "dims that is an int": ("linfty_algebra", lambda: _tower_payload(lambda p: p.update(dims=3)),
                            ["check", "transfer"]),
    "arity whose entries are null": ("linfty_algebra",
                                     lambda: _tower_payload(lambda p: p["ops"].update({"2": None})),
                                     ["check", "transfer"]),
    "ops that is a list": ("linfty_algebra", lambda: _tower_payload(lambda p: p.update(ops=[[[0, 1], 1, "1"]])),
                           ["check", "transfer"]),
    "transition that is not a triple": ("orientation_cocycle",
                                        lambda: {"n_vertices": 2, "fibers": ["1", "4"], "transitions": [3]},
                                        ["orient"]),
    "transitions that are an int": ("orientation_cocycle",
                                    lambda: {"n_vertices": 2, "fibers": ["1", "4"], "transitions": 3},
                                    ["orient"]),
    "fibers that are an int": ("orientation_cocycle", lambda: {"n_vertices": 2, "fibers": 3, "transitions": []},
                               ["orient"]),
    "morphism components that are a list": ("linfty_morphism",
                                            lambda: _morphism_with("components", [[[0], 1, "1"]]), ["check"]),
    "morphism source that is null": ("linfty_morphism", lambda: _morphism_with("source", None), ["check"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_2_with_a_message(tmp_path, capsys, case):
    kind, make, commands = MALFORMED[case]
    path = _write(str(tmp_path / "doc.json"), kind, make())
    for command in commands:
        out = str(tmp_path / command)
        assert main([command, path, "--out", out]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip()) > len("error:"), err
        assert not os.path.exists(out), "%s wrote output for a malformed document" % command


def test_gen_examples_needs_out(tmp_path, capsys):
    assert main(["gen-examples", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err


@pytest.mark.parametrize("command, doc", [("transfer", "tower_1.json"), ("dcrit", "potential_0.json")])
def test_multi_document_commands_need_out(tmp_path, capsys, command, doc):
    ex = str(tmp_path / "ex")
    assert main(["gen-examples", "--out", ex, "--seed", "5"]) == 0
    capsys.readouterr()
    assert main([command, os.path.join(ex, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--out" in captured.err


def test_only_nerve_takes_format(tmp_path):
    from homotopylie.generators import lambda_dgla

    path = _write(str(tmp_path / "t.json"), "linfty_algebra", serialize.algebra_payload(lambda_dgla()))
    out = str(tmp_path / "out")
    assert main(["check", path, "--out", out]) == 0
    assert main(["check", path, "--out", out, "--format", "text"]) == 2
    assert main(["check", path, "--out", out, "--scalar", "rational"]) == 2
    assert main(["nerve", path, "--out", out, "--n-seeds", "0", "--format", "text"]) == 0
    assert _read(os.path.join(out, "nerve.txt")) == "#\n\n"


def test_importing_the_cli_leaves_numpy_unloaded():
    # exact commands never touch numpy, so they do not pay for its import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, homotopylie.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


# ------------------------------------------- mutated documents, fuzzed

SMALL_VALUES = [None, 0, -1, "", [], {}, True, "x"]
# few seeds for the float commands, so that an example stays cheap
FEW_SEEDS = {"solve-mc": ["--n-seeds", "2"], "nerve": ["--n-seeds", "2"]}


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """The documents of `gen-examples --seed 5`, the two morphisms of
    `transfer tower_1.json` and one rational orientation cocycle, as
    parsed JSON by name: a document of every kind that a command reads."""
    ex = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-examples", "--out", str(ex), "--seed", "5"]) == 0
    assert main(["transfer", str(ex / "tower_1.json"), "--out", str(ex / "tr")]) == 0
    for name in ("inclusion.json", "projection.json"):
        (ex / name).write_text((ex / "tr" / name).read_text())
    cocycle = OrientationCocycle(2, [Fraction(4), Fraction(9)], {(0, 1): Fraction(3, 2)})
    _write(str(ex / "cocycle.json"), "orientation_cocycle", serialize.cocycle_payload(cocycle))
    docs = {p.name: json.loads(p.read_text()) for p in sorted(ex.glob("*.json"))}
    assert {doc["kind"] for doc in docs.values()} == set(COMMANDS_OF_KIND)
    return ex, docs


def _paths(node, path=()):
    """The path of every node below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutant(data, doc):
    """doc with one node below the root replaced by a small value, deleted
    or duplicated.  The node is drawn by depth first, then among the nodes
    of that depth, so that the few shallow nodes, where a reader meets the
    shape of a document, are drawn as often as the many leaves."""
    doc = copy.deepcopy(doc)
    by_depth = {}
    for path in _paths(doc):
        by_depth.setdefault(len(path), []).append(path)
    path = data.draw(st.sampled_from(by_depth[data.draw(st.sampled_from(sorted(by_depth)))]))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    key = path[-1]
    how = data.draw(st.sampled_from(SMALL_VALUES + ["delete", "duplicate"]))
    if how == "delete":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif how == "duplicate":
        parent[key + "_copy"] = parent[key]
    else:
        parent[key] = how
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(fuzz_documents, data):
    ex, docs = fuzz_documents
    kind = data.draw(st.sampled_from(sorted(COMMANDS_OF_KIND)))
    name = data.draw(st.sampled_from(sorted(n for n, doc in docs.items() if doc["kind"] == kind)))
    path = ex / ("mutant_" + name)
    path.write_text(json.dumps(_mutant(data, docs[name])))
    for command in COMMANDS_OF_KIND[kind]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(path), "--out", str(ex / "out")] + FEW_SEEDS.get(command, []))
        assert code in (0, 1, 2), (command, code)
        if code == 2:
            assert err.getvalue().startswith("error: "), (command, err.getvalue())
