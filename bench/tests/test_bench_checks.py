"""Every check of the benchmark rejects a wrong answer, and each workload
runs one job end to end (smoke mode).

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from homotopylie import mc, serialize, transfer
from homotopylie.cli import main as cli_main
from homotopylie.generators import lambda_dgla, two_degree_dgla
from homotopylie.qs import dcrit

from bench import checks, harness
from bench.checks import CheckFailed
from bench.workloads import WORKLOADS, cli_pipeline, exact_transfer, mc_geometry

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _reduced():
    S, coeffs = exact_transfer.reduced_potential(random.Random(0))
    alg = dcrit(S).to_linfty()
    return alg, transfer.minimal_model(alg, arity_out=5), coeffs


def test_perturbed_structure_constant_is_rejected():
    alg, tr, coeffs = _reduced()
    checks.check_reduced_potential(tr.small, coeffs)
    bad = copy.deepcopy(tr.small)
    key = next(iter(bad.sops[3].entries))
    bad.sops[3].entries[key] += 1
    with pytest.raises(CheckFailed):
        checks.check_reduced_potential(bad, coeffs)

    dgla = two_degree_dgla(random.Random(0), n1=6)
    tr = transfer.minimal_model(dgla, arity_out=3)
    tree = transfer.dgla_tree_transfer(dgla, exact_transfer._retract(dgla), arity_out=3)
    checks.check_ops_agree(tr.small.sops, tree, 3)
    k = min(tree)
    key = next(iter(tree[k].entries))
    tree[k].entries[key] *= 2
    with pytest.raises(CheckFailed):
        checks.check_ops_agree(tr.small.sops, tree, 3)


def test_wrong_cohomology_dimensions_are_rejected():
    a0 = two_degree_dgla(random.Random(0), n1=6)
    a1 = two_degree_dgla(random.Random(1), n1=6)
    tr0 = transfer.minimal_model(a0, arity_out=2)
    tr1 = transfer.minimal_model(a1, arity_out=2)
    assert tr0.small.space.dims != tr1.small.space.dims
    checks.check_transfer_result(a0, tr0, 2)
    with pytest.raises(CheckFailed):
        checks.check_transfer_result(a0, tr1, 2)

    payload = serialize.algebra_payload(a0)
    good = serialize.dumps("linfty_algebra", serialize.algebra_payload(tr0.small))
    checks.check_minimal_dims(good, payload)
    wrong = serialize.dumps("linfty_algebra", serialize.algebra_payload(tr1.small))
    with pytest.raises(CheckFailed):
        checks.check_minimal_dims(wrong, payload)


def test_shifted_mc_point_is_rejected():
    lam = lambda_dgla()
    A, B = mc_geometry.commuting_pair(random.Random(0))
    m = mc.solve_mc(lam, mc_geometry.embed(lam, {(1,): A, (2,): B}), tol=1e-12)
    sparse = checks.SparseMC.of(lam)
    checks.check_mc_points(sparse, [(m.converged, m.vector)], 1e-11, 1)
    x = dict(m.vector)
    i = lam.space.indices_of_degree(1)[0]
    x[i] = x.get(i, 0j) + 1e-3
    with pytest.raises(CheckFailed):
        checks.check_mc_points(sparse, [(True, x)], 1e-11, 1)


def test_flow_off_the_closed_form_is_rejected():
    lam = lambda_dgla()
    rng = random.Random(0)
    A, B = mc_geometry.commuting_pair(rng)
    eta = mc_geometry.gl2(rng)
    mats = {(1,): A, (2,): B}
    path = mc.gauge_flow(lam, mc_geometry.embed(lam, mats), mc_geometry.embed(lam, {(): eta}), step=1e-3)

    def read(w, v):
        return mc_geometry.read_mat(lam, w, v)

    checks.check_flow_endpoint(read, path.end, mats, eta, 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_flow_endpoint(read, path.end, mats, -eta, 1e-9)


def test_missing_edge_is_rejected():
    lam = lambda_dgla()
    seeds, pairs = mc_geometry.nerve_inputs(lam)
    sparse = checks.SparseMC.of(lam)
    vertices = [mc.solve_mc(lam, s, tol=1e-12).vector for s in seeds]
    joined = [(2 * t, 2 * t + 1) for t in range(len(pairs))]
    checks.check_nerve(sparse, vertices, joined, pairs, 1e-8)
    with pytest.raises(CheckFailed):
        checks.check_nerve(sparse, vertices, joined[1:], pairs, 1e-8)


def _orient_report(section):
    return serialize.dumps("orientation_report", {"orientable": True, "section": section})


def test_flipped_section_sign_is_rejected():
    fibers = [Fraction(4), Fraction(9), Fraction(1, 4)]
    trans = {(0, 1): Fraction(-3, 2), (1, 2): Fraction(1, 6)}
    checks.check_orientation(0, _orient_report(["2", "-3", "-1/2"]), fibers, trans, True)
    with pytest.raises(CheckFailed):
        checks.check_orientation(0, _orient_report(["2", "3", "-1/2"]), fibers, trans, True)
    # the valid section of negative fibers is imaginary; 0.0 does not square to them
    neg, t = [Fraction(-4), Fraction(-9)], {(0, 1): Fraction(3, 2)}
    checks.check_orientation(0, _orient_report([["0", "2"], ["0", "3"]]), neg, t, True)
    with pytest.raises(CheckFailed):
        checks.check_orientation(0, _orient_report(["0.0", "0.0"]), neg, t, True)


def test_dgla_identity_check_rejects_a_corruption():
    payload = serialize.algebra_payload(lambda_dgla(coupled=True))
    assert checks.is_dgla_tower(payload)
    assert not checks.is_dgla_tower(cli_pipeline.corrupt(payload, random.Random(0)))


def test_tampered_morse_split_is_rejected(tmp_path):
    S = cli_pipeline.morse_potential(random.Random(0))
    pp = dict(serialize.poly_payload(S), scalar="rational")
    src = tmp_path / "S.json"
    src.write_text(serialize.dumps("polynomial", pp))
    assert cli_main(["morse-split", str(src), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "morse_split.json").read_text()
    checks.check_morse_split(text, pp)
    doc = json.loads(text)
    doc["payload"]["residual"]["terms"].append([[0, 0, 3], "1"])
    with pytest.raises(CheckFailed):
        checks.check_morse_split(json.dumps(doc), pp)


def test_wrong_bv_witness_class_is_rejected():
    report = serialize.dumps("bv_report", {"ok": False, "checks": {}, "witness": {"class": "gauge", "detail": 0}})
    checks.check_bv_report(1, report, False, "gauge")
    with pytest.raises(CheckFailed):
        checks.check_bv_report(1, report, False, "triangle")


def test_known_fault_failing_another_way_is_unexpected():
    def wrong(reason):
        def check(out):
            raise CheckFailed(reason)
        return check

    fault = harness.KnownFault("a fault", "are not joined")
    jobs = [harness.Job("as_known", lambda prev: 0, wrong("vertices 0 and 1 are not joined"), known_fault=fault),
            harness.Job("otherwise", lambda prev: 0, wrong("vertex 2 is off the MC locus"), known_fault=fault),
            harness.Job("raises", lambda prev: 1 / 0, wrong("unreached"), known_fault=fault)]
    log = harness.RoundLog()
    harness.run_round(jobs, log)
    harness.run_round(jobs, log)
    failed, unexpected, known = harness.check_all(jobs, log)
    assert failed == 6
    assert known == {"as_known": "vertices 0 and 1 are not joined"}
    assert [u.split(":")[0] for u in unexpected] == ["otherwise", "raises"]


# the cheapest job of each workload
SMOKE_JOBS = {"exact_transfer": "quartic4_a4", "mc_geometry": "flow_lambda", "cli_pipeline": "solve_mc"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_one_job_per_workload(workload, tmp_path):
    jobs = [j for j in WORKLOADS[workload].setup(3, str(tmp_path)) if j.name == SMOKE_JOBS[workload]]
    log = harness.RoundLog()
    harness.run_round(jobs, log)
    failed, unexpected, known = harness.check_all(jobs, log)
    assert (failed, unexpected, known) == (0, [], {})


def test_run_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact_transfer", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
