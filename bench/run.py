#!/usr/bin/env python3
"""Benchmark of homotopylie: exact transfer, Maurer-Cartan geometry and
the command line, end to end and layer by layer.

    python3 bench/run.py --workload exact_transfer --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics, with --trace 1 one with the per-layer metrics
(see bench/README.md).  Result and trace files go to bench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 11

# one caller on a shared two-core machine: keep BLAS to one thread
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (used to time set-up)")
    return ap.parse_args()


def fail(msg):
    sys.stderr.write("bench: %s\n" % msg)
    sys.exit(2)


def workdir(args):
    return os.path.join(BENCH, "_work", args.workload)


def time_setup(args):
    """Set-up time in fresh processes: interpreter start, imports, input
    generation and writing, until the process reports it is ready."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
            rc = proc.wait()
        shutil.rmtree(workdir(args), ignore_errors=True)
        if rc != 0 or line != "ready":
            fail("set-up process exited %d: %s" % (rc, (line + rest).strip()))
    return samples


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "homotopylie", "__init__.py")):
        fail("no program sources at %s: run from the root of a checkout" % SRC)
    sys.path[:0] = [SRC, ROOT]

    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(sorted(WORKLOADS))))
    setup = WORKLOADS[args.workload].setup
    if args.setup_only:
        setup(args.seed, workdir(args))
        print("ready", flush=True)
        return 0

    import compileall

    from bench import harness

    # compiled bytecode in place, so set-up time does not depend on it
    for d in (SRC, BENCH):
        compileall.compile_dir(d, quiet=1)
    setup_samples = time_setup(args) if args.trace == 0 else []
    jobs = setup(args.seed, workdir(args))

    logs = [harness.RoundLog()]
    tracer = None
    if args.trace == 0:
        harness.run_timed(jobs, args.seconds, logs[0])
        rss = harness.peak_rss_mb()
    else:
        from bench.tracing import Tracer

        tracer = Tracer()
        logs.append(harness.RoundLog())

        def on_job_start(job_id):
            tracer.job = job_id

        # alternate untraced and traced rounds, so that both see the same
        # machine and the overhead compares like with like
        while not logs[1].rounds or (sum(logs[0].walls) + sum(logs[1].walls)) * (1 + 0.5 / logs[1].rounds) < args.seconds:
            harness.run_round(jobs, logs[0])
            tracer.install()
            try:
                harness.run_round(jobs, logs[1], on_job_start)
            finally:
                tracer.uninstall()

    failed, unexpected, known = 0, [], {}
    for log in logs:
        f, u, k = harness.check_all(jobs, log)
        failed += f
        unexpected += u
        known.update(k)
    attempted = sum(len(log.walls) for log in logs)
    for msg in unexpected:
        sys.stderr.write("bench: FAILED %s\n" % msg)

    if tracer is None:
        e2e = harness.end_to_end(logs[0], len(jobs), setup_samples, rss)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in e2e.items()}
    else:
        jps = [len(log.walls) / sum(log.walls) for log in logs]
        metrics = tracer.metrics(100.0 * (jps[0] / jps[1] - 1.0))

    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = os.path.join(BENCH, "_results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       rounds=[log.rounds for log in logs],
                       round_s=[harness.round_sums(log.walls, len(jobs)) for log in logs],
                       job_median_s={j.name: statistics.median(logs[0].walls[k::len(jobs)]) for k, j in enumerate(jobs)},
                       setup_samples_s=setup_samples, known_faults=known, unexpected=unexpected),
                  fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed)))
    shutil.rmtree(workdir(args), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
