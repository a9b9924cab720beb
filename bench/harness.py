"""Closed-loop runner: one caller runs the jobs of a round one at a
time, and a run repeats whole rounds, so the share of failed jobs is the
same in every run.

Job timings exclude checking.  The outputs of the first round are checked
in full after the timed phase; every later output is compared with the
first round's by a digest and checked in full only when it differs.
"""

from __future__ import annotations

import collections
import resource
import statistics
import time
import traceback

from .checks import CheckFailed

# A program fault that makes a job fail every time today: what it is, and
# a fragment of the verdict its failure must carry.  A failure with any
# other verdict is unexpected.
KnownFault = collections.namedtuple("KnownFault", "what reason")


class Job:
    """One call into the program.

    run(prev) -> result, where prev maps the names of the jobs already
    run in this round to their outputs; collect(result) -> output runs
    untimed right after (for example to read the files a command wrote);
    check(output) raises CheckFailed; digest(output) -> hashable summary.
    known_fault is a KnownFault when a program fault makes this job fail
    every time today."""

    def __init__(self, name, run, check, digest=repr, collect=None, known_fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.digest = digest
        self.collect = collect
        self.known_fault = known_fault


class RoundLog:
    def __init__(self):
        self.walls = []
        self.cpus = []
        self.first = {}  # job name -> (output or exception, digest)
        self.later = []  # (job, output or exception) whose digest differs
        self.rounds = 0


def run_round(jobs, log, on_job_start=None):
    prev = {}
    first_round = log.rounds == 0
    for k, job in enumerate(jobs):
        if on_job_start is not None:
            on_job_start(log.rounds * len(jobs) + k)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = job.run(prev)
        except Exception as ex:  # a job that raises is a failed job
            out = ex
            out.trace = traceback.format_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        log.walls.append(t1 - t0)
        log.cpus.append(c1 - c0)
        if job.collect is not None and not isinstance(out, Exception):
            out = job.collect(out)
        prev[job.name] = out
        dig = ("raised", repr(out)) if isinstance(out, Exception) else job.digest(out)
        if first_round:
            log.first[job.name] = (out, dig)
        elif dig != log.first[job.name][1]:
            log.later.append((job, out))
    log.rounds += 1


def run_timed(jobs, seconds, log):
    """Whole rounds while the job time, counting half of the next round,
    stays within `seconds`: on average a run measures `seconds`."""
    while not log.rounds or sum(log.walls) * (1 + 0.5 / log.rounds) < seconds:
        run_round(jobs, log)


def verdict(job, out):
    """None when the output is correct, else the reason it is not."""
    if isinstance(out, Exception):
        return "raised %s" % getattr(out, "trace", repr(out)).strip().splitlines()[-1]
    try:
        job.check(out)
    except CheckFailed as ex:
        return str(ex)
    return None


def check_all(jobs, log):
    """Returns (failed count, unexpected failure reasons, known-fault reasons).
    A later output whose digest matched the first round's shares its verdict."""
    differing = {}
    for job, out in log.later:
        differing.setdefault(job.name, []).append(verdict(job, out))
    failed, unexpected, known = 0, [], {}
    for job in jobs:
        first = verdict(job, log.first[job.name][0])
        later = differing.get(job.name, [])
        reasons = [first] * (log.rounds - len(later)) + later
        bad = [r for r in reasons if r is not None]
        failed += len(bad)
        fault = job.known_fault
        other = [r for r in bad if fault is None or fault.reason not in r]
        if other:
            unexpected.append("%s: %s" % (job.name, other[0]))
        elif bad:
            known[job.name] = bad[0]
    return failed, unexpected, known


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_sums(values, jobs_per_round):
    return [sum(values[k:k + jobs_per_round]) for k in range(0, len(values), jobs_per_round)]


def end_to_end(log, jobs_per_round, setup_samples, rss_mb):
    """Throughput and CPU per job are medians over rounds, so that a slow
    spell on a shared machine moves them less than a mean would."""
    walls = round_sums(log.walls, jobs_per_round)
    cpus = round_sums(log.cpus, jobs_per_round)
    return {
        "jobs_per_s": (statistics.median(jobs_per_round / w for w in walls), "1/s"),
        "job_p50_s": (statistics.median(log.walls), "s"),
        "cpu_s_per_job": (statistics.median(c / jobs_per_round for c in cpus), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
