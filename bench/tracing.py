"""Per-layer tracing from outside the program.

`Tracer.install()` wraps public functions of the program's modules (and
a few counters) in place, without editing the sources: every call
records a span (name, start, end, parent span, job id) in memory, and
each metric accumulates the self time of its spans (span duration minus
the time covered by child spans) or a count.  `uninstall()` restores
the originals.  Spans are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from homotopylie import bv, cli, linalg, linfty, mc, multilinear, qs, serialize, transfer, words

CLI_SUBCOMMANDS = ["check", "transfer", "dcrit", "morse-split", "qs-minimal-model", "bv-verify", "solve-mc", "orient"]

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "linalg.busy_s": "s",
    "linalg.calls": "count",
    "multilinear.eval_basis_calls": "count",
    "words.coderivation_s": "s",
    "words.compose_s": "s",
    "words.word_power_s": "s",
    "words.symmetrized_homotopy_s": "s",
    "words.morphism_lift_s": "s",
    "words.words_enumerated": "count",
    "words.nonzeros_built": "count",
    "linfty.validate_s": "s",
    "linfty.compose_s": "s",
    "transfer.splitting_s": "s",
    "transfer.homotopy_transfer_s": "s",
    "transfer.hpl_perturb_s": "s",
    "transfer.minimal_model_s": "s",
    "mc.to_float_algebra_s": "s",
    "mc.solve_mc_s": "s",
    "mc.solve_mc_calls": "count",
    "mc.gn_iterations": "count",
    "mc.gauge_flow_s": "s",
    "mc.rk4_steps": "count",
    "mc.pushforward_path_s": "s",
    "mc.build_nerve_s": "s",
    "mc.shoot_pairs": "count",
    "mc.nerve_edges": "count",
    "qs.dcrit_s": "s",
    "qs.minimal_decomposition_s": "s",
    "qs.morse_thom_split_s": "s",
    "bv.validate_bv_s": "s",
    "bv.check_bv_orientable_s": "s",
    "serialize.dumps_s": "s",
    "serialize.loads_s": "s",
    "serialize.bytes_written": "count",
    "cli.main_s": "s",
    **{"cli.%s_s" % sub: "s" for sub in CLI_SUBCOMMANDS},
    "trace.overhead_pct": "%",
}

LINALG_FUNCTIONS = [
    "rref", "rank", "kernel_basis", "solve", "solve_matrix", "inverse", "det",
    "column_space_pivots", "complement_pivots", "mat_mul",
]


def _nonzeros(word_map):
    return sum(len(col) for col in word_map.cols.values())


def _rk4_steps(args, kwargs, path):
    step = kwargs.get("step", args[3] if len(args) > 3 else mc.DEFAULT_STEP)
    t_end = kwargs.get("t_end", args[4] if len(args) > 4 else 1.0)
    n = max(1, int(round(t_end / step)))
    if not path.ok:  # stopped early at the radius
        n = int(round(path.times[-1] / (t_end / n)))
    return n


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)
        self.spans = []
        self.job = None
        self._stack = []  # [span id, time covered by children]
        self._patches = []
        self._t_origin = time.perf_counter()

    # ------------------------------------------------------------ wrappers

    def _span(self, span_name, metric, fn, count=None, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            tracer.spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.values[metric] += dur - frame[1]
                tracer.spans[sid] = (span_name, t0 - tracer._t_origin, t1 - tracer._t_origin, parent, tracer.job)
                if count:
                    tracer.values[count] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                h0 = time.perf_counter()
                hook(tracer.values, args, kwargs, out)
                if stack:  # keep the bookkeeping out of the parent's self time
                    stack[-1][1] += time.perf_counter() - h0
            return out

        return wrapper

    def _counter(self, metric, fn, size=None):
        values = self.values

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            values[metric] += 1 if size is None else size(out)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper_of):
        orig = getattr(owner, attr)
        wrapped = wrapper_of(orig)
        if isinstance(owner, type):
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            return
        # module-level function: replace every reference the program's
        # modules hold, including names imported with `from ... import`
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("homotopylie"):
                continue
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, wrapped)

    def span(self, owner, attr, metric, count=None, hook=None):
        name = "%s.%s" % (getattr(owner, "__name__", owner).split(".")[-1], attr)
        self._patch(owner, attr, lambda fn: self._span(name, metric, fn, count, hook))

    def counter(self, owner, attr, metric, size=None):
        """Count calls, or add size(result) per call."""
        self._patch(owner, attr, lambda fn: self._counter(metric, fn, size))

    # ------------------------------------------------------------- wiring

    def install(self):
        for fn in LINALG_FUNCTIONS:
            self.span(linalg, fn, "linalg.busy_s", count="linalg.calls")
        self.counter(multilinear.MultiLinearOp, "eval_basis", "multilinear.eval_basis_calls")

        def nz(values, args, kwargs, out):
            values["words.nonzeros_built"] += _nonzeros(out)

        self.span(words, "coderivation", "words.coderivation_s", hook=nz)
        self.span(words.WordMap, "compose", "words.compose_s", hook=nz)
        self.span(words, "word_power", "words.word_power_s", hook=nz)
        self.span(words, "symmetrized_homotopy", "words.symmetrized_homotopy_s", hook=nz)
        self.span(words, "morphism_lift", "words.morphism_lift_s", hook=nz)
        self.counter(words, "enumerate_words", "words.words_enumerated", size=len)

        self.span(linfty.LInftyAlgebra, "validate", "linfty.validate_s")
        self.span(linfty.LInftyMorphism, "compose", "linfty.compose_s")

        self.span(transfer, "standard_splitting", "transfer.splitting_s")
        self.span(transfer, "splitting_to_retract", "transfer.splitting_s")
        self.span(transfer, "homotopy_transfer", "transfer.homotopy_transfer_s")
        self.span(transfer, "hpl_perturb", "transfer.hpl_perturb_s")
        self.span(transfer, "minimal_model", "transfer.minimal_model_s")

        def gn(values, args, kwargs, out):
            values["mc.gn_iterations"] += out.iterations

        def rk4(values, args, kwargs, out):
            values["mc.rk4_steps"] += _rk4_steps(args, kwargs, out)

        def edges(values, args, kwargs, out):
            values["mc.nerve_edges"] += len(out.edges)

        self.span(mc, "to_float_algebra", "mc.to_float_algebra_s")
        self.span(mc, "solve_mc", "mc.solve_mc_s", count="mc.solve_mc_calls", hook=gn)
        self.span(mc, "gauge_flow", "mc.gauge_flow_s", hook=rk4)
        self.span(mc, "pushforward_path", "mc.pushforward_path_s")
        self.span(mc, "build_nerve", "mc.build_nerve_s", hook=edges)
        self.counter(mc, "_shoot_edge", "mc.shoot_pairs")

        self.span(qs, "dcrit", "qs.dcrit_s")
        self.span(qs, "minimal_decomposition", "qs.minimal_decomposition_s")
        self.span(qs, "morse_thom_split", "qs.morse_thom_split_s")
        self.span(bv, "validate_bv", "bv.validate_bv_s")
        self.span(bv, "check_bv_orientable", "bv.check_bv_orientable_s")

        def written(values, args, kwargs, out):
            values["serialize.bytes_written"] += len(out.encode())

        self.span(serialize, "dumps", "serialize.dumps_s", hook=written)
        self.span(serialize, "loads", "serialize.loads_s")
        self.span(cli, "main", "cli.main_s")
        for sub in CLI_SUBCOMMANDS:
            self.span(cli, "cmd_" + sub.replace("-", "_"), "cli.%s_s" % sub)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # ------------------------------------------------------------- output

    def metrics(self, overhead_pct):
        out = {}
        for name, unit in PER_LAYER.items():
            v = overhead_pct if name == "trace.overhead_pct" else self.values.get(name, 0)
            out[name] = {"value": int(v) if unit == "count" else float(v), "unit": unit}
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job"], "spans": self.spans}, fh)
