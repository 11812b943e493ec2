"""One fresh interpreter of the benchmark, pinned to one CPU.

Builds the workload's inputs on this checkout's weylcalc (``--role cur``) or
on the frozen reference copy (``--role ref``, see reference.py) and prints
one JSON line with its CPU seconds so far, the set-up.  It then waits for
``go`` on stdin, so that it starts together with its partner on the same
CPU, and runs a first pass and warm passes until the parent kills it (or
exits, closing stdin), printing one JSON line per pass: its kind, CPU and
wall seconds, when it ended, and its accuracy figures or failure.  In traced mode (``cur`` only)
warm passes alternate between untraced and traced, so the tracing overhead
is measured in one interpreter; the spans are written out after each traced
pass.

Run by perfbench/run.py with ``src`` on PYTHONPATH; not meant to be run alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def layer_values(summary: dict, counts: dict, other: str, n_warnings: int) -> dict:
    """Flat per-layer figures of one traced pass."""
    flat = {}
    for name, row in summary.items():
        if name == "pass":
            flat["trace.pass_s"] = row["total_s"]
            flat[other] = row["self_s"]
        else:
            flat[f"{name}.s"] = row["total_s"]
            flat[f"{name}.self_s"] = row["self_s"]
            flat[f"{name}.calls"] = row["calls"]
    calls = summary.get("cpow.power_series_eval_grid", {}).get("calls", 0)
    flat["cpow.lambda_nodes"] = (
        counts.get("lambda_nodes@cpow.power_series_eval_grid", 0) // calls if calls else 0
    )
    flat["quant.resolvent_solves"] = counts.get("solves@quant.balakrishnan_matrix", 0)
    for key in ("quant.grid_points", "symalg.terms_out", "symalg.base_powers", "textio.bytes"):
        flat[key] = counts.get(key, 0)
    flat["quant.accuracy_warnings"] = n_warnings
    return flat


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--role", choices=("cur", "ref"), required=True)
    p.add_argument("--cpu", type=int, required=True, help="the CPU this interpreter and its partner share")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="file the traced spans are written to")
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    if args.role == "cur":
        import weylcalc

        if Path(weylcalc.__file__).resolve().parent != ROOT / "src" / "weylcalc":
            print(f"weylcalc imported from {weylcalc.__file__}, not from this checkout", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, Path(args.out), args.smoke)
    else:
        from reference import frozen_workload

        workload = frozen_workload(args.workload, args.seed, Path(args.out), args.smoke)
    print(json.dumps({"setup_cpu_s": time.process_time()}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2

    traced = args.trace and args.role == "cur"
    if traced:
        from weylcalc.errors import AccuracyWarning
        from spans import Tracer, pass_summary

        tracer = Tracer()
        targets = workload.trace_targets()

    def one(kind: str, pass_id: int) -> dict:
        row = {"kind": kind}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if kind == "traced":
                    row["acc"] = tracer.run_pass(workload.run_pass, targets, pass_id)
                else:
                    row["acc"] = workload.run_pass()
            except Exception as e:  # a failed pass is counted and reported, not fatal
                traceback.print_exc()
                return {"kind": kind, "failure": f"pass {pass_id}: {type(e).__name__}: {e}"}
            row["cpu_s"], row["end"] = time.process_time() - c0, time.perf_counter()
        row["wall_s"] = row["end"] - t0
        if kind == "traced":
            n_warn = sum(issubclass(w.category, AccuracyWarning) for w in caught)
            summary = pass_summary(tracer.spans, pass_id)
            row["layers"] = layer_values(summary, tracer.counts, workload.other, n_warn)
            row["cpu_s"] = summary["pass"]["total_s"]
            if args.spans:
                tracer.dump(args.spans)
        if kind == "first":
            # the peak of a one-shot call, read before anything of the
            # benchmark's own is loaded
            row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            from run import _blas_threads

            row["blas_threads"] = _blas_threads()  # on one CPU, 1
        return row

    plan = ["warm", "traced"] if traced else ["warm"]
    print(json.dumps(one("first", 0)), flush=True)
    pass_id = 1
    # passes until the parent kills this interpreter, or dies and so closes stdin
    while not (select.select([sys.stdin], [], [], 0)[0] and not sys.stdin.readline()):
        print(json.dumps(one(plan[(pass_id - 1) % len(plan)], pass_id)), flush=True)
        pass_id += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
