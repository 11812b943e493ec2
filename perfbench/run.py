"""weylcalc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload power64 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop of passes run back to back in fresh
interpreters started from this checkout's ``src``, each pinned to a CPU it
shares with a partner interpreter running the same passes on a frozen copy
of weylcalc; the figures are CPU-time ratios to the partner, in seconds of
the frozen copy on a quiet host (reference.py).  ``--trace 0`` measures the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs untraced and
traced passes alternately and reports the per-layer metrics.  Every pass is
checked against its acceptance gates.  A table of every figure
(accuracy numbers and the failure fraction included) and the environment go
to stdout, then one JSON result line; the full record is written to
perfbench/out/.  ``--workload all`` runs the three workloads in turn;
``--smoke`` shrinks every input so the benchmark's own tests run quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("power64", "sqrt64", "series")

# rounds per untraced run: each round starts a pass interpreter and its
# frozen partner on each of up to MAX_PAIRS CPUs, which give a setup_s, a
# first_pass_s and a peak_rss_mb sample each; the rest of a round's share of
# the measuring time goes to warm passes
ROUNDS = {"power64": 1, "sqrt64": 3, "series": 3}
MAX_PAIRS = 2
WORKER_TIMEOUT_S = 150.0

# figures printed and recorded but not among BENCHMARK.json's gated metrics:
# the acceptance numbers apply to one workload each, and the failure fraction
# is 0 when all is well (the result line carries attempted and failed too)
REPORT_UNITS = {
    "fail_frac": "ratio",
    "acc.pin": "abs",
    "acc.balak_max": "rel",
    "acc.power_n1_max": "rel",
    "acc.improving_frac": "ratio",
    "acc.t0_identity": "abs",
    "acc.semigroup_max": "rel",
    "host.slowdown": "x",
    "raw.pass_s": "s",
    "raw.first_pass_s": "s",
    "raw.setup_s": "s",
}
ACC_WORST = {"acc.improving_frac": min}  # every other acc figure: max over passes
ALLOC_ENV = ("MALLOC_", "OPENBLAS_", "OMP_", "MKL_", "GOTO", "BLIS_", "VECLIB_", "PYTHONMALLOC", "LD_PRELOAD")
# exact counts: a change between passes, or from the previous run, is flagged
EXACT_COUNTS = (
    "cpow.lambda_nodes",
    "quant.resolvent_solves",
    "quant.grid_points",
    "symalg.terms_out",
    "symalg.base_powers",
)


class WorkerFailed(RuntimeError):
    pass


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "alloc_blas_omp_env": {k: v for k, v in os.environ.items() if k.startswith(ALLOC_ENV)},
    }


def _round(args, cpus: list, until: float, spans: Path | None) -> list:
    """Run one round: on each CPU a pass interpreter (``cur``) and its frozen
    partner (``ref``), started together and stopped together once the clock
    passes ``until`` and each has finished a warm pass (and the ``cur`` one
    a traced pass, if tracing).  Return per CPU {role: {"ready_s",
    "setup_cpu_s", "passes"}}, keeping only passes that ended before the
    stop, while both partners ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    procs, out, pending = {}, {}, {}
    t0 = time.perf_counter()

    def enough(key) -> bool:
        kinds = {r["kind"] for r in out[key]["passes"]}
        return "warm" in kinds and ("traced" in kinds or key[1] == "ref" or not args.trace)

    try:
        for cpu in cpus:
            for role in ("cur", "ref"):
                cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed",
                       str(args.seed), "--role", role, "--cpu", str(cpu), "--trace", str(args.trace),
                       "--out", str(OUT)]
                if spans and role == "cur":
                    cmd += ["--spans", str(spans)]
                if args.smoke:
                    cmd.append("--smoke")
                procs[cpu, role] = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                                                    cwd=ROOT)
                out[cpu, role], pending[cpu, role] = {"passes": []}, b""
        with selectors.DefaultSelector() as sel:
            for key, proc in procs.items():
                sel.register(proc.stdout, selectors.EVENT_READ, key)
            started = False
            while True:
                for sk, _ in sel.select(timeout=1.0):
                    data = os.read(sk.fileobj.fileno(), 1 << 16)
                    if not data:
                        raise WorkerFailed(f"{args.workload} {sk.data[1]} interpreter exited early")
                    *lines, pending[sk.data] = (pending[sk.data] + data).split(b"\n")
                    for line in lines:
                        row = json.loads(line)
                        if "setup_cpu_s" in row:
                            out[sk.data].update(row, ready_s=time.perf_counter() - t0)
                        else:
                            out[sk.data]["passes"].append(row)
                now = time.perf_counter()
                if now - t0 > WORKER_TIMEOUT_S:
                    raise WorkerFailed(f"{args.workload}: no warm pass within {WORKER_TIMEOUT_S} s")
                if not started and all("setup_cpu_s" in o for o in out.values()):
                    # every interpreter is set up: start their passes together
                    for proc in procs.values():
                        proc.stdin.write(b"go\n")
                        proc.stdin.flush()
                    started = True
                if now >= until and all(enough(key) for key in out):
                    break
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    for o in out.values():
        o["passes"] = [r for r in o["passes"] if r.get("end", 0) <= now]
    return [{role: out[cpu, role] for role in ("cur", "ref")} for cpu in cpus]


def _alongside(row: dict, partner: list, ref: dict) -> float:
    """Quiet-host seconds per CPU second while ``row`` ran: over the frozen
    partner's passes, the quiet-host time of each over its CPU time, weighted
    by how long it overlapped ``row``."""
    start = row["end"] - row["wall_s"]
    weights = [
        (min(row["end"], r["end"]) - max(start, r["end"] - r["wall_s"]),
         ref["first_pass_s" if r["kind"] == "first" else "pass_s"] / r["cpu_s"])
        for r in partner if "cpu_s" in r
    ]
    weights = [(w, f) for w, f in weights if w > 0]
    if not weights:
        raise WorkerFailed("no frozen pass ran alongside a traced pass")
    return sum(w * f for w, f in weights) / sum(w for w, _ in weights)


def _median(values: list) -> float:
    if not values:
        raise WorkerFailed("no successful sample to report")
    return statistics.median(values)


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def measure(args, bench: dict) -> dict:
    """Run the rounds of one run; return the full record."""
    start = time.perf_counter()
    deadline = start + args.seconds
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "smoke": args.smoke, "env": environment()}
    cpus = sorted(os.sched_getaffinity(0))[: 1 if (args.trace or args.smoke) else MAX_PAIRS]
    rounds = 1 if args.trace else ROUNDS[args.workload]
    spans = OUT / f"spans-{tag}.jsonl" if args.trace else None
    pairs = []
    for i in range(rounds):
        now = time.perf_counter()
        pairs += _round(args, cpus, now + (deadline - now) / (rounds - i), spans)

    cur = [r for pair in pairs for r in pair["cur"]["passes"]]
    failures = [r["failure"] for r in cur if "failure" in r]
    ref_failures = [r["failure"] for pair in pairs for r in pair["ref"]["passes"] if "failure" in r]
    if ref_failures:
        raise WorkerFailed(f"the frozen reference failed: {ref_failures}")
    acc_rows = [r["acc"] for r in cur if "acc" in r]
    attempted = len(acc_rows) + len(failures)
    report = {"fail_frac": len(failures) / attempted}
    for key in sorted({k for a in acc_rows for k in a}):
        report[key] = ACC_WORST.get(key, max)(a[key] for a in acc_rows)

    def samples(role: str, kind: str, field: str) -> list:
        return [r[field] for pair in pairs for r in pair[role]["passes"] if r["kind"] == kind and field in r]

    # a figure is the current code's CPU time over its frozen partner's for
    # the same phase, times the frozen phase's quiet-host wall time
    ref = reference_s(args.workload, args.smoke)
    report["host.slowdown"] = _median(samples("ref", "warm", "cpu_s")) / ref["pass_s"]
    record["pairs"] = pairs
    record["env"]["pass_blas_threads"] = sorted(set(samples("cur", "first", "blas_threads") + samples("ref", "first", "blas_threads")))
    if args.trace:
        # spans take CPU time; one traced and one untraced pass can meet
        # different contention, so each pass is scaled by the frozen passes
        # that ran alongside it
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        partner = pairs[0]["ref"]["passes"]
        cur = [r for r in pairs[0]["cur"]["passes"] if "cpu_s" in r]
        rows = [{name: v * _alongside(r, partner, ref) if units.get(name) == "s" else v
                 for name, v in r["layers"].items()} for r in cur if r["kind"] == "traced"]
        untraced = _mean([r["cpu_s"] * _alongside(r, partner, ref) for r in cur if r["kind"] == "warm"])
        metrics = {m["name"]: _mean([row.get(m["name"], 0) for row in rows]) for m in bench["per_layer"]}
        metrics["trace.untraced_pass_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - untraced
        record["drift"] = _count_drift(args.workload + ("-smoke" if args.smoke else ""), rows)
    else:
        firsts = [(p["cur"]["passes"][0], p["ref"]["passes"][0]) for p in pairs
                  if p["cur"]["passes"][0].get("kind") == "first" and "cpu_s" in p["cur"]["passes"][0]]
        metrics = {
            "pass_s": _median(samples("cur", "warm", "cpu_s")) / _median(samples("ref", "warm", "cpu_s"))
            * ref["pass_s"],
            "first_pass_s": _median([c["cpu_s"] / r["cpu_s"] for c, r in firsts]) * ref["first_pass_s"],
            "setup_s": _median([p["cur"]["setup_cpu_s"] / p["ref"]["setup_cpu_s"] for p in pairs]) * ref["setup_s"],
            "peak_rss_mb": _median(samples("cur", "first", "peak_rss_mb")),
        }
        report["raw.pass_s"] = _median(samples("cur", "warm", "wall_s"))
        report["raw.first_pass_s"] = _median(samples("cur", "first", "wall_s"))
        report["raw.setup_s"] = _median([p["cur"]["ready_s"] for p in pairs])
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise WorkerFailed(f"metrics not measured: {missing}")
    record["env"]["loadavg_end"] = os.getloadavg()
    record["elapsed_s"] = time.perf_counter() - start
    record["failures"] = failures
    record["report"] = report
    record["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _count_drift(key: str, rows: list) -> list:
    """Flag exact counts that differ between this run's traced passes or from
    the previous traced run of the workload in this checkout, then store this
    run's counts for the next one."""
    if not rows:
        return []
    drift = [
        f"{k} differs between passes: {sorted({row.get(k, 0) for row in rows})}"
        for k in EXACT_COUNTS
        if len({row.get(k, 0) for row in rows}) > 1
    ]
    path = OUT / f"counts-{key}.json"
    now = {k: rows[0].get(k, 0) for k in EXACT_COUNTS}
    if path.is_file():
        before = json.loads(path.read_text())
        drift += [f"{k}: {before.get(k)} in the previous run, {now[k]} now" for k in EXACT_COUNTS if before.get(k) != now[k]]
    path.write_text(json.dumps(now, indent=1) + "\n")
    return drift


def print_record(record: dict):
    res = record["result"]
    print(f"# {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{res['attempted']} passes, {res['failed']} failed, {record['elapsed_s']:.1f} s")
    rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
    rows += [(k, v, REPORT_UNITS[k]) for k, v in record["report"].items()]
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    for d in record.get("drift", []):
        print(f"  FLAG exact count drift: {d}")
        print(f"{record['workload']}: exact count drift: {d}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that every interpreter started is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "weylcalc" / "__init__.py").is_file():
        print(f"no weylcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            record = measure(args, bench)
        except (WorkerFailed, subprocess.TimeoutExpired) as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        print_record(record)
        results.append(record["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
