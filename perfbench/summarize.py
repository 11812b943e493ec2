"""Append one trajectory point to perfbench/trajectory.json from the run
records in perfbench/out/ (smoke runs are ignored).

    python3 perfbench/summarize.py --label baseline

For every workload and metric the point holds the median and quartiles over
the recorded runs (one per seed) and the number of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from run import ACC_WORST, HERE, OUT, WORKLOADS


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    records = [json.loads(f.read_text()) for f in sorted(OUT.glob("*-seed*-trace*.json"))]
    records = [r for r in records if not r["smoke"]]
    if not records:
        raise SystemExit("no run records in perfbench/out/")
    point = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "env": records[0]["env"],
        "run_seconds": records[0]["seconds"],
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            if runs:
                names = runs[0]["result"]["metrics"]
                entry[key] = {n: spread([r["result"]["metrics"][n]["value"] for r in runs]) for n in names}
                entry[f"{key}_seeds"] = sorted(r["seed"] for r in runs)
                entry[f"{key}_report"] = {
                    k: ACC_WORST.get(k, max)(r["report"][k] for r in runs) for k in runs[0]["report"]
                }
        point["workloads"][workload] = entry
    path = HERE / "trajectory.json"
    trajectory = json.loads(path.read_text()) if path.is_file() else []
    trajectory.append(point)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended point {args.label!r} to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
