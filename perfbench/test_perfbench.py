"""The benchmark's own tests, on the reduced-size smoke inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import reference
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ACC_BY_WORKLOAD = {
    "power64": {"acc.pin", "acc.balak_max", "acc.power_n1_max", "acc.improving_frac"},
    "sqrt64": {"acc.t0_identity", "acc.semigroup_max"},
    "series": set(),
}
# per-layer times that partition a traced pass: every span's self time plus
# the time outside all spans
PARTITION = [
    m["name"]
    for m in BENCH["per_layer"]
    if m["unit"] == "s" and not m["name"].startswith("trace.")
]


def bench(*args):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def printed(lines, name, unit) -> bool:
    return any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)


def test_one_command_prints_every_end_to_end_metric_for_every_workload():
    code, lines = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert code == 0, lines
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 6
    blocks = "\n".join(lines).split("# ")[1:]
    assert [b.split()[0] for b in blocks] == list(run.WORKLOADS)
    for workload, block in zip(run.WORKLOADS, blocks):
        rows = block.splitlines()
        for m in BENCH["end_to_end"]:
            assert printed(rows, m["name"], m["unit"]), (workload, m["name"])
            assert final["metrics"][f"{workload}.{m['name']}"]["value"] > 0
        for name in {"fail_frac", "host.slowdown", "raw.pass_s", "raw.first_pass_s", "raw.setup_s"} | ACC_BY_WORKLOAD[workload]:
            assert printed(rows, name, run.REPORT_UNITS[name]), (workload, name)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in run.WORKLOADS:
        code, lines = bench("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1", "--smoke")
        assert code == 0, lines
        out[workload] = (lines, json.loads(lines[-1]))
    return out


def test_traced_run_prints_every_per_layer_metric(traced):
    names = [m["name"] for m in BENCH["per_layer"]]
    for workload, (lines, final) in traced.items():
        assert final["correct"]
        assert sorted(final["metrics"]) == sorted(names)
        for m in BENCH["per_layer"]:
            assert printed(lines, m["name"], m["unit"]), (workload, m["name"])
    # every layer metric is exercised by some workload
    idle = {"quant.accuracy_warnings", "trace.overhead_s"}
    for name in set(names) - idle:
        assert any(final["metrics"][name]["value"] for _, final in traced.values()), name


def test_exact_counts(traced):
    m = {w: final["metrics"] for w, (_, final) in traced.items()}
    assert m["power64"]["cpow.lambda_nodes"]["value"] == 1361
    assert m["power64"]["quant.resolvent_solves"]["value"] == 6401
    assert m["power64"]["quant.grid_points"]["value"] == 3 * (4 * 24) ** 2
    assert m["sqrt64"]["quant.grid_points"]["value"] == 10 * (4 * 24) ** 2
    assert m["sqrt64"]["cpow.lambda_nodes"]["value"] == 0
    for w in run.WORKLOADS:
        assert m[w]["symalg.terms_out"]["value"] > 0


def test_self_times_add_up_to_the_pass(traced):
    for workload, (_, final) in traced.items():
        m = {k: v["value"] for k, v in final["metrics"].items()}
        total = sum(m[name] for name in PARTITION)
        assert total == pytest.approx(m["trace.pass_s"], rel=1e-9)
        assert abs(total - m["trace.untraced_pass_s"]) <= abs(m["trace.overhead_s"]) + 1e-9


def test_frozen_reference_is_its_own_package():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        frozen = reference.frozen_workload("series", 2, Path(tmp), True)
        assert frozen.run_pass() == {}
    assert type(frozen).__module__ == "workloads_ref"
    assert sys.modules["weylcalc_ref"].__file__.startswith(str(reference.PATH))
    for workload in run.WORKLOADS:
        assert set(reference.REFERENCE_S[workload]) == {"setup_s", "first_pass_s", "pass_s"}


def test_count_drift_is_flagged(monkeypatch):
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        monkeypatch.setattr(run, "OUT", Path(tmp))
        row = {k: 1 for k in run.EXACT_COUNTS}
        assert run._count_drift("power64", [row, row]) == []
        assert run._count_drift("power64", [row]) == []
        drift = run._count_drift("power64", [dict(row, **{"quant.grid_points": 2}), row])
        assert len(drift) == 2 and all("quant.grid_points" in d for d in drift)


def test_fails_without_the_program():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=tmp,
        )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
