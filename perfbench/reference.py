"""Host-speed reference: each workload run on a frozen copy of weylcalc
(``reference/weylcalc_ref``, the package as it stood when the benchmark was
defined).

The benchmark runs on a small virtual machine whose physical cores other
tenants share.  While they load the host, every instruction slows, by up to
2x, in spells from a second to many minutes; process CPU time slows with
wall time, and interpreter-bound code slows more than vectorised code.  A
long spell moves whole runs, so two sets of raw timings of the same code can
disagree by more than any useful bound, and a pass timed next to a frozen
pass in the same interpreter still differs from it by 5-10 %.

So every pass interpreter has a partner: an interpreter running the same
workload, on the same inputs, on the frozen copy.  The two are pinned to the
same CPU and start together, so the scheduler interleaves them every few
milliseconds and both meet the same contention.  A figure is the current
code's CPU time over the frozen partner's CPU time for the same phase (set
up, first pass, warm passes), times the frozen phase's wall time on a quiet
host (``REFERENCE_S``).  The frozen copy and ``REFERENCE_S`` never change
with the program, so a change to weylcalc moves the figures and not the
reference.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference"  # put on sys.path so that ``weylcalc_ref`` imports

# wall seconds of the frozen copy's phases on a quiet host, alone: a 2-vCPU
# Firecracker virtual machine (Intel Xeon at 2.0 GHz, Python 3.11, numpy 2
# with scipy-openblas, two BLAS threads), medians of ten runs of seeds
# 401-410 taken when the copy was made; smoke sizes are rough and only for
# the benchmark's own tests
REFERENCE_S = {
    "power64": {"setup_s": 0.155, "first_pass_s": 5.45, "pass_s": 4.64},
    "sqrt64": {"setup_s": 0.158, "first_pass_s": 0.986, "pass_s": 0.959},
    "series": {"setup_s": 0.166, "first_pass_s": 1.023, "pass_s": 1.028},
}
REFERENCE_SMOKE_S = {
    "power64": {"setup_s": 0.15, "first_pass_s": 0.55, "pass_s": 0.5},
    "sqrt64": {"setup_s": 0.15, "first_pass_s": 0.12, "pass_s": 0.1},
    "series": {"setup_s": 0.15, "first_pass_s": 0.1, "pass_s": 0.1},
}


def frozen_workload(workload: str, seed: int, out_dir: Path, smoke: bool):
    """The workload built on ``weylcalc_ref``: workloads.py executed a
    second time with PACKAGE set."""
    if str(PATH) not in sys.path:
        sys.path.append(str(PATH))
    spec = importlib.util.spec_from_file_location("workloads_ref", HERE / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    module.PACKAGE = "weylcalc_ref"
    spec.loader.exec_module(module)
    return module.WORKLOADS[workload](seed, out_dir, smoke)


def reference_s(workload: str, smoke: bool) -> dict:
    return (REFERENCE_SMOKE_S if smoke else REFERENCE_S)[workload]
