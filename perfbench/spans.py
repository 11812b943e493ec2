"""In-memory spans and counts for the benchmark's traced passes.

A span is [pass id, name, start, end, parent index], timed in process CPU
seconds: a pass interpreter shares its CPU with a partner (see reference.py),
and wall time would count the partner's turns.  ``Tracer.run_pass``
replaces module attributes with timing wrappers for the length of one traced
pass and puts the originals back after it, so untraced passes in the same
interpreter run the library unchanged.  Counts are taken at the
same boundaries; two probes (the lambda-node generator and the dense solver)
attribute their work to the innermost open span.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter

import numpy as np

from weylcalc.cpow import QuadratureScheme

# spans whose result is a symbolic series; their size goes into the
# symalg.* counts (these outputs do not depend on the workload seed)
SYMBOLIC_OUTPUTS = {
    "parametrix.parametrix",
    "parametrix.resolvent_parametrix",
    "heat.heat_terms",
    "cpow.PowerEvaluator",
}


def _exprs(result) -> list:
    """The SymExpr terms of a FormalSeries, a heat-term list or a PowerEvaluator."""
    if hasattr(result, "series"):
        return list(result.series)
    if isinstance(result, list):
        return [t.full for t in result]
    return list(result.terms)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.pass_id = None
        self._stack: list = []
        self._saved: list = []

    def _current(self) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else "none"

    def _timed(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [self.pass_id, name, time.process_time(), None, self._stack[-1] if self._stack else None]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.process_time()
                self._stack.pop()

        return traced

    def _wrapper(self, name: str, fn):
        timed = self._timed(name, fn)
        counts = self.counts
        if name == "quant.quantize_general":

            def quantize_general(sym, *args, **kwargs):
                def counted(X, XI):
                    counts["quant.grid_points"] += int(np.size(X))
                    return sym(X, XI)

                return timed(counted, *args, **kwargs)

            return quantize_general
        if name == "textio.dump_series":

            def dump_series(*args, **kwargs):
                text = timed(*args, **kwargs)
                counts["textio.bytes"] += len(text.encode())
                return text

            return dump_series
        if name in SYMBOLIC_OUTPUTS:

            def symbolic(*args, **kwargs):
                out = timed(*args, **kwargs)
                for e in _exprs(out):
                    counts["symalg.terms_out"] += len(e)
                counts["symalg.base_powers"] += len(
                    {bp for e in _exprs(out) for (_, powers, _) in e.terms for bp in powers}
                )
                return out

            return symbolic
        return timed

    def _patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _install(self, targets, pass_id: int):
        self.pass_id = pass_id
        self.counts.clear()
        for owner, attr, name in targets:
            self._patch(owner, attr, self._wrapper(name, getattr(owner, attr)))
        nodes, solve, counts = QuadratureScheme.nodes, np.linalg.solve, self.counts

        def counted_nodes(scheme, level=0):
            out = nodes(scheme, level)
            counts[f"lambda_nodes@{self._current()}"] += out[1].size
            return out

        def counted_solve(a, b):
            counts[f"solves@{self._current()}"] += math.prod(np.shape(a)[:-2])
            return solve(a, b)

        self._patch(QuadratureScheme, "nodes", counted_nodes)
        self._patch(np.linalg, "solve", counted_solve)

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_pass(self, fn, targets, pass_id: int):
        """fn() inside a root span named 'pass', with every (owner, attribute,
        span name) target wrapped for the call's duration."""
        self._install(targets, pass_id)
        try:
            return self._timed("pass", fn)()
        finally:
            self._uninstall()

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("pass", "name", "start", "end", "parent"), rec))) + "\n")


def pass_summary(spans: list, pass_id: int) -> dict:
    """Per span name: call count, total and self seconds, for one pass.

    Self time is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap)."""
    child = Counter()
    mine = [(i, s) for i, s in enumerate(spans) if s[0] == pass_id]
    for _, (_, _, start, end, parent) in mine:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (_, name, start, end, _) in mine:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
