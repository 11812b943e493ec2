"""The benchmark's workloads: inputs built from a seed, one pass, and the
correctness check each pass must meet.

Imported only inside a worker interpreter, after ``src`` is on the path.
Each workload exposes ``run_pass() -> dict`` (accuracy figures of the pass;
raises ``CheckFailed`` when a gate is missed) and ``trace_targets()``, the
(owner, attribute, span name) triples the tracer wraps.  The series workload
calls the library through this module's globals, so its spans are installed
here; the numeric workloads go through ``weylcalc.cli`` and are traced where
``cli`` looks its functions up.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

# The package the workloads run on: this checkout's ``weylcalc``, or the
# frozen reference copy ``weylcalc_ref`` when reference.py executes this
# module a second time with PACKAGE set.
PACKAGE = globals().get("PACKAGE", "weylcalc")
cli = importlib.import_module(f"{PACKAGE}.cli")
PowerEvaluator = importlib.import_module(f"{PACKAGE}.cpow").PowerEvaluator
_fsring = importlib.import_module(f"{PACKAGE}.fsring")
FormalSeries, change_quantization, sharp = _fsring.FormalSeries, _fsring.change_quantization, _fsring.sharp
_heat = importlib.import_module(f"{PACKAGE}.heat")
heat_terms, pde_residual = _heat.heat_terms, _heat.pde_residual
_parametrix = importlib.import_module(f"{PACKAGE}.parametrix")
parametrix, resolvent_parametrix = _parametrix.parametrix, _parametrix.resolvent_parametrix
verify_left_identity = _parametrix.verify_left_identity
_symalg = importlib.import_module(f"{PACKAGE}.symalg")
Registry, SymExpr = _symalg.Registry, _symalg.SymExpr
_textio = importlib.import_module(f"{PACKAGE}.textio")
dump_series, load_series = _textio.dump_series, _textio.load_series

is_zero_expanded = SymExpr.is_zero_expanded


class CheckFailed(Exception):
    """A pass produced an output outside its acceptance gate."""


def _gate(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


class _CliWorkload:
    """One ``weylcalc`` validation subcommand run through ``cli.main`` into
    a fresh directory under the benchmark's output directory."""

    other = "cli.other_s"  # per-layer name of the pass time outside every span
    command: str
    payload: str
    full_args: list
    smoke_args: list
    # (name cli looks up, span name) pairs traced on every validation command
    traced = [
        ("quantize_poly", "quant.quantize_poly"),
        ("quantize_general", "quant.quantize_general"),
        ("matrix_function", "quant.matrix_function"),
        ("spectral_compare", "quant.spectral_compare"),
    ]

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.out_dir = out_dir
        args = self.smoke_args if smoke else self.full_args
        self.argv = ["--seed", str(seed), self.command, *args]

    def run_pass(self) -> dict:
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            code = cli.main([*self.argv, "--out", tmp])
            _gate(code == 0, f"{self.command} exited with {code}")
            report = json.loads((Path(tmp) / self.payload).read_text())
            _gate((Path(tmp) / "meta.json").is_file(), "meta.json missing")
        return self.check(report)

    def trace_targets(self) -> list:
        return [(cli, name, span) for name, span in self.traced]


class Power64(_CliWorkload):
    """Criterion-6 study: a0^(1/2) by Balakrishnan integral and quantized
    resummed power symbol against the spectral oracle."""

    command = "validate-power"
    payload = "validate_power.json"
    full_args = ["--basis", "64", "--order", "3", "--z", "0.5"]
    smoke_args = ["--basis", "24", "--order", "3", "--z", "0.5"]
    traced = _CliWorkload.traced + [
        ("balakrishnan_matrix", "quant.balakrishnan_matrix"),
        ("power_series_eval_grid", "cpow.power_series_eval_grid"),
        ("PowerEvaluator", "cpow.PowerEvaluator"),
    ]

    @staticmethod
    def check(report: dict) -> dict:
        errs = {n: np.array(v) for n, v in report["per_state_errors"].items()}
        _gate(sorted(errs) == ["1", "2", "3"], "per-state errors for N = 1..3 expected")
        e1, e2, e3 = errs["1"], errs["2"], errs["3"]
        tol = 1e-9
        noninc = (e2 <= e1 * (1 + tol) + tol) & (e3 <= e2 * (1 + tol) + tol)
        acc = {
            "acc.pin": float(report["convention_pin_error"]),
            "acc.balak_max": float(report["balakrishnan_vs_spectral_max"]),
            "acc.power_n1_max": float(np.max(e1)),
            "acc.improving_frac": float(np.mean(noninc & (e3 < e1))),
        }
        _gate(acc["acc.pin"] <= 1e-12, f"criterion 8: pin {acc['acc.pin']:.3e} > 1e-12")
        _gate(acc["acc.balak_max"] <= 1e-7, f"criterion 6a: {acc['acc.balak_max']:.3e} > 1e-7")
        _gate(acc["acc.power_n1_max"] <= 0.10, f"criterion 6b: N=1 max {acc['acc.power_n1_max']:.3e} > 0.10")
        _gate(acc["acc.improving_frac"] >= 0.80, f"criterion 6b: improving {acc['acc.improving_frac']:.2f} < 0.80")
        return acc


class Sqrt64(_CliWorkload):
    """Criterion-7 study: the quantized heat parametrix of (1 + x^2 + xi^2)^(1/2)
    against exp(-t sqrt(.)) of the shifted oscillator; no lambda integral."""

    command = "validate-sqrt"
    payload = "validate_sqrt.json"
    full_args = ["--basis", "64", "--order", "3", "--t", "0.5,1,2"]
    smoke_args = ["--basis", "24", "--order", "3", "--t", "0.5,1,2"]
    traced = _CliWorkload.traced + [
        ("heat_evaluate_grid", "heat.heat_evaluate_grid"),
        ("heat_terms", "heat.heat_terms"),
    ]

    @staticmethod
    def check(report: dict) -> dict:
        t0 = float(report["identity_at_t0_error"])
        _gate(t0 <= 1e-8, f"criterion 7a: {t0:.3e} > 1e-8")
        _gate(len(report["per_state_errors"]) == 3, "three t values expected")
        worst = 0.0
        for t, per_n in report["per_state_errors"].items():
            e1, e3 = np.array(per_n["1"]), np.array(per_n["3"])
            level = float(np.max(np.concatenate([e1, e3])))
            worst = max(worst, level)
            _gate(level <= 0.15, f"criterion 7b: t={t} max {level:.3e} > 0.15")
            _gate(np.median(e3) < np.median(e1), f"criterion 7b: t={t} median not improving")
        return {"acc.t0_identity": t0, "acc.semigroup_max": worst}


# The random series have a fixed support per order (so a pass costs the same
# for every seed) and seeded nonzero integer coefficients.
_SUPPORT = ((0, 0), (1, 2), (2, 1), (3, 3))


class Series:
    """One exact symbolic pass; every identity must be an exact zero."""

    other = "series.other_s"
    full = {"d1": 8, "d2": 6, "heat": 6, "power": 8, "resolvent": 4, "random": 6}
    smoke = {"d1": 4, "d2": 3, "heat": 3, "power": 3, "resolvent": 2, "random": 3}

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.seed = seed
        self.n = self.smoke if smoke else self.full
        rng = np.random.default_rng(seed)
        n_rand = self.n["random"]
        self.coeffs = rng.integers(1, 6, size=(3, n_rand, len(_SUPPORT))) * rng.choice(
            [-1, 1], size=(3, n_rand, len(_SUPPORT))
        )

    def trace_targets(self) -> list:
        here = sys.modules[__name__]
        return [
            (here, "parametrix", "parametrix.parametrix"),
            (here, "resolvent_parametrix", "parametrix.resolvent_parametrix"),
            (here, "verify_left_identity", "parametrix.verify_left_identity"),
            (here, "heat_terms", "heat.heat_terms"),
            (here, "pde_residual", "heat.pde_residual"),
            (here, "PowerEvaluator", "cpow.PowerEvaluator"),
            (here, "sharp", "fsring.sharp"),
            (here, "change_quantization", "fsring.change_quantization"),
            (here, "is_zero_expanded", "symalg.is_zero_expanded"),
            (here, "dump_series", "textio.dump_series"),
            (here, "load_series", "textio.load_series"),
        ]

    def _random_series(self, reg: Registry, k: int) -> FormalSeries:
        terms = []
        for j, row in enumerate(self.coeffs[k]):
            mono = {
                ((a + j) % 4, (b + 2 * j) % 4, 0, 0): int(c) for (a, b), c in zip(_SUPPORT, row)
            }
            terms.append(reg.poly(mono))
        return FormalSeries(terms)

    def run_pass(self) -> dict:
        n, seed = self.n, self.seed

        r1 = Registry(1, seed=seed)
        r1.register_base("a", r1.parse("1 + x1^2 + xi1^2 + x1^2*xi1^2"))
        a1 = r1.base("a")
        q1 = parametrix(a1, n["d1"])
        _gate(verify_left_identity(q1, a1, n["d1"]).is_zero(), "d=1 parametrix identity")

        r2 = Registry(2, seed=seed)
        r2.register_base("a", r2.parse("1 + x1^2 + xi1^2 + x2^2 + xi2^2 + x1^2*xi2^2"))
        a2 = r2.base("a")
        q2 = parametrix(a2, n["d2"])
        _gate(verify_left_identity(q2, a2, n["d2"]).is_zero(), "d=2 parametrix identity")

        r3 = Registry(1, seed=seed)
        r3.register_base("a0", r3.parse("1 + x1^2 + xi1^2"))
        r3.designate_exp("a0", Fraction(1, 2))
        u = heat_terms(r3.base("a0", Fraction(1, 2)), n["heat"])
        for j in range(n["heat"]):
            _gate(pde_residual(u, j).is_zero(), f"heat transport residual {j}")

        r4 = Registry(1, seed=seed)
        r4.register_base("a0", r4.parse("1 + x1^2 + xi1^2"))
        r4.register_base("alam", r4.parse("1 + x1^2 + xi1^2 + lam"))
        PowerEvaluator(r4.base("a0"), 1.5, order=n["power"])

        r5 = Registry(1, params=("lam", "mu", "t"), seed=seed)
        r5.register_base("a0", r5.parse("1 + x1^2 + xi1^2"))
        r5.register_base("alam", r5.parse("1 + x1^2 + xi1^2 + lam"))
        r5.register_base("amu", r5.parse("1 + x1^2 + xi1^2 + mu"))
        N = n["resolvent"]
        qlam = resolvent_parametrix(r5.base("a0"), N, lam="lam")
        qmu = resolvent_parametrix(r5.base("a0"), N, lam="mu")
        lam, mu = r5.var("lam"), r5.var("mu")
        diff = (qlam - qmu) - sharp(qlam, qmu, N) * (-(lam - mu))
        _gate(all(is_zero_expanded(t) for t in diff.terms), "resolvent identity")

        r6 = Registry(1, seed=seed)
        A, B, C = (self._random_series(r6, k) for k in range(3))
        N = n["random"]
        lhs = sharp(sharp(A, B, N), C, N)
        rhs = sharp(A, sharp(B, C, N), N)
        _gate((lhs - rhs).is_zero(), "associativity on random series")
        half = Fraction(1, 2)
        back = change_quantization(change_quantization(A, 0, half, N), half, 0, N)
        _gate((back - A).is_zero(), "requantization round trip")

        text = dump_series(q2)
        loaded = load_series(text, seed=seed)
        _gate(dump_series(loaded) == text, "series text round trip changed bytes")
        _gate([t.terms for t in loaded.terms] == [t.terms for t in q2.terms], "loaded series differs")
        return {}


WORKLOADS = {"power64": Power64, "sqrt64": Sqrt64, "series": Series}
