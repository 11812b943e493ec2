"""Experiment runner: reproducible desk-scale studies over the calculus.

One command = one output directory.  Payload files (CSV / JSON) are byte
deterministic for a fixed configuration; volatile provenance (timestamp)
goes to a separate meta.json.  A JSON config file can pre-set any flag
(flags win on conflict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInput, InvalidParameter, WeylcalcError
from .fsring import CutoffConfig, FormalSeries, change_quantization, sharp
from .cpow import PowerEvaluator, QuadratureScheme, power_coefficient, power_series_eval_grid
from .heat import heat_evaluate_grid, heat_terms
from .parametrix import hypoellipticity_profile, parametrix, resolvent_parametrix
from .quant import (
    HermiteOperator,
    balakrishnan_matrix,
    matrix_function,
    quantize_general,
    quantize_poly,
    spectral_compare,
)
from .symalg import PhasePoint, Registry, SymExpr
from .textio import (
    dump_operator,
    dump_series,
    load_operator,
    load_series,
    load_symexpr,
    operator_csv,
)
from .weights import check_conditions, load_weight_table, make_gevrey


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(out_dir: Path, name: str, payload):
    """Write payload to out_dir/name; an output path that cannot be
    created or written raises InvalidInput."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload)
    except OSError as e:
        raise InvalidInput(f"cannot write {path}: {e}") from None
    return path


def _meta(out_dir: Path, args: argparse.Namespace, command: str):
    echo = {k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None}
    meta = {
        "command": command,
        "config": echo,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write(out_dir, "meta.json", _json_dump(meta))


def _read(path: str, binary: bool = False):
    """The contents of an input file; a missing or unreadable file raises
    InvalidInput."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInput(f"cannot read {path}: {e}") from None


def _parse_list(text: str, kind, what: str, lengths=None) -> list:
    """Comma-separated values converted by kind (float, int or Fraction);
    a malformed value, or a count outside lengths, raises InvalidInput."""
    try:
        vals = [kind(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"{what}: cannot read {text!r} as comma-separated {kind.__name__} values") from None
    if lengths is not None and len(vals) not in lengths:
        raise InvalidInput(f"{what}: expected {' or '.join(map(str, lengths))} values, got {len(vals)}")
    return vals


def _load_points(path: str, d: int) -> list:
    pts = []
    for n, line in enumerate(_read(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("x"):
            continue
        vals = _parse_list(line, float, f"{path} line {n}")
        if len(vals) < 2 * d:
            raise InvalidInput(f"{path} line {n}: a point row needs at least {2*d} columns")
        pts.append(PhasePoint(tuple(vals[:d]), tuple(vals[d : 2 * d])))
    return pts


def _grid_csv(rows, header) -> str:
    lines = [header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _cutoff_from_args(args) -> CutoffConfig:
    ws = make_gevrey(args.cutoff_sigma, 40)
    return CutoffConfig.from_weights(ws, R=args.cutoff_r)


def _quad_from_args(args) -> QuadratureScheme:
    return QuadratureScheme(
        u_min=args.quad_umin, u_max=args.quad_umax, step=args.quad_step, refine=args.quad_refine
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_weights(args) -> int:
    if args.gevrey is not None:
        ws = make_gevrey(args.gevrey, args.pmax)
    elif args.weights:
        ws = load_weight_table(args.weights)
    else:
        print("need --gevrey or --weights", file=sys.stderr)
        return 2
    report = check_conditions(ws)
    payload = _json_dump(report.as_dict())
    if args.out:
        out = Path(args.out)
        _write(out, "conditions.json", payload)
        _meta(out, args, "check-weights")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_sharp(args) -> int:
    A = load_series(_read(args.series_a), seed=args.seed)
    B = load_series(_read(args.series_b), seed=args.seed)
    B = _rebind_series(B, A.reg)
    C = sharp(A, B, args.order)
    out = Path(args.out)
    _write(out, "product.series", dump_series(C))
    _meta(out, args, "sharp")
    return 0


def _rebind_series(S, reg):
    """Move a series onto a structurally identical registry (same dimension,
    parameters and base polynomials) so two loaded files can be combined."""
    other = S.reg
    if (
        other.d != reg.d
        or other.params != reg.params
        or {n: other.base_poly(n) for n in other._bases}
        != {n: reg.base_poly(n) for n in reg._bases}
    ):
        raise InvalidInput("series files have incompatible registries")
    return FormalSeries([SymExpr(reg, dict(t.terms)) for t in S.terms])


def cmd_requantize(args) -> int:
    A = load_series(_read(args.series), seed=args.seed)
    (tau,) = _parse_list(args.tau, Fraction, "--tau", (1,))
    (tau1,) = _parse_list(args.tau1, Fraction, "--tau1", (1,))
    C = change_quantization(A, tau, tau1, args.order)
    out = Path(args.out)
    _write(out, "requantized.series", dump_series(C))
    _meta(out, args, "requantize")
    return 0


def cmd_parametrix(args) -> int:
    a = load_symexpr(_read(args.symbol), seed=args.seed)
    if args.resolvent:
        q = resolvent_parametrix(a, args.order)
    else:
        q = parametrix(a, args.order)
    out = Path(args.out)
    _write(out, "parametrix.series", dump_series(q))
    if args.profile_points:
        ws = make_gevrey(args.profile_sigma, 40)
        grid = _load_points(args.profile_points, a.reg.d)
        prof = hypoellipticity_profile(a, ws, args.rho, grid, max_order=args.profile_order)
        rows = []
        for (gamma, i), ratio in sorted(prof.ratio_table.items()):
            w = prof.grid[i]
            rows.append(
                f"\"{gamma}\",{i},{','.join(repr(v) for v in (*w.x, *w.xi))},{ratio!r}"
            )
        _write(out, "profile.csv", _grid_csv(rows, "alpha,point,coords,ratio"))
        _write(
            out,
            "profile.json",
            _json_dump(
                {
                    "fitted_h": prof.fitted_h,
                    "fitted_C": prof.fitted_C,
                    "lower_bound_ok": prof.lower_bound_ok,
                    "lower_bound_constants": {str(k): v for k, v in prof.lower_bound_constants.items()},
                }
            ),
        )
    _meta(out, args, "parametrix")
    return 0


def cmd_complex_power(args) -> int:
    a0 = load_symexpr(_read(args.symbol), seed=args.seed)
    parts = _parse_list(args.z, float, "--z", (1, 2))
    z = complex(parts[0], parts[1] if len(parts) > 1 else 0.0)
    ev = PowerEvaluator(a0, z, order=args.order, k=args.k, quad=_quad_from_args(args))
    points = _load_points(args.points, a0.reg.d)
    rows = []
    for i, w in enumerate(points):
        for j in range(args.order):
            res = power_coefficient(ev, j, w)
            rows.append(
                f"{i},{','.join(repr(v) for v in (*w.x, *w.xi))},{j},"
                f"{res.value.real!r},{res.value.imag!r},{res.error!r}"
            )
    payload = _grid_csv(rows, "point,coords,j,re_p,im_p,err")
    out = Path(args.out)
    _write(out, "power.csv", payload)
    _meta(out, args, "complex-power")
    return 0


def cmd_heat(args) -> int:
    b = load_symexpr(_read(args.symbol), seed=args.seed)
    terms = heat_terms(b, args.order)
    points = _load_points(args.points, b.reg.d)
    cfg = _cutoff_from_args(args)
    t_grid = _parse_list(args.t_grid, float, "--t-grid")
    rows = []
    for i, w in enumerate(points):
        env = w.env(b.reg)
        for t in t_grid:
            val = complex(heat_evaluate_grid(terms, t, env, cfg))
            rows.append(
                f"{i},{','.join(repr(v) for v in (*w.x, *w.xi))},{t!r},{val.real!r},{val.imag!r}"
            )
    out = Path(args.out)
    _write(out, "heat.csv", _grid_csv(rows, "point,coords,t,re_u,im_u"))
    _meta(out, args, "heat")
    return 0


def cmd_quantize(args) -> int:
    sigma = load_symexpr(_read(args.symbol), seed=args.seed)
    if args.general:
        env_extra = {}
        if args.t is not None:
            env_extra["t"] = args.t

        def sym(X, XI):
            env = {"x1": X, "xi1": XI}
            env.update(env_extra)
            return sigma.evaluate_grid(env)

        op = quantize_general(sym, args.basis)
    else:
        op = quantize_poly(sigma, args.basis)
    out = Path(args.out)
    _write(out, "operator.wcop", dump_operator(op))
    if args.csv:
        _write(out, "operator.csv", operator_csv(op))
    _meta(out, args, "quantize")
    return 0


def cmd_spectral_compare(args) -> int:
    A = load_operator(_read(args.a, binary=True))
    B = load_operator(_read(args.b, binary=True))
    lo, hi = _parse_list(args.range, int, "--range", (2,))
    rep = spectral_compare(A, B, (lo, hi))
    out = Path(args.out)
    _write(out, "compare.json", _json_dump(rep.as_dict()))
    _meta(out, args, "spectral-compare")
    return 0


# ---------------------------------------------------------------------------
# validation pipelines (the spectral acceptance studies)
# ---------------------------------------------------------------------------


# the smallest basis whose state window and interior block are non-empty
_MIN_VALIDATION_BASIS = 5


def _state_window(basis: int) -> tuple:
    """Compared states, scaled from the reference window [16, 40] at 64."""
    if basis < _MIN_VALIDATION_BASIS:
        raise InvalidParameter(f"validation needs basis >= {_MIN_VALIDATION_BASIS}, got {basis}")
    lo = basis // 4
    hi = min(basis - 3, max(lo, (basis * 40) // 64))
    return lo, hi


def run_validate_power(
    basis: int = 64,
    order: int = 3,
    z: complex = 0.5,
    cutoff_r: float = 1.4,
    seed: int = 7,
) -> dict:
    """Spectral validation of complex powers at desk scale.

    Compares balakrishnan_matrix against the eigendecomposition oracle on
    the oscillator, then the quantized resummed power symbol of
    a0 = 1 + x^2 + xi^2 against the spectral z-power of the shifted
    oscillator, for truncations N = 1..order."""
    lo, hi = _state_window(basis)
    reg = Registry(1, seed=seed)
    reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
    reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
    a0 = reg.base("a0")
    x = reg.var("x1")
    xi = reg.var("xi1")
    H = quantize_poly(x * x + xi * xi, basis)
    diag = np.real(np.diag(H.matrix))
    expected = 2.0 * np.arange(basis) + 1.0
    interior = slice(0, basis - 4)
    pin = float(np.max(np.abs(diag[interior] - expected[interior])))
    offdiag = H.matrix - np.diag(np.diag(H.matrix))
    pin = max(pin, float(np.max(np.abs(offdiag[interior, interior]))))

    balak = balakrishnan_matrix(H, z, max(int(math.floor(z.real)) + 1, 1))
    sqrt_h = matrix_function(H, lambda v: complex(v) ** z)
    balak_rep = spectral_compare(sqrt_h, balak, (0, basis - 5))

    shifted = HermiteOperator.wrap(H.matrix + np.eye(basis))
    ref = matrix_function(shifted, lambda v: complex(v) ** z)
    ev = PowerEvaluator(a0, z, order=order, k=max(int(math.floor(z.real)) + 1, 1))
    ws = make_gevrey(1.0, 40)
    cfg = CutoffConfig.from_weights(ws, R=cutoff_r)
    # p_{z,N-1} = 0 makes the N-term symbol the (N-1)-term one bit for bit,
    # so only the distinct truncations are quantized, in one stacked call
    distinct = [N for N in range(1, order + 1) if N == 1 or ev.g_term(N - 1).terms]
    sym = lambda X, XI: np.stack(
        [power_series_eval_grid(ev, N, {"x1": X, "xi1": XI}, cfg) for N in distinct]
    )
    quantized = dict(zip(distinct, quantize_general(sym, basis)))
    per_n = {}
    for N in range(1, order + 1):
        if N in quantized:
            per_n[N] = spectral_compare(ref, quantized[N], (lo, hi)).per_state
        else:
            per_n[N] = per_n[N - 1]
    return {
        "convention_pin_error": pin,
        "balakrishnan_vs_spectral_max": balak_rep.max_error,
        "state_lo": lo,
        "state_hi": hi,
        "per_state_errors": {str(n): v for n, v in per_n.items()},
        "basis": basis,
        "z": [z.real, z.imag] if isinstance(z, complex) else [float(z), 0.0],
        "order": order,
        "cutoff_r": cutoff_r,
    }


def run_validate_sqrt(
    basis: int = 64,
    order: int = 3,
    t_values=(0.5, 1.0, 2.0),
    cutoff_r: float = 1.4,
    seed: int = 7,
) -> dict:
    """Square-root semigroup validation: the heat parametrix of
    b = (1 + x^2 + xi^2)^(1/2), quantized, against exp(-t sqrt(.)) of the
    shifted oscillator."""
    lo, hi = _state_window(basis)
    reg = Registry(1, seed=seed)
    reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
    reg.designate_exp("a0", Fraction(1, 2))
    b = reg.base("a0", Fraction(1, 2))
    terms = heat_terms(b, order)
    x = reg.var("x1")
    xi = reg.var("xi1")
    H = quantize_poly(x * x + xi * xi, basis)
    shifted = HermiteOperator.wrap(H.matrix + np.eye(basis))
    ws = make_gevrey(1.0, 40)
    cfg = CutoffConfig.from_weights(ws, R=cutoff_r)

    sym0 = lambda X, XI: heat_evaluate_grid(terms, 0.0, {"x1": X, "xi1": XI}, cfg)
    U0 = quantize_general(sym0, basis)
    ident_err = float(np.max(np.abs(U0.matrix - np.eye(basis))))

    results = {}
    for t in t_values:
        ref = matrix_function(shifted, lambda v: math.exp(-t * math.sqrt(v.real)))
        per_n = {}
        for N in range(1, order + 1):
            sym = lambda X, XI: heat_evaluate_grid(terms[:N], t, {"x1": X, "xi1": XI}, cfg)
            U = quantize_general(sym, basis)
            rep = spectral_compare(ref, U, (lo, hi))
            per_n[N] = rep.per_state
        results[str(t)] = {str(n): v for n, v in per_n.items()}
    return {
        "identity_at_t0_error": ident_err,
        "state_lo": lo,
        "state_hi": hi,
        "per_state_errors": results,
        "basis": basis,
        "order": order,
        "t_values": list(t_values),
        "cutoff_r": cutoff_r,
    }


def cmd_validate_power(args) -> int:
    report = run_validate_power(
        basis=args.basis, order=args.order, z=complex(args.z), cutoff_r=args.cutoff_r, seed=args.seed
    )
    out = Path(args.out)
    _write(out, "validate_power.json", _json_dump(report))
    _meta(out, args, "validate-power")
    return 0


def cmd_validate_sqrt(args) -> int:
    t_values = tuple(_parse_list(args.t, float, "--t"))
    report = run_validate_sqrt(
        basis=args.basis, order=args.order, t_values=t_values, cutoff_r=args.cutoff_r, seed=args.seed
    )
    out = Path(args.out)
    _write(out, "validate_sqrt.json", _json_dump(report))
    _meta(out, args, "validate-sqrt")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> tuple:
    """The top-level parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(prog="weylcalc", description=__doc__)
    p.add_argument("--config", help="JSON file pre-setting flag defaults")
    p.add_argument("--seed", type=int, default=7, help="seed for random grids")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-weights", help="weight-sequence condition report")
    s.add_argument("--gevrey", type=float, default=None, help="Gevrey exponent sigma")
    s.add_argument("--pmax", type=int, default=200)
    s.add_argument("--weights", help="two-column table (p, ln M_p)")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_check_weights)

    s = sub.add_parser("sharp", help="sharp product of two series files")
    s.add_argument("--series-a", required=True)
    s.add_argument("--series-b", required=True)
    s.add_argument("--order", type=int, default=6)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sharp)

    s = sub.add_parser("requantize", help="change of quantization tau -> tau1")
    s.add_argument("--series", required=True)
    s.add_argument("--tau", required=True)
    s.add_argument("--tau1", required=True)
    s.add_argument("--order", type=int, default=6)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_requantize)

    s = sub.add_parser("parametrix", help="recursive left parametrix")
    s.add_argument("--symbol", required=True)
    s.add_argument("--order", type=int, default=6)
    s.add_argument("--out", required=True)
    s.add_argument("--resolvent", action="store_true")
    s.add_argument("--profile-points", default=None)
    s.add_argument("--profile-order", type=int, default=3)
    s.add_argument("--profile-sigma", type=float, default=2.0)
    s.add_argument("--rho", type=float, default=1.0)
    s.set_defaults(func=cmd_parametrix)

    s = sub.add_parser("complex-power", help="Balakrishnan power coefficients on points")
    s.add_argument("--symbol", required=True)
    s.add_argument("--z", required=True, help="RE,IM")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--points", required=True)
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--quad-umin", type=float, default=-40.0)
    s.add_argument("--quad-umax", type=float, default=40.0)
    s.add_argument("--quad-step", type=float, default=0.05)
    s.add_argument("--quad-refine", type=int, default=2)
    s.set_defaults(func=cmd_complex_power)

    s = sub.add_parser("heat", help="heat parametrix values on points")
    s.add_argument("--symbol", required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--t-grid", required=True, help="comma-separated times")
    s.add_argument("--points", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--cutoff-r", type=float, default=4.0)
    s.add_argument("--cutoff-sigma", type=float, default=1.0)
    s.set_defaults(func=cmd_heat)

    s = sub.add_parser("quantize", help="Hermite-basis Weyl quantization")
    s.add_argument("--symbol", required=True)
    s.add_argument("--basis", type=int, required=True)
    s.add_argument("--general", action="store_true", help="cross-Wigner quadrature path")
    s.add_argument("--t", type=float, default=None, help="time value for heat symbols")
    s.add_argument("--csv", action="store_true", help="also write the CSV debug form")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_quantize)

    s = sub.add_parser("spectral-compare", help="per-state comparison of two operators")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--range", required=True, help="LO,HI")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_spectral_compare)

    s = sub.add_parser("validate-power", help="criterion-6 style spectral validation")
    s.add_argument("--basis", type=int, default=64)
    s.add_argument("--order", type=int, default=3)
    s.add_argument("--z", type=float, default=0.5)
    s.add_argument("--cutoff-r", type=float, default=1.4)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_validate_power)

    s = sub.add_parser("validate-sqrt", help="criterion-7 style semigroup validation")
    s.add_argument("--basis", type=int, default=64)
    s.add_argument("--order", type=int, default=3)
    s.add_argument("--t", default="0.5,1,2")
    s.add_argument("--cutoff-r", type=float, default=1.4)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_validate_sqrt)

    return p, sub.choices


# config keys that belong to the top-level parser; the rest go to the
# chosen subcommand
_GLOBAL_KEYS = ("seed",)


def _load_config(path: str, args: argparse.Namespace) -> dict:
    """The config file as flag defaults for the parsed command.

    Keys are flag names (dashes or underscores) of the top-level parser or
    of the chosen subcommand; values are JSON scalars.  Numbers and strings
    are handed to argparse as strings, so each flag's own type check
    applies to them."""
    try:
        config = json.loads(_read(path))
    except ValueError as e:
        raise InvalidInput(f"config file {path} is not JSON: {e}") from None
    if not isinstance(config, dict):
        raise InvalidInput("config file must hold a JSON object")
    config = {k.replace("-", "_"): v for k, v in config.items()}
    allowed = set(vars(args)) - {"func", "config", "command"}
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise InvalidInput(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    for k, v in config.items():
        if isinstance(v, (list, dict)):
            raise InvalidInput(f"config value for {k} must be a scalar")
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            config[k] = str(v)
    return config


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = _load_config(args.config, args)
            sub = commands[args.command]
            parser.set_defaults(**{k: v for k, v in config.items() if k in _GLOBAL_KEYS})
            sub.set_defaults(**{k: v for k, v in config.items() if k not in _GLOBAL_KEYS})
            # argv parsed once already, so a failure now is a config value
            parser.exit_on_error = sub.exit_on_error = False
            try:
                args = parser.parse_args(argv)
            except argparse.ArgumentError as e:
                raise InvalidInput(f"config value rejected: {e}") from None
        return args.func(args)
    except WeylcalcError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
