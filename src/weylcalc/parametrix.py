"""Hypoellipticity profiling and recursive left parametrices, including the
lambda-resolvent family."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainViolation, InvalidInput, InvalidParameter
from .fsring import FormalSeries, canonical, moyal_accumulate, sharp, unit_series
from .qrat import QC
from .symalg import DerivCache, Registry, SymExpr, multi_indices
from .weights import WeightSequence, associated_function


@dataclass
class HypoProfile:
    """Grid evidence for the symbol-controlled derivative bounds.

    ratio_table maps (alpha, point index) to
    |D^alpha a(w)| <w>^(rho |alpha|) / (A_|alpha| |a(w)|);
    (h, C) is the smallest pair with ratio <= C h^|alpha| under the fit rule
    h = max root-ratio over |alpha| >= 1, C = residual max.
    """

    rho: float
    grid: list
    max_order: int
    ratio_table: dict = field(default_factory=dict)
    fitted_h: float = 0.0
    fitted_C: float = 0.0
    lower_bound_ok: bool = True
    lower_bound_constants: dict = field(default_factory=dict)


def _fit_h_c(entries):
    """entries: iterable of (order, ratio). Returns (h, C) per the fit rule."""
    h = 0.0
    for order, ratio in entries:
        if order >= 1 and ratio > 0:
            h = max(h, ratio ** (1.0 / order))
    c = 0.0
    for order, ratio in entries:
        c = max(c, ratio / (h**order) if order >= 1 and h > 0 else ratio)
    return h, c


def hypoellipticity_profile(
    a: SymExpr,
    ws: WeightSequence,
    rho: float,
    grid,
    max_order: int = 4,
) -> HypoProfile:
    """Profile the bound |D^alpha a| <= C h^|alpha| |a| A_alpha <w>^(-rho |alpha|)
    on a finite grid, and test the sub-exponential lower bound at m in
    {1/4, 1, 4}.  Exact symbolic derivatives, numeric evaluation."""
    if not (0 < rho <= 1):
        raise InvalidParameter("rho must lie in (0, 1]")
    if max_order > 8:
        raise InvalidParameter("max_order is capped at 8")
    reg = a.reg
    d = reg.d
    cache = DerivCache(a)
    envs = [w.env(reg) for w in grid]
    base_vals = [a.evaluate_grid(env) for env in envs]
    for i, v in enumerate(base_vals):
        if abs(v) == 0.0:
            raise DomainViolation(f"symbol vanishes at grid point {i}")
    profile = HypoProfile(rho=rho, grid=list(grid), max_order=max_order)
    entries = []
    for order in range(max_order + 1):
        for gamma in multi_indices(2 * d, order):
            alpha, beta = gamma[:d], gamma[d:]
            de = cache.get(alpha, beta)
            a_gamma = math.exp(ws.log_m(order)) if order <= ws.p_max else None
            if a_gamma is None:
                raise InvalidParameter("weight sequence too short for max_order")
            for i, (w, env) in enumerate(zip(grid, envs)):
                val = abs(de.evaluate_grid(env))
                br = w.bracket()
                ratio = val * br ** (rho * order) / (a_gamma * abs(base_vals[i]))
                profile.ratio_table[(gamma, i)] = ratio
                entries.append((order, ratio))
    profile.fitted_h, profile.fitted_C = _fit_h_c(entries)
    for m in (0.25, 1.0, 4.0):
        c_m = float("inf")
        for i, w in enumerate(grid):
            gauge = math.exp(
                -associated_function(ws, max(m * math.sqrt(sum(v * v for v in w.x)), 1e-300))
                - associated_function(ws, max(m * math.sqrt(sum(v * v for v in w.xi)), 1e-300))
            )
            c_m = min(c_m, abs(base_vals[i]) / gauge)
        profile.lower_bound_constants[m] = c_m
        if not (c_m > 0):
            profile.lower_bound_ok = False
    return profile


def _as_base_power_one(a: SymExpr) -> str:
    bp = a.single_base_power()
    if bp is None or bp[0] != QC(1) or bp[2] != 1:
        raise InvalidInput("symbol must be a registered positive base (pass base^1)")
    return bp[1]


def _parametrix_terms(reg: Registry, base_name: str, N: int) -> list:
    """q_0 = base^-1 and the Weyl recursion
    q_j = -q_0 * sum_{s=1..j} (order-s Moyal terms of the pair (q_{j-s}, base))."""
    q0 = reg.base(base_name, -1)
    a_cache = DerivCache(reg.base(base_name, 1))
    q_caches = [DerivCache(q0)]
    out = [q0]
    for j in range(1, N):
        acc = reg.zero()
        for s in range(1, j + 1):
            acc = moyal_accumulate(acc, [(q_caches[j - s], a_cache)], s)
        qj = -(q0 * acc)
        out.append(qj)
        q_caches.append(DerivCache(qj))
    return out


def parametrix(a: SymExpr, N: int) -> FormalSeries:
    """Left parametrix of a hypoelliptic positive symbol passed as a
    registered base power a^1."""
    if N < 1:
        raise InvalidParameter("order must be >= 1")
    name = _as_base_power_one(a)
    return FormalSeries(_parametrix_terms(a.reg, name, N))


def resolvent_parametrix(a0: SymExpr, N: int, lam: str = "lam") -> FormalSeries:
    """Parametrix family of a_lam = a0 + lam, with lam a formal variable.

    a0 must be a registered base, and the combined base a0 + lam must be
    registered as well (it is looked up by its polynomial)."""
    if N < 1:
        raise InvalidParameter("order must be >= 1")
    reg = a0.reg
    name0 = _as_base_power_one(a0)
    target = dict(reg.base_poly(name0))
    lam_idx = reg.var_index(lam)
    lam_mono = tuple(1 if i == lam_idx else 0 for i in range(reg.nvars))
    target[lam_mono] = target.get(lam_mono, QC(0)) + QC(1)
    target = {m: c for m, c in target.items() if c}
    name_lam = reg.find_base(target)
    if name_lam is None:
        raise InvalidInput(f"register the combined base {name0} + {lam} first")
    return FormalSeries(_parametrix_terms(reg, name_lam, N))


def verify_left_identity(q: FormalSeries, a: SymExpr, N: int) -> FormalSeries:
    """(q # a) - 1 truncated to order N; every term should be zero."""
    residual = sharp(q.truncate(N), canonical(a, N), N) - unit_series(a.reg, N)
    return residual


def verify_right_identity(q: FormalSeries, a: SymExpr, N: int) -> FormalSeries:
    """(a # q) - 1 truncated to order N."""
    residual = sharp(canonical(a, N), q.truncate(N), N) - unit_series(a.reg, N)
    return residual
