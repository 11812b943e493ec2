"""Closed-form recursive heat parametrix for d/dt + b^w, residual verification
of the transport hierarchy, and derivative-bound profiling.

Every term has the closed form u_j = Q_j(t, w) * exp(-t b) with Q_j polynomial
in t over the base-power algebra; the recursion's s-integral is performed
exactly on the polynomial integrand after the exp(s b) exp(-s b) cancellation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import InvalidParameter, UnsupportedSymbol
from .fsring import CutoffConfig, cutoff_chi_grid, moyal_accumulate
from .parametrix import _fit_h_c
from .qrat import QC
from .symalg import DerivCache, PhasePoint, SymExpr, multi_indices
from .weights import WeightSequence

logger = logging.getLogger("weylcalc.heat")


@dataclass
class HeatTerm:
    """u_j = Q_j(t, w) e^{-t b}; full stores the product with the flag set."""

    j: int
    Q: SymExpr
    full: SymExpr


def _resolve_heat_base(b: SymExpr):
    """b must be the registry-designated exponential base power."""
    reg = b.reg
    bp = b.single_base_power()
    if bp is None or bp[0] != QC(1):
        raise UnsupportedSymbol(
            "heat symbol must be a rational power of a registered positive base"
        )
    _, name, r = bp
    if reg.exp_base != (name, r):
        raise UnsupportedSymbol(
            "designate the heat symbol as the registry's exponential base first"
        )
    return name, r


def heat_terms(b: SymExpr, N: int) -> list:
    """Terms u_0 .. u_{N-1} of the heat parametrix of d/dt + b^w.

    u_0 = e^{-t b}; for j >= 1,
    u_j = - sum_{l=1..j} sum_{|mu+nu|=l} (-1)^|nu| / (mu! nu! 2^l)
          e^{-t b} * integral_0^t e^{s b} d^mu_xi D^nu_x b
                    * d^nu_xi D^mu_x u_{j-l}(s) ds,
    evaluated exactly inside the algebra."""
    if N < 1:
        raise InvalidParameter("order must be >= 1")
    reg = b.reg
    _resolve_heat_base(b)
    u0 = reg.exp_atom()
    out = [HeatTerm(0, reg.one(), u0)]
    b_cache = DerivCache(b)
    u_caches = [DerivCache(u0)]
    for j in range(1, N):
        acc = reg.zero()
        for l in range(1, j + 1):
            acc = moyal_accumulate(acc, [(b_cache, u_caches[j - l])], l)
        # e^{sb} e^{-sb} cancels: integrate the polynomial in s exactly
        q_j = -acc.drop_exp().integrate_t()
        u_j = q_j.with_exp()
        t_deg = q_j.max_degree("t")
        if t_deg > 3 * j:
            logger.warning(
                "heat term %d has t-degree %d > 3j = %d; continuing", j, t_deg, 3 * j
            )
        out.append(HeatTerm(j, q_j, u_j))
        u_caches.append(DerivCache(u_j))
    return out


def pde_residual(terms: list, j: int) -> SymExpr:
    """Left-hand side of transport equation j:
    d/dt u_j + sum_{k+l=j} (order-l Moyal terms of the pair (b, u_k)).
    Symbolically zero for terms produced by heat_terms."""
    if j >= len(terms):
        raise InvalidParameter("terms computed only to a lower order")
    reg = terms[0].full.reg
    b_cache = DerivCache(reg.base(*reg.exp_base))
    res = terms[j].full.diff("t")
    for l in range(j + 1):
        res = moyal_accumulate(res, [(b_cache, DerivCache(terms[j - l].full))], l)
    return res


def heat_evaluate(terms: list, t: float, w: PhasePoint, cfg: CutoffConfig) -> complex:
    """Resummed heat-parametrix value sum_n (1 - chi_{n,R}(w)) u_n(t, w)."""
    return complex(heat_evaluate_grid(terms, t, w.env(terms[0].full.reg), cfg))


def heat_evaluate_grid(terms: list, t: float, env: dict, cfg: CutoffConfig):
    """Resummed heat-parametrix values sum_n (1 - chi_{n,R}) u_n(t, .) over
    coordinate arrays (adds t to env); scalars give a 0-d result."""
    if t < 0:
        raise InvalidParameter("t must be >= 0")
    reg = terms[0].full.reg
    env = dict(env)
    env["t"] = float(t)
    xs = [env[f"x{i+1}"] for i in range(reg.d)]
    xis = [env[f"xi{i+1}"] for i in range(reg.d)]
    total = 0.0 + 0.0j
    base_cache: dict = {}
    for term in terms:
        damp = 1.0 - cutoff_chi_grid(term.j, cfg, xs, xis)
        total = total + damp * term.full.evaluate_grid(env, base_cache)
    return total


# ---------------------------------------------------------------------------
# derivative-bound profiling
# ---------------------------------------------------------------------------


@dataclass
class HeatBoundProfile:
    """Fitted constants for the heat-term bound
    |D^n_t D^alpha_w u_j| <= C n! h^(|alpha|+2j) A_(|alpha|+2j) (Re b)^n
                             <w>^(-rho(|alpha|+2j)) e^(-t/4 Re b),
    plus companion fits for the e^{-tb} bound (with the sum_r t^r|b|^r/r!
    weight and 2^n factor) and for the b^n bound C 2^n h^|alpha| A_alpha."""

    C: float
    h: float
    exp_C: float
    exp_h: float
    pow_C: float
    pow_h: float
    samples: int = 0


def bound_profile(
    terms: list,
    grid,
    t_grid,
    n_max: int,
    alpha_max: int,
    ws: WeightSequence,
    rho: float,
) -> HeatBoundProfile:
    if n_max > 4 or alpha_max > 4:
        raise InvalidParameter("n_max and alpha_max are capped at 4")
    reg = terms[0].full.reg
    d = reg.d
    name, r = reg.exp_base
    b_expr = reg.base(name, r)

    def a_val(p: int) -> float:
        return math.exp(ws.log_m(p))

    def t_derivatives(f: SymExpr):
        out = [f]
        for _ in range(n_max):
            out.append(out[-1].diff("t"))
        return enumerate(out)

    def samples(series, t_values):
        """(n, |alpha|, |D^alpha_w f_n|, b, <w>, t) for each (n, f_n) of
        series, |alpha| <= alpha_max, grid point w and t in t_values.  The
        exponential atom is dropped from each derivative: every bound
        carries its own e^{-t Re b} factor, so it is cancelled analytically
        and huge t * b values never underflow the quotient."""
        points = []
        for w in grid:
            env = w.env(reg)
            for t in t_values:
                e = env | {"t": float(t)}
                points.append((w.bracket(), t, e, complex(b_expr.evaluate_grid(e))))
        for n, f in series:
            cache = DerivCache(f)
            for order in range(alpha_max + 1):
                for gamma in multi_indices(2 * d, order):
                    de = cache.get(gamma[:d], gamma[d:]).drop_exp()
                    for br, t, e, b in points:
                        yield n, order, abs(complex(de.evaluate_grid(e))), b, br, t

    def heat_ratio(j, n, order, val, b, br, t):
        # the bound's e^{-t/4 Re b} leaves the damping factor e^{-3t/4 Re b}
        p = order + 2 * j
        denom = math.factorial(n) * a_val(p) * max(b.real, 1e-300) ** n * br ** (-rho * p)
        return p, val * math.exp(-0.75 * t * b.real) / denom

    def exp_ratio(n, order, val, b, br, t):
        # e^{-tb} companion bound (Faa di Bruno route)
        ab = abs(b)
        weight = sum((t**rr) * ab**rr / math.factorial(rr) for rr in range(order + 1))
        denom = 2.0**n * a_val(order) * br ** (-rho * order) * max(ab, 1e-300) ** n * weight
        return order, val / denom

    def pow_ratio(n, order, val, b, br, t):
        # b^n companion bound
        return order, val / (2.0**n * a_val(order) * br ** (-rho * order) * abs(b) ** n)

    entries = [
        heat_ratio(term.j, *s) for term in terms for s in samples(t_derivatives(term.full), t_grid)
    ]
    exp_entries = [exp_ratio(*s) for s in samples(t_derivatives(terms[0].full), t_grid)]
    powers = [(n, reg.base(name, r * n) if n else reg.one()) for n in range(n_max + 1)]
    pow_entries = [pow_ratio(*s) for s in samples(powers, [0.0])]

    h, c = _fit_h_c(entries)
    eh, ec = _fit_h_c(exp_entries)
    ph, pc = _fit_h_c(pow_entries)
    return HeatBoundProfile(
        C=c,
        h=h,
        exp_C=ec,
        exp_h=eh,
        pow_C=pc,
        pow_h=ph,
        samples=len(entries) + len(exp_entries) + len(pow_entries),
    )


# ---------------------------------------------------------------------------
# Faa di Bruno partition machinery (shared by tests and profiling oracles)
# ---------------------------------------------------------------------------


def faa_di_bruno_partitions(alpha, r: int):
    """The set p(alpha, r): multisets of distinct nonzero multi-indices
    alpha^(1) < ... < alpha^(s) with positive multiplicities k_i such that
    sum k_i = r and sum k_i alpha^(i) = alpha.  Yields tuples of
    ((alpha^(i), k_i), ...)."""
    alpha = tuple(alpha)
    d = len(alpha)

    def sub_indices():
        # nonzero multi-indices componentwise <= alpha, ascending
        ranges = [range(a + 1) for a in alpha]

        def rec(i):
            if i == d:
                yield ()
                return
            for v in ranges[i]:
                for rest in rec(i + 1):
                    yield (v,) + rest

        for m in rec(0):
            if any(m):
                yield m

    idxs = sorted(sub_indices())

    def rec(pos, remaining, mult_left):
        if not any(remaining) and mult_left == 0:
            yield ()
            return
        if pos >= len(idxs) or mult_left == 0:
            return
        m = idxs[pos]
        max_k = mult_left
        for i in range(d):
            if m[i]:
                max_k = min(max_k, remaining[i] // m[i])
        # skip this index
        yield from rec(pos + 1, remaining, mult_left)
        acc = remaining
        for k in range(1, max_k + 1):
            acc = tuple(a - m[i] for i, a in enumerate(acc))
            for rest in rec(pos + 1, acc, mult_left - k):
                yield ((m, k),) + rest

    yield from rec(0, alpha, r)


def faa_di_bruno_weight_sum(beta, d_ambient: int | None = None) -> int:
    """sum_{r=1..|beta|} binom(|beta|, r) sum_{p(beta,r)} r!/(k_1!...k_|beta|!),
    the combinatorial weight bounded by 2^(|beta|(d+1))."""
    n = sum(beta)
    total = 0
    for r in range(1, n + 1):
        inner = 0
        for part in faa_di_bruno_partitions(beta, r):
            denom = 1
            for _, k in part:
                denom *= math.factorial(k)
            inner += math.factorial(r) // denom
        total += math.comb(n, r) * inner
    return total
