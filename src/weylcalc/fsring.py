"""The formal-series ring: sharp products, change of quantization, cutoffs
and resummation of truncated series to evaluable symbols."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInput, InvalidParameter
from .qrat import QC, qc_ipow
from .symalg import DerivCache, PhasePoint, Registry, SymExpr, multi_factorial, multi_indices

DEFAULT_R = 4.0


@dataclass
class FormalSeries:
    """Ordered truncation a_0 .. a_{N-1}; term j carries asymptotic order 2j."""

    terms: list

    def __post_init__(self):
        if not self.terms:
            raise InvalidInput("a formal series needs at least one term (N >= 1)")
        reg = self.terms[0].reg
        if any(t.reg is not reg for t in self.terms):
            raise InvalidInput("series terms must share one registry")

    @property
    def reg(self) -> Registry:
        return self.terms[0].reg

    @property
    def order(self) -> int:
        return len(self.terms)

    @property
    def d(self) -> int:
        return self.reg.d

    def __getitem__(self, j: int) -> SymExpr:
        return self.terms[j]

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        if self.order != other.order:
            raise InvalidInput("termwise addition needs equal truncation")
        return FormalSeries([a + b for a, b in zip(self.terms, other.terms)])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        if self.order != other.order:
            raise InvalidInput("termwise addition needs equal truncation")
        return FormalSeries([a - b for a, b in zip(self.terms, other.terms)])

    def scale(self, c) -> "FormalSeries":
        return FormalSeries([t.scale(c) for t in self.terms])

    def __mul__(self, other):
        # pointwise (non-sharp) product with a plain expression
        if isinstance(other, SymExpr):
            return FormalSeries([t * other for t in self.terms])
        return self.scale(other)

    def truncate(self, N: int) -> "FormalSeries":
        if N < 1 or N > self.order:
            raise InvalidInput("bad truncation length")
        return FormalSeries(self.terms[:N])

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.terms)

    def is_zero_expanded(self) -> bool:
        return all(t.is_zero_expanded() for t in self.terms)


def canonical(a: SymExpr, N: int) -> FormalSeries:
    """The canonical inclusion of a symbol: a_0 = a, a_j = 0 for 1 <= j < N."""
    return FormalSeries([a] + [a.reg.zero() for _ in range(N - 1)])


def unit_series(reg: Registry, N: int) -> FormalSeries:
    return canonical(reg.one(), N)


# ---------------------------------------------------------------------------
# the Moyal kernel of the Weyl composition
# ---------------------------------------------------------------------------


@functools.cache
def moyal_coefficients(d: int, l: int) -> tuple:
    """The order-l terms of the Weyl composition in dimension d: a triple
    (alpha, beta, c) for every |alpha + beta| = l, where

        c = (-1)^|beta| (-i)^l / (alpha! beta! 2^l)

    weighs d^alpha_xi d^beta_x L * d^beta_xi d^alpha_x R (the (-i)^l turns
    the x-derivatives into D_x = -i d_x)."""
    pow2 = Fraction(1, 2**l)
    out = []
    for gamma in multi_indices(2 * d, l):
        alpha, beta = gamma[:d], gamma[d:]
        c = (
            QC((-1) ** sum(beta))
            * qc_ipow(l)
            * QC(pow2 / (multi_factorial(alpha) * multi_factorial(beta)))
        )
        out.append((alpha, beta, c))
    return tuple(out)


def moyal_accumulate(acc: SymExpr, pairs, l: int) -> SymExpr:
    """acc plus the order-l Moyal terms c * d^alpha_xi d^beta_x L *
    d^beta_xi d^alpha_x R of each (L, R) pair of DerivCaches.  Terms are
    added per (alpha, beta) of moyal_coefficients, then per pair, so the
    term order of the result (and the float sums of its evaluation) is
    fixed by the callers' pair order."""
    for alpha, beta, c in moyal_coefficients(acc.reg.d, l):
        for left, right in pairs:
            lv = left.get(alpha, beta)
            if lv.is_zero():
                continue
            rv = right.get(beta, alpha)
            if rv.is_zero():
                continue
            acc = acc + (lv * rv).scale(c)
    return acc


def sharp(A: FormalSeries, B: FormalSeries, N: int) -> FormalSeries:
    """Sharp product: c_j = sum over s+k+l=j of the order-l Moyal terms
    (moyal_coefficients) of the pair (a_s, b_k)."""
    if A.reg is not B.reg:
        raise InvalidInput("sharp product needs a common registry")
    if A.d != B.d:
        raise InvalidInput("dimension mismatch")
    if N < 1:
        raise InvalidParameter("order must be >= 1")
    if A.order < N or B.order < N:
        raise InvalidInput(
            f"need at least {N} input terms on both factors (no implicit zero-padding)"
        )
    reg = A.reg
    a_cache = [DerivCache(A[s]) for s in range(N)]
    b_cache = [DerivCache(B[k]) for k in range(N)]
    out = []
    for j in range(N):
        cj = reg.zero()
        for l in range(j + 1):
            pairs = [(a_cache[s], b_cache[j - l - s]) for s in range(j - l + 1)]
            cj = moyal_accumulate(cj, pairs, l)
        out.append(cj)
    return FormalSeries(out)


def sharp_power(A: FormalSeries, k: int, N: int) -> FormalSeries:
    """Left-folded k-fold sharp power; k = 0 gives the unit series."""
    if k < 0:
        raise InvalidParameter("k must be non-negative")
    if k == 0:
        return unit_series(A.reg, N)
    out = A.truncate(N) if A.order > N else A
    for _ in range(k - 1):
        out = sharp(out, A, N)
    return out


def change_quantization(A: FormalSeries, tau, tau1, N: int) -> FormalSeries:
    """Requantization tau -> tau1:
    p_j = sum over k + |beta| = j of (tau1-tau)^|beta| / beta! * d^beta_xi D^beta_x a_k.
    """
    if N < 1:
        raise InvalidParameter("order must be >= 1")
    if A.order < N:
        raise InvalidInput("not enough input terms")
    reg = A.reg
    d = reg.d
    delta = Fraction(tau1) - Fraction(tau)
    caches = [DerivCache(A[k]) for k in range(N)]
    out = []
    for j in range(N):
        pj = reg.zero()
        for s in range(j + 1):
            k = j - s
            for beta in multi_indices(d, s):
                scalar = (
                    QC(delta ** sum(beta)) * qc_ipow(sum(beta)) * QC(Fraction(1, multi_factorial(beta)))
                )
                term = caches[k].get(beta, beta)
                if term.is_zero():
                    continue
                pj = pj + term.scale(scalar)
        out.append(pj)
    return FormalSeries(out)


# ---------------------------------------------------------------------------
# cutoffs and resummation
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _bump_integrand(s):
    out = np.zeros_like(s)
    inside = (s > 2.0) & (s < 3.0)
    si = s[inside]
    out[inside] = np.exp(-1.0 / ((3.0 - si) * (si - 2.0)))
    return out


_BUMP_NORM = float(
    np.sum(_GL_WEIGHTS * _bump_integrand(2.5 + 0.5 * _GL_NODES)) * 0.5
)


def _psi_profile(u):
    """Smooth profile: 1 for u <= 2, 0 for u >= 3, integrated bump between."""
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    out[u >= 3.0] = 0.0
    mid = (u > 2.0) & (u < 3.0)
    if np.any(mid):
        um = u[mid]
        # integral of the bump from 2 to u, 64-node Gauss-Legendre on [2, u]
        half = (um - 2.0) / 2.0
        nodes = 2.0 + half[:, None] * (_GL_NODES[None, :] + 1.0)
        vals = _bump_integrand(nodes)
        integral = np.sum(vals * _GL_WEIGHTS[None, :], axis=1) * half
        out[mid] = 1.0 - integral / _BUMP_NORM
    return out


@dataclass
class CutoffConfig:
    """Resummation cutoffs chi_{n,R}(w) = psi(x/(R m_n)) psi(xi/(R m_n)).

    m_values are the ratios m_p = M_p / M_{p-1} of a weight sequence, with
    the convention m_0 = 0 (chi_{0,R} is identically zero).  The shell radii
    of the bump are fixed at 2 (inner) and 3 (outer) in the bracket <.>.
    """

    R: float = DEFAULT_R
    m_values: list = field(default_factory=lambda: [0.0, 1.0])

    def __post_init__(self):
        if self.R <= 0:
            raise InvalidParameter("R must be positive")
        if self.m_values[0] != 0.0:
            self.m_values = [0.0] + list(self.m_values)
        body = self.m_values[1:]
        if any(body[i] > body[i + 1] + 1e-12 for i in range(len(body) - 1)):
            raise InvalidInput("m_values must be non-decreasing")

    @classmethod
    def from_weights(cls, ws, R: float = DEFAULT_R) -> "CutoffConfig":
        return cls(R=R, m_values=[0.0] + ws.ratios())

    def scale(self, n: int) -> float:
        if n >= len(self.m_values):
            raise InvalidParameter(f"m_values tabulated only to n = {len(self.m_values) - 1}")
        return self.R * self.m_values[n]


def cutoff_chi(n: int, cfg: CutoffConfig, w: PhasePoint) -> float:
    """chi_{n,R}(w) in [0, 1]; chi_0 is identically 0."""
    return float(cutoff_chi_grid(n, cfg, w.x, w.xi))


def cutoff_chi_grid(n: int, cfg: CutoffConfig, x_arrays, xi_arrays):
    """chi_{n,R} over coordinate arrays (one per dimension, broadcastable;
    scalars give a 0-d result)."""
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    if n == 0:
        return np.zeros(np.broadcast(*x_arrays, *xi_arrays).shape)
    s = cfg.scale(n)
    ux = np.sqrt(1.0 + sum((np.asarray(v) / s) ** 2 for v in x_arrays))
    uxi = np.sqrt(1.0 + sum((np.asarray(v) / s) ** 2 for v in xi_arrays))
    return _psi_profile(ux) * _psi_profile(uxi)


def resum_evaluate(A: FormalSeries, cfg: CutoffConfig, w: PhasePoint) -> complex:
    """The resummed series at w: sum_j (1 - chi_{j,R}(w)) a_j(w)."""
    env = w.env(A.reg)
    total = 0.0 + 0.0j
    for j, t in enumerate(A.terms):
        total += (1.0 - cutoff_chi(j, cfg, w)) * t.evaluate_grid(env)
    return complex(total)
