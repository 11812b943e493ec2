"""Exact symbolic algebra of phase-space expressions closed under differentiation.

Expressions are finite sums of terms

    coeff * x^a xi^b * lam^c t^e * prod(base^r) * [exp(-t * B^s)]

with exact Gaussian-rational coefficients, integer monomial exponents, and
rational exponents on registered positive polynomial bases.  At most one
exponential atom exp(-t * B^s) may appear per term, where (B, s) is a single
registry-designated base power.  The representation is canonical (terms keyed
by monomial/base-power/exp structure, no zero coefficients), so structural
equality of canonical forms is an exact zero test for identities holding in
the free algebra; ``is_zero_expanded`` additionally realises the defining
polynomial relations of the bases, still exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainViolation,
    InvalidInput,
    InvalidParameter,
    UnsupportedOperation,
)
from .qrat import QC, QC_ONE

MAX_POWER_DENOMINATOR = 64

# seeded random points on which a registered base must be positive
N_POSITIVITY_CHECK = 200


def _check_exponent(r: Fraction) -> Fraction:
    if r.denominator > MAX_POWER_DENOMINATOR:
        raise InvalidParameter(
            f"fractional exponent denominator {r.denominator} exceeds {MAX_POWER_DENOMINATOR}"
        )
    return r


# ---------------------------------------------------------------------------
# plain polynomial helpers (dict monomial tuple -> QC); used for base polys
# ---------------------------------------------------------------------------


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            c = out.get(key)
            c = c1 * c2 if c is None else c + c1 * c2
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _poly_pow(p: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: QC_ONE}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _poly_value(p: dict, names: tuple, env: dict):
    """Float value of a real polynomial; env maps the variable names to
    scalars or numpy arrays (broadcastable)."""
    v = 0.0
    for m, c in p.items():
        term = float(c.re)
        for i, e in enumerate(m):
            if e:
                if names[i] not in env:
                    raise InvalidInput(f"missing value for {names[i]}")
                term = term * np.asarray(env[names[i]], dtype=float) ** e
        v = v + term
    return np.asarray(v, dtype=float)


def _poly_diff(p: dict, idx: int) -> dict:
    out = {}
    for m, c in p.items():
        k = m[idx]
        if k:
            key = m[:idx] + (k - 1,) + m[idx + 1 :]
            out[key] = c * k
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Registry:
    """Dimension, scalar parameters, and named positive polynomial bases.

    Variables are ordered x1..xd, xi1..xid, then the scalar parameters
    (default ``("lam", "t")``).  Bases are polynomials in everything except
    t, with real rational coefficients, declared positive; positivity is
    spot-checked on a seeded random grid at registration.
    """

    def __init__(self, d: int, params=("lam", "t"), seed: int = 7):
        if d < 1:
            raise InvalidParameter("dimension d must be >= 1")
        self.d = d
        self.params = tuple(params)
        if "t" in self.params and self.params[-1] != "t":
            raise InvalidInput("parameter 't' must come last")
        self.names = (
            tuple(f"x{i+1}" for i in range(d))
            + tuple(f"xi{i+1}" for i in range(d))
            + self.params
        )
        if len(set(self.names)) != len(self.names):
            raise InvalidInput("duplicate variable names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.nvars = len(self.names)
        self.seed = seed
        self._bases: dict = {}
        self._base_diffs: dict = {}
        self._base_pow_cache: dict = {}
        self.exp_base: tuple | None = None  # (name, Fraction exponent)

    # -- variables -----------------------------------------------------
    def var_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise InvalidInput(f"unknown variable {name!r}") from None

    @property
    def zero_mono(self) -> tuple:
        return (0,) * self.nvars

    # -- bases -----------------------------------------------------------
    def register_base(self, name: str, poly: "SymExpr | dict"):
        if name in self._bases:
            raise InvalidInput(f"base name {name!r} already registered")
        if name in self.index:
            raise InvalidInput(f"base name {name!r} clashes with a variable")
        pd = poly.as_poly_dict() if isinstance(poly, SymExpr) else dict(poly)
        if not pd:
            raise InvalidInput("base polynomial must be nonzero")
        t_idx = self.index.get("t")
        for m, c in pd.items():
            if len(m) != self.nvars:
                raise InvalidInput("base polynomial has wrong arity")
            if t_idx is not None and m[t_idx] != 0:
                raise InvalidInput("bases may not involve t")
            if not c.is_real:
                raise InvalidInput("base polynomials must have real coefficients")
        self._spot_check_positive(name, pd)
        self._bases[name] = pd
        self._base_diffs[name] = {
            i: _poly_diff(pd, i) for i in range(self.nvars)
        }
        return self

    def _spot_check_positive(self, name, pd):
        # bases never involve t, so t takes no draw
        rng = np.random.default_rng(self.seed)
        env = {}
        for n in self.names:
            if n != "t":
                lo = 0.0 if n in self.params else -10.0
                env[n] = rng.uniform(lo, 10.0, N_POSITIVITY_CHECK)
        if np.any(_poly_value(pd, self.names, env) <= 1e-12):
            raise InvalidParameter(f"base {name!r} failed the positivity spot check")

    def base_poly(self, name: str) -> dict:
        try:
            return self._bases[name]
        except KeyError:
            raise InvalidInput(f"unknown base {name!r}") from None

    def base_diff(self, name: str, idx: int) -> dict:
        return self._base_diffs[name][idx]

    def base_poly_pow(self, name: str, n: int) -> dict:
        key = (name, n)
        out = self._base_pow_cache.get(key)
        if out is None:
            out = _poly_pow(self._bases[name], n, self.nvars)
            self._base_pow_cache[key] = out
        return out

    def base_value(self, name: str, env: dict):
        """Numeric value of a base polynomial; env maps variable names to
        scalars or numpy arrays (broadcastable)."""
        return _poly_value(self.base_poly(name), self.names, env)

    def find_base(self, poly: "SymExpr | dict") -> str | None:
        pd = poly.as_poly_dict() if isinstance(poly, SymExpr) else poly
        for name, bp in self._bases.items():
            if bp == pd:
                return name
        return None

    def designate_exp(self, name: str, exponent=1):
        self.base_poly(name)
        self.exp_base = (name, _check_exponent(Fraction(exponent)))
        return self

    # -- expression constructors -----------------------------------------
    def zero(self) -> "SymExpr":
        return SymExpr(self, {})

    def const(self, c) -> "SymExpr":
        c = QC.of(c)
        if not c:
            return self.zero()
        return SymExpr(self, {(self.zero_mono, (), False): c})

    def one(self) -> "SymExpr":
        return self.const(1)

    def var(self, name: str) -> "SymExpr":
        i = self.var_index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return SymExpr(self, {(mono, (), False): QC_ONE})

    def base(self, name: str, exponent=1) -> "SymExpr":
        self.base_poly(name)
        r = _check_exponent(Fraction(exponent))
        if r == 0:
            return self.one()
        return SymExpr(self, {(self.zero_mono, ((name, r),), False): QC_ONE})

    def exp_atom(self) -> "SymExpr":
        """The designated factor exp(-t * B^s) as a standalone expression."""
        if self.exp_base is None:
            raise UnsupportedOperation("no exponential base designated")
        return SymExpr(self, {(self.zero_mono, (), True): QC_ONE})

    def poly(self, mapping) -> "SymExpr":
        terms = {}
        for m, c in mapping.items():
            c = QC.of(c)
            if c:
                terms[(tuple(m), (), False)] = c
        return SymExpr(self, terms)

    def parse(self, text: str) -> "SymExpr":
        return _parse(self, text)


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) with optional resolvent parameter and time."""

    x: tuple
    xi: tuple
    lam: float | None = None
    t: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "xi", tuple(float(v) for v in self.xi))
        if len(self.x) != len(self.xi):
            raise InvalidInput("x and xi must have the same dimension")
        if self.lam is not None and self.lam < 0:
            raise InvalidParameter("lam must be non-negative")

    def env(self, reg: Registry) -> dict:
        if len(self.x) != reg.d:
            raise InvalidInput("point dimension does not match registry")
        out = {}
        for i in range(reg.d):
            out[f"x{i+1}"] = self.x[i]
            out[f"xi{i+1}"] = self.xi[i]
        if self.lam is not None:
            out["lam"] = float(self.lam)
        if self.t is not None:
            out["t"] = float(self.t)
        return out

    def bracket(self) -> float:
        """< (x, xi) > = sqrt(1 + |x|^2 + |xi|^2)."""
        return math.sqrt(1.0 + sum(v * v for v in self.x) + sum(v * v for v in self.xi))


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _merge_powers(p1: tuple, p2: tuple) -> tuple:
    if not p1:
        return p2
    if not p2:
        return p1
    d = dict(p1)
    for name, r in p2:
        nr = d.get(name, 0) + r
        if nr:
            d[name] = nr
        elif name in d:
            del d[name]
    return tuple(sorted(d.items()))


class SymExpr:
    """Canonical sum of terms over a registry.  Immutable by convention."""

    __slots__ = ("reg", "terms")

    def __init__(self, reg: Registry, terms: dict):
        self.reg = reg
        self.terms = terms

    # -- basic structure ---------------------------------------------------
    def __len__(self):
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self.reg is other.reg and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def items_sorted(self):
        def key(item):
            (mono, powers, expf), _ = item
            return (mono, tuple((n, (r.numerator, r.denominator)) for n, r in powers), expf)

        return sorted(self.terms.items(), key=key)

    # -- arithmetic --------------------------------------------------------
    def _binary_check(self, other: "SymExpr"):
        if self.reg is not other.reg:
            raise InvalidInput("expressions from different registries")

    def __add__(self, other):
        if not isinstance(other, SymExpr):
            other = self.reg.const(other)
        self._binary_check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            nc = out.get(k)
            nc = c if nc is None else nc + c
            if nc:
                out[k] = nc
            elif k in out:
                del out[k]
        return SymExpr(self.reg, out)

    __radd__ = __add__

    def __neg__(self):
        return SymExpr(self.reg, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SymExpr):
            other = self.reg.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "SymExpr":
        c = QC.of(c)
        if not c:
            return self.reg.zero()
        return SymExpr(self.reg, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SymExpr):
            return self.scale(other)
        self._binary_check(other)
        out: dict = {}
        for (m1, p1, e1), c1 in self.terms.items():
            for (m2, p2, e2), c2 in other.terms.items():
                if e1 and e2:
                    raise UnsupportedOperation(
                        "product of two exponential atoms is outside the algebra"
                    )
                key = (
                    tuple(a + b for a, b in zip(m1, m2)),
                    _merge_powers(p1, p2),
                    e1 or e2,
                )
                c = c1 * c2
                nc = out.get(key)
                nc = c if nc is None else nc + c
                if nc:
                    out[key] = nc
                elif key in out:
                    del out[key]
        return SymExpr(self.reg, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InvalidParameter("only non-negative integer powers of expressions")
        out = self.reg.one()
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> "SymExpr":
        return SymExpr(self.reg, {k: c.conjugate() for k, c in self.terms.items()})

    # -- differentiation -----------------------------------------------------
    def diff(self, var: str, order: int = 1) -> "SymExpr":
        """Exact partial derivative d/d var, applied ``order`` times."""
        idx = self.reg.var_index(var)
        out = self
        for _ in range(order):
            out = out._diff_idx(idx)
        return out

    def _diff_idx(self, idx: int) -> "SymExpr":
        reg = self.reg
        t_idx = reg.index.get("t")
        out: dict = {}

        def acc(key, c):
            nc = out.get(key)
            nc = c if nc is None else nc + c
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]

        for (mono, powers, expf), c in self.terms.items():
            # monomial part
            k = mono[idx]
            if k:
                m2 = mono[:idx] + (k - 1,) + mono[idx + 1 :]
                acc((m2, powers, expf), c * k)
            # base-power part
            for j, (name, r) in enumerate(powers):
                db = reg.base_diff(name, idx)
                if not db:
                    continue
                rest = powers[:j] + powers[j + 1 :]
                if r != 1:
                    rest = _merge_powers(rest, ((name, r - 1),))
                base_c = c * r
                for dm, dc in db.items():
                    m2 = tuple(a + b for a, b in zip(mono, dm))
                    acc((m2, rest, expf), base_c * dc)
            # exponential part: exp(-t * B^s)
            if expf:
                bname, s = reg.exp_base
                if t_idx is not None and idx == t_idx:
                    # d/dt -> -B^s * term
                    p2 = _merge_powers(powers, ((bname, s),))
                    acc((mono, p2, True), -c)
                else:
                    # d/dv -> -t * s * B^(s-1) * dB/dv * term
                    db = reg.base_diff(bname, idx)
                    if db:
                        p2 = _merge_powers(powers, ((bname, s - 1),)) if s != 1 else powers
                        base_c = -c * s
                        for dm, dc in db.items():
                            m2 = list(mono)
                            for i, b in enumerate(dm):
                                m2[i] += b
                            if t_idx is not None:
                                m2[t_idx] += 1
                            acc((tuple(m2), p2, True), base_c * dc)
        return SymExpr(reg, out)

    # -- exp-atom manipulation (closure helpers for the heat recursion) ------
    def drop_exp(self) -> "SymExpr":
        """Multiply by exp(+t B^s): clear the exponential flag on every term."""
        out: dict = {}
        for (m, p, e), c in self.terms.items():
            key = (m, p, False)
            nc = out.get(key)
            nc = c if nc is None else nc + c
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]
        return SymExpr(self.reg, out)

    def with_exp(self) -> "SymExpr":
        """Multiply by exp(-t B^s): set the flag (error if already set)."""
        if self.reg.exp_base is None:
            raise UnsupportedOperation("no exponential base designated")
        out = {}
        for (m, p, e), c in self.terms.items():
            if e:
                raise UnsupportedOperation("term already carries the exponential atom")
            out[(m, p, True)] = c
        return SymExpr(self.reg, out)

    def integrate_t(self) -> "SymExpr":
        """Exact antiderivative in t of a polynomial-in-t expression,
        normalised to vanish at t = 0 (so its value at t is the integral
        from 0 to t)."""
        t_idx = self.reg.index.get("t")
        if t_idx is None:
            raise UnsupportedOperation("registry has no t variable")
        out = {}
        for (m, p, e), c in self.terms.items():
            if e:
                raise UnsupportedOperation("cannot integrate an exponential atom in t")
            k = m[t_idx]
            m2 = m[:t_idx] + (k + 1,) + m[t_idx + 1 :]
            out[(m2, p, False)] = c / (k + 1)
        return SymExpr(self.reg, out)

    def subs_scalar(self, var: str, value) -> "SymExpr":
        """Substitute an exact rational value for a scalar parameter."""
        idx = self.reg.var_index(var)
        value = Fraction(value)
        out: dict = {}
        for (m, p, e), c in self.terms.items():
            k = m[idx]
            if k:
                c = c * value**k
                m = m[:idx] + (0,) + m[idx + 1 :]
            if not c:
                continue
            key = (m, p, e)
            nc = out.get(key)
            nc = c if nc is None else nc + c
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]
        return SymExpr(self.reg, out)

    # -- structure queries ---------------------------------------------------
    def as_poly_dict(self) -> dict:
        """The expression as a plain polynomial; error if it has base powers
        or exponential atoms."""
        out = {}
        for (m, p, e), c in self.terms.items():
            if p or e:
                raise UnsupportedOperation("expression is not a plain polynomial")
            out[m] = c
        return out

    def single_base_power(self):
        """If the expression is exactly coeff * B^r, return (coeff, name, r)."""
        if len(self.terms) != 1:
            return None
        (m, p, e), c = next(iter(self.terms.items()))
        if e or m != self.reg.zero_mono or len(p) != 1:
            return None
        name, r = p[0]
        return c, name, r

    def max_degree(self, var: str) -> int:
        idx = self.reg.var_index(var)
        return max((m[idx] for (m, _, _) in self.terms), default=0)

    # -- exact zero modulo base relations -------------------------------------
    def is_zero_expanded(self) -> bool:
        """Exact zero test realising each base's defining polynomial.

        Terms are grouped by exponential flag and by the fractional parts of
        their base exponents; within a group denominators are cleared by
        multiplying with positive base powers (bases are positive, so this
        preserves zeroness) and integer base powers are expanded into the
        defining polynomials.  The test is sound: True means the expression
        vanishes identically.
        """
        reg = self.reg
        groups: dict = {}
        for (m, p, e), c in self.terms.items():
            fparts = []
            iparts = {}
            for name, r in p:
                fl = math.floor(r)
                fr = r - fl
                if fr:
                    fparts.append((name, fr))
                iparts[name] = iparts.get(name, 0) + fl
            gkey = (e, tuple(sorted(fparts)))
            groups.setdefault(gkey, []).append((m, iparts, c))
        for gterms in groups.values():
            base_min: dict = {}
            names = set()
            for _, ip, _ in gterms:
                names.update(ip)
            for name in names:
                base_min[name] = min(ip.get(name, 0) for _, ip, _ in gterms)
                base_min[name] = min(base_min[name], 0)
            acc: dict = {}
            for m, ip, c in gterms:
                poly = {m: c}
                for name in names:
                    n = ip.get(name, 0) - base_min[name]
                    if n:
                        poly = _poly_mul(poly, reg.base_poly_pow(name, n))
                for key, cc in poly.items():
                    nc = acc.get(key)
                    nc = cc if nc is None else nc + cc
                    if nc:
                        acc[key] = nc
                    elif key in acc:
                        del acc[key]
            if acc:
                return False
        return True

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, point) -> complex:
        """Numeric value at a PhasePoint (or name -> value mapping)."""
        env = point.env(self.reg) if isinstance(point, PhasePoint) else dict(point)
        out = self.evaluate_grid(env)
        return complex(out)

    def evaluate_grid(self, env: dict, base_cache: dict | None = None):
        """Vectorised evaluation; env maps variable names to scalars or
        numpy arrays (broadcastable)."""
        reg = self.reg
        vals = [None] * reg.nvars
        for i, n in enumerate(reg.names):
            if n in env:
                vals[i] = np.asarray(env[n], dtype=float)
        if base_cache is None:
            base_cache = {}

        def base_val(name):
            v = base_cache.get(name)
            if v is None:
                v = base_cache[name] = reg.base_value(name, env)
            return v

        def base_pow(name, r):
            # positivity is demanded exactly where the power needs it:
            # negative exponents require > 0, fractional ones >= 0
            key = (name, r)
            v = base_cache.get(key)
            if v is None:
                bv = base_val(name)
                if r < 0 and np.any(bv <= 0):
                    raise DomainViolation(f"base {name!r} is not positive at the point")
                if r.denominator != 1 and np.any(bv < 0):
                    raise DomainViolation(f"base {name!r} is negative at the point")
                if r.denominator == 1:
                    n = int(r)
                    v = np.ones_like(bv)
                    src = bv if n >= 0 else 1.0 / bv
                    for _ in range(abs(n)):
                        v = v * src
                else:
                    v = bv ** float(r)
                base_cache[key] = v
            return v

        total = 0.0 + 0.0j
        for (m, p, e), c in self.terms.items():
            term = complex(c)
            for i, k in enumerate(m):
                if k:
                    if vals[i] is None:
                        raise InvalidInput(f"missing value for {self.reg.names[i]}")
                    term = term * vals[i] ** k
            for name, r in p:
                term = term * base_pow(name, r)
            if e:
                bname, s = reg.exp_base
                t_i = reg.index["t"]
                if vals[t_i] is None:
                    raise InvalidInput("missing value for t (exponential atom)")
                term = term * np.exp(-vals[t_i] * base_pow(bname, s))
            total = total + term
        return total

    def evaluate_exact(self, env: dict) -> QC:
        """Exact evaluation at rational points; requires integer base
        exponents and no exponential atom."""
        reg = self.reg
        fenv = {reg.var_index(k): Fraction(v) for k, v in env.items()}
        base_vals: dict = {}

        def bval(name):
            v = base_vals.get(name)
            if v is None:
                v = QC(0)
                for m, c in reg.base_poly(name).items():
                    t = c
                    for i, e in enumerate(m):
                        if e:
                            t = t * fenv[i] ** e
                    v = v + t
                base_vals[name] = v
            return v

        total = QC(0)
        for (m, p, e), c in self.terms.items():
            if e:
                raise UnsupportedOperation("exact evaluation with exp atom unsupported")
            t = c
            for i, k in enumerate(m):
                if k:
                    t = t * fenv[i] ** k
            for name, r in p:
                if r.denominator != 1:
                    raise UnsupportedOperation("exact evaluation needs integer powers")
                n = r.numerator
                bv = bval(name)
                if n >= 0:
                    for _ in range(n):
                        t = t * bv
                else:
                    for _ in range(-n):
                        t = t / bv
            total = total + t
        return total

    def __repr__(self):
        if not self.terms:
            return "SymExpr(0)"
        bits = []
        for (m, p, e), c in self.items_sorted()[:8]:
            parts = [str(c)]
            for i, k in enumerate(m):
                if k:
                    parts.append(f"{self.reg.names[i]}^{k}")
            for name, r in p:
                parts.append(f"{name}^{r}")
            if e:
                parts.append("EXP")
            bits.append("*".join(parts))
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return "SymExpr(" + " + ".join(bits) + more + ")"


# ---------------------------------------------------------------------------
# derivative helpers used by the product formulas
# ---------------------------------------------------------------------------


def multi_indices(d: int, total: int):
    """All alpha in N^d with |alpha| = total."""
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(d - 1, total - head):
            yield (head,) + rest


def multi_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


class DerivCache:
    """Memo for repeated d^alpha_xi d^beta_x of a fixed expression."""

    def __init__(self, e: SymExpr):
        self.d = e.reg.d
        self.cache = {((0,) * self.d, (0,) * self.d): e}

    def get(self, alpha, beta) -> SymExpr:
        key = (tuple(alpha), tuple(beta))
        v = self.cache.get(key)
        if v is not None:
            return v
        alpha, beta = key
        # step down one derivative to reuse earlier entries
        for i in range(self.d):
            if alpha[i]:
                prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                v = self.get(prev, beta).diff(f"xi{i+1}")
                break
        else:
            for i in range(self.d):
                if beta[i]:
                    prev = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
                    v = self.get(alpha, prev).diff(f"x{i+1}")
                    break
        self.cache[key] = v
        return v


# ---------------------------------------------------------------------------
# tiny expression parser:  1 + 3/4*x1^2*xi1 - a0^(-1/2)*lam
# ---------------------------------------------------------------------------


class _Tok:
    def __init__(self, text):
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(int(text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise InvalidInput(f"unexpected character {ch!r} in expression")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t


def _parse(reg: Registry, text: str) -> SymExpr:
    tk = _Tok(text)

    def parse_expr():
        node = parse_term()
        while tk.peek() in ("+", "-"):
            op = tk.next()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while tk.peek() in ("*", "/"):
            op = tk.next()
            rhs = parse_factor()
            if op == "*":
                node = node * rhs
            else:
                c = _as_const(rhs)
                node = node.scale(QC_ONE / c)
        return node

    def parse_factor():
        node = parse_atom()
        if tk.peek() == "^":
            tk.next()
            r = parse_exponent()
            bp = node.single_base_power()
            if bp is not None and bp[0] == QC_ONE:
                _, name, r0 = bp
                node = reg.base(name, r0 * r)
            else:
                if r.denominator != 1 or r < 0:
                    raise InvalidInput("only registered bases take rational powers")
                node = node ** int(r)
        return node

    def parse_exponent() -> Fraction:
        if tk.peek() == "(":
            tk.next()
            sign = 1
            if tk.peek() == "-":
                tk.next()
                sign = -1
            num = tk.next()
            if not isinstance(num, int):
                raise InvalidInput("malformed exponent")
            den = 1
            if tk.peek() == "/":
                tk.next()
                den = tk.next()
                if not isinstance(den, int) or den == 0:
                    raise InvalidInput("malformed exponent")
            if tk.next() != ")":
                raise InvalidInput("malformed exponent")
            return Fraction(sign * num, den)
        sign = 1
        if tk.peek() == "-":
            tk.next()
            sign = -1
        num = tk.next()
        if not isinstance(num, int):
            raise InvalidInput("malformed exponent")
        return Fraction(sign * num)

    def parse_atom():
        t = tk.next()
        if t == "(":
            node = parse_expr()
            if tk.next() != ")":
                raise InvalidInput("unbalanced parentheses")
            return node
        if t == "-":
            return -parse_factor()
        if isinstance(t, int):
            return reg.const(t)
        if t == "i":
            return reg.const(QC(0, 1))
        if t == "EXP":
            return reg.exp_atom()
        if isinstance(t, str):
            if t in reg.index:
                return reg.var(t)
            if t in reg._bases:
                return reg.base(t)
            raise InvalidInput(f"unknown name {t!r}")
        raise InvalidInput("malformed expression")

    def _as_const(e: SymExpr) -> QC:
        if not e.terms:
            raise InvalidInput("division by zero")
        if len(e.terms) == 1:
            (m, p, ef), c = next(iter(e.terms.items()))
            if m == reg.zero_mono and not p and not ef:
                return c
        raise InvalidInput("can only divide by constants")

    node = parse_expr()
    if tk.peek() is not None:
        raise InvalidInput("trailing tokens in expression")
    return node
