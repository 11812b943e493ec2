"""Balakrishnan machinery for complex powers of a positive hypoelliptic symbol:
gamma_k(z), half-line quadrature with the lambda^(z-1) weight, the power
coefficients p_{z,j}(w), and the paper-level integral identities as oracles."""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInput, InvalidParameter, UnsupportedSymbol
from .fsring import CutoffConfig, FormalSeries, canonical, cutoff_chi, cutoff_chi_grid, sharp, sharp_power
from .parametrix import resolvent_parametrix
from .symalg import PhasePoint, SymExpr

# ---------------------------------------------------------------------------
# complex gamma (Lanczos, g = 607/128 with 15 coefficients; reflection for
# Re z < 1/2). Relative accuracy ~ 1e-13 for moderate |z|.
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) for complex z via a 15-term Lanczos approximation."""
    z = complex(z)
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise InvalidParameter(f"gamma pole at z = {z}")
        return cmath.pi / (s * gamma_complex(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * acc


def gamma_k(z: complex, k: int) -> complex:
    """gamma_k(z) = Gamma(k) / (Gamma(z) Gamma(k - z)).

    Requires Re z > 0 and k > Re z, and k - z must not be a non-positive
    integer (pole configuration)."""
    z = complex(z)
    if k < 1:
        raise InvalidParameter("k must be a positive integer")
    if z.real <= 0:
        raise InvalidParameter("Re z must be positive")
    if not (k > z.real):
        raise InvalidParameter("need k > Re z")
    kz = k - z
    if kz.imag == 0 and kz.real <= 0 and kz.real == int(kz.real):
        raise InvalidParameter("pole configuration: k - z is a non-positive integer")
    return math.factorial(k - 1) / (gamma_complex(z) * gamma_complex(kz))


# ---------------------------------------------------------------------------
# half-line quadrature with the lambda^(z-1) weight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Trapezoid on u = ln(lambda) over [u_min, u_max] with step-halving
    refinements; the integrand's lambda^(z-1) endpoint weight becomes
    exp(z u) under the transform."""

    u_min: float = -40.0
    u_max: float = 40.0
    step: float = 0.05
    refine: int = 2

    def __post_init__(self):
        if not (self.u_min < 0.0 < self.u_max):
            raise InvalidParameter("need u_min < 0 < u_max")
        if self.step <= 0:
            raise InvalidParameter("step must be positive")
        if self.refine < 0:
            raise InvalidParameter("refine must be >= 0")

    def nodes(self, level: int = 0):
        """(u, lambda, weight) arrays at a given refinement level."""
        h = self.step / (2**level)
        n = int(round((self.u_max - self.u_min) / h))
        u = self.u_min + h * np.arange(n + 1)
        w = np.full(n + 1, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return u, np.exp(u), w


@dataclass
class QuadResult:
    value: complex
    error: float
    warning: bool = False

    def __complex__(self):
        return complex(self.value)


def _romberg(values: list) -> list:
    """Romberg table over trapezoid sums at successively halved steps
    (h^2 expansion): column m holds the m-times extrapolated values, and the
    last column's single entry is the best estimate.  The entries may be
    scalars or arrays."""
    table = [values]
    for m in range(1, len(values)):
        prev = table[-1]
        fac = 4.0**m
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    return table


def quad_halfline(f, z: complex, quad: QuadratureScheme | None = None) -> QuadResult:
    """Approximate integral over (0, inf) of lambda^(z-1) f(lambda) d lambda.

    f must accept a numpy array of lambda values and return values
    elementwise (complex ok); it must decay at least like lambda^(-k) with
    k > Re z for the integral to exist (caller's contract).

    Trapezoid on u = ln(lambda) with Richardson extrapolation over the
    step-halving levels, plus first-order endpoint corrections: near 0 the
    integrand is f(0) lambda^(z-1) up to O(lambda), near infinity it is
    matched to a power law with the slope estimated from the last nodes.
    The error estimate is the last extrapolation increment; a non-decaying
    tail sets the warning flag."""
    z = complex(z)
    if z.real <= 0:
        raise InvalidParameter("Re z must be positive")
    quad = quad or QuadratureScheme()
    values = []
    warning = False
    tail_corr = 0.0 + 0.0j
    for level in range(quad.refine + 1):
        u, lam, w = quad.nodes(level)
        fv = np.broadcast_to(np.asarray(f(lam), dtype=complex), lam.shape)
        integrand = np.exp(z * u) * fv
        values.append(complex(np.sum(w * integrand)))
        if level == quad.refine:
            mag = np.abs(integrand)
            head = max(float(np.max(mag)), 1e-300)
            tail = mag[-12:]
            if np.mean(tail[-6:]) > np.mean(tail[:6]) and np.max(tail) > 1e-13 * head:
                warning = True
            # left tail: integral_0^lam0 ~ f(lam0) lam0^z / z
            tail_corr += fv[0] * np.exp(z * u[0]) / z
            # right tail: match f ~ f(lamN) (lam/lamN)^s, s from the last step
            if abs(fv[-1]) > 1e-320 and abs(fv[-2]) > 1e-320:
                s = (np.log(abs(fv[-1])) - np.log(abs(fv[-2]))) / (u[-1] - u[-2])
                if z.real + s < -1e-6:
                    tail_corr += -fv[-1] * np.exp(z * u[-1]) / (z + s)
                elif np.max(tail) > 1e-13 * head:
                    warning = True
    table = _romberg(values)
    value = complex(table[-1][-1] + tail_corr)
    if len(values) > 1:
        err = float(abs(table[-1][-1] - table[-2][-1]))
    else:
        err = float("nan")
    return QuadResult(value, err, warning)


# ---------------------------------------------------------------------------
# the power coefficients p_{z,j}
# ---------------------------------------------------------------------------


class PowerEvaluator:
    """Precomputed resolvent machinery for one (a0, z, k):

    the series g_j(lambda, w) = (a0^{#k} # (sum_j q_j^(lambda))^{#k})_j as
    exact expressions in (w, lambda), plus the quadrature scheme that turns
    them into the Balakrishnan coefficients
    p_{z,j}(w) = gamma_k(z) * integral lambda^(z-1) g_j(lambda, w) d lambda.
    """

    def __init__(
        self,
        a0: SymExpr,
        z: complex,
        order: int,
        k: int | None = None,
        quad: QuadratureScheme | None = None,
        lam: str = "lam",
    ):
        z = complex(z)
        if z.real <= 0:
            raise InvalidParameter("Re z must be positive")
        k = k if k is not None else int(math.floor(z.real)) + 1
        if k < math.floor(z.real) + 1:
            raise InvalidParameter("need k >= [Re z] + 1")
        self.a0 = a0
        self.z = z
        self.k = k
        self.order = order
        self.quad = quad or QuadratureScheme()
        self.lam = lam
        self.gamma = gamma_k(z, k)
        reg = a0.reg
        q_series = resolvent_parametrix(a0, order, lam=lam)
        left = sharp_power(canonical(a0, order), k, order)
        right = sharp_power(q_series, k, order)
        self.series = sharp(left, right, order).terms
        # structural sanity: order-0 term is (a0 / (a0 + lambda))^k
        bp = a0.single_base_power()
        qp = q_series[0].single_base_power()
        expect = {
            (reg.zero_mono, tuple(sorted(((bp[1], Fraction(k)), (qp[1], Fraction(-k))))), False): None
        }
        got = self.series[0]
        if set(got.terms) != set(expect):
            raise InvalidInput("order-0 resolvent term is not (a0/(a0+lam))^k")

    def g_term(self, j: int) -> SymExpr:
        if not (0 <= j < self.order):
            raise InvalidParameter("term index outside precomputed order")
        return self.series[j]

    def sharp_with(self, B: FormalSeries, side: str = "right") -> "PowerEvaluator":
        """The coefficient series of (sum_j p_{z,j}) # B (or B # ... for
        side='left'), with B an exact symbol series: the sharp product is
        formed symbolically under the lambda integral, so the resulting
        evaluator samples gamma_k(z) * integral lambda^(z-1) (g # B)_j."""
        clone = copy.copy(self)
        g_series = FormalSeries(list(self.series))
        if side == "right":
            clone.series = sharp(g_series, B, self.order).terms
        else:
            clone.series = sharp(B, g_series, self.order).terms
        return clone


def power_coefficient(ev: PowerEvaluator, j: int, w: PhasePoint) -> QuadResult:
    """p_{z,j}(w) by half-line quadrature of the precomputed term."""
    g = ev.g_term(j)
    env = w.env(ev.a0.reg)
    if "lam" in env:
        env = dict(env)
        env.pop(ev.lam, None)

    def f(lam_arr):
        e = dict(env)
        e[ev.lam] = lam_arr
        return g.evaluate_grid(e)

    res = quad_halfline(f, ev.z, ev.quad)
    return QuadResult(ev.gamma * res.value, abs(ev.gamma) * res.error, res.warning)


def power_series_eval(
    ev: PowerEvaluator, N: int, w: PhasePoint, cfg: CutoffConfig
) -> complex:
    """Resummed value sum_{j<N} (1 - chi_{j,R}(w)) p_{z,j}(w)."""
    if N > ev.order:
        raise InvalidParameter("N exceeds the precomputed order")
    total = 0.0 + 0.0j
    for j in range(N):
        pj = power_coefficient(ev, j, w)
        total += (1.0 - cutoff_chi(j, cfg, w)) * pj.value
    return complex(total)


def power_series_eval_grid(ev: PowerEvaluator, N: int, env: dict, cfg: CutoffConfig):
    """Vectorised resummed evaluation sum_{j<N} (1 - chi_{j,R}) p_{z,j} over
    coordinate arrays, with the lambda integral in closed form.

    Every term of g_j has the form c * mono(w) * a0^p * (a0 + lambda)^(-m)
    * lambda^s, and for 0 < Re(z + s) < m

        integral lambda^(z+s-1) (a0 + lambda)^(-m) d lambda
            = a0^(z+s-m) B(z + s, m - z - s)

    (Gradshteyn-Ryzhik 3.194.3), so p_{z,j} is a finite sum of monomials
    times powers of a0.  A term of any other form, or outside that strip,
    raises UnsupportedSymbol.  power_coefficient integrates the same terms
    by quadrature and serves as the independent check."""
    reg = ev.a0.reg
    if N > ev.order:
        raise InvalidParameter("N exceeds the precomputed order")
    z = ev.z
    bp_a0 = ev.a0.single_base_power()[1]
    lam_idx = reg.var_index(ev.lam)
    a0_val = reg.base_value(bp_a0, env)
    xs = [env[f"x{i+1}"] for i in range(reg.d)]
    xis = [env[f"xi{i+1}"] for i in range(reg.d)]
    # a0^z once (a real power when z is real), times real powers a0^(p+s-m)
    a0_z = a0_val ** (z.real if z.imag == 0 else z)
    beta: dict = {}  # (m, s) -> B(z + s, m - z - s)
    a0_pow: dict = {}  # p + s - m -> a0^(z + p + s - m)
    mono_cache: dict = {}

    def mono_val(mono):
        key = mono[: 2 * reg.d]  # lambda and t exponents handled separately
        v = mono_cache.get(key)
        if v is None:
            v = 1.0
            for i, e in enumerate(key):
                if e:
                    v = v * np.asarray(env[reg.names[i]], dtype=float) ** e
            mono_cache[key] = v
        return v

    name_lam = None
    out = 0.0 + 0.0j
    for j in range(N):
        terms = ev.g_term(j).terms
        if not terms:
            continue  # p_{z,j} = 0 (j = 1 for a function of a0 alone): nothing to damp
        pj = 0.0 + 0.0j
        for (mono, powers, expf), c in terms.items():
            if expf:
                raise UnsupportedSymbol("unexpected exponential atom in power series")
            p_a0 = Fraction(0)
            q_alam = Fraction(0)
            for nm, r in powers:
                if nm == bp_a0:
                    p_a0 = r
                else:
                    if name_lam is None:
                        name_lam = nm
                    if nm != name_lam:
                        raise UnsupportedSymbol("unexpected base in resolvent series")
                    q_alam = r
            if q_alam.denominator != 1:
                raise UnsupportedSymbol("resolvent exponents must be integers")
            m, s = -int(q_alam), mono[lam_idx]
            b = beta.get((m, s))
            if b is None:
                if not 0 < (z + s).real < m:
                    raise UnsupportedSymbol(
                        f"lambda integral of lambda^{s} (a0 + lambda)^{-m} diverges at Re z = {z.real}"
                    )
                b = gamma_complex(z + s) * gamma_complex(m - z - s) / math.factorial(m - 1)
                beta[(m, s)] = b
            e = p_a0 + s - m
            a0_e = a0_pow.get(e)
            if a0_e is None:
                a0_e = a0_pow[e] = a0_z * a0_val ** float(e)
            pj = pj + (complex(c) * b) * mono_val(mono) * a0_e
        damp = 1.0 - cutoff_chi_grid(j, cfg, xs, xis)
        out = out + damp * (ev.gamma * pj)
    return out


# ---------------------------------------------------------------------------
# the two-variable integral identity
# ---------------------------------------------------------------------------


# tensor trapezoid on (ln lambda, ln mu) for the divided-difference identity:
# coarser than the 1D default but with a wide left window, since the
# exponents can sit close to 0
_TWO_VAR_QUAD = QuadratureScheme(u_min=-60.0, u_max=40.0, step=0.1, refine=0)


def two_var_identity_check(
    f,
    fprime,
    z: complex,
    zeta: complex,
    quad2d: QuadratureScheme | None = None,
    quad1d: QuadratureScheme | None = None,
) -> tuple:
    """Both sides of the divided-difference identity

    lhs = gamma_1(z) gamma_1(zeta) * 2D integral of
          lambda^(z-1) mu^(zeta-1) (f(lambda) - f(mu)) / (lambda - mu)
    rhs = gamma_2(z + zeta) * integral lambda^(z+zeta-1) f'(lambda)

    for 0 < Re z, Re zeta < 1.  The 2D integral is a tensor trapezoid on the
    level-0 nodes of quad2d.  Returned as (lhs, rhs) for comparison."""
    z, zeta = complex(z), complex(zeta)
    if not (0 < z.real < 1 and 0 < zeta.real < 1):
        raise InvalidParameter("need 0 < Re z, Re zeta < 1")
    u, lam, w = (quad2d or _TWO_VAR_QUAD).nodes()
    fl = np.asarray(f(lam), dtype=complex)
    # divided difference on the tensor grid; exact diagonal via fprime
    lam_i = lam[:, None]
    lam_j = lam[None, :]
    num = fl[:, None] - fl[None, :]
    den = lam_i - lam_j
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = num / den
    diag = np.asarray(fprime(lam), dtype=complex)
    idx = np.arange(lam.size)
    dd[idx, idx] = diag
    wz = w * np.exp(z * u)
    wzeta = w * np.exp(zeta * u)
    lhs = gamma_k(z, 1) * gamma_k(zeta, 1) * complex(wz @ dd @ wzeta)
    rhs_quad = quad_halfline(fprime, z + zeta, quad1d or QuadratureScheme())
    rhs = gamma_k(z + zeta, 2) * rhs_quad.value
    return lhs, rhs
