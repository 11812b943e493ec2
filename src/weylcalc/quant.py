"""Hermite-basis Weyl quantization on the line (d = 1), exact for polynomial
symbols, quadrature-based for general symbols, plus an eigendecomposition
spectral oracle for operator functions."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyWarning,
    InvalidInput,
    InvalidParameter,
    NumericalFailure,
    UnsupportedSymbol,
)
from .cpow import gamma_k
from .symalg import SymExpr

HERMITICITY_TOL = 1e-10

# balakrishnan_matrix sizes its trapezoid for an error of about e^-40
_BALAKRISHNAN_LOG_TOL = 40.0


@dataclass
class HermiteOperator:
    """Dense complex matrix in the Hermite-function basis of L^2(R)."""

    matrix: np.ndarray
    n_pad: int
    hermitian_flag: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput("matrix must be square")
        self.matrix = m
        if self.hermitian_flag:
            dev = self.hermiticity_deviation
            if dev > HERMITICITY_TOL:
                raise InvalidInput(f"hermitian_flag set but max |A - A*| = {dev:.2e}")

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]

    @property
    def hermiticity_deviation(self) -> float:
        """max |A - A*| over the entries (0 for an empty matrix)."""
        m = self.matrix
        return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0

    @classmethod
    def wrap(cls, matrix, n_pad=None) -> "HermiteOperator":
        """The operator of a matrix, flagged hermitian when its deviation is
        within HERMITICITY_TOL; n_pad defaults to the matrix size."""
        op = cls(matrix, n_pad=n_pad)
        if op.n_pad is None:
            op.n_pad = op.n_basis
        op.hermitian_flag = op.hermiticity_deviation <= HERMITICITY_TOL
        return op


@dataclass
class SpectralReport:
    """Per-state relative discrepancies of two operators on a state range."""

    state_lo: int
    state_hi: int
    per_state: list = field(default_factory=list)
    block_norm: float = 0.0
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "state_lo": self.state_lo,
            "state_hi": self.state_hi,
            "per_state": list(self.per_state),
            "block_norm": self.block_norm,
            "metadata": dict(self.metadata),
        }

    @property
    def max_error(self) -> float:
        return max(self.per_state) if self.per_state else 0.0


# ---------------------------------------------------------------------------
# ladder matrices and polynomial quantization
# ---------------------------------------------------------------------------


def position_momentum(n: int):
    """Dense X and P on the first n Hermite functions (harmonic-oscillator
    convention: X^2 + P^2 = diag(2k+1), [X, P] = i)."""
    X = np.zeros((n, n), dtype=complex)
    P = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        c = math.sqrt((k + 1) / 2.0)
        X[k, k + 1] = X[k + 1, k] = c
        P[k, k + 1] = -1j * c
        P[k + 1, k] = 1j * c
    return X, P


def quantize_poly(sigma: SymExpr, n_basis: int, n_pad: int | None = None) -> HermiteOperator:
    """Weyl quantization of a polynomial symbol in (x, xi), d = 1.

    Each monomial x^m xi^n maps to the symmetric (Weyl) operator ordering,
    computed by the binomial interleaving formula
    2^-m sum_k C(m, k) X^k P^n X^(m-k) at padded dimension, then cropped."""
    if n_basis < 1:
        raise InvalidParameter("n_basis must be >= 1")
    reg = sigma.reg
    if reg.d != 1:
        raise UnsupportedSymbol("Hermite quantization is implemented for d = 1")
    ix, ixi = reg.var_index("x1"), reg.var_index("xi1")
    monos = []
    deg = 0
    for (mono, powers, expf), c in sigma.terms.items():
        if powers or expf:
            raise UnsupportedSymbol("polynomial path: no base powers or exp atoms")
        if any(e and i not in (ix, ixi) for i, e in enumerate(mono)):
            raise UnsupportedSymbol("polynomial path: only x and xi may appear")
        m, n = mono[ix], mono[ixi]
        deg = max(deg, m + n)
        monos.append((m, n, complex(c)))
    if deg > 10:
        raise UnsupportedSymbol("polynomial degree capped at 10")
    if n_pad is None:
        n_pad = n_basis + 2 * deg
    if n_pad < n_basis + 2 * deg:
        raise InvalidParameter("n_pad must be at least n_basis + 2 * degree")
    X, P = position_momentum(n_pad)
    x_pows = [np.eye(n_pad, dtype=complex)]
    for _ in range(deg):
        x_pows.append(x_pows[-1] @ X)
    p_pows = [np.eye(n_pad, dtype=complex)]
    for _ in range(deg):
        p_pows.append(p_pows[-1] @ P)
    A = np.zeros((n_pad, n_pad), dtype=complex)
    for m, n, c in monos:
        term = np.zeros((n_pad, n_pad), dtype=complex)
        for k in range(m + 1):
            term += math.comb(m, k) * (x_pows[k] @ p_pows[n] @ x_pows[m - k])
        A += (c / 2**m) * term
    return HermiteOperator.wrap(A[:n_basis, :n_basis], n_pad)


# ---------------------------------------------------------------------------
# cross-Wigner (Laguerre closed form) quantization of general symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarGrid:
    """Product quadrature grid in polar phase-space coordinates."""

    n_r: int
    n_theta: int
    r_max: float

    @classmethod
    def for_basis(cls, n_basis: int) -> "PolarGrid":
        return cls(n_r=4 * n_basis, n_theta=4 * n_basis, r_max=math.sqrt(2.0 * n_basis) + 8.0)

    def nodes(self):
        gl_x, gl_w = np.polynomial.legendre.leggauss(self.n_r)
        r = 0.5 * self.r_max * (gl_x + 1.0)
        wr = 0.5 * self.r_max * gl_w
        theta = 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta
        return r, wr, theta


def _laguerre_table(n_max: int, q: int, s: np.ndarray) -> np.ndarray:
    """L_n^(q)(s) for n = 0..n_max, via the three-term recurrence."""
    out = np.empty((n_max + 1, s.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 + q - s
    for n in range(1, n_max):
        out[n + 1] = ((2 * n + 1 + q - s) * out[n] - (n + q) * out[n - 1]) / (n + 1)
    return out


def quantize_general(
    sigma_eval,
    n_basis: int,
    grid: PolarGrid | None = None,
) -> HermiteOperator | list[HermiteOperator]:
    """Weyl quantization of a general symbol via the cross-Wigner pairing.

    A[m, n] = integral of sigma(x, xi) W_{n,m}(x, xi) dx dxi, with the
    cross-Wigner functions in their Laguerre closed form on a polar product
    grid: the angular integral reduces to Fourier modes of the symbol and
    the radial integral is Gauss-Legendre.  sigma_eval is a callable
    sigma_eval(X, XI) -> complex array (vectorised).  A result of shape
    (S,) + X.shape holds S symbols: they share one pass over the radial
    kernel and a list of S operators is returned, each entry the same bits
    as quantizing that symbol alone.  Any other result is broadcast to
    X.shape and gives one operator.
    """
    if n_basis < 1:
        raise InvalidParameter("n_basis must be >= 1")
    grid = grid or PolarGrid.for_basis(n_basis)
    r, wr, theta = grid.nodes()
    R, TH = np.meshgrid(r, theta, indexing="ij")
    Xv = R * np.cos(TH)
    XIv = R * np.sin(TH)
    vals = np.asarray(sigma_eval(Xv, XIv), dtype=complex)
    stacked = vals.ndim == Xv.ndim + 1 and vals.shape[1:] == Xv.shape
    if not stacked:
        vals = np.broadcast_to(vals, Xv.shape)[None]
    # angular modes, stored as F[j, s] = integral sigma_s e^{-i j theta} d theta
    # so that the radial rows of every symbol at one mode are contiguous
    F = np.empty((grid.n_theta, len(vals), grid.n_r), dtype=complex)
    for s, v in enumerate(vals):
        F[:, s] = (np.fft.fft(v, axis=1) * (2.0 * math.pi / grid.n_theta)).T

    r2 = r**2
    two_r2 = 2.0 * r2
    log_r = np.log(np.maximum(r, 1e-300))
    wr_r = wr * r
    A = np.zeros((len(vals), n_basis, n_basis), dtype=complex)
    tail_flag = False
    for q in range(n_basis):
        n_top = n_basis - 1 - q
        lag = _laguerre_table(n_top, q, two_r2) if q else _laguerre_table(n_basis - 1, 0, two_r2)
        q_log = q * (0.5 * math.log(2.0) + log_r)
        # mode for e^{+i q theta} is F[-q]; for e^{-i q theta} it's F[+q]
        mode_plus = F[(-q) % grid.n_theta]
        mode_minus = F[q % grid.n_theta]
        for n in range(0, n_basis - q):
            m = n + q
            logpref = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)) + q_log - r2
            rad = ((-1.0) ** n / math.pi) * np.exp(logpref) * lag[n]
            wrad = wr_r * rad
            # W_{n,m} carries e^{+i q theta}; W_{m,n} is its conjugate
            A[:, m, n] = np.sum(wrad * mode_plus, axis=-1)
            if q:
                A[:, n, m] = np.sum(wrad * mode_minus, axis=-1)
            # the tail test sees only the radial kernel, never sigma: it
            # flags a grid whose r_max is too small for this basis
            if not tail_flag:
                envelope = np.abs(wrad)
                if envelope[-1] > 1e-8 * max(float(np.max(envelope)), 1e-300):
                    tail_flag = True
    if tail_flag:
        warnings.warn(
            f"polar grid r_max = {grid.r_max:g} may be too small for n_basis = {n_basis}",
            AccuracyWarning,
            stacklevel=2,
        )
    ops = [HermiteOperator.wrap(a) for a in A]
    return ops if stacked else ops[0]


# ---------------------------------------------------------------------------
# spectral oracle and the Balakrishnan operator integral
# ---------------------------------------------------------------------------


def matrix_function(op: HermiteOperator, f) -> HermiteOperator:
    """f(A) by eigendecomposition; requires a hermitian operator."""
    if not op.hermitian_flag:
        raise InvalidInput("matrix_function requires a hermitian operator")
    try:
        w, V = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise NumericalFailure(f"eigendecomposition failed: {e}") from e
    fw = np.asarray([f(val) for val in w], dtype=complex)
    return HermiteOperator.wrap((V * fw[None, :]) @ V.conj().T, op.n_pad)


def balakrishnan_matrix(op: HermiteOperator, z: complex, k: int) -> HermiteOperator:
    """gamma_k(z) * integral lambda^(z-1) (A (A + lambda)^-1)^k d lambda by
    resolvent solves at trapezoid nodes in u = ln lambda.

    The rule is one trapezoid with weight h at each node (one solve each),
    continued past both ends by exact geometric sums over the missing nodes:
    below u0, R(lambda)^k = first + O(lambda / e_min), which adds
    first * h e^(z u0) q / (1 - q) with q = e^(-z h); above u1,
    R(lambda)^k = last * (lambda1 / lambda)^k * (1 + O(e_max / lambda)), which
    adds last * h e^(z u1) p / (1 - p) with p = e^(-(k - z) h).  The
    integrand is analytic in the strip |Im u| < pi (the resolvent's poles sit
    at u = ln e +- i pi for each eigenvalue e), so the discretisation error
    is O(e^(pi |Im z|) e^(-2 pi^2 / h)) (Trefethen and Weideman, SIAM Rev.
    56, 2014).  The step and range are sized from the spectrum [e_min, e_max]
    so that this error and both tail remainders are about e^-L, L = 40:
    h = 2 pi^2 / (L + pi |Im z|), u0 = ln e_min - L / (1 + Re z) and
    u1 = ln e_max + L / (k + 1 - Re z).  The oscillator at n = 64 and z = 1/2
    takes 119 nodes.  The sum cancels by about e^(pi |Im z|), so rounding
    still grows that way: 1.2e-10 at z = 0.5 + 4i.  The solves are real when
    A is."""
    z = complex(z)
    if not op.hermitian_flag:
        raise InvalidInput("balakrishnan_matrix requires a hermitian operator")
    if not (k > z.real > 0):
        raise InvalidParameter("need 0 < Re z < k")
    A = op.matrix if np.any(op.matrix.imag) else op.matrix.real
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise NumericalFailure("operator is not positive definite on its truncation")
    L = _BALAKRISHNAN_LOG_TOL
    h = 2.0 * math.pi**2 / (L + math.pi * abs(z.imag))
    u0 = math.log(eigs[0]) - L / (1.0 + z.real)
    u1 = math.log(eigs[-1]) + L / (k + 1.0 - z.real)
    u = u0 + h * np.arange(math.ceil((u1 - u0) / h) + 1)
    eye = np.eye(A.shape[0])
    total = np.zeros(A.shape, dtype=complex)
    for i, ui in enumerate(u):
        lam = math.exp(ui)
        try:
            R = np.linalg.solve(A + lam * eye, A)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"singular resolvent at lambda={lam:.3e}") from e
        Rk = R
        for _ in range(k - 1):
            Rk = Rk @ R
        if i == 0:
            first = Rk
        total += (h * np.exp(z * ui)) * Rk
    last = Rk
    q = np.exp(-z * h)
    p = np.exp(-(k - z) * h)
    total += first * (h * np.exp(z * u[0]) * q / (1 - q))
    total += last * (h * np.exp(z * u[-1]) * p / (1 - p))
    return HermiteOperator.wrap(gamma_k(z, k) * total, op.n_pad)


def spectral_compare(A: HermiteOperator, B: HermiteOperator, state_range) -> SpectralReport:
    """Per-state relative errors ||(A - B) e_n|| / ||A e_n|| over a range of
    basis states, plus the operator-norm discrepancy on the compared block."""
    if A.n_basis != B.n_basis:
        raise InvalidInput("operators must share n_basis")
    lo, hi = state_range
    if not (0 <= lo <= hi < A.n_basis):
        raise InvalidInput("state range outside the basis")
    errors = []
    for nst in range(lo, hi + 1):
        col_a = A.matrix[:, nst]
        col_b = B.matrix[:, nst]
        denom = float(np.linalg.norm(col_a))
        errors.append(float(np.linalg.norm(col_a - col_b)) / max(denom, 1e-300))
    blk = slice(lo, hi + 1)
    sub = A.matrix[blk, blk] - B.matrix[blk, blk]
    denom = float(np.linalg.norm(A.matrix[blk, blk], 2))
    block = float(np.linalg.norm(sub, 2)) / max(denom, 1e-300)
    return SpectralReport(state_lo=lo, state_hi=hi, per_state=errors, block_norm=block)
