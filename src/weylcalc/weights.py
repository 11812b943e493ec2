"""Weight sequences, their defining conditions, and associated functions.

All sequence arithmetic is done on tabulated logarithms (double precision) so
that indices well past p = 170 stay representable.  Condition checks on
log-inequalities use a relative slack of 1e-12.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import InvalidInput, InvalidParameter

_SLACK = 1e-12

DEFAULT_P_MAX = 200


def _le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _SLACK * max(1.0, abs(lhs), abs(rhs))


@dataclass(frozen=True)
class WeightSequence:
    """Tabulated ln M_p for p = 0 .. p_max, with M_0 = M_1 = 1."""

    log_values: tuple
    sigma: float | None = None

    def __post_init__(self):
        lv = tuple(float(v) for v in self.log_values)
        object.__setattr__(self, "log_values", lv)
        if len(lv) < 3:
            raise InvalidInput("need at least p_max + 1 >= 3 tabulated values")
        if abs(lv[0]) > 1e-12 or abs(lv[1]) > 1e-12:
            raise InvalidInput("M_0 = M_1 = 1 is required (log values 0)")
        if not all(math.isfinite(v) for v in lv):
            raise InvalidInput("all tabulated log values must be finite")

    @property
    def p_max(self) -> int:
        return len(self.log_values) - 1

    def log_m(self, p: int) -> float:
        return self.log_values[p]

    def ratios(self) -> list:
        """m_p = M_p / M_{p-1} for p = 1 .. p_max, as floats."""
        lv = self.log_values
        return [math.exp(lv[p] - lv[p - 1]) for p in range(1, len(lv))]


@dataclass
class ConditionReport:
    holds_M1: bool
    holds_M2: bool
    holds_M3: bool
    holds_M3prime: bool
    holds_M4: bool
    witnesses: dict = field(default_factory=dict)
    fitted_c0: float = 1.0
    fitted_H: float = 1.0
    fitted_c0_M3: float = 0.0
    truncation_index: int = 0

    def as_dict(self) -> dict:
        return {
            "holds_M1": self.holds_M1,
            "holds_M2": self.holds_M2,
            "holds_M3": self.holds_M3,
            "holds_M3prime": self.holds_M3prime,
            "holds_M4": self.holds_M4,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
            "fitted_c0": self.fitted_c0,
            "fitted_H": self.fitted_H,
            "fitted_c0_M3": self.fitted_c0_M3,
            "truncation_index": self.truncation_index,
        }


def make_gevrey(sigma: float, p_max: int = DEFAULT_P_MAX) -> WeightSequence:
    """Gevrey sequence M_p = p!**sigma, tabulated in the log domain."""
    if sigma <= 0:
        raise InvalidParameter("sigma must be positive")
    if p_max < 2:
        raise InvalidParameter("p_max must be >= 2")
    lv = [sigma * math.lgamma(p + 1) for p in range(p_max + 1)]
    lv[0] = lv[1] = 0.0
    return WeightSequence(tuple(lv), sigma=float(sigma))


def from_values(values, sigma=None) -> WeightSequence:
    """Build a WeightSequence from raw M_p values (positive)."""
    if any(v <= 0 for v in values):
        raise InvalidInput("M_p must be positive")
    return WeightSequence(tuple(math.log(v) for v in values), sigma=sigma)


def load_weight_table(path) -> WeightSequence:
    """Load a two-column text file of rows ``p  ln M_p``."""
    rows = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInput(f"cannot read weight table {path}: {e}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            p_str, v_str = line.split()[:2]
            rows[int(p_str)] = float(v_str)
        except ValueError:
            raise InvalidInput(f"malformed weight table row {line!r}") from None
    if not rows or set(rows) != set(range(max(rows) + 1)):
        raise InvalidInput("table must cover p = 0 .. p_max without gaps")
    return WeightSequence(tuple(rows[p] for p in range(max(rows) + 1)))


def check_conditions(ws: WeightSequence) -> ConditionReport:
    """Test (M.1), (M.2), (M.3), (M.3)' and (M.4) on the tabulated range.

    The two tail-sum conditions are evaluated with the sum truncated at
    p_max; they are reported as holding *on range*.  Divergence of the
    (M.3)' sum is detected with a Raabe-type ratio estimate on the tail of
    the tabulated terms, so a constant sequence (terms M_{p-1}/M_p = 1)
    is reported as failing even though every truncated partial sum is
    finite.
    """
    lv = ws.log_values
    P = ws.p_max
    witnesses: dict = {}

    # (M.1): M_p^2 <= M_{p-1} M_{p+1}
    holds_m1 = True
    for p in range(1, P):
        if not _le(2 * lv[p], lv[p - 1] + lv[p + 1]):
            holds_m1 = False
            witnesses["M1"] = (p, 0)
            break

    # (M.4): log-convexity of M_p / p!
    holds_m4 = True
    lf = [math.lgamma(p + 1) for p in range(P + 1)]
    for p in range(1, P):
        if not _le(2 * (lv[p] - lf[p]), (lv[p - 1] - lf[p - 1]) + (lv[p + 1] - lf[p + 1])):
            holds_m4 = False
            witnesses["M4"] = (p, 0)
            break

    # (M.2): fit the smallest (c0, H) making
    #   ln M_p - min_q (ln M_{p-q} + ln M_q) <= ln c0 + p ln H
    # hold on the range; with fitted constants the condition always holds
    # on a finite table, so holds_M2 records the fit's validity.
    f = [lv[p] - min(lv[p - q] + lv[q] for q in range(p + 1)) for p in range(P + 1)]
    if P >= 2:
        ln_h = max(0.0, max((f[p] - f[1]) / (p - 1) for p in range(2, P + 1)))
    else:
        ln_h = 0.0
    ln_c0 = max(0.0, max(f[p] - p * ln_h for p in range(P + 1)))
    fitted_h = math.exp(ln_h)
    fitted_c0 = math.exp(ln_c0)
    holds_m2 = all(_le(f[p], ln_c0 + p * ln_h) for p in range(P + 1))
    if not holds_m2:  # pragma: no cover - fit holds by construction
        witnesses["M2"] = (next(p for p in range(P + 1) if not _le(f[p], ln_c0 + p * ln_h)), 0)

    # terms r_p = M_{p-1}/M_p of the (M.3)' sum
    r = [math.exp(lv[p - 1] - lv[p]) for p in range(1, P + 1)]

    # (M.3)': Raabe estimate p (r_p / r_{p+1} - 1) on the tabulated tail;
    # the series converges when the estimate exceeds 1.
    tail_lo = max(1, int(0.8 * (P - 1)))
    raabe = []
    for p in range(tail_lo, P):
        if r[p] <= 0:
            continue
        raabe.append(p * (r[p - 1] / r[p] - 1.0))
    raabe.sort()
    raabe_med = raabe[len(raabe) // 2] if raabe else 0.0
    holds_m3prime = raabe_med > 1.05
    if not holds_m3prime:
        witnesses["M3prime"] = (tail_lo, 0)

    # (M.3): truncated tails vs c0 q M_q / M_{q+1}; record the fitted
    # constant and require it to be stable when the range is halved.
    def fit_c0_m3(upper: int) -> float:
        worst = 0.0
        tail = 0.0
        tails = [0.0] * (upper + 1)
        for p in range(upper, 0, -1):
            tail += r[p - 1]
            tails[p - 1] = tail
        for q in range(1, upper):
            denom = q * math.exp(lv[q] - lv[q + 1])
            worst = max(worst, tails[q] / denom)
        return worst

    c0_full = fit_c0_m3(P)
    c0_half = fit_c0_m3(max(2, P // 2))
    stable = c0_full <= 2.0 * c0_half + _SLACK
    holds_m3 = holds_m3prime and stable
    if not holds_m3 and "M3" not in witnesses:
        witnesses["M3"] = (P, 0)

    return ConditionReport(
        holds_M1=holds_m1,
        holds_M2=holds_m2,
        holds_M3=holds_m3,
        holds_M3prime=holds_m3prime,
        holds_M4=holds_m4,
        witnesses=witnesses,
        fitted_c0=fitted_c0,
        fitted_H=fitted_h,
        fitted_c0_M3=c0_full,
        truncation_index=P,
    )


def associated_function(ws: WeightSequence, rho: float, with_info: bool = False):
    """M(rho) = max_p ln_+ (rho**p / M_p) over the tabulated range.

    A boundary argmax means the tabulated range was too short for this
    rho; the result is then flagged unreliable via a warning (and via the
    returned info when with_info is set).
    """
    if rho <= 0:
        raise InvalidParameter("rho must be positive")
    lr = math.log(rho)
    best, argmax = 0.0, 0
    for p, lm in enumerate(ws.log_values):
        v = p * lr - lm
        if v > best:
            best, argmax = v, p
    boundary = argmax == ws.p_max
    if boundary:
        warnings.warn(
            f"associated_function argmax hit p_max={ws.p_max}; result unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    if with_info:
        return best, argmax, boundary
    return best

