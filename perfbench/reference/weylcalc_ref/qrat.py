"""Exact Gaussian-rational scalars: a + b*i with a, b arbitrary-precision rationals."""

from __future__ import annotations

from fractions import Fraction


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(v)


class QC:
    """Complex number with exact rational real and imaginary parts.

    Immutable; supports the field operations, conjugation and exact
    comparison.  Used as the coefficient domain of the symbol algebra so
    that cancellation tests are exact rather than tolerance-based.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("QC is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def _mk(re: Fraction, im: Fraction) -> "QC":
        out = object.__new__(QC)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    @staticmethod
    def of(v) -> "QC":
        if isinstance(v, QC):
            return v
        if isinstance(v, complex):
            return QC(Fraction(v.real), Fraction(v.imag))
        return QC(_frac(v), Fraction(0))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = QC.of(other)
        return QC._mk(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QC.of(other)
        return QC._mk(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QC.of(other) - self

    def __neg__(self):
        return QC._mk(-self.re, -self.im)

    def __mul__(self, other):
        other = QC.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return QC._mk(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QC.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero QC")
        a, b, c, d = self.re, self.im, other.re, other.im
        return QC._mk((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return QC.of(other) / self

    def conjugate(self) -> "QC":
        return QC._mk(self.re, -self.im)

    # -- predicates / conversions ---------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"

    @property
    def is_real(self) -> bool:
        return self.im == 0


QC_ZERO = QC(0)
QC_ONE = QC(1)
QC_I = QC(0, 1)
QC_MINUS_I = QC(0, -1)


def qc_ipow(n: int) -> QC:
    """(-i)**n, exact."""
    return (QC_ONE, QC_MINUS_I, QC(-1), QC_I)[n % 4]
