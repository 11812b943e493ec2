"""Deterministic text forms for expressions, series and operators.

Symbol files carry a registry header (dimension, parameters, bases, optional
exponential designation) followed by term-per-line expression blocks; the
term lines are sorted canonically so identical expressions serialize to
identical bytes.  Operator files are binary: a small header plus the
row-major complex-double matrix, with a CSV debug form alongside.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np

from .errors import InvalidInput
from .fsring import FormalSeries
from .qrat import QC
from .quant import HermiteOperator
from .symalg import Registry, SymExpr, _check_exponent

SYM_MAGIC = "WCSYM 1"
SER_MAGIC = "WCSER 1"
OP_MAGIC = b"WCOP"
_OP_HEADER = 20  # magic + version, n_basis, n_pad, flags as <u4


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise InvalidInput(f"expected an integer, got {s!r}") from None


def _parse_frac(s: str) -> Fraction:
    num, sep, den = s.partition("/")
    if not sep or _parse_int(den) == 0:
        raise InvalidInput(f"malformed fraction {s!r}")
    return Fraction(_parse_int(num), _parse_int(den))


def _term_line(reg: Registry, key, coeff: QC) -> str:
    mono, powers, expf = key
    mono_s = ",".join(str(e) for e in mono)
    if powers:
        pow_s = ";".join(f"{name}^{_frac_str(r)}" for name, r in powers)
    else:
        pow_s = "-"
    return f"T {_frac_str(coeff.re)} {_frac_str(coeff.im)} : {mono_s} : {pow_s} : {int(expf)}"


def _parse_term_line(reg: Registry, line: str):
    parts = line[2:].split(" : ")
    if len(parts) != 4:
        raise InvalidInput(f"malformed term line: {line!r}")
    coeff = parts[0].split()
    if len(coeff) != 2:
        raise InvalidInput(f"malformed coefficient in term line: {line!r}")
    re_s, im_s = coeff
    mono = tuple(_parse_int(v) for v in parts[1].strip().split(","))
    if len(mono) != len(reg.names) or min(mono) < 0:
        raise InvalidInput(f"monomial needs {len(reg.names)} exponents >= 0: {line!r}")
    pow_field = parts[2].strip()
    if pow_field == "-":
        powers = ()
    else:
        pl = []
        for chunk in pow_field.split(";"):
            name, sep, r = chunk.partition("^")
            if not sep:
                raise InvalidInput(f"malformed base power {chunk!r}")
            reg.base_poly(name)  # raises InvalidInput for an unknown base
            r = _check_exponent(_parse_frac(r))
            if r == 0:
                raise InvalidInput(f"zero exponent in base power {chunk!r}")
            if any(name == seen for seen, _ in pl):
                raise InvalidInput(f"base {name!r} repeats in {pow_field!r}")
            pl.append((name, r))
        powers = tuple(sorted(pl))
    expf = bool(_parse_int(parts[3].strip()))
    if expf and reg.exp_base is None:
        raise InvalidInput("exponential atom without an expbase designation")
    coeff = QC(_parse_frac(re_s), _parse_frac(im_s))
    return (mono, powers, expf), coeff


def _registry_header(reg: Registry) -> list:
    lines = [f"d {reg.d}", "params " + " ".join(reg.params)]
    for name in sorted(reg._bases):
        lines.append(f"base {name}")
        poly = SymExpr(reg, {(m, (), False): c for m, c in reg.base_poly(name).items()})
        for key, c in poly.items_sorted():
            lines.append(_term_line(reg, key, c))
        lines.append("end")
    if reg.exp_base is not None:
        name, r = reg.exp_base
        lines.append(f"expbase {name} {_frac_str(r)}")
    return lines


def _expr_block(e: SymExpr) -> list:
    return [_term_line(e.reg, key, c) for key, c in e.items_sorted()]


def dump_symexpr(e: SymExpr) -> str:
    lines = [SYM_MAGIC] + _registry_header(e.reg) + ["expr"] + _expr_block(e) + ["end", ""]
    return "\n".join(lines)


def dump_series(s: FormalSeries) -> str:
    lines = [SER_MAGIC] + _registry_header(s.reg)
    for j, term in enumerate(s.terms):
        lines.append(f"order {j}")
        lines.extend(_expr_block(term))
        lines.append("end")
    lines.append("")
    return "\n".join(lines)


class _Lines:
    def __init__(self, text: str):
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def starts(self, prefix: str) -> bool:
        ln = self.peek()
        return ln is not None and ln.startswith(prefix)

    def next(self):
        ln = self.peek()
        if ln is None:
            raise InvalidInput("unexpected end of file")
        self.pos += 1
        return ln


def _load_registry(lr: _Lines, seed: int = 7) -> Registry:
    d_line = lr.next()
    if not d_line.startswith("d "):
        raise InvalidInput("expected dimension line")
    d = _parse_int(d_line[2:].strip())
    p_line = lr.next()
    if not p_line.startswith("params"):
        raise InvalidInput("expected params line")
    params = tuple(p_line.split()[1:])
    reg = Registry(d, params=params, seed=seed)
    while lr.starts("base "):
        fields = lr.next().split()
        if len(fields) != 2:
            raise InvalidInput("malformed base line")
        name = fields[1]
        poly = {}
        while not lr.starts("end"):
            key, c = _parse_term_line(reg, lr.next())
            mono, powers, expf = key
            if powers or expf:
                raise InvalidInput("base polynomials must be plain")
            poly[mono] = c
        lr.next()  # end
        reg.register_base(name, poly)
    if lr.starts("expbase"):
        fields = lr.next().split()
        if len(fields) != 3:
            raise InvalidInput("malformed expbase line")
        _, name, r = fields
        reg.designate_exp(name, _parse_frac(r))
    return reg


def _load_expr_block(lr: _Lines, reg: Registry) -> SymExpr:
    terms = {}
    while not lr.starts("end"):
        key, c = _parse_term_line(reg, lr.next())
        terms[key] = c
    lr.next()
    return SymExpr(reg, terms)


def load_symexpr(text: str, seed: int = 7) -> SymExpr:
    lr = _Lines(text)
    if lr.next() != SYM_MAGIC:
        raise InvalidInput("not a weylcalc symbol file")
    reg = _load_registry(lr, seed=seed)
    if lr.next() != "expr":
        raise InvalidInput("expected expr block")
    return _load_expr_block(lr, reg)


def load_series(text: str, seed: int = 7) -> FormalSeries:
    lr = _Lines(text)
    if lr.next() != SER_MAGIC:
        raise InvalidInput("not a weylcalc series file")
    reg = _load_registry(lr, seed=seed)
    terms = []
    expect = 0
    while lr.starts("order"):
        j = _parse_int(lr.next()[5:].strip())
        if j != expect:
            raise InvalidInput("series orders must be contiguous from 0")
        expect += 1
        terms.append(_load_expr_block(lr, reg))
    if not terms:
        raise InvalidInput("series file has no terms")
    return FormalSeries(terms)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def dump_operator(op: HermiteOperator) -> bytes:
    flags = 1 if op.hermitian_flag else 0
    head = OP_MAGIC + struct.pack("<III", 1, op.n_basis, op.n_pad) + struct.pack("<I", flags)
    return head + np.ascontiguousarray(op.matrix, dtype=np.complex128).tobytes()


def load_operator(blob: bytes) -> HermiteOperator:
    if blob[:4] != OP_MAGIC:
        raise InvalidInput("not a weylcalc operator file")
    if len(blob) < _OP_HEADER:
        raise InvalidInput("operator file header is truncated")
    version, n, n_pad, flags = struct.unpack("<IIII", blob[4:_OP_HEADER])
    if version != 1:
        raise InvalidInput(f"unsupported operator file version {version}")
    if len(blob) - _OP_HEADER != 16 * n * n:
        raise InvalidInput("operator payload size mismatch")
    data = np.frombuffer(blob[_OP_HEADER:], dtype=np.complex128)
    return HermiteOperator(data.reshape(n, n).copy(), n_pad=n_pad, hermitian_flag=bool(flags & 1))


def operator_csv(op: HermiteOperator) -> str:
    lines = ["m,n,re,im"]
    for m in range(op.n_basis):
        for n in range(op.n_basis):
            v = op.matrix[m, n]
            lines.append(f"{m},{n},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"
