"""Property tests of the file formats: generated series and operators
round-trip to identical bytes, and a truncated or mutated valid file is
either loaded or rejected with a WeylcalcError, never another exception."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcalc.errors import InvalidInput, InvalidParameter, WeylcalcError
from weylcalc.fsring import FormalSeries
from weylcalc.qrat import QC
from weylcalc.quant import HermiteOperator
from weylcalc.symalg import Registry
from weylcalc.textio import dump_operator, dump_series, dump_symexpr, load_operator, load_series, load_symexpr


def _registry(d: int, with_exp: bool) -> Registry:
    reg = Registry(d)
    osc = " + ".join(f"x{i}^2 + xi{i}^2" for i in range(1, d + 1))
    reg.register_base("a", reg.parse("1 + " + osc))
    reg.register_base("alam", reg.parse("1 + lam + " + osc))
    if with_exp:
        reg.designate_exp("a", Fraction(1, 2))
    return reg


# registries are built once: building one runs the positivity spot check
_REGISTRIES = {(d, e): _registry(d, e) for d in (1, 2) for e in (False, True)}

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
exponents = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1)])


@st.composite
def terms(draw, reg):
    """One term c * monomial * base powers * [exp atom], built with the
    algebra's own operations so it is canonical."""
    e = reg.const(QC(draw(fractions), draw(fractions)))
    for name in reg.names:
        e = e * reg.var(name) ** draw(st.integers(0, 2))
    for base in draw(st.sets(st.sampled_from(["a", "alam"]))):
        e = e * reg.base(base, draw(exponents))
    if reg.exp_base is not None and draw(st.booleans()):
        e = e * reg.exp_atom()
    return e


@st.composite
def series(draw):
    reg = _REGISTRIES[draw(st.sampled_from(sorted(_REGISTRIES)))]
    out = []
    for _ in range(draw(st.integers(1, 3))):
        e = reg.zero()
        for t in draw(st.lists(terms(reg), max_size=3)):
            e = e + t
        out.append(e)
    return FormalSeries(out)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 5))
    vals = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    re = np.array(draw(st.lists(vals, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(vals, min_size=n * n, max_size=n * n))).reshape(n, n)
    m = re + 1j * im
    if draw(st.booleans()):
        m = m + m.conj().T  # exactly hermitian, so the flag is set
    return HermiteOperator.wrap(m, n_pad=n + draw(st.integers(0, 8)))


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """valid truncated at a random point, or with one byte replaced,
    inserted or deleted."""
    i = draw(st.integers(0, len(valid)))
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "delete"]))
    byte = bytes([draw(st.integers(0, 255))])
    if kind == "truncate":
        return valid[:i]
    if kind == "insert":
        return valid[:i] + byte + valid[i:]
    if i == len(valid):
        return valid
    return valid[:i] + (byte if kind == "replace" else b"") + valid[i + 1 :]


def _loads_or_rejects(load, blob):
    try:
        load(blob)
    except WeylcalcError:
        pass


class TestRoundTrip:
    @given(s=series())
    @settings(max_examples=40, deadline=None)
    def test_series_bytes_identical(self, s):
        text = dump_series(s)
        back = load_series(text)
        assert [t.terms for t in back.terms] == [t.terms for t in s.terms]
        assert dump_series(back) == text

    @given(op=operators())
    @settings(max_examples=40, deadline=None)
    def test_operator_bytes_identical(self, op):
        blob = dump_operator(op)
        back = load_operator(blob)
        assert back.hermitian_flag == op.hermitian_flag and back.n_pad == op.n_pad
        assert dump_operator(back) == blob


class TestMutatedFiles:
    # text files are decoded as latin-1 so that every byte value reaches
    # the parser (the CLI reports undecodable bytes before parsing)

    @given(data=st.data(), s=series())
    @settings(max_examples=60, deadline=None)
    def test_symbol_file(self, data, s):
        blob = data.draw(mutated(dump_symexpr(s[0]).encode()))
        _loads_or_rejects(load_symexpr, blob.decode("latin-1"))

    @given(data=st.data(), s=series())
    @settings(max_examples=60, deadline=None)
    def test_series_file(self, data, s):
        blob = data.draw(mutated(dump_series(s).encode()))
        _loads_or_rejects(load_series, blob.decode("latin-1"))

    @given(data=st.data(), op=operators())
    @settings(max_examples=60, deadline=None)
    def test_operator_file(self, data, op):
        _loads_or_rejects(load_operator, data.draw(mutated(dump_operator(op))))


class TestBasePowerField:
    """The loader accepts only the base powers the algebra itself builds:
    a capped denominator, a nonzero exponent, each base at most once."""

    @staticmethod
    def _x1_times(power: str) -> str:
        reg = _REGISTRIES[(1, False)]
        text = dump_symexpr(reg.var("x1") * reg.base("a"))
        assert text.count(" : a^1/1 : ") == 1
        return text.replace(" : a^1/1 : ", f" : {power} : ")

    def test_denominator_above_cap(self):
        with pytest.raises(InvalidParameter):
            load_symexpr(self._x1_times("a^1/128"))

    def test_zero_exponent(self):
        with pytest.raises(InvalidInput):
            load_symexpr(self._x1_times("a^0/1"))

    def test_repeated_base(self):
        with pytest.raises(InvalidInput):
            load_symexpr(self._x1_times("a^1/2;a^1/2"))
