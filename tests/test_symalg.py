import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcalc.errors import (
    DomainViolation,
    InvalidInput,
    InvalidParameter,
    UnsupportedOperation,
)
from weylcalc.qrat import QC
from weylcalc.symalg import PhasePoint, Registry
from weylcalc.textio import dump_symexpr, load_symexpr


def osc_registry():
    reg = Registry(1)
    reg.register_base("a", reg.parse("1 + x1^2 + xi1^2"))
    reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
    return reg


class TestQC:
    def test_field_ops(self):
        a = QC(Fraction(1, 2), Fraction(3))
        b = QC(2, Fraction(-1, 4))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * QC(1) == a
        assert -(-a) == a
        assert a.conjugate().conjugate() == a

    def test_exactness(self):
        third = QC(Fraction(1, 3))
        assert third + third + third == QC(1)

    def test_complex_conversion(self):
        assert complex(QC(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j


class TestDifferentiate:
    def test_inverse_base_chain_rule(self):
        reg = osc_registry()
        e = reg.base("a", -1).diff("x1")
        expect = reg.var("x1").scale(-2) * reg.base("a", -2)
        assert (e - expect).is_zero()

    def test_resolvent_lambda_derivative(self):
        reg = osc_registry()
        e = reg.base("alam", -1).diff("lam")
        expect = -reg.base("alam", -2)
        assert (e - expect).is_zero()

    def test_exp_atom_product_rule(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("x1^2 + xi1^2"))
        reg.designate_exp("b", 1)
        t = reg.var("t")
        e = (t * t * reg.exp_atom()).diff("t")
        expect = (t.scale(2) - t * t * reg.base("b")) * reg.exp_atom()
        assert (e - expect).is_zero()

    def test_fractional_power_rule(self):
        reg = osc_registry()
        e = reg.base("a", Fraction(1, 2)).diff("xi1")
        expect = reg.var("xi1") * reg.base("a", Fraction(-1, 2))
        assert (e - expect).is_zero()

    def test_mixed_partials_commute_on_base_powers(self):
        reg = osc_registry()
        e = reg.parse("x1 * xi1^2") * reg.base("a", Fraction(-3, 2)) + reg.parse("lam") * reg.base(
            "alam", -2
        )
        for v1, v2 in (("x1", "xi1"), ("x1", "lam"), ("xi1", "lam")):
            assert (e.diff(v1).diff(v2) - e.diff(v2).diff(v1)).is_zero()


class TestMultiply:
    def test_exponent_addition(self):
        reg = osc_registry()
        e1 = reg.var("x1") * reg.base("a", Fraction(1, 2))
        e2 = reg.var("xi1") * reg.base("a", Fraction(1, 2))
        expect = reg.parse("x1 * xi1") * reg.base("a", 1)
        assert (e1 * e2 - expect).is_zero()

    def test_one_is_identity(self):
        reg = osc_registry()
        e = reg.parse("3 * x1^2") * reg.base("a", -2)
        assert (reg.one() * e - e).is_zero()

    def test_power_cancellation(self):
        reg = osc_registry()
        assert (reg.base("a", -1) * reg.base("a", 1) - reg.one()).is_zero()

    def test_two_exp_atoms_rejected(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("1 + x1^2"))
        reg.designate_exp("b", 1)
        e = reg.exp_atom()
        with pytest.raises(UnsupportedOperation):
            e * e


class TestEvaluate:
    def test_sqrt_at_origin(self):
        reg = osc_registry()
        e = reg.base("a", Fraction(1, 2))
        assert e.evaluate(PhasePoint((0.0,), (0.0,))) == pytest.approx(1.0)

    def test_inverse_at_one_one(self):
        reg = osc_registry()
        e = reg.base("a", -1)
        assert e.evaluate(PhasePoint((1.0,), (1.0,))) == pytest.approx(1.0 / 3.0)

    def test_resolvent_fraction(self):
        reg = osc_registry()
        e = reg.var("lam") * reg.base("alam", -1)
        val = e.evaluate(PhasePoint((0.0,), (0.0,), lam=3.0))
        assert val == pytest.approx(0.75)

    def test_registration_rejects_sign_changing_base(self):
        reg = Registry(1)
        with pytest.raises(InvalidParameter):
            reg.register_base("c", reg.parse("x1"))

    def test_domain_violation_reported(self):
        # passes the spot check on its sampling box but goes negative outside
        reg = Registry(1)
        reg.register_base("b", reg.parse("x1 + 11"))
        e = reg.base("b", Fraction(1, 2))
        with pytest.raises(DomainViolation):
            e.evaluate(PhasePoint((-12.0,), (0.0,)))

    def test_exp_atom_value(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("x1^2 + xi1^2"))
        reg.designate_exp("b", 1)
        e = reg.exp_atom()
        val = e.evaluate(PhasePoint((1.0,), (1.0,), t=0.5))
        assert val == pytest.approx(math.exp(-1.0))


class TestIsZero:
    def test_e_minus_e(self):
        reg = osc_registry()
        e = reg.parse("x1^2 * xi1") * reg.base("a", Fraction(-5, 2))
        assert (e - e).is_zero()

    def test_derivative_of_independent_var(self):
        reg = Registry(1)
        assert reg.var("x1").diff("xi1").is_zero()

    def test_cancellation_to_one(self):
        reg = osc_registry()
        e = reg.base("a", -1) * reg.base("a", 1) - reg.one()
        assert e.is_zero()

    def test_expanded_zero_with_base_relation(self):
        reg = osc_registry()
        # alam - a - lam == 0 only via the defining polynomials
        e = reg.base("alam", 1) - reg.base("a", 1) - reg.var("lam")
        assert not e.is_zero()
        assert e.is_zero_expanded()

    def test_expanded_zero_with_negative_powers(self):
        reg = osc_registry()
        # 1/a - 1/alam - lam/(a alam) == 0
        e = (
            reg.base("a", -1)
            - reg.base("alam", -1)
            - reg.var("lam") * reg.base("a", -1) * reg.base("alam", -1)
        )
        assert e.is_zero_expanded()

    def test_expanded_nonzero_is_rejected(self):
        reg = osc_registry()
        e = reg.base("a", -1) - reg.base("alam", -1)
        assert not e.is_zero_expanded()


# -- hypothesis strategies ---------------------------------------------------


def exprs(reg):
    consts = st.integers(-3, 3).map(lambda n: reg.const(n))
    variables = st.sampled_from(["x1", "xi1", "lam"]).map(reg.var)
    bases = st.sampled_from(
        [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    ).map(lambda r: reg.base("a", r))
    atoms = st.one_of(consts, variables, bases)

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            children.map(lambda e: -e),
        )

    return st.recursive(atoms, combine, max_leaves=6)


_REG = osc_registry()


class TestAlgebraProperties:
    @given(e1=exprs(_REG), e2=exprs(_REG))
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, e1, e2):
        for var in ("x1", "xi1"):
            lhs = (e1 * e2).diff(var)
            rhs = e1.diff(var) * e2 + e1 * e2.diff(var)
            assert (lhs - rhs).is_zero()

    @given(e=exprs(_REG))
    @settings(max_examples=60, deadline=None)
    def test_partials_commute(self, e):
        lhs = e.diff("x1").diff("xi1")
        rhs = e.diff("xi1").diff("x1")
        assert (lhs - rhs).is_zero()

    @given(e=exprs(_REG))
    @settings(max_examples=40, deadline=None)
    def test_serialization_round_trip(self, e):
        text = dump_symexpr(e)
        e2 = load_symexpr(text)
        assert e2.terms == e.terms
        assert dump_symexpr(e2) == text

    def test_finite_differences(self):
        reg = osc_registry()
        exprs_pts = [
            (reg.parse("x1^2 * xi1") * reg.base("a", Fraction(-3, 2)), (0.7, -0.4)),
            (reg.base("a", Fraction(1, 2)), (1.2, 0.5)),
            (reg.parse("1 + x1 * xi1") * reg.base("a", -1), (-0.9, 1.1)),
        ]
        h = 1e-5
        for e, (x0, xi0) in exprs_pts:
            de = e.diff("x1")
            env = {"x1": x0, "xi1": xi0, "lam": 0.0}
            left = dict(env, x1=x0 - h)
            right = dict(env, x1=x0 + h)
            fd = (complex(e.evaluate_grid(right)) - complex(e.evaluate_grid(left))) / (2 * h)
            exact = complex(de.evaluate_grid(env))
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestRegistry:
    def test_duplicate_base_rejected(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("1 + x1^2"))
        with pytest.raises(InvalidInput):
            reg.register_base("b", reg.parse("2 + x1^2"))

    def test_exponent_denominator_cap(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("1 + x1^2"))
        with pytest.raises(InvalidParameter):
            reg.base("b", Fraction(1, 128))

    def test_grid_and_scalar_evaluation_agree(self):
        reg = osc_registry()
        e = reg.parse("x1 * xi1") * reg.base("a", Fraction(-1, 2)) + reg.var("lam")
        xs = np.linspace(-2, 2, 7)
        grid = e.evaluate_grid({"x1": xs, "xi1": 0.5, "lam": 1.5})
        for i, x in enumerate(xs):
            v = e.evaluate(PhasePoint((x,), (0.5,), lam=1.5))
            assert grid[i] == pytest.approx(v)

    def test_parse_rejects_unknown_names(self):
        reg = Registry(1)
        with pytest.raises(InvalidInput):
            reg.parse("x1 + q7")

    def test_parse_rejects_division_by_zero(self):
        with pytest.raises(InvalidInput):
            Registry(1).parse("1/0")

    def test_parse_rejects_symbolic_exponent_denominator(self):
        with pytest.raises(InvalidInput):
            Registry(1).parse("x1^(1/x1)")

    def test_truncated_symbol_file_rejected(self):
        reg = osc_registry()
        text = dump_symexpr(reg.parse("x1 * xi1") * reg.base("a", -1))
        # cut before the "end" of the first base block, and of the expr block
        for cut in (text[: text.index("end\n")], text[: text.rindex("end\n")]):
            with pytest.raises(InvalidInput):
                load_symexpr(cut)

    def test_golden_serialization_bytes(self):
        reg = Registry(1)
        reg.register_base("a", reg.parse("1 + x1^2"))
        e = reg.parse("2 * xi1") * reg.base("a", Fraction(-1, 2)) + reg.const(QC(0, Fraction(1, 3)))
        assert dump_symexpr(e) == (
            "WCSYM 1\n"
            "d 1\n"
            "params lam t\n"
            "base a\n"
            "T 1/1 0/1 : 0,0,0,0 : - : 0\n"
            "T 1/1 0/1 : 2,0,0,0 : - : 0\n"
            "end\n"
            "expr\n"
            "T 0/1 1/3 : 0,0,0,0 : - : 0\n"
            "T 2/1 0/1 : 0,1,0,0 : a^-1/2 : 0\n"
            "end\n"
        )
