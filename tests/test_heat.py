import math
from fractions import Fraction

import numpy as np
import pytest

from weylcalc.errors import UnsupportedSymbol
from weylcalc.fsring import CutoffConfig
from weylcalc.heat import (
    HeatTerm,
    bound_profile,
    faa_di_bruno_partitions,
    faa_di_bruno_weight_sum,
    heat_evaluate,
    heat_evaluate_grid,
    heat_terms,
    pde_residual,
)
from weylcalc.qrat import QC
from weylcalc.symalg import PhasePoint, Registry
from weylcalc.weights import make_gevrey

from oracles import CONE, heat_oracle


def quadratic_reg():
    reg = Registry(1)
    reg.register_base("b", reg.parse("x1^2 + xi1^2"))
    reg.designate_exp("b", 1)
    return reg


def sqrt_reg():
    reg = Registry(1)
    reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
    reg.designate_exp("a0", Fraction(1, 2))
    return reg


class TestHeatTerms:
    def test_u0(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 1)
        assert (terms[0].full - reg.exp_atom()).is_zero()
        assert (terms[0].Q - reg.one()).is_zero()

    def test_u1_vanishes(self):
        for reg, b in (
            (quadratic_reg(), None),
            (sqrt_reg(), None),
        ):
            name, r = reg.exp_base
            terms = heat_terms(reg.base(name, r), 2)
            assert terms[1].full.is_zero()

    def test_u2_closed_form(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 3)
        t = reg.var("t")
        b_poly = reg.parse("x1^2 + xi1^2")
        expect = t * t * t * b_poly * Fraction(1, 3) - t * t * reg.const(Fraction(1, 2))
        assert (terms[2].Q - expect).is_zero()

    def test_against_naive_recursion_oracle(self):
        reg = quadratic_reg()
        N = 5
        terms = heat_terms(reg.base("b"), N)
        oracle = heat_oracle({(0, 0): CONE, (2, 0): CONE, (0, 2): CONE}, 1, N)
        # package vars: (x1, xi1, lam, t); oracle vars: (x, xi, t)
        for j in range(N):
            got = {}
            for (mono, powers, expf), c in terms[j].Q.terms.items():
                assert not powers and not expf
                assert mono[2] == 0
                got[(mono[0], mono[1], mono[3])] = (c.re, c.im)
            assert got == oracle[j]

    def test_initial_conditions(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 4)
        assert (terms[0].Q.subs_scalar("t", 0) - reg.one()).is_zero()
        for j in (1, 2, 3):
            assert terms[j].Q.subs_scalar("t", 0).is_zero()

    def test_real_symbol_gives_real_terms(self):
        for make in (quadratic_reg, sqrt_reg):
            reg = make()
            name, r = reg.exp_base
            terms = heat_terms(reg.base(name, r), 5)
            for term in terms:
                assert all(c.is_real for c in term.Q.terms.values())

    def test_t_degree_guard(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 5)
        for term in terms:
            assert term.Q.max_degree("t") <= 3 * term.j

    def test_symbol_outside_algebra_rejected(self):
        reg = quadratic_reg()
        with pytest.raises(UnsupportedSymbol):
            heat_terms(reg.parse("x1^2 + xi1^2"), 2)  # polynomial, not the base power
        reg2 = Registry(1)
        reg2.register_base("b", reg2.parse("x1^2 + xi1^2"))
        with pytest.raises(UnsupportedSymbol):
            heat_terms(reg2.base("b"), 2)  # exp base not designated


class TestPdeResidual:
    def test_j0(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 1)
        assert pde_residual(terms, 0).is_zero()

    @pytest.mark.parametrize("N", [5])
    def test_quadratic_symbol_all_orders(self, N):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), N)
        for j in range(N):
            assert pde_residual(terms, j).is_zero()

    def test_quartic_symbol(self):
        reg = Registry(1)
        reg.register_base("b4", reg.parse("1 + x1^4 + xi1^4 + x1^2 * xi1^2"))
        reg.designate_exp("b4", 1)
        terms = heat_terms(reg.base("b4"), 4)
        for j in range(4):
            assert pde_residual(terms, j).is_zero()

    def test_dimension_two(self):
        reg = Registry(2)
        reg.register_base("b", reg.parse("x1^2 + xi1^2 + x2^2 + xi2^2"))
        reg.designate_exp("b", 1)
        terms = heat_terms(reg.base("b"), 3)
        for j in range(3):
            assert pde_residual(terms, j).is_zero()

    def test_sqrt_symbol(self):
        reg = sqrt_reg()
        terms = heat_terms(reg.base("a0", Fraction(1, 2)), 3)
        for j in range(3):
            assert pde_residual(terms, j).is_zero()


class TestHeatEvaluate:
    def cfg(self):
        return CutoffConfig.from_weights(make_gevrey(1.0, 20), R=1.4)

    def test_t0_is_one_everywhere(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 4)
        for w in (PhasePoint((0.0,), (0.0,)), PhasePoint((2.0,), (-1.0,)), PhasePoint((10.0,), (3.0,))):
            assert heat_evaluate(terms, 0.0, w, self.cfg()) == pytest.approx(1.0)

    def test_origin_t1(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 3)
        w = PhasePoint((0.0,), (0.0,))
        assert heat_evaluate(terms, 1.0, w, self.cfg()) == pytest.approx(1.0)

    def test_midrange_within_first_damped_term(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 4)
        w = PhasePoint((3.0,), (2.0,))
        t = 0.3
        env = {"x1": 3.0, "xi1": 2.0, "t": t}
        val = heat_evaluate(terms, t, w, self.cfg())
        partial = sum(complex(term.full.evaluate_grid(env)) for term in terms)
        damped = max(
            abs(complex(term.full.evaluate_grid(env))) for term in terms[1:]
        )
        assert abs(val - partial) <= 2.0 * damped + 1e-12

    def test_pointwise_equals_grid_exactly(self):
        reg = sqrt_reg()
        terms = heat_terms(reg.base("a0", Fraction(1, 2)), 4)
        xs = np.array([0.0, 0.7, 1.9, 2.5, 3.3, 8.0])
        xis = np.array([0.0, -1.2, 2.6, 0.3, -3.0, 0.5])
        for t in (0.0, 0.5, 2.0):
            grid = heat_evaluate_grid(terms, t, {"x1": xs, "xi1": xis}, self.cfg())
            points = [heat_evaluate(terms, t, PhasePoint((x,), (xi,)), self.cfg()) for x, xi in zip(xs, xis)]
            assert list(grid) == points


class TestBoundProfile:
    def grid(self, radius=20.0, n=10):
        pts = []
        for i in range(n):
            r = radius * (i + 1) / n
            ang = 2.399963 * i  # golden-angle spread
            pts.append(PhasePoint((r * math.cos(ang),), (r * math.sin(ang),)))
        return pts

    def test_j0_reference_ratio(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 1)
        ws = make_gevrey(2.0, 20)
        prof = bound_profile(terms, self.grid(5.0, 6), [0.0, 1.0, 3.0], 1, 1, ws, 1.0)
        assert prof.C > 0 and math.isfinite(prof.C)
        assert math.isfinite(prof.h)

    def test_quadratic_profile_finite(self):
        reg = quadratic_reg()
        terms = heat_terms(reg.base("b"), 3)
        ws = make_gevrey(2.0, 20)
        prof = bound_profile(terms, self.grid(20.0), [0.0, 1.0, 2.5, 5.0], 2, 2, ws, 1.0)
        assert math.isfinite(prof.C) and math.isfinite(prof.h)
        assert math.isfinite(prof.exp_C) and math.isfinite(prof.exp_h)
        assert math.isfinite(prof.pow_C) and math.isfinite(prof.pow_h)
        assert prof.samples > 0


class TestFaaDiBruno:
    def test_partition_enumerator_reproduces_derivatives(self):
        # sum over p(alpha, r) with f = exp reproduces the symbolic
        # derivative of the exponential atom, exactly
        reg = quadratic_reg()
        e = reg.exp_atom()
        name, _ = reg.exp_base
        b = reg.base("b")
        for alpha in [(1, 0), (0, 2), (2, 1), (2, 2)]:
            lhs = e
            for i, a in enumerate(alpha):
                var = ("x1", "xi1")[i]
                lhs = lhs.diff(var, a)
            # rhs: sum_r (-t)^r sum_{p(alpha,r)} alpha! prod (d^a b)^k / (k! (a!)^k)
            rhs = reg.zero()
            n = sum(alpha)
            mt = -reg.var("t")
            afact = math.factorial(alpha[0]) * math.factorial(alpha[1])
            for r in range(1, n + 1):
                tr = reg.one()
                for _ in range(r):
                    tr = tr * mt
                for part in faa_di_bruno_partitions(alpha, r):
                    coeff = Fraction(afact)
                    prod = reg.one()
                    for (sub, k) in part:
                        da = b
                        for i, a in enumerate(sub):
                            var = ("x1", "xi1")[i]
                            da = da.diff(var, a)
                        for _ in range(k):
                            prod = prod * da
                        sub_fact = math.factorial(sub[0]) * math.factorial(sub[1])
                        coeff /= math.factorial(k) * sub_fact**k
                    rhs = rhs + (tr * prod).scale(QC(coeff))
            rhs = rhs * e
            assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_combinatorial_weight_bound(self, d):
        # exhaustive over |beta| <= 6 in d variables
        def betas(total, dim):
            if dim == 1:
                return [(total,)]
            out = []
            for h in range(total + 1):
                for rest in betas(total - h, dim - 1):
                    out.append((h,) + rest)
            return out

        for total in range(1, 7):
            for beta in betas(total, d):
                if not any(beta):
                    continue
                w = faa_di_bruno_weight_sum(beta)
                assert w <= 2 ** (sum(beta) * (d + 1))
