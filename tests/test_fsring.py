import math
from fractions import Fraction

import numpy as np
import pytest

from weylcalc.errors import InvalidInput
from weylcalc.fsring import (
    CutoffConfig,
    FormalSeries,
    canonical,
    change_quantization,
    cutoff_chi,
    cutoff_chi_grid,
    moyal_coefficients,
    resum_evaluate,
    sharp,
    sharp_power,
    unit_series,
)
from weylcalc.parametrix import parametrix
from weylcalc.qrat import QC
from weylcalc.symalg import PhasePoint, Registry, SymExpr
from weylcalc.weights import make_gevrey

from oracles import moyal_term


def plain_reg(d=1):
    return Registry(d)


def to_dense(e: SymExpr, d: int):
    """SymExpr (pure polynomial in x, xi) -> oracle dense dict over 2d vars."""
    out = {}
    for (mono, powers, expf), c in e.terms.items():
        assert not powers and not expf
        key = mono[: 2 * d]
        assert all(v == 0 for v in mono[2 * d :])
        out[key] = (c.re, c.im)
    return out


def from_dense(reg: Registry, p: dict, d: int):
    terms = {}
    pad = (0,) * (reg.nvars - 2 * d)
    for mono, (re, im) in p.items():
        terms[(tuple(mono) + pad, (), False)] = QC(re, im)
    return SymExpr(reg, terms)


class TestSharp:
    def test_x_sharp_xi(self):
        reg = plain_reg()
        A = canonical(reg.var("x1"), 3)
        B = canonical(reg.var("xi1"), 3)
        C = sharp(A, B, 3)
        assert (C[0] - reg.parse("x1 * xi1")).is_zero()
        assert (C[1] - reg.const(QC(0, Fraction(1, 2)))).is_zero()
        assert C[2].is_zero()

    def test_unit_two_sided_identity(self):
        reg = plain_reg()
        B = FormalSeries([reg.parse("x1^2 + xi1"), reg.parse("3 * x1"), reg.one()])
        left = sharp(unit_series(reg, 3), B, 3)
        right = sharp(B, unit_series(reg, 3), 3)
        for j in range(3):
            assert (left[j] - B[j]).is_zero()
            assert (right[j] - B[j]).is_zero()

    def test_osc_squared_against_oracle(self):
        # A = B = 1 + x^2 + xi^2: c_0 = a^2, c_1 = 0, c_2 fixed by the formula
        reg = plain_reg()
        a = reg.parse("1 + x1^2 + xi1^2")
        A = canonical(a, 3)
        C = sharp(A, A, 3)
        assert (C[0] - a * a).is_zero()
        assert C[1].is_zero()
        dense_a = to_dense(a, 1)
        for j in range(3):
            oracle = moyal_term([dense_a], [dense_a], j, 1)
            assert (C[j] - from_dense(reg, oracle, 1)).is_zero()
        # the j = 2 term is the constant -1 for this symbol
        assert (C[2] - reg.const(-1)).is_zero()

    def test_random_series_against_oracle(self):
        rng = np.random.default_rng(3)
        for d in (1, 2):
            reg = plain_reg(d)
            names = [f"x{i+1}" for i in range(d)] + [f"xi{i+1}" for i in range(d)]

            def rand_poly():
                e = reg.const(int(rng.integers(-3, 4)))
                for _ in range(3):
                    n1 = names[rng.integers(0, len(names))]
                    n2 = names[rng.integers(0, len(names))]
                    c = int(rng.integers(-2, 3))
                    e = e + reg.var(n1) * reg.var(n2) * reg.const(c)
                return e

            A = FormalSeries([rand_poly() for _ in range(3)])
            B = FormalSeries([rand_poly() for _ in range(3)])
            C = sharp(A, B, 3)
            a_dense = [to_dense(t, d) for t in A.terms]
            b_dense = [to_dense(t, d) for t in B.terms]
            for j in range(3):
                oracle = moyal_term(a_dense, b_dense, j, d)
                assert (C[j] - from_dense(reg, oracle, d)).is_zero()

    def test_no_zero_padding(self):
        reg = plain_reg()
        A = FormalSeries([reg.var("x1")])
        B = FormalSeries([reg.var("xi1"), reg.one()])
        with pytest.raises(InvalidInput):
            sharp(A, B, 2)

    def test_dimension_mismatch(self):
        A = canonical(plain_reg(1).var("x1"), 2)
        B = canonical(plain_reg(2).var("x1"), 2)
        with pytest.raises(InvalidInput):
            sharp(A, B, 2)

    def test_grading(self):
        # A concentrated at order s, B at order k: (A#B)_j = 0 for j < s+k
        reg = plain_reg()
        z = reg.zero()
        A = FormalSeries([z, reg.parse("x1^2"), z, z])
        B = FormalSeries([z, z, reg.parse("xi1"), z])
        C = sharp(A, B, 4)
        for j in range(3):
            assert C[j].is_zero()
        assert (C[3] - reg.parse("x1^2 * xi1")).is_zero()

    def test_weyl_conjugation_symmetry(self):
        # real A, B: (A#B)_j = conj((B#A)_j)
        rng = np.random.default_rng(5)
        reg = plain_reg()

        def rand_poly():
            e = reg.zero()
            for _ in range(4):
                ex, ei = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                c = int(rng.integers(-3, 4))
                e = e + reg.poly({(ex, ei, 0, 0): c})
            return e

        A = FormalSeries([rand_poly() for _ in range(4)])
        B = FormalSeries([rand_poly() for _ in range(4)])
        AB = sharp(A, B, 4)
        BA = sharp(B, A, 4)
        for j in range(4):
            assert (AB[j] - BA[j].conj()).is_zero()

    def test_distributive(self):
        rng = np.random.default_rng(11)
        reg = plain_reg()

        def rand_series():
            return FormalSeries(
                [reg.poly({(int(rng.integers(0, 3)), int(rng.integers(0, 3)), 0, 0): int(rng.integers(-2, 3))}) for _ in range(3)]
            )

        A, B, C = rand_series(), rand_series(), rand_series()
        lhs = sharp(A, B + C, 3)
        rhs = sharp(A, B, 3) + sharp(A, C, 3)
        assert (lhs - rhs).is_zero()


class TestSharpPower:
    def test_k1_is_identity(self):
        reg = plain_reg()
        A = canonical(reg.parse("x1 + xi1^2"), 3)
        P = sharp_power(A, 1, 3)
        assert (P - A).is_zero()

    def test_k2_is_sharp_square(self):
        reg = plain_reg()
        A = canonical(reg.parse("1 + x1 * xi1"), 3)
        assert (sharp_power(A, 2, 3) - sharp(A, A, 3)).is_zero()

    def test_k0_is_unit(self):
        reg = plain_reg()
        A = canonical(reg.var("x1"), 2)
        P = sharp_power(A, 0, 2)
        assert (P - unit_series(reg, 2)).is_zero()

    def test_associativity(self):
        rng = np.random.default_rng(17)
        reg = plain_reg()

        def rand_series():
            terms = []
            for _ in range(4):
                e = reg.zero()
                for _ in range(3):
                    ex, ei = int(rng.integers(0, 3)), int(rng.integers(0, 3))
                    if ex + ei > 2:
                        ex, ei = 1, 1
                    e = e + reg.poly({(ex, ei, 0, 0): int(rng.integers(-2, 3))})
                terms.append(e)
            return FormalSeries(terms)

        A, B, C = rand_series(), rand_series(), rand_series()
        lhs = sharp(sharp(A, B, 4), C, 4)
        rhs = sharp(A, sharp(B, C, 4), 4)
        assert (lhs - rhs).is_zero()
        # and the fold equality ((A#A)#A) = (A#(A#A))
        assert (sharp(sharp(A, A, 4), A, 4) - sharp(A, sharp(A, A, 4), 4)).is_zero()


class TestChangeQuantization:
    def test_same_tau_is_identity(self):
        reg = plain_reg()
        A = FormalSeries([reg.parse("x1 * xi1"), reg.var("x1"), reg.one()])
        P = change_quantization(A, Fraction(1, 3), Fraction(1, 3), 3)
        assert (P - A).is_zero()

    def test_xxi_weyl_from_normal(self):
        reg = plain_reg()
        A = canonical(reg.parse("x1 * xi1"), 2)
        P = change_quantization(A, 0, Fraction(1, 2), 2)
        assert (P[0] - reg.parse("x1 * xi1")).is_zero()
        assert (P[1] - reg.const(QC(0, Fraction(-1, 2)))).is_zero()

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        reg = plain_reg()
        terms = []
        for _ in range(4):
            e = reg.zero()
            for _ in range(4):
                ex, ei = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                e = e + reg.poly({(ex, ei, 0, 0): int(rng.integers(-3, 4))})
            terms.append(e)
        A = FormalSeries(terms)
        there = change_quantization(A, 0, 1, 4)
        back = change_quantization(there, 1, 0, 4)
        assert (back - A).is_zero()


class TestMoyalKernel:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("l", range(5))
    def test_one_entry_per_multi_index(self, d, l):
        coeffs = moyal_coefficients(d, l)
        assert len(coeffs) == math.comb(2 * d + l - 1, l)
        assert len({(alpha, beta) for alpha, beta, _ in coeffs}) == len(coeffs)

    def test_first_order_is_the_poisson_bracket(self):
        coeffs = {(alpha, beta): c for alpha, beta, c in moyal_coefficients(1, 1)}
        assert coeffs == {((1,), (0,)): QC(0, Fraction(-1, 2)), ((0,), (1,)): QC(0, Fraction(1, 2))}


class TestCutoffs:
    def cfg(self, R=4.0):
        return CutoffConfig.from_weights(make_gevrey(1.0, 20), R=R)

    def test_chi_zero_at_n0(self):
        cfg = self.cfg()
        for w in (PhasePoint((0.0,), (0.0,)), PhasePoint((100.0,), (5.0,))):
            assert cutoff_chi(0, cfg, w) == 0.0

    def test_chi_one_at_origin(self):
        cfg = self.cfg()
        w = PhasePoint((0.0,), (0.0,))
        for n in (1, 2, 5):
            assert cutoff_chi(n, cfg, w) == pytest.approx(1.0)

    def test_chi_vanishes_far_out(self):
        cfg = self.cfg()
        w = PhasePoint((1e4,), (0.0,))
        for n in (1, 3):
            assert cutoff_chi(n, cfg, w) == 0.0

    def test_chi_smooth_range(self):
        cfg = self.cfg()
        for s in np.linspace(0, 30, 121):
            v = cutoff_chi(2, cfg, PhasePoint((float(s),), (0.0,)))
            assert 0.0 <= v <= 1.0

    def test_chi_monotone_transition(self):
        cfg = self.cfg()
        vals = [cutoff_chi(2, cfg, PhasePoint((float(s),), (0.0,))) for s in np.linspace(0, 40, 201)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))

    def test_pointwise_equals_grid_exactly(self):
        cfg = CutoffConfig.from_weights(make_gevrey(1.0, 20), R=1.4)
        xs = np.array([0.0, 0.7, 1.9, 2.5, 3.3, 4.1, 8.0])
        xis = np.array([0.0, -1.2, 2.6, 0.3, -3.0, 1.0, 0.5])
        for n in range(5):
            grid = cutoff_chi_grid(n, cfg, [xs], [xis])
            points = [cutoff_chi(n, cfg, PhasePoint((x,), (xi,))) for x, xi in zip(xs, xis)]
            assert list(grid) == points


class TestResum:
    def cfg(self, R=4.0):
        return CutoffConfig.from_weights(make_gevrey(1.0, 20), R=R)

    def test_single_term_series(self):
        reg = plain_reg()
        A = FormalSeries([reg.parse("1 + x1^2")])
        w = PhasePoint((2.0,), (0.5,))
        assert resum_evaluate(A, self.cfg(), w) == pytest.approx(5.0)

    def test_origin_cutoff_keeps_leading_term_only(self):
        reg = plain_reg()
        A = FormalSeries([reg.const(7), reg.const(100), reg.const(-50)])
        w = PhasePoint((0.0,), (0.0,))
        assert resum_evaluate(A, self.cfg(), w) == pytest.approx(7.0)

    def test_parametrix_remainder_bound(self):
        # resummed parametrix of a = 1 + x^2 + xi^2 at <w> = 10 is within
        # 2 |q_2(w)| of 1/a(w)
        reg = Registry(1)
        reg.register_base("a", reg.parse("1 + x1^2 + xi1^2"))
        a = reg.base("a")
        q = parametrix(a, 3)
        x = math.sqrt((10.0**2 - 1.0) / 2.0)
        w = PhasePoint((x,), (x,))
        val = resum_evaluate(q, self.cfg(), w)
        target = 1.0 / (1.0 + 2 * x * x)
        bound = 2.0 * abs(q[2].evaluate(w))
        assert abs(val - target) <= bound

    def test_r_insensitivity_at_large_w(self):
        # far out, the resummed parametrix varies across R in {2, 4, 8} by no
        # more than the size of the first damped term
        reg = Registry(1)
        reg.register_base("a", reg.parse("1 + x1^2 + xi1^2"))
        q = parametrix(reg.base("a"), 4)
        w = PhasePoint((12.0,), (9.0,))
        vals = [resum_evaluate(q, self.cfg(R), w) for R in (2.0, 4.0, 8.0)]
        scale = max(abs(q[j].evaluate(w)) for j in (1, 2, 3))
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 2.0 * scale
