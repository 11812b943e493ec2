import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from weylcalc.cpow import (
    PowerEvaluator,
    gamma_complex,
    gamma_k,
    power_coefficient,
    power_series_eval,
    power_series_eval_grid,
    quad_halfline,
    two_var_identity_check,
)
from weylcalc.errors import InvalidParameter, UnsupportedSymbol
from weylcalc.fsring import CutoffConfig, canonical, sharp
from weylcalc.parametrix import hypoellipticity_profile
from weylcalc.symalg import PhasePoint, Registry
from weylcalc.weights import make_gevrey


def power_reg():
    reg = Registry(1)
    reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
    reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
    return reg


def grid50():
    """The criterion-4 points."""
    rng = np.random.default_rng(200)
    return [PhasePoint((x,), (xi,)) for x, xi in rng.uniform(-3, 3, (50, 2))]


class TestGamma:
    def test_gamma1_half(self):
        assert gamma_k(0.5, 1) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_gamma2_half(self):
        assert gamma_k(0.5, 2) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_recurrence_complex(self):
        z = 0.5 + 1.0j
        lhs = gamma_k(z, 2)
        rhs = gamma_k(z, 1) * 1.0 / (1.0 - z)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize(
        "z",
        [0.1, 0.5, 1.0, 2.5, 17.2, 0.5 + 0.7j, 4.0 - 3.0j, 0.1 + 5.0j, -2.5 + 1.0j],
    )
    def test_lanczos_vs_mpmath(self, z):
        ours = gamma_complex(z)
        ref = complex(mpmath.gamma(z))
        assert abs(ours - ref) <= 1e-12 * abs(ref)

    def test_pole_configuration_rejected(self):
        with pytest.raises(InvalidParameter):
            gamma_k(3.0, 2)  # k <= Re z
        with pytest.raises(InvalidParameter):
            gamma_k(-1.0, 2)


class TestQuadHalfline:
    def test_beta_integral(self):
        res = quad_halfline(lambda lam: 1.0 / (1.0 + lam), 0.5)
        assert abs(res.value - math.pi) <= 1e-10
        assert not res.warning

    def test_normalized_beta(self):
        res = quad_halfline(lambda lam: 1.0 / (1.0 + lam), 0.5)
        assert abs(gamma_k(0.5, 1) * res.value - 1.0) <= 1e-10

    def test_inteq_complex(self):
        zeta, k, z = 2.0 + 1.0j, 3, 1.25
        res = quad_halfline(lambda lam: zeta**k / (zeta + lam) ** k, z)
        assert abs(gamma_k(z, k) * res.value - zeta**z) <= 1e-8

    def test_inteq_random_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            re_z = rng.uniform(0.2, 2.5)
            z = complex(re_z, rng.uniform(-1.0, 1.0))
            k = int(math.floor(re_z)) + 1 + int(rng.integers(0, 3))
            zeta = complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0))
            res = quad_halfline(lambda lam: zeta**k / (zeta + lam) ** k, z)
            assert abs(gamma_k(z, k) * res.value - zeta**z) <= 1e-8

    def test_warning_on_nondecaying_integrand(self):
        res = quad_halfline(lambda lam: np.ones_like(lam), 0.5)
        assert res.warning

    def test_error_estimate_reported(self):
        res = quad_halfline(lambda lam: 1.0 / (1.0 + lam) ** 2, 0.7)
        assert math.isfinite(res.error)


class TestPowerCoefficients:
    def evaluator(self, z, order=3, k=None):
        reg = power_reg()
        return PowerEvaluator(reg.base("a0"), z, order=order, k=k)

    def test_j0_is_principal_power(self):
        ev = self.evaluator(0.5)
        w = PhasePoint((1.0,), (1.0,))
        res = power_coefficient(ev, 0, w)
        assert abs(res.value - math.sqrt(3.0)) <= 1e-8

    def test_j0_on_grid(self):
        rng = np.random.default_rng(1)
        for z in (0.5, 1.3, 0.5 + 0.7j):
            ev = self.evaluator(z)
            for _ in range(10):
                x, xi = rng.uniform(-3, 3, 2)
                w = PhasePoint((x,), (xi,))
                a0 = 1.0 + x * x + xi * xi
                res = power_coefficient(ev, 0, w)
                assert abs(res.value - complex(a0) ** z) <= 1e-7 * max(1.0, abs(complex(a0) ** z))

    def test_z1_reduces_to_symbol(self):
        ev = self.evaluator(1.0)
        w = PhasePoint((0.7,), (-1.1,))
        a0 = 1.0 + 0.7**2 + 1.1**2
        assert abs(power_coefficient(ev, 0, w).value - a0) <= 1e-8
        for j in (1, 2):
            assert abs(power_coefficient(ev, j, w).value) <= 1e-8

    def test_k_independence(self):
        rng = np.random.default_rng(2)
        for z in (0.5, 0.5 + 0.7j, 1.3):
            k0 = int(math.floor(z.real if isinstance(z, complex) else z)) + 1
            for j in (0, 2):
                for _ in range(3):
                    x, xi = rng.uniform(-2, 2, 2)
                    w = PhasePoint((x,), (xi,))
                    va = power_coefficient(self.evaluator(z, k=k0), j, w).value
                    vb = power_coefficient(self.evaluator(z, k=k0 + 1), j, w).value
                    assert abs(va - vb) <= 1e-7 * max(1.0, abs(va))

    def test_integer_consistency_p2(self):
        reg = power_reg()
        a0 = reg.base("a0")
        ev = PowerEvaluator(a0, 2.0, order=3)
        sq = sharp(canonical(a0, 3), canonical(a0, 3), 3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, xi = rng.uniform(-2.5, 2.5, 2)
            w = PhasePoint((x,), (xi,))
            for j in range(3):
                pj = power_coefficient(ev, j, w).value
                sj = sq[j].evaluate(w)
                assert abs(pj - sj) <= 1e-8 * max(1.0, abs(sj))

    def test_mixed_semigroup(self):
        # (P_{1/2} # a0)_j sampled equals p_{3/2, j} at grid points
        reg = power_reg()
        a0 = reg.base("a0")
        ev_half = PowerEvaluator(a0, 0.5, order=3, k=1)
        ev_combined = ev_half.sharp_with(canonical(a0, 3))
        ev_3half = PowerEvaluator(a0, 1.5, order=3, k=2)
        rng = np.random.default_rng(6)
        for _ in range(6):
            x, xi = rng.uniform(-2, 2, 2)
            w = PhasePoint((x,), (xi,))
            for j in range(3):
                lhs = power_coefficient(ev_combined, j, w).value
                rhs = power_coefficient(ev_3half, j, w).value
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))

    def test_continuity_in_z(self):
        reg = power_reg()
        a0 = reg.base("a0")
        w = PhasePoint((1.2,), (0.4,))
        z = 0.8
        vals = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            ev = PowerEvaluator(a0, z + eps, order=3, k=1)
            vals.append(power_coefficient(ev, 2, w).value)
        ref = power_coefficient(PowerEvaluator(a0, z, order=3, k=1), 2, w).value
        gaps = [abs(v - ref) for v in vals]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        # finite-difference modulus stays bounded
        assert gaps[0] <= 1.0

    def test_gamma_k_precondition(self):
        reg = power_reg()
        with pytest.raises(InvalidParameter):
            PowerEvaluator(reg.base("a0"), 1.5, order=2, k=1)

    def test_order_zero_term_structure(self):
        # the precomputed order-0 term is (a0/(a0+lam))^k structurally
        reg = power_reg()
        for k in (1, 2, 3):
            ev = PowerEvaluator(reg.base("a0"), 0.5, order=2, k=k)
            expect = reg.base("a0", k) * reg.base("alam", -k)
            assert (ev.g_term(0) - expect).is_zero()


class TestPowerSeriesEval:
    def cfg(self):
        return CutoffConfig.from_weights(make_gevrey(1.0, 20), R=1.4)

    def test_n1_reduces_to_principal_power(self):
        reg = power_reg()
        ev = PowerEvaluator(reg.base("a0"), 0.5, order=3)
        w = PhasePoint((1.0,), (-2.0,))
        val = power_series_eval(ev, 1, w, self.cfg())
        assert abs(val - math.sqrt(6.0)) <= 1e-8

    def test_grid_matches_pointwise(self):
        reg = power_reg()
        ev = PowerEvaluator(reg.base("a0"), 0.5, order=3)
        cfg = self.cfg()
        xs = np.array([0.5, 1.5, -2.0])
        xis = np.array([1.0, -0.5, 0.25])
        grid_vals = power_series_eval_grid(ev, 3, {"x1": xs, "xi1": xis}, cfg)
        for i in range(xs.size):
            w = PhasePoint((xs[i],), (xis[i],))
            ref = power_series_eval(ev, 3, w, cfg)
            # the grid path integrates over lambda in closed form, the
            # scalar path by quadrature; they differ by the quadrature error
            assert abs(grid_vals[i] - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("z", [0.5, 1.3, 0.5 + 0.7j])
    def test_closed_form_matches_quadrature(self, z):
        # R this small puts every point outside the cutoff shells, so
        # 1 - chi_j = 1 and the grid path at N sums p_{z,j} over j < N
        cfg = CutoffConfig.from_weights(make_gevrey(1.0, 20), R=1e-9)
        ev = PowerEvaluator(power_reg().base("a0"), z, order=3)
        pts = grid50()
        env = {"x1": np.array([w.x[0] for w in pts]), "xi1": np.array([w.xi[0] for w in pts])}
        total = np.zeros(len(pts), dtype=complex)
        for j in range(3):
            total = total + np.array([power_coefficient(ev, j, w).value for w in pts])
            grid = power_series_eval_grid(ev, j + 1, env, cfg)
            assert np.max(np.abs(grid - total) / np.maximum(1.0, np.abs(total))) <= 1e-7

    def test_term_outside_convergence_strip_rejected(self):
        # lambda * g_0 = lambda a0 / (a0 + lambda) grows like lambda^1, so
        # its lambda^(z-1) integral diverges for every Re z > 0
        reg = power_reg()
        ev = PowerEvaluator(reg.base("a0"), 0.5, order=2)
        ev_lam = ev.sharp_with(canonical(reg.var("lam"), 2))
        env = {"x1": np.array([0.5]), "xi1": np.array([1.0])}
        with pytest.raises(UnsupportedSymbol):
            power_series_eval_grid(ev_lam, 1, env, self.cfg())

    def test_far_field_decay_rate(self):
        # |a^z - a0^z| / a0^(Re z) falls off at least like <w>^(-2 rho)
        # along a ray (the order-1 coefficient vanishes identically, so the
        # actual decay is faster; the theorem gives the upper bound)
        reg = power_reg()
        ev = PowerEvaluator(reg.base("a0"), 0.5, order=3)
        cfg = self.cfg()
        rho = 1.0
        # start beyond the cutoff shells so every term contributes in full
        rs = [16.0, 32.0, 64.0]
        gaps = []
        for r in rs:
            w = PhasePoint((r / math.sqrt(2.0),), (r / math.sqrt(2.0),))
            a0 = 1.0 + r * r
            val = power_series_eval(ev, 3, w, cfg)
            gaps.append(abs(val - math.sqrt(a0)) / math.sqrt(a0))
        slope = (math.log(gaps[-1]) - math.log(gaps[0])) / (math.log(rs[-1]) - math.log(rs[0]))
        assert slope <= -2.0 * rho * 0.7

    def test_hypoelliptic_bound_for_rational_power(self):
        # w -> a0(w)^(1/2) satisfies the symbol-controlled derivative bound;
        # derivatives via the algebra's closure d(a0^z) = z a0^(z-1) da0
        reg = power_reg()
        sym = reg.base("a0", Fraction(1, 2))
        ws = make_gevrey(2.0, 20)
        grid = []
        for r in (0.5, 2.0, 6.0, 15.0):
            for ang in (0.0, 0.8, 1.9, 3.5, 5.1):
                grid.append(PhasePoint((r * math.cos(ang),), (r * math.sin(ang),)))
        prof = hypoellipticity_profile(sym, ws, 1.0, grid, max_order=4)
        assert all(np.isfinite(v) for v in prof.ratio_table.values())
        assert prof.fitted_C < 10.0 and prof.fitted_h < 4.0


class TestTwoVarIdentity:
    def test_inverse_shift_one(self):
        f = lambda lam: 1.0 / (1.0 + lam)
        fp = lambda lam: -1.0 / (1.0 + lam) ** 2
        lhs, rhs = two_var_identity_check(f, fp, 0.5, 0.5)
        assert abs(lhs - (-1.0)) <= 1e-6
        assert abs(rhs - (-1.0)) <= 1e-6

    def test_inverse_shift_two(self):
        f = lambda lam: 1.0 / (2.0 + lam)
        fp = lambda lam: -1.0 / (2.0 + lam) ** 2
        lhs, rhs = two_var_identity_check(f, fp, 0.5, 0.5)
        assert abs(lhs - (-0.5)) <= 1e-6
        assert abs(rhs - (-0.5)) <= 1e-6

    def test_inverse_square_mixed_exponents(self):
        f = lambda lam: 1.0 / (1.0 + lam) ** 2
        fp = lambda lam: -2.0 / (1.0 + lam) ** 3
        lhs, rhs = two_var_identity_check(f, fp, 0.3, 0.6)
        # independent 1D quadrature for the right-hand side
        ref = gamma_k(0.9, 2) * complex(
            mpmath.quad(lambda lam: lam ** (0.9 - 1) * (-2.0) / (1.0 + lam) ** 3, [0, mpmath.inf])
        )
        assert abs(lhs - rhs) <= 1e-5
        assert abs(rhs - ref) <= 1e-7

    def test_exponent_range_enforced(self):
        f = lambda lam: 1.0 / (1.0 + lam)
        with pytest.raises(InvalidParameter):
            two_var_identity_check(f, f, 1.5, 0.5)
