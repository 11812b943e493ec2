"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Criterion 8 (the convention pin) gates the
two spectral criteria 6 and 7."""

import math
from fractions import Fraction

import numpy as np
import pytest

from weylcalc.cli import run_validate_power, run_validate_sqrt
from weylcalc.cpow import (
    PowerEvaluator,
    gamma_k,
    power_coefficient,
    power_series_eval,
    power_series_eval_grid,
    quad_halfline,
    two_var_identity_check,
)
from weylcalc.fsring import (
    CutoffConfig,
    FormalSeries,
    canonical,
    change_quantization,
    sharp,
    sharp_power,
    unit_series,
)
from weylcalc.heat import bound_profile, faa_di_bruno_weight_sum, heat_terms, pde_residual
from weylcalc.parametrix import parametrix, resolvent_parametrix, verify_left_identity
from weylcalc.symalg import PhasePoint, Registry
from weylcalc.weights import check_conditions, make_gevrey

from oracles import CONE, heat_oracle


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: exact ring identities --------------------------------------


class TestCriterion1:
    def test_parametrix_identity_and_q1(self):
        reg = Registry(1)
        reg.register_base("a", reg.parse("1 + x1^2 + xi1^2"))
        a = reg.base("a")
        q = parametrix(a, 4)
        residual = verify_left_identity(q, a, 4)
        ok = residual.is_zero() and q[1].is_zero()
        report("1a parametrix #-identity, q_1 = 0", ok)

    def test_associativity_random_series(self):
        rng = np.random.default_rng(42)
        reg = Registry(1)

        def rand_series():
            terms = []
            for _ in range(4):
                e = reg.zero()
                for _ in range(3):
                    ex = int(rng.integers(0, 3))
                    ei = int(rng.integers(0, 3 - ex)) if ex < 2 else 0
                    e = e + reg.poly({(ex, ei, 0, 0): int(rng.integers(-3, 4))})
                terms.append(e)
            return FormalSeries(terms)

        ok = True
        for _ in range(3):
            A, B, C = rand_series(), rand_series(), rand_series()
            lhs = sharp(sharp(A, B, 4), C, 4)
            rhs = sharp(A, sharp(B, C, 4), 4)
            ok = ok and (lhs - rhs).is_zero()
        report("1b associativity (A#B)#C = A#(B#C)", ok)

    def test_change_of_quantization_round_trip(self):
        rng = np.random.default_rng(43)
        reg = Registry(1)
        terms = []
        for _ in range(4):
            e = reg.zero()
            for _ in range(4):
                e = e + reg.poly(
                    {(int(rng.integers(0, 4)), int(rng.integers(0, 4)), 0, 0): int(rng.integers(-3, 4))}
                )
            terms.append(e)
        A = FormalSeries(terms)
        back = change_quantization(change_quantization(A, 0, Fraction(1, 2), 4), Fraction(1, 2), 0, 4)
        ok = (back - A).is_zero()
        report("1c requantization round trip", ok)


# -- criterion 2: resolvent algebra, exact ------------------------------------


class TestCriterion2:
    N = 3

    @pytest.fixture()
    def setup(self):
        reg = Registry(1, params=("lam", "mu", "t"))
        reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
        reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
        reg.register_base("amu", reg.parse("1 + x1^2 + xi1^2 + mu"))
        qlam = resolvent_parametrix(reg.base("a0"), self.N, lam="lam")
        qmu = resolvent_parametrix(reg.base("a0"), self.N, lam="mu")
        return reg, qlam, qmu

    def test_resolvent_identity(self, setup):
        reg, qlam, qmu = setup
        lam, mu = reg.var("lam"), reg.var("mu")
        diff = (qlam - qmu) - sharp(qlam, qmu, self.N) * (-(lam - mu))
        ok = all(t.is_zero_expanded() for t in diff.terms)
        report("2a resolvent identity", ok)

    def test_commutation(self, setup):
        reg, qlam, qmu = setup
        diff = sharp(qlam, qmu, self.N) - sharp(qmu, qlam, self.N)
        ok = all(t.is_zero() for t in diff.terms)
        report("2b q^(lam) # q^(mu) commutation", ok)

    def test_a0_commutation(self, setup):
        reg, qlam, _ = setup
        a0 = canonical(reg.base("a0"), self.N)
        mid = unit_series(reg, self.N) - (qlam * reg.var("lam"))
        left = sharp(a0, qlam, self.N) - mid
        right = sharp(qlam, a0, self.N) - mid
        ok = all(t.is_zero_expanded() for t in left.terms + right.terms)
        report("2c a0-commutation 1 - lam q", ok)

    def test_lambda_derivative_law(self, setup):
        reg, qlam, _ = setup
        ok = True
        for k in (1, 2):
            gk = sharp_power(qlam, k, self.N)
            gk1 = sharp_power(qlam, k + 1, self.N)
            for n in range(self.N):
                diff = gk[n].diff("lam") + gk1[n].scale(k)
                ok = ok and diff.is_zero()
        report("2d d/dlam G^(k) = -k G^(k+1)", ok)


# -- criterion 3: quadrature oracles ------------------------------------------


class TestCriterion3:
    def test_inteq_sweep(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(20):
            re_z = rng.uniform(0.2, 2.5)
            z = complex(re_z, rng.uniform(-1.0, 1.0))
            k = int(math.floor(re_z)) + 1 + int(rng.integers(0, 3))
            zeta = complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0))
            res = quad_halfline(lambda lam: zeta**k / (zeta + lam) ** k, z)
            worst = max(worst, abs(gamma_k(z, k) * res.value - zeta**z))
        report("3a (inteq) closed form, 20 random (z, zeta, k)", worst <= 1e-8, f"worst {worst:.2e}")

    def test_k_independence(self):
        reg = Registry(1)
        reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
        reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
        a0 = reg.base("a0")
        rng = np.random.default_rng(101)
        worst = 0.0
        for z in (0.5, 1.3, 0.5 + 0.7j):
            k0 = int(math.floor(complex(z).real)) + 1
            for j in (0, 1, 2):
                x, xi = rng.uniform(-2, 2, 2)
                w = PhasePoint((x,), (xi,))
                va = power_coefficient(PowerEvaluator(a0, z, 3, k=k0), j, w).value
                vb = power_coefficient(PowerEvaluator(a0, z, 3, k=k0 + 1), j, w).value
                worst = max(worst, abs(va - vb))
        report("3b k-independence of p^(k)_{z,j}", worst <= 1e-7, f"worst {worst:.2e}")

    def test_two_variable_identity(self):
        cases = [
            (lambda lam: 1.0 / (1.0 + lam), lambda lam: -1.0 / (1.0 + lam) ** 2, 0.5, 0.5),
            (lambda lam: 1.0 / (2.0 + lam), lambda lam: -1.0 / (2.0 + lam) ** 2, 0.5, 0.5),
            (lambda lam: 1.0 / (1.0 + lam) ** 2, lambda lam: -2.0 / (1.0 + lam) ** 3, 0.3, 0.6),
        ]
        worst = 0.0
        for f, fp, z, zeta in cases:
            lhs, rhs = two_var_identity_check(f, fp, z, zeta)
            worst = max(worst, abs(lhs - rhs))
        report("3c two-variable divided-difference identity", worst <= 1e-5, f"worst {worst:.2e}")


# -- criterion 4: complex-power coefficients ----------------------------------


class TestCriterion4:
    @pytest.fixture()
    def a0_setup(self):
        reg = Registry(1)
        reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
        reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
        return reg, reg.base("a0")

    def grid50(self):
        rng = np.random.default_rng(200)
        return [PhasePoint((x,), (xi,)) for x, xi in rng.uniform(-3, 3, (50, 2))]

    def test_order_zero_is_principal_power(self, a0_setup):
        _, a0 = a0_setup
        worst = 0.0
        for z in (0.5, 1.3, 0.5 + 0.7j):
            ev = PowerEvaluator(a0, z, order=1)
            for w in self.grid50():
                val = power_coefficient(ev, 0, w).value
                ref = complex(1.0 + w.x[0] ** 2 + w.xi[0] ** 2) ** z
                worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
        report("4a p_{z,0} = a0^z on 50 points", worst <= 1e-7, f"worst {worst:.2e}")

    def test_integer_powers_match_sharp(self, a0_setup):
        reg, a0 = a0_setup
        ev1 = PowerEvaluator(a0, 1.0, order=3)
        ev2 = PowerEvaluator(a0, 2.0, order=3)
        sq = sharp(canonical(a0, 3), canonical(a0, 3), 3)
        rng = np.random.default_rng(201)
        worst = 0.0
        for _ in range(10):
            x, xi = rng.uniform(-2.5, 2.5, 2)
            w = PhasePoint((x,), (xi,))
            ref1 = [complex(1 + x * x + xi * xi), 0.0, 0.0]
            for j in range(3):
                worst = max(worst, abs(power_coefficient(ev1, j, w).value - ref1[j]))
                worst = max(worst, abs(power_coefficient(ev2, j, w).value - sq[j].evaluate(w)))
        report("4b p_{1,j}, p_{2,j} match a0 and (a0#a0)_j", worst <= 1e-7, f"worst {worst:.2e}")

    def test_mixed_semigroup(self, a0_setup):
        _, a0 = a0_setup
        ev_half = PowerEvaluator(a0, 0.5, order=3, k=1)
        ev_comb = ev_half.sharp_with(canonical(a0, 3))
        ev_3half = PowerEvaluator(a0, 1.5, order=3, k=2)
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(8):
            x, xi = rng.uniform(-2, 2, 2)
            w = PhasePoint((x,), (xi,))
            for j in range(3):
                lhs = power_coefficient(ev_comb, j, w).value
                rhs = power_coefficient(ev_3half, j, w).value
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        report("4c mixed semigroup p_{1/2} # a0 = p_{3/2}", worst <= 1e-6, f"worst {worst:.2e}")

    def test_closed_form_grid_matches_quadrature(self, a0_setup):
        _, a0 = a0_setup
        cfg = CutoffConfig.from_weights(make_gevrey(1.0, 40), R=1.4)
        pts = self.grid50()
        env = {"x1": np.array([w.x[0] for w in pts]), "xi1": np.array([w.xi[0] for w in pts])}
        worst = 0.0
        for z in (0.5, 1.3, 0.5 + 0.7j):
            ev = PowerEvaluator(a0, z, order=3)
            for N in (1, 2, 3):
                grid = power_series_eval_grid(ev, N, env, cfg)
                for w, val in zip(pts, grid):
                    ref = power_series_eval(ev, N, w, cfg)
                    worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
        report("4d closed-form grid path = quadrature, j < 3 on 50 points", worst <= 1e-7, f"worst {worst:.2e}")


# -- criterion 5: heat parametrix ----------------------------------------------


class TestCriterion5:
    def test_residuals_and_oracle(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("x1^2 + xi1^2"))
        reg.designate_exp("b", 1)
        terms = heat_terms(reg.base("b"), 5)
        ok = all(pde_residual(terms, j).is_zero() for j in range(5))
        ok = ok and terms[1].full.is_zero()
        oracle = heat_oracle({(0, 0): CONE, (2, 0): CONE, (0, 2): CONE}, 1, 3)
        got = {}
        for (mono, powers, expf), c in terms[2].Q.terms.items():
            got[(mono[0], mono[1], mono[3])] = (c.re, c.im)
        ok = ok and got == oracle[2]
        report("5a residuals zero j <= 4, u_1 = 0, u_2 matches oracle", ok)

    def test_bound_profile_radius_monotonicity(self):
        reg = Registry(1)
        reg.register_base("b", reg.parse("x1^2 + xi1^2"))
        reg.designate_exp("b", 1)
        terms = heat_terms(reg.base("b"), 3)
        ws = make_gevrey(2.0, 20)
        t_grid = [0.0, 1.0, 2.5, 5.0]

        def annulus(radius, n=8):
            pts = []
            for i in range(n):
                ang = 2 * math.pi * i / n + 0.3
                pts.append(PhasePoint((radius * math.cos(ang),), (radius * math.sin(ang),)))
            return pts

        hs = []
        finite = True
        for radius in (5.0, 10.0, 20.0):
            prof = bound_profile(terms, annulus(radius), t_grid, 2, 2, ws, 1.0)
            finite = finite and math.isfinite(prof.C) and math.isfinite(prof.h)
            hs.append(prof.h)
        monotone = all(hs[i + 1] <= hs[i] + 1e-9 for i in range(len(hs) - 1))
        report(
            "5b bound profile finite, fitted h non-increasing with radius",
            finite and monotone,
            f"h = {[f'{v:.3f}' for v in hs]}",
        )


# -- criteria 6 + 8: spectral validation of complex powers ---------------------


class TestCriteria6And8:
    @pytest.fixture(scope="class")
    @staticmethod
    def power_report():
        return run_validate_power(basis=64, order=3, z=0.5, cutoff_r=1.4)

    def test_criterion8_convention_pin(self, power_report):
        pin = power_report["convention_pin_error"]
        report("8 convention pin: diag(2n+1) to 1e-12", pin <= 1e-12, f"err {pin:.2e}")

    def test_criterion6_balakrishnan(self, power_report):
        err = power_report["balakrishnan_vs_spectral_max"]
        report("6a balakrishnan_matrix vs spectral sqrt <= 1e-7", err <= 1e-7, f"max {err:.2e}")

    def test_criterion6_quantized_power_symbol(self, power_report):
        errs = {n: np.array(v) for n, v in power_report["per_state_errors"].items()}
        e1, e2, e3 = errs["1"], errs["2"], errs["3"]
        ok_level = bool(np.max(e1) <= 0.10)
        tol = 1e-9
        noninc = (e2 <= e1 * (1 + tol) + tol) & (e3 <= e2 * (1 + tol) + tol)
        strict = e3 < e1
        frac = float(np.mean(noninc & strict))
        ok_mono = frac >= 0.80
        report(
            "6b quantized a^z: <= 10% at N=1, improving in N for >= 80% of states",
            ok_level and ok_mono,
            f"maxN1 {np.max(e1):.2e}, improving fraction {frac:.2f}",
        )


# -- criterion 7: square-root semigroup ----------------------------------------


class TestCriterion7:
    @pytest.fixture(scope="class")
    @staticmethod
    def sqrt_report():
        return run_validate_sqrt(basis=64, order=3, t_values=(0.5, 1.0, 2.0), cutoff_r=1.4)

    def test_identity_at_t0(self, sqrt_report):
        err = sqrt_report["identity_at_t0_error"]
        report("7a heat symbol at t = 0 quantizes to identity", err <= 1e-8, f"err {err:.2e}")

    def test_semigroup_errors(self, sqrt_report):
        ok = True
        details = []
        for t, per_n in sqrt_report["per_state_errors"].items():
            e1 = np.array(per_n["1"])
            e3 = np.array(per_n["3"])
            level = float(np.max(np.concatenate([e1, e3])))
            med1, med3 = float(np.median(e1)), float(np.median(e3))
            ok = ok and level <= 0.15 and med3 < med1
            details.append(f"t={t}: max {level:.2e}, median {med1:.2e}->{med3:.2e}")
        report("7b semigroup: <= 15% per state, median improving N=1->3", ok, "; ".join(details))


# -- criterion 9: combinatorial and sequence lemmas -----------------------------


class TestCriterion9:
    def test_binomial_lemma(self):
        N = [math.factorial(p) ** 2 for p in range(31)]
        ok = all(
            math.comb(n, k) * N[n - k] * N[k] <= n * N[n - 1]
            for n in range(2, 31)
            for k in range(1, n)
        )
        report("9a binomial weight lemma to |alpha| = 30", ok)

    def test_product_lemma(self):
        N = [math.factorial(p) ** 2 for p in range(13)]

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for head in range(1, total - parts + 2):
                for rest in compositions(total - head, parts - 1):
                    yield (head,) + rest

        ok = True
        for k in range(1, 13):
            for j in range(1, k + 1):
                for comp in compositions(k, j):
                    prod = N[j]
                    for c in comp:
                        prod *= N[c]
                    ok = ok and prod <= N[k]
        report("9b product lemma to k = 12", ok)

    def test_faa_di_bruno_bound(self):
        ok = True
        for d in (1, 2, 3):
            def betas(total, dim):
                if dim == 1:
                    return [(total,)]
                return [
                    (h,) + rest for h in range(total + 1) for rest in betas(total - h, dim - 1)
                ]

            for total in range(1, 7):
                for beta in betas(total, d):
                    if any(beta):
                        ok = ok and faa_di_bruno_weight_sum(beta) <= 2 ** (sum(beta) * (d + 1))
        report("9c Faa di Bruno weight bound 2^(|beta|(d+1))", ok)

    def test_gevrey_conditions(self):
        rep = check_conditions(make_gevrey(2.0, 200))
        ok = rep.holds_M1 and rep.holds_M2 and rep.holds_M3 and rep.holds_M3prime and rep.holds_M4
        report("9d Gevrey sigma = 2 report all-pass at p_max = 200", ok)
