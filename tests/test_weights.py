import math

import pytest

from weylcalc.errors import InvalidParameter
from weylcalc.weights import (
    associated_function,
    check_conditions,
    from_values,
    load_weight_table,
    make_gevrey,
)

from oracles import gevrey_value


class TestMakeGevrey:
    def test_sigma2_p3(self):
        ws = make_gevrey(2.0, 10)
        assert math.exp(ws.log_m(3)) == pytest.approx(36.0, rel=1e-12)
        assert gevrey_value(2, 3) == 36

    def test_first_two_are_one(self):
        ws = make_gevrey(1.0, 5)
        assert ws.log_m(0) == 0.0
        assert ws.log_m(1) == 0.0

    def test_sigma2_p5_matches_factorial_oracle(self):
        ws = make_gevrey(2.0, 10)
        assert gevrey_value(2, 5) == 14400
        assert math.exp(ws.log_m(5)) == pytest.approx(14400.0, rel=1e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            make_gevrey(0.0, 10)
        with pytest.raises(InvalidParameter):
            make_gevrey(-1.0, 10)
        with pytest.raises(InvalidParameter):
            make_gevrey(1.0, 1)


class TestConditions:
    def test_gevrey_sigma2_all_pass(self):
        rep = check_conditions(make_gevrey(2.0, 50))
        assert rep.holds_M1 and rep.holds_M2 and rep.holds_M3prime and rep.holds_M4
        assert rep.witnesses == {}

    def test_constant_sequence_m3prime_fails(self):
        ws = from_values([1.0] * 51)
        rep = check_conditions(ws)
        assert rep.holds_M1
        assert not rep.holds_M3prime
        assert "M3prime" in rep.witnesses

    def test_factorial_m4_equality_pattern(self):
        rep = check_conditions(make_gevrey(1.0, 50))
        assert rep.holds_M4
        # ratio sequence M_p / p! is constant 1, so M.4 holds with equality
        ws = make_gevrey(1.0, 50)
        for p in range(1, 50):
            lhs = 2 * (ws.log_m(p) - math.lgamma(p + 1))
            rhs = (ws.log_m(p - 1) - math.lgamma(p)) + (ws.log_m(p + 1) - math.lgamma(p + 2))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_m4_implies_m1(self):
        for sigma in (1.0, 1.5, 2.0, 3.0):
            rep = check_conditions(make_gevrey(sigma, 40))
            if rep.holds_M4:
                assert rep.holds_M1

    def test_failed_flag_has_witness_passing_has_none(self):
        rep = check_conditions(from_values([1.0] * 20))
        for name, flag in (
            ("M1", rep.holds_M1),
            ("M3prime", rep.holds_M3prime),
            ("M4", rep.holds_M4),
        ):
            if flag:
                assert name not in rep.witnesses
            else:
                assert name in rep.witnesses

    def test_fitted_constants_make_m2_hold(self):
        rep = check_conditions(make_gevrey(2.0, 60))
        assert rep.fitted_c0 >= 1.0
        assert rep.fitted_H >= 1.0
        assert rep.holds_M2

    def test_ratio_monotone_for_m1_sequences(self):
        # if (M.1) holds, p -> M_{p+1}/M_p is non-decreasing
        ws = make_gevrey(1.7, 80)
        assert check_conditions(ws).holds_M1
        lv = ws.log_values
        diffs = [lv[p + 1] - lv[p] for p in range(len(lv) - 1)]
        assert all(diffs[i] <= diffs[i + 1] + 1e-10 for i in range(len(diffs) - 1))


class TestAssociatedFunction:
    def test_factorial_rho1_zero(self):
        ws = make_gevrey(1.0, 60)
        assert associated_function(ws, 1.0) == 0.0

    def test_factorial_rho20_stirling(self):
        ws = make_gevrey(1.0, 80)
        val = associated_function(ws, 20.0)
        # independent exact-arithmetic oracle for the brute-force sup
        best = 0.0
        for p in range(81):
            num = 20**p
            den = math.factorial(p)
            best = max(best, math.log(num) - math.log(den))
        assert val == pytest.approx(best, rel=1e-12)
        assert abs(val - 20.0) <= 0.15 * 20.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sigma2_growth_rate(self):
        # M(rho) ~ rho^(1/2) for M_p = (p!)^2; at the top of the rho range
        # the sup argmax touches p_max = 200, which is part of the setup
        ws = make_gevrey(2.0, 200)
        for rho in (1e2, 1e3, 1e4, 1e5, 1e6):
            val = associated_function(ws, rho)
            assert 0.5 <= val / math.sqrt(rho) <= 2.0

    def test_monotone_in_rho_and_crossings(self):
        ws = make_gevrey(2.0, 150)
        prev_val, prev_arg = -1.0, 0
        for i in range(41):
            rho = 10 ** (i / 10.0)
            val, arg, boundary = associated_function(ws, rho, with_info=True)
            assert val >= prev_val - 1e-12
            assert arg >= prev_arg
            assert not boundary
            prev_val, prev_arg = val, arg

    def test_boundary_hit_warns(self):
        ws = make_gevrey(1.0, 5)
        with pytest.warns(RuntimeWarning):
            associated_function(ws, 1e9)

    def test_rejects_nonpositive_rho(self):
        ws = make_gevrey(1.0, 10)
        with pytest.raises(InvalidParameter):
            associated_function(ws, 0.0)
        with pytest.raises(InvalidParameter):
            associated_function(ws, -2.0)


class TestSequenceLemmas:
    def test_binomial_lemma_factorial_squared(self):
        # binom(n, k) N_{n-k} N_k <= n N_{n-1}, N_p = (p!)^2, exact integers
        N = [math.factorial(p) ** 2 for p in range(31)]
        for n in range(2, 31):
            for k in range(1, n):
                assert math.comb(n, k) * N[n - k] * N[k] <= n * N[n - 1]

    def test_product_lemma_m1_sequences(self):
        # N_j N_{k_1} ... N_{k_j} <= N_k over all compositions, k <= 12
        for sigma in (1, 2):
            N = [math.factorial(p) ** sigma for p in range(13)]

            def compositions(total, parts):
                if parts == 1:
                    yield (total,)
                    return
                for head in range(1, total - parts + 2):
                    for rest in compositions(total - head, parts - 1):
                        yield (head,) + rest

            for k in range(1, 13):
                for j in range(1, k + 1):
                    for comp in compositions(k, j):
                        prod = N[j]
                        for c in comp:
                            prod *= N[c]
                        assert prod <= N[k]


class TestIO:
    def test_load_two_column_table(self, tmp_path):
        ws = make_gevrey(2.0, 12)
        path = tmp_path / "w.txt"
        path.write_text(
            "# p  ln M_p\n"
            + "\n".join(f"{p} {v!r}" for p, v in enumerate(ws.log_values))
        )
        ws2 = load_weight_table(path)
        assert ws2.log_values == ws.log_values
