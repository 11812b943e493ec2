import math

import numpy as np
import pytest

from weylcalc.errors import InvalidInput, NumericalFailure, UnsupportedSymbol
from weylcalc.fsring import canonical, sharp
from weylcalc.quant import (
    HermiteOperator,
    PolarGrid,
    balakrishnan_matrix,
    matrix_function,
    position_momentum,
    quantize_general,
    quantize_poly,
    spectral_compare,
)
from weylcalc.symalg import Registry
from weylcalc.textio import dump_operator, load_operator


def plain_reg():
    return Registry(1)


class TestQuantizePoly:
    def test_identity(self):
        reg = plain_reg()
        op = quantize_poly(reg.one(), 8)
        assert np.max(np.abs(op.matrix - np.eye(8))) == 0.0

    def test_convention_pin_oscillator(self):
        # the single test fixing all sign/normalization conventions
        reg = plain_reg()
        op = quantize_poly(reg.parse("x1^2 + xi1^2"), 32)
        inter = range(op.n_basis - 2 * 2)
        diag = np.real(np.diag(op.matrix))
        expect = 2.0 * np.arange(32) + 1.0
        assert np.max(np.abs(diag[inter] - expect[inter])) <= 1e-12
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off[inter, :][:, inter])) <= 1e-12

    def test_xxi_is_symmetrized_product(self):
        reg = plain_reg()
        op = quantize_poly(reg.parse("x1 * xi1"), 12)
        X, P = position_momentum(op.n_pad)
        expect = ((X @ P + P @ X) / 2.0)[:12, :12]
        assert np.max(np.abs(op.matrix - expect)) <= 1e-12

    def test_real_symbols_hermitian(self):
        reg = plain_reg()
        rng = np.random.default_rng(9)
        for _ in range(5):
            e = reg.zero()
            for _ in range(4):
                ex, ei = int(rng.integers(0, 4)), int(rng.integers(0, 4))
                e = e + reg.poly({(ex, ei, 0, 0): int(rng.integers(-3, 4))})
            op = quantize_poly(e, 16)
            assert op.hermitian_flag

    def test_degree_cap(self):
        reg = plain_reg()
        with pytest.raises(UnsupportedSymbol):
            quantize_poly(reg.parse("x1^11"), 8)

    def test_rejects_base_powers(self):
        reg = Registry(1)
        reg.register_base("a", reg.parse("1 + x1^2"))
        with pytest.raises(UnsupportedSymbol):
            quantize_poly(reg.base("a", -1), 8)

    def test_composition_vs_sharp(self):
        # Op(p) Op(q) agrees with Op of the finite Moyal series p # q
        reg = plain_reg()
        rng = np.random.default_rng(31)
        for _ in range(3):
            def rand_poly():
                e = reg.zero()
                for _ in range(4):
                    ex = int(rng.integers(0, 4))
                    ei = int(rng.integers(0, 4 - min(ex, 3)))
                    e = e + reg.poly({(ex, ei, 0, 0): int(rng.integers(-2, 3))})
                return e

            p, q = rand_poly(), rand_poly()
            n_basis = 24
            N = 7  # the Moyal series of degree <= 3 polynomials terminates
            prod = sharp(canonical(p, N), canonical(q, N), N)
            full = prod[0]
            for j in range(1, N):
                full = full + prod[j]
            A = quantize_poly(p, n_basis)
            B = quantize_poly(q, n_basis)
            C = quantize_poly(full, n_basis)
            deg = 6
            inter = range(C.n_basis - 2 * deg)
            lhs = (A.matrix @ B.matrix)[inter, :][:, inter]
            rhs = C.matrix[inter, :][:, inter]
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale


class TestQuantizeGeneral:
    def test_identity_symbol(self):
        op = quantize_general(lambda X, XI: np.ones_like(X), 16)
        assert np.max(np.abs(op.matrix - np.eye(16))) <= 1e-10

    def test_oscillator_matches_poly_path(self):
        reg = plain_reg()
        ref = quantize_poly(reg.parse("x1^2 + xi1^2"), 24)
        op = quantize_general(lambda X, XI: X**2 + XI**2, 24)
        inter = range(ref.n_basis - 2 * 2)
        assert np.max(np.abs(op.matrix[inter, :][:, inter] - ref.matrix[inter, :][:, inter])) <= 1e-8

    def test_linear_symbols_match_poly_path(self):
        reg = plain_reg()
        for sym, fn in (
            (reg.var("x1"), lambda X, XI: X),
            (reg.var("xi1"), lambda X, XI: XI),
            (reg.parse("x1 * xi1"), lambda X, XI: X * XI),
        ):
            ref = quantize_poly(sym, 16)
            op = quantize_general(fn, 16)
            deg = 2
            inter = range(ref.n_basis - 2 * deg)
            assert np.max(np.abs(op.matrix[inter, :][:, inter] - ref.matrix[inter, :][:, inter])) <= 1e-8

    def test_sqrt_symbol_diagonal(self):
        n_basis = 32
        op = quantize_general(lambda X, XI: np.sqrt(1.0 + X**2 + XI**2), n_basis)
        assert op.hermitian_flag
        for n in range(n_basis // 4, n_basis // 2 + 1):
            got = op.matrix[n, n].real
            expect = math.sqrt(2.0 * n + 2.0)
            assert abs(got - expect) <= 0.05 * expect

    def test_complex_symbol_not_flagged_hermitian(self):
        op = quantize_general(lambda X, XI: X + 1j * XI, 12)
        assert not op.hermitian_flag

    def test_real_nonradial_symbol_hermitian(self):
        op = quantize_general(
            lambda X, XI: X**2 - XI**2 + 0.5 * X * XI + np.sqrt(1.0 + X**2 + XI**2), 20
        )
        assert op.hermitian_flag
        dev = np.max(np.abs(op.matrix - op.matrix.conj().T))
        assert dev <= 1e-9

    def test_small_window_warns(self):
        import warnings as _w

        from weylcalc.errors import AccuracyWarning

        grid = PolarGrid(n_r=64, n_theta=64, r_max=2.0)
        with pytest.warns(AccuracyWarning):
            quantize_general(lambda X, XI: np.ones_like(X), 16, grid=grid)

    def test_stacked_call_matches_separate_calls(self):
        fns = (
            lambda X, XI: np.sqrt(1.0 + X**2 + XI**2),
            lambda X, XI: X + 1j * XI,
            lambda X, XI: 2.5,
        )

        def stack(X, XI):
            return np.stack([np.broadcast_to(f(X, XI), X.shape) for f in fns])

        # called through a pass-through, as a tracing wrapper calls sigma_eval
        ops = quantize_general(lambda X, XI: stack(X, XI), 12)
        assert len(ops) == len(fns)
        for op, f in zip(ops, fns):
            alone = quantize_general(lambda X, XI: f(X, XI), 12)
            assert np.array_equal(op.matrix, alone.matrix)
            assert op.hermitian_flag == alone.hermitian_flag

    def test_stacked_call_warns_once(self):
        import warnings as _w

        from weylcalc.errors import AccuracyWarning

        grid = PolarGrid(n_r=64, n_theta=64, r_max=2.0)
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            ops = quantize_general(lambda X, XI: np.stack([X, XI, X * XI]), 16, grid=grid)
        assert len(ops) == 3
        assert sum(issubclass(w.category, AccuracyWarning) for w in caught) == 1


class TestMatrixFunction:
    def test_identity_function(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 16)
        M = matrix_function(H, lambda v: v)
        assert np.max(np.abs(M.matrix - H.matrix)) <= 1e-10

    def test_sqrt_of_diagonal(self):
        D = HermiteOperator.wrap(np.diag(2.0 * np.arange(12) + 1.0))
        M = matrix_function(D, lambda v: math.sqrt(v.real))
        expect = np.diag(np.sqrt(2.0 * np.arange(12) + 1.0))
        assert np.max(np.abs(M.matrix - expect)) <= 1e-12

    def test_exp_sqrt_of_diagonal(self):
        D = HermiteOperator.wrap(np.diag(2.0 * np.arange(12) + 1.0))
        M = matrix_function(D, lambda v: math.exp(-math.sqrt(v.real)))
        expect = np.diag(np.exp(-np.sqrt(2.0 * np.arange(12) + 1.0)))
        assert np.max(np.abs(M.matrix - expect)) <= 1e-12

    def test_multiplicative_composition(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("1 + x1^2 + xi1^2"), 16)
        g = matrix_function(H, lambda v: math.sqrt(v.real))
        h = matrix_function(H, lambda v: v.real ** 0.25)
        hh = h.matrix @ h.matrix
        assert np.max(np.abs(hh - g.matrix)) <= 1e-10

    def test_semigroup_property(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 24)
        e1 = matrix_function(H, lambda v: math.exp(-0.4 * math.sqrt(v.real)))
        e2 = matrix_function(H, lambda v: math.exp(-0.8 * math.sqrt(v.real)))
        e3 = matrix_function(H, lambda v: math.exp(-1.2 * math.sqrt(v.real)))
        assert np.max(np.abs(e1.matrix @ e2.matrix - e3.matrix)) <= 1e-10

    def test_requires_hermitian(self):
        op = HermiteOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), n_pad=2)
        with pytest.raises(InvalidInput):
            matrix_function(op, lambda v: v)


class TestBalakrishnan:
    def test_identity_operator(self):
        I = HermiteOperator.wrap(np.eye(10))
        M = balakrishnan_matrix(I, 0.5, 1)
        assert np.max(np.abs(M.matrix - np.eye(10))) <= 1e-9

    def test_diagonal_closed_form(self):
        D = HermiteOperator.wrap(np.diag([1.0, 4.0]))
        M = balakrishnan_matrix(D, 0.5, 1)
        assert np.max(np.abs(M.matrix - np.diag([1.0, 2.0]))) <= 1e-8

    def test_k_independence(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("1 + x1^2 + xi1^2"), 16)
        a = balakrishnan_matrix(H, 0.5, 1)
        b = balakrishnan_matrix(H, 0.5, 2)
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-8 * np.max(np.abs(a.matrix))

    def test_oscillator_vs_spectral(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 32)
        B = balakrishnan_matrix(H, 0.5, 1)
        S = matrix_function(H, lambda v: math.sqrt(v.real))
        rep = spectral_compare(S, B, (0, 27))
        assert rep.max_error <= 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    def test_default_scheme_oscillator_n64(self, k):
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 64)
        B = balakrishnan_matrix(H, 0.5, k)
        S = matrix_function(H, lambda v: math.sqrt(v.real))
        rep = spectral_compare(S, B, (0, 59))
        assert rep.max_error <= 1e-12

    def test_rejects_nonpositive(self):
        D = HermiteOperator.wrap(np.diag([1.0, -0.5]))
        with pytest.raises(NumericalFailure):
            balakrishnan_matrix(D, 0.5, 1)

    def test_one_solve_per_node(self, monkeypatch):
        solve = np.linalg.solve
        shifts = []

        def counted(a, b):
            # each solve is (A + lambda I) R = A: record its lambda
            shifts.append(float(np.mean(np.diag(a - b).real)))
            return solve(a, b)

        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 64)
        monkeypatch.setattr(np.linalg, "solve", counted)
        balakrishnan_matrix(H, 0.5, 1)
        # the trapezoid sized from the spectrum [1, 127]: step 2 pi^2 / 40
        # from ln 1 - 40 / 1.5 to past ln 127 + 40 / 1.5
        h = 2.0 * math.pi**2 / 40.0
        u1 = math.log(127.0) + 40.0 / 1.5
        assert len(shifts) == math.ceil((u1 + 40.0 / 1.5) / h) + 1
        assert len(shifts) < 201
        # lambda is recovered to about 1e-14 absolute, so check the spacing
        # where that is precise
        u = np.log(shifts)
        assert np.all(np.diff(shifts) > 0)
        assert np.max(np.abs(np.diff(u[u > 0]) - h)) <= 1e-9
        assert u1 <= u[-1] < u1 + h

    @staticmethod
    def _error_vs_spectral(z, k):
        reg = plain_reg()
        H = quantize_poly(reg.parse("1 + x1^2 + xi1^2"), 16)
        B = balakrishnan_matrix(H, z, k)
        S = matrix_function(H, lambda v: complex(v) ** z)
        return spectral_compare(S, B, (0, 15)).max_error

    @pytest.mark.parametrize("z", [0.05, 0.95, 0.05 + 0.5j, 0.5 + 1j, 0.5 + 2j])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_complex_powers_vs_spectral(self, z, extra):
        k = math.floor(complex(z).real) + 1 + extra
        assert self._error_vs_spectral(z, k) <= 1e-12

    def test_power_above_one(self):
        assert self._error_vs_spectral(2.5, 3) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_large_imaginary_part(self, k):
        # the sum cancels by about e^(pi |Im z|), so rounding grows that way
        assert self._error_vs_spectral(0.5 + 4j, k) <= 1e-9

    @pytest.mark.parametrize("z", [0.5, 0.5 + 1j])
    def test_complex_hermitian_operator(self, z):
        # x xi quantizes to a matrix with imaginary entries, so the solves
        # run in complex arithmetic
        reg = plain_reg()
        H = quantize_poly(reg.parse("1 + x1^2 + xi1^2 + 1/2*x1*xi1"), 32)
        assert H.hermitian_flag and np.any(H.matrix.imag)
        B = balakrishnan_matrix(H, z, 1)
        S = matrix_function(H, lambda v: complex(v) ** z)
        assert np.max(np.abs(B.matrix - S.matrix)) <= 1e-12


class TestSpectralCompare:
    def test_equal_operators(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 12)
        rep = spectral_compare(H, H, (0, 11))
        assert rep.max_error == 0.0
        assert rep.block_norm == 0.0

    def test_z1_parametrix_level(self):
        # quantizing the order-0 power series at z = 1 is the oscillator
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1^2 + xi1^2"), 24)
        G = quantize_general(lambda X, XI: X**2 + XI**2, 24)
        rep = spectral_compare(H, G, (0, 19))
        assert rep.max_error <= 1e-8

    def test_range_validation(self):
        reg = plain_reg()
        H = quantize_poly(reg.one(), 8)
        with pytest.raises(InvalidInput):
            spectral_compare(H, H, (0, 8))


class TestOperatorIO:
    def test_round_trip(self):
        reg = plain_reg()
        H = quantize_poly(reg.parse("x1 * xi1 + x1^2"), 10)
        blob = dump_operator(H)
        H2 = load_operator(blob)
        assert H2.n_basis == H.n_basis
        assert H2.n_pad == H.n_pad
        assert H2.hermitian_flag == H.hermitian_flag
        assert np.array_equal(H2.matrix, H.matrix)

    def test_truncated_header_rejected(self):
        blob = dump_operator(quantize_poly(plain_reg().one(), 4))
        with pytest.raises(InvalidInput):
            load_operator(blob[:12])

    def test_partial_payload_rejected(self):
        blob = dump_operator(quantize_poly(plain_reg().one(), 4))
        with pytest.raises(InvalidInput):
            load_operator(blob[:-3])
