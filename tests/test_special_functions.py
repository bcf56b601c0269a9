import math
from fractions import Fraction as F

import numpy as np
import pytest

from divisorlab import special_functions as sf
from divisorlab.errors import DomainError


class TestStirlingTail:
    def test_first_coefficient(self):
        assert sf.stirling_v_coefficients(1).coefficients == {1: F(1, 12)}

    def test_order_three(self):
        assert sf.stirling_v_coefficients(3).coefficients == {1: F(1, 12), 3: F(-1, 360)}

    def test_order_seven(self):
        got = sf.stirling_v_coefficients(7).coefficients
        assert got == {1: F(1, 12), 3: F(-1, 360), 5: F(1, 1260), 7: F(-1, 1680)}

    def test_extends_past_seven(self):
        # c_9 = B_10 / (10 * 9) = (5/66) / 90 = 1/1188
        assert sf.stirling_v_coefficients(9).coefficient(9) == F(1, 1188)

    def test_bernoulli(self):
        b = sf.bernoulli_numbers(10)
        assert b[2] == F(1, 6) and b[4] == F(-1, 30) and b[10] == F(5, 66)
        assert b[3] == 0 and b[5] == 0


class TestExpArgumentSeries:
    def test_order_two(self):
        got = sf.mu2_series(2).coefficients
        assert got == {1: F(-1, 8), 2: F(-1, 16)}

    def test_order_four(self):
        assert sf.mu2_series(4).coefficient(4) == F(5, 128)

    def test_order_six(self):
        assert sf.mu2_series(6).coefficient(6) == F(-61, 768)

    def test_order_stability(self):
        low = sf.mu2_series(6)
        high = sf.mu2_series(12)
        for k in range(1, 7):
            assert low.coefficient(k) == high.coefficient(k)

    def test_leading_for_general_order(self):
        for lam in (2, 3, 4, 5, 7):
            assert sf.mu_lambda_series(4, lam).coefficient(1) == F(1 - lam * lam, 24)

    def test_leading_helper(self):
        assert sf.mu_lambda_leading(2) == F(-1, 8)
        assert sf.mu_lambda_leading(3) == F(-1, 3)
        with pytest.raises(DomainError):
            sf.mu_lambda_leading(1)


class TestKernelCoefficients:
    def test_order_one(self):
        assert sf.derive_kernel_coefficients(1).gamma == (F(1), F(-1, 8))

    def test_order_three(self):
        got = sf.derive_kernel_coefficients(3).gamma
        assert got == (F(1), F(-1, 8), F(9, 128), F(-75, 1024))

    def test_order_six(self):
        got = sf.derive_kernel_coefficients(6).gamma
        assert got[4] == F(3675, 2**15)
        assert got[5] == F(-59535, 2**18)
        assert got[6] == F(2401245, 2**22)

    def test_roundtrip_exact(self):
        coeffs = sf.derive_kernel_coefficients(8)
        recon = sf.kernel_basis_roundtrip(coeffs)
        expanded = sf.exp_series(sf.mu2_series(8))
        for k in range(0, 9):
            assert recon.get(k, F(0)) == expanded.get(k, F(0))


class TestLaurentSeries:
    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            sf.LaurentSeries({1: 0.5}, 2)


class TestChiFactor:
    def test_critical_line_modulus(self):
        assert abs(sf.chi_factor(0.5, 50.0)) == pytest.approx(1.0, abs=1e-8)

    def test_growth_ratio(self):
        ratio = abs(sf.chi_factor(1.1, 100.0)) / (100.0 / (2 * math.pi)) ** 0.6
        assert 0.99 <= ratio <= 1.01

    def test_negative_sigma_ceiling(self):
        # the asymptotic modulus is (t/2pi)^(sigma-1/2); a bare t^(-3/2)
        # ceiling misses the (2pi)^(3/2) factor and is unattainable
        mod = abs(sf.chi_factor(-1.0, 100.0))
        assert mod <= 1.1 * (100.0 / (2 * math.pi)) ** -1.5

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.chi_factor(0.5, 0.0)
        with pytest.raises(DomainError):
            sf.chi_factor(0.5, -3.0)

    def test_reflection_sweep(self, rng):
        for _ in range(100):
            sigma = rng.uniform(-2.0, 3.0)
            t = rng.uniform(10.0, 1000.0)
            prod = sf.inv_chi(complex(sigma, t)) * sf.inv_chi(complex(1 - sigma, -t))
            assert abs(prod - 1.0) <= 1e-8

    def test_no_overflow_large_t(self):
        val = sf.chi_factor(1.5, 5000.0)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestEulerGamma:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        assert sf.EULER_GAMMA == pytest.approx(float(mp.euler), abs=0.0)
