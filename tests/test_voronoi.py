import math

import numpy as np
import pytest

from divisorlab import divisor_core, voronoi
from divisorlab.errors import DomainError, PrecisionError


class TestThetaKernel:
    def test_quarter_pi_point(self):
        # nx = 1/16: phase 4 pi sqrt(nx) = pi, cos(5 pi/4) = -sqrt(2)/2
        assert voronoi.theta_kernel(1, 1.0 / 16, 0) == pytest.approx(-2.0, abs=1e-12)

    def test_order_gap_bounded(self):
        nx = 100.0
        a0 = voronoi.theta_kernel(1, nx, 0)
        a2 = voronoi.theta_kernel(1, nx, 2)
        g = [abs(float(x)) for x in voronoi._gamma_floats(2)]
        bound = math.sqrt(2) * nx**-0.75 * (
            g[1] / (4 * math.pi * math.sqrt(nx) / math.sqrt(nx) * 10)
            + g[2] / (16 * math.pi**2 * 100)
        )
        # direct term-size computation: alpha=1,2 tail terms
        bound = math.sqrt(2) * nx**-0.25 * (
            g[1] * nx**-0.5 / (4 * math.pi) + g[2] * nx**-1.0 / (4 * math.pi) ** 2
        )
        assert abs(a0 - a2) <= bound * (1 + 1e-12)

    def test_two_term_closed_form(self):
        # order 1 equals the explicit two-phase form with -1/(32 pi) weight
        nx = 50.0
        root = math.sqrt(nx)
        closed = math.sqrt(2) * nx**-0.25 * (
            math.cos(4 * math.pi * root + math.pi / 4)
            - math.cos(4 * math.pi * root + 3 * math.pi / 4) / (32 * math.pi * root)
        )
        assert voronoi.theta_kernel(1, nx, 1) == pytest.approx(closed, abs=1e-12)

    def test_telescoping(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 100))
            x = rng.uniform(0.5, 300.0)
            k = int(rng.integers(0, 5))
            gam = voronoi._gamma_floats(k + 1)
            nx = n * x
            term = (
                math.sqrt(2)
                * nx**-0.25
                * gam[k + 1]
                * nx ** (-(k + 1) / 2)
                * (4 * math.pi) ** -(k + 1)
                * math.cos(4 * math.pi * math.sqrt(nx) + math.pi / 4 + (k + 1) * math.pi / 2)
            )
            diff = voronoi.theta_kernel(n, x, k + 1) - voronoi.theta_kernel(n, x, k)
            # the added term can sit below the float floor of the two
            # accumulated kernels, so tolerance follows the kernel scale
            ulp_floor = 1e-13 * math.sqrt(2) * nx**-0.25
            assert diff == pytest.approx(term, rel=1e-9, abs=ulp_floor)


class TestLambdaKernel:
    def test_reduces_to_base(self, rng):
        coeffs = voronoi.lambda_kernel_coefficients(4, 2)
        for _ in range(1000):
            n = int(rng.integers(1, 200))
            x = rng.uniform(0.5, 1000.0)
            a = voronoi.theta_kernel(n, x, 4)
            b = voronoi.theta_kernel_lambda(n, x, 2, 4, coeffs=coeffs)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_quarter_point_matches_base(self):
        assert voronoi.theta_kernel_lambda(1, 1.0 / 16, 2, 0) == pytest.approx(-2.0, abs=1e-12)

    def test_cubic_zero(self):
        # lam=3, nx=1: phase 6 pi + pi/2 has vanishing cosine
        assert voronoi.theta_kernel_lambda(1, 1.0, 3, 0) == pytest.approx(0.0, abs=1e-12)

    def test_missing_coefficients(self):
        with pytest.raises(PrecisionError):
            voronoi.theta_kernel_lambda(1, 2.0, 3, 2)

    def test_derived_lambda_table_leading(self):
        got = voronoi.lambda_kernel_coefficients(1, 3)
        assert got[0] == 1.0
        assert got[1] == pytest.approx((1 - 9) / 24)


class TestPhiKernel:
    def test_phase_cancellation_point(self):
        # 4 pi sqrt(x) = pi/4  =>  x = 1/256; leading term is x^(1/4)/(sqrt 2 pi)
        x = 1.0 / 256
        want = x**0.25 / (math.sqrt(2) * math.pi)
        assert voronoi.phi_kernel(1, x, 0) == pytest.approx(want, abs=1e-15)

    def test_correction_magnitude(self):
        # beta_1 / (4 pi sqrt(nx)) at nx = 100 is ~2.98e-3 of the leading term
        ratio = (3.0 / 8.0) / (4 * math.pi * 10.0)
        assert ratio == pytest.approx(2.98e-3, rel=2e-3)

    def test_two_term_form(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            x = rng.uniform(1.0, 400.0)
            nx = n * x
            root = math.sqrt(nx)
            closed = x**0.25 * n**-0.75 / (math.sqrt(2) * math.pi) * (
                math.cos(4 * math.pi * root - math.pi / 4)
                + 3.0 / (8 * 4 * math.pi) * nx**-0.5 * math.cos(4 * math.pi * root + math.pi / 4)
            )
            assert voronoi.phi_kernel(n, x, 1) == pytest.approx(closed, rel=1e-12, abs=1e-15)

    def test_higher_order_needs_betas(self):
        with pytest.raises(PrecisionError):
            voronoi.phi_kernel(1, 2.0, 2)
        assert voronoi.phi_kernel(1, 2.0, 2, betas=(1.0, 0.375, 0.1)) == pytest.approx(
            voronoi.phi_kernel(1, 2.0, 1)
            + 0.1
            * 2**0.25
            / (math.sqrt(2) * math.pi)
            * math.cos(4 * math.pi * math.sqrt(2.0) + 3 * math.pi / 4)
            / (4 * math.pi * math.sqrt(2.0)) ** 2,
            rel=1e-12,
        )


class TestTruncatedSeries:
    def test_single_term(self):
        res = voronoi.truncated_delta(10.5, 1)
        want = 10.5**0.25 / (math.pi * math.sqrt(2)) * math.cos(
            4 * math.pi * math.sqrt(10.5) - math.pi / 4
        )
        assert res.approx == pytest.approx(want, abs=1e-14)
        assert res.exact == pytest.approx(divisor_core.delta(10.5).delta, abs=0.0)
        assert res.residual == res.approx - res.exact

    def test_integer_point_rejected(self):
        with pytest.raises(DomainError, match="1/2"):
            voronoi.truncated_delta(100.0, 10)

    def test_small_x_sanity(self):
        assert abs(voronoi.truncated_delta(1.5, 100).residual) <= 5.0

    def test_bound_scale(self):
        res = voronoi.truncated_delta(10.5, 4)
        assert res.bound_scale == pytest.approx(10.5**0.55 / 2 + 10.5**0.05)


class TestPhiSeries:
    def test_regrouping_identity(self, table_1e4):
        x, n = 100.5, 500
        combined = voronoi.phi_series_delta(x, n)
        base = voronoi.truncated_delta(x, n)
        corr = voronoi.phi_correction_series(x, n)
        assert combined.approx == pytest.approx(base.approx + corr, abs=1e-12)
        # the same series through the companion kernel, term by term
        direct = math.fsum(
            float(table_1e4.values[k]) * voronoi.phi_kernel(k, x, 1) for k in range(1, n + 1)
        )
        assert combined.approx == pytest.approx(direct, abs=1e-9)

    def test_correction_ceiling(self, table_1e4):
        x, n = 100.5, 1000
        corr = voronoi.phi_correction_series(x, n)
        ns = np.arange(1, n + 1, dtype=np.float64)
        ceiling = (
            3.0
            / (32 * math.pi)
            * float(np.sum(table_1e4.values[1 : n + 1] * ns**-1.25))
            * x**-0.25
        )
        assert abs(corr) <= ceiling

    def test_triangle_inequality(self, table_1e4):
        x, n = 100.5, 1000
        combined = voronoi.phi_series_delta(x, n)
        base = voronoi.truncated_delta(x, n)
        ns = np.arange(1, n + 1, dtype=np.float64)
        ceiling = (
            3.0
            / (32 * math.pi)
            * float(np.sum(table_1e4.values[1 : n + 1] * ns**-1.25))
            * x**-0.25
        )
        assert abs(combined.residual) <= abs(base.residual) + ceiling


class TestConvergence:
    def test_low_decade_smoke(self):
        rep = voronoi.convergence_report(20, 0)
        med = rep["pooled_medians"]
        assert med[1000] < med[10]
        assert rep["pooled_slope"] < 0

    def test_residual_ceiling(self):
        rep = voronoi.convergence_report(10, 1)
        for data in rep["decades"].values():
            assert data["max_bound_ratio"] <= voronoi.RESIDUAL_CEILING
