import math
import warnings

import numpy as np
import pytest

from divisorlab import construction as con
from divisorlab.errors import DomainError, PrecisionError


def quiet_params(x, x2, c0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", con.ScaledRegimeWarning)
        return con.build_params(x, x2, c0)


class TestBuildParams:
    def test_landmark_point(self):
        # X2 = e^(e^2): L = e^2, eps0 = 1/2, V = sqrt(X2)
        x2 = math.exp(math.exp(2.0))
        p = con.build_params(x2, x2, 200.0)
        assert p.log_x2 == pytest.approx(math.exp(2.0), rel=1e-12)
        assert p.eps0 == pytest.approx(0.5, rel=1e-12)
        assert p.v_window == pytest.approx(math.sqrt(x2), rel=1e-10)

    def test_million_point(self):
        p = con.build_params(10**6, 10**6, 200.0)
        assert p.u == 10**6
        assert p.log_x2 == pytest.approx(6 * math.log(10), rel=1e-12)
        assert p.a_gauss == pytest.approx(7.4338e5, rel=1e-4)
        assert p.xi2 - p.xi1 == pytest.approx(1.25e-4, abs=0.0)
        assert p.k_diff == int(200 * p.log_x2 / math.log(p.log_x2))

    def test_scaled_regime_warns(self):
        with pytest.warns(con.ScaledRegimeWarning):
            con.build_params(10**6, 10**6, 20.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            con.build_params(2.0, 10.0, 200.0)
        with pytest.raises(DomainError):
            con.build_params(100.0, 50.0, 200.0)
        with pytest.raises(DomainError):
            con.build_params(10.0, 10.0, 200.0)  # log X2 <= e
        with pytest.raises(PrecisionError):
            con.build_params(2.0**51, 2.0**51, 200.0)


class TestWidthBound:
    def test_example(self):
        p = con.build_params(10**6, 10**6, 200.0)
        width = con.interval_width_check(p, 1000.0, 0.0)
        assert width == pytest.approx(0.25, abs=1e-4)
        assert width < 1.0 / 3.0

    def test_monotone_in_theta(self):
        p = con.build_params(10**6, 10**6, 200.0)
        widths = [con.interval_width_check(p, 1000.0, t) for t in (-1e-4, 0.0, 1e-4)]
        assert widths == sorted(widths)

    def test_extremes(self):
        for u in (10**4, 10**6, 10**8):
            p = con.build_params(float(u), float(u), 200.0)
            b = math.sqrt(u) + p.m0 / math.sqrt(u)
            for theta in (-p.theta_max, p.theta_max):
                assert con.interval_width_check(p, b, theta) < 1.0 / 3.0


class TestGapWitness:
    def test_origin_tuple(self):
        p = con.build_params(10**6, 10**6, 200.0)
        w = con.gap_witness(p, 0, 0, 0, p.m0 + 1, 0.0, p.xi1)
        assert w.frac == pytest.approx(0.125, abs=1e-8)
        assert w.frac > 0.125  # + xi1^2
        assert w.in_band
        w2 = con.gap_witness(p, 0, 0, 0, p.m0 + 1, 0.0, p.xi2)
        assert w2.frac == pytest.approx(0.375, abs=1e-7)
        assert w2.in_band

    def test_eta_bits_accepted(self):
        p = con.build_params(10**6, 10**6, 200.0)
        bits = np.zeros(p.k_diff, dtype=np.int8)
        bits[:3] = 1
        w_bits = con.gap_witness(p, 1, 2, bits, p.m0 + 1, 0.0, p.xi1)
        w_count = con.gap_witness(p, 1, 2, 3, p.m0 + 1, 0.0, p.xi1)
        assert w_bits.frac == w_count.frac

    def test_eta_shift_is_even_integer(self):
        # 2 sqrt(U) eta = 2 * count * k1 exactly, by construction
        p = con.build_params(10**6, 10**6, 200.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            choice, theta = con.sample_admissible(p, rng)
            shift = 2 * choice.eta_count * choice.k1
            assert shift % 2 == 0
            assert isinstance(shift, int)

    def test_sweeps_all_in_band(self):
        for u in (10**4, 10**6, 10**8):
            p = con.build_params(float(u), float(u), 200.0)
            sweep = con.admissible_sweep(p, 2000, seed=2)
            assert sweep["in_band_rate"] == 1.0
            assert sweep["zero_count_rate"] == 1.0
            assert sweep["violations"] == []

    def test_corner_tuples(self):
        p = con.build_params(10**6, 10**6, 200.0)
        for k, j in ((p.m0, 0), (0, 5), (p.m0, -5)):
            count = con.s_of_b_count(p, k, j, 0, p.m0 + 1, 0.0)
            assert count == 0

    def test_precision_guard(self):
        p = con.build_params(10**6, 10**6, 200.0)
        object.__setattr__(p, "u", 2**51)
        with pytest.raises(PrecisionError):
            con.gap_witness(p, 0, 0, 0, 1, 0.0, p.xi1)


class TestNegativeControl:
    def test_violation_found(self):
        p1 = quiet_params(10**6, 10**6, 1.0)
        v = con.find_violation(p1, seed=0)
        assert v is not None
        assert (not (con.BAND_LO < v["frac"] < con.BAND_HI)) or v["count"] != 0

    def test_admissible_sampling_refused(self):
        p1 = quiet_params(10**6, 10**6, 1.0)
        with pytest.raises(DomainError):
            con.sample_admissible(p1, np.random.default_rng(0))

    def test_construct_check_payload(self):
        out = con.construct_check(10**6, 200.0, 500, 9)
        assert out["in_band_rate"] == 1.0
        assert out["zero_count_rate"] == 1.0
        assert out["negative_control"] is not None


class TestLambdaEvaluator:
    def test_zero_coefficients(self):
        p = con.build_params(10**4, 10**4, 200.0)
        c1 = np.zeros(4 * p.k_diff)
        c2 = np.zeros(4 * p.k_diff + 2)
        assert con.lambda_evaluator(10**4, p, c1, c2, 10**3) == 0.0

    def test_single_term(self):
        p = con.build_params(10**4, 10**4, 200.0)
        c1 = np.zeros(4 * p.k_diff)
        c1[0] = 1.0
        c2 = np.zeros(4 * p.k_diff + 2)
        got = con.lambda_evaluator(10**4, p, c1, c2, 1)
        x = 10**4
        want = (
            x
            / (p.m0 + 1) ** 2
            * math.cos(4 * math.pi * (math.sqrt(x) + p.m0 / (2 * math.sqrt(x))) - 3 * math.pi / 4)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_linear_superposition(self, rng):
        p = con.build_params(10**4, 10**4, 200.0)
        n1, n2 = 4 * p.k_diff, 4 * p.k_diff + 2
        a1, a2 = rng.uniform(-1, 1, n1), rng.uniform(-1, 1, n2)
        b1, b2 = rng.uniform(-1, 1, n1), rng.uniform(-1, 1, n2)
        # keep only a few nonzero entries so the sums stay fast
        for arr in (a1, b1):
            arr[np.abs(arr) < 0.97] = 0.0
        for arr in (a2, b2):
            arr[np.abs(arr) < 0.97] = 0.0
        kw = dict(n_cut=200)
        lhs = con.lambda_evaluator(10**4, p, a1 + b1, a2 + b2, **kw)
        rhs = con.lambda_evaluator(10**4, p, a1, a2, **kw) + con.lambda_evaluator(
            10**4, p, b1, b2, **kw
        )
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_triangle_ceiling(self, rng):
        p = con.build_params(10**4, 10**4, 200.0)
        c1 = rng.uniform(-2, 2, 4 * p.k_diff)
        c2 = rng.uniform(-2, 2, 4 * p.k_diff + 2)
        c1[np.abs(c1) < 1.9] = 0.0
        c2[np.abs(c2) < 1.9] = 0.0
        val = con.lambda_evaluator(10**4, p, c1, c2, 300)
        ceiling = con.lambda_triangle_ceiling(p, c1, c2, 300)
        assert abs(val) <= ceiling

    def test_shape_validation(self):
        p = con.build_params(10**4, 10**4, 200.0)
        with pytest.raises(DomainError):
            con.lambda_evaluator(10**4, p, np.zeros(3), np.zeros(4 * p.k_diff + 2), 10)


class TestToyComposition:
    def test_zero(self):
        out = con.toy_omega()
        assert out["value"] == 0.0
        assert out["window_sums_checked"] > 10**4


class TestExponentScan:
    def test_bands(self):
        scan = con.delta_exponent_scan(10**6)
        assert 1.4 <= scan["mean_square_exponent"] <= 1.6
        assert 0.15 <= scan["max_abs_slope"] <= 0.40

    def test_sign_changes(self):
        scan = con.delta_exponent_scan(10**6)
        for block in scan["blocks"]:
            if block["t"] >= 6:
                assert block["sign_changes"] > 0

    def test_too_small(self):
        with pytest.raises(DomainError):
            con.delta_exponent_scan(10)  # three dyadic blocks only
        # exactly four blocks is the smallest legal scan
        out = con.delta_exponent_scan(16)
        assert len(out["blocks"]) == 4
