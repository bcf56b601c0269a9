import math

import numpy as np
import pytest

from divisorlab import divisor_core, summation_formulas as smf
from divisorlab.descriptors import ConstantFn, PowerFn
from divisorlab.divisor_core import EULER_GAMMA
from divisorlab.errors import DomainError


class TestFourierSum:
    def test_square_function(self):
        res = smf.fourier_sum(PowerFn(2.0), 0.5, 10.5, 50)
        assert res.exact == 385.0
        # M1 = 21, M2 = 2 on [0.5, 10.5]; generous constant 5
        assert abs(res.error) <= (21 + 10 * 2) / 50 * 5

    def test_error_rate_bounded(self):
        worst = 0.0
        for n in (10, 100, 1000):
            res = smf.fourier_sum(PowerFn(2.0), 0.5, 10.5, n)
            worst = max(worst, abs(res.error) * n)
        assert worst <= 0.5  # frozen regression constant

    def test_constant_on_half_integers(self):
        res = smf.fourier_sum(ConstantFn(1.0), 0.5, 3.5, 25)
        assert res.exact == 3.0
        for term in res.boundary:
            assert abs(term.value) <= 1e-12  # sigma0 vanishes at {X} = 1/2
        assert res.approx == pytest.approx(3.0, abs=1e-9)

    def test_integer_endpoint_exact_half(self):
        term = smf.sigma0(PowerFn(1.0), 10.0, 50)
        assert term.is_integer
        assert term.value == 5.0

    def test_non_integer_boundary_ceiling(self):
        f = PowerFn(1.0)
        for x_end in (2.25, 7.8, 3.01):
            for n in (50, 500):
                term = smf.sigma0(f, x_end, n)
                assert abs(term.value) <= term.ceiling * abs(f(x_end)) * 4.0

    def test_domain(self):
        with pytest.raises(DomainError):
            smf.fourier_sum(PowerFn(1.0), 3.0, 2.0, 10)


class TestSawtooth:
    def test_zero(self):
        assert smf.sawtooth_fejer(0.0, 100) == 0.0

    def test_half(self):
        assert smf.sawtooth_fejer(0.5, 10**4) == pytest.approx(0.125, abs=1e-4)

    def test_period(self):
        assert smf.sawtooth_fejer(1.0, 10**4) == pytest.approx(0.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            smf.sawtooth_fejer(0.3, 0)


class TestAveragedSum:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            smf.AveragedSumSpec(a=0.5, b=2.0, h0=0.1)
        with pytest.raises(DomainError):
            smf.AveragedSumSpec(a=3.0, b=2.0, h0=0.1)
        with pytest.raises(DomainError):
            smf.AveragedSumSpec(a=3.0, b=4.0, h0=2.0)

    def test_degenerate_width_is_plain_sum(self, table_1e4):
        plain = smf.averaged_divisor_sum(
            smf.AveragedSumSpec(a=3.1, b=5.2, h0=0.0), table=table_1e4
        )
        want = sum(
            divisor_core.divisor_count(n)
            for n in range(1, 28)
            if 3.1 < math.sqrt(n) <= 5.2
        )
        assert plain == want
        tiny = smf.averaged_divisor_sum(
            smf.AveragedSumSpec(a=3.1, b=5.2, h0=1e-12), table=table_1e4
        )
        assert tiny == pytest.approx(plain, abs=1e-9)

    def test_collapse_is_exact(self, table_1e4):
        spec = smf.AveragedSumSpec(a=3.1, b=5.2, h0=0.01)
        beta0, gap_a, gap_b, collapses = smf.collapse_threshold(spec)
        assert collapses
        avg = smf.averaged_divisor_sum(spec, table=table_1e4)
        plain = smf.averaged_divisor_sum(
            smf.AveragedSumSpec(a=spec.a, b=spec.b, h0=0.0), table=table_1e4
        )
        assert avg == plain  # zero tolerance

    def test_collapse_randomized(self, table_1e4, rng):
        found = 0
        while found < 25:
            a = rng.uniform(2.0, 20.0)
            b = a + rng.uniform(0.2, 3.0)
            h0 = rng.uniform(1e-4, 5e-3)
            spec = smf.AveragedSumSpec(a=a, b=b, h0=h0)
            beta0, gap_a, gap_b, collapses = smf.collapse_threshold(spec)
            if not collapses:
                continue
            found += 1
            avg = smf.averaged_divisor_sum(spec, table=table_1e4)
            plain = smf.averaged_divisor_sum(
                smf.AveragedSumSpec(a=a, b=b, h0=0.0), table=table_1e4
            )
            assert avg == plain

    def test_against_riemann_example(self, table_1e4):
        spec = smf.AveragedSumSpec(a=3.1, b=5.2, h0=0.05)
        exact = smf.averaged_divisor_sum(spec, table=table_1e4)
        oracle = smf.averaged_divisor_sum_riemann(spec, nodes=10**6)
        assert exact == pytest.approx(oracle, rel=1e-9)

    def test_against_riemann_sweep(self, rng):
        for _ in range(100):
            a = rng.uniform(2.0, 40.0)
            b = a + rng.uniform(0.3, 4.0)
            h0 = rng.uniform(0.0, min(0.4, a / 2 * 0.9))
            spec = smf.AveragedSumSpec(a=a, b=b, h0=h0)
            exact = smf.averaged_divisor_sum(spec)
            oracle, bound = smf.averaged_divisor_sum_riemann(
                spec, nodes=10**6, with_error_bound=True
            )
            assert abs(exact - oracle) <= bound + 1e-9 * max(1.0, abs(exact))



class TestSmoothedVoronoi:
    def test_zero_function(self):
        spec = smf.AveragedSumSpec(a=10.1, b=11.2, h0=0.05, f=ConstantFn(0.0))
        rep = smf.smoothed_voronoi_check(spec, 50)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_residual_decays(self):
        spec = smf.AveragedSumSpec(a=30.1, b=31.4, h0=0.1, f=PowerFn(-0.25))
        r10 = smf.smoothed_voronoi_check(spec, 10)
        r1k = smf.smoothed_voronoi_check(spec, 1000)
        assert abs(r1k.residual) < abs(r10.residual)

    def test_main_term_closed_form(self):
        from scipy.integrate import quad

        spec = smf.AveragedSumSpec(a=3.1, b=5.2, h0=0.05)
        got = smf.smoothed_main_term(spec)

        def anti(u):
            return u * math.log(u) + (2 * EULER_GAMMA - 1) * u

        closed = (
            quad(
                lambda h: anti((spec.b + h) ** 2) - anti((spec.a + h) ** 2),
                0.0,
                spec.h0,
                epsabs=1e-13,
            )[0]
            / spec.h0
        )
        assert got == pytest.approx(closed, abs=1e-10)


class TestSmoothedDeltaAverage:
    def test_degenerate_width(self, table_1e4):
        x = 7.3
        lhs = smf._delta_average_exact(x, 1e-9, table_1e4.summatory())
        assert lhs == pytest.approx(divisor_core.delta(x * x).delta, abs=1e-6)

    def test_decay(self):
        r10 = smf.smoothed_delta_average(31.62, 0.01, 10)
        r1k = smf.smoothed_delta_average(31.62, 0.01, 1000)
        assert abs(r1k.residual) < abs(r10.residual)

    def test_breakpoint_integration(self, table_1e4):
        # against a dense midpoint rule over h
        x, h0 = 9.93, 0.2
        cumsum = table_1e4.summatory()
        lhs = smf._delta_average_exact(x, h0, cumsum)
        hs = (np.arange(200000) + 0.5) * (h0 / 200000)
        vals = [divisor_core.delta_from_cumsum((x + h) ** 2, cumsum).delta for h in hs]
        assert lhs == pytest.approx(float(np.mean(vals)), abs=5e-4)

    def test_constant_weight_reduces(self):
        x, h0 = 31.62, 0.01
        w = smf.weighted_delta_average(x, 0.0, h0, ConstantFn(1.0), 150)
        plain = smf.smoothed_delta_average(x, h0, 150)
        assert w.lhs == pytest.approx(plain.lhs * h0, abs=1e-9)
        assert w.rhs == pytest.approx(plain.rhs * h0, abs=1e-12)

    def test_table_covers_n_terms(self):
        # (x + h)^2 ~ 1000 < n_terms: the sieve must reach n_terms too, and
        # the series must sum every one of the n_terms terms
        x, h0, n_terms = 31.62, 0.01, 1500
        plain = smf.smoothed_delta_average(x, h0, n_terms)
        want = math.fsum(
            divisor_core.divisor_count(n) * (smf._phi_integral(n, x, 0.0, h0) / h0)
            for n in range(1, n_terms + 1)
        )
        assert plain.rhs == want
        w = smf.weighted_delta_average(x, 0.0, h0, ConstantFn(1.0), n_terms)
        assert w.rhs == pytest.approx(plain.rhs * h0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            smf.smoothed_delta_average(0.5, 0.01, 10)
        with pytest.raises(DomainError):
            smf.smoothed_delta_average(5.0, 0.0, 10)


class TestDescriptors:
    def test_oscillatory_integral_against_quad(self):
        from scipy.integrate import quad

        want = quad(
            lambda u: math.sqrt(u) * math.cos(40.0 * u + 0.3), 1.0, 3.0, limit=400
        )[0]
        got = smf.oscillatory_integral(lambda u: np.sqrt(u), 1.0, 3.0, 40.0, 0.3)
        assert got == pytest.approx(want, abs=1e-12)
