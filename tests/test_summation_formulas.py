import math

import numpy as np
import pytest

from divisorlab import divisor_core, special_functions, summation_formulas as smf, voronoi
from divisorlab.descriptors import ConstantFn, PowerFn
from divisorlab.divisor_core import EULER_GAMMA
from divisorlab.errors import DomainError


def phi_integral_oracle(n, x, h1, h2, weight=None):
    """One n of the companion-kernel series through the scalar
    ``oscillatory_integral``, one call per kernel order."""
    acc = 0.0
    omega = 4.0 * math.pi * math.sqrt(n)
    for alpha, beta in enumerate(voronoi.default_betas(smf.ALPHA0)):
        c = beta * n**-0.75 / (math.sqrt(2.0) * math.pi) / (4.0 * math.pi * math.sqrt(n)) ** alpha
        phase = -math.pi / 4.0 + alpha * math.pi / 2.0
        if weight is None:
            g = lambda u: u ** (0.5 - alpha)
        else:
            g = lambda u: np.asarray(weight(u - x)) * u ** (0.5 - alpha)
        acc += c * smf.oscillatory_integral(g, x + h1, x + h2, omega, phase)
    return acc


def kernel_series_oracle(spec, n_terms, table):
    """The smoothed Voronoi kernel series, one scalar ``oscillatory_integral``
    per n, kernel order and weight piece."""
    a, b, h0, f = spec.a, spec.b, spec.h0, spec.f
    gam = special_functions.derive_kernel_coefficients(smf.ALPHA0).as_floats()
    dn = table.values
    pieces = smf._overlap_weight_pieces(a, b, h0) if h0 > 0 else [(a, b, 0.0, 1.0)]
    scale = 1.0 / h0 if h0 > 0 else 1.0
    total = []
    for n in range(1, n_terms + 1):
        omega = 4.0 * math.pi * math.sqrt(n)
        acc = 0.0
        for alpha, g_alpha in enumerate(gam):
            c = (
                math.sqrt(2.0)
                * n ** (-0.25)
                * g_alpha
                * n ** (-alpha / 2.0)
                / (4.0 * math.pi) ** alpha
            )
            phase = math.pi / 4.0 + alpha * math.pi / 2.0
            for lo, hi, slope, inter in pieces:
                g = lambda u: (slope * u + inter) * 2.0 * u ** (0.5 - alpha) * np.asarray(f(u * u))
                acc += c * smf.oscillatory_integral(g, lo, hi, omega, phase)
        total.append(scale * dn[n] * acc)
    return math.fsum(total)


def delta_series_oracle(x, h1, h2, n_terms, weight=None):
    """The right-hand side of ``smoothed_delta_average`` (weight None, h1 = 0)
    or of ``weighted_delta_average``, summed one n at a time."""
    if weight is None:
        return math.fsum(
            divisor_core.divisor_count(n) * (phi_integral_oracle(n, x, h1, h2) / h2)
            for n in range(1, n_terms + 1)
        )
    return math.fsum(
        divisor_core.divisor_count(n) * phi_integral_oracle(n, x, h1, h2, weight)
        for n in range(1, n_terms + 1)
    )


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
        assert plain.rhs == delta_series_oracle(x, 0.0, h0, n_terms)
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


def _panel_range(lo, hi, n_terms):
    counts = [smf._panel_count(4.0 * math.pi * math.sqrt(n), lo, hi) for n in range(1, n_terms + 1)]
    return min(counts), max(counts)


@pytest.fixture()
def small_blocks(monkeypatch):
    """Blocks of 7 n and of 3 rows of 4 panels, so that a short series
    crosses many block boundaries of both kinds."""
    monkeypatch.setattr(smf, "_N_BLOCK", 7)
    monkeypatch.setattr(smf, "_NODE_BLOCK", 3 * 4 * 16)


class TestBatchedQuadrature:
    """The batched series against one scalar ``oscillatory_integral`` per
    term, with exact equality."""

    def test_smooth_integral_rows(self, rng):
        for panels in (1, 4, 9, 130):
            lo = float(rng.uniform(-3.0, 30.0))
            hi = lo + float(rng.uniform(0.01, 5.0))
            c = rng.uniform(-2.0, 2.0, size=(3, 2, 3))
            rows = lambda u: c[..., :1] + c[..., 1:2] * np.sin(u) + c[..., 2:] * u**2
            got = smf.smooth_integral(rows, lo, hi, panels)
            assert got.shape == (3, 2)
            for i, j in np.ndindex(3, 2):
                one = smf.smooth_integral(lambda u: rows(u)[i, j], lo, hi, panels)
                assert type(one) is float and got[i, j] == one

    def test_empty_interval(self):
        omegas = [1.0, 50.0, 400.0]
        got = smf._oscillatory_integrals(np.sqrt, 2.5, 2.5, omegas, 0.3)
        assert got.tolist() == [smf.oscillatory_integral(np.sqrt, 2.5, 2.5, w, 0.3) for w in omegas]

    @pytest.mark.parametrize("weight", [None, PowerFn(0.7, 1.3)], ids=["plain", "weighted"])
    def test_delta_series_matches_scalar_path(self, weight):
        x, h1, h2, n_terms = 20.3, 0.0, 1.5, 1200
        assert _panel_range(x + h1, x + h2, n_terms)[0] == 4
        assert _panel_range(x + h1, x + h2, n_terms)[1] > 100
        if weight is None:
            got = smf.smoothed_delta_average(x, h2, n_terms).rhs
        else:
            got = smf.weighted_delta_average(x, h1, h2, weight, n_terms).rhs
        assert got == delta_series_oracle(x, h1, h2, n_terms, weight)

    @pytest.mark.parametrize("h0", [0.0, 0.4])
    def test_kernel_series_matches_scalar_path(self, h0):
        spec = smf.AveragedSumSpec(a=10.1, b=13.2, h0=h0, f=PowerFn(-0.25))
        n_terms = 400
        assert _panel_range(spec.a, spec.b, n_terms)[1] > 100
        table = divisor_core.sieve_divisors(max(n_terms, smf._required_sieve_limit(spec)))
        assert smf._kernel_series(spec, n_terms, table) == kernel_series_oracle(spec, n_terms, table)

    def test_block_boundaries(self, small_blocks):
        x, h0, n_terms = 9.7, 0.8, 50
        assert _panel_range(x, x + h0, n_terms) == (4, 13)
        assert smf.smoothed_delta_average(x, h0, n_terms).rhs == delta_series_oracle(x, 0.0, h0, n_terms)
        w = ConstantFn(2.0)
        got = smf.weighted_delta_average(x, 0.0, h0, w, n_terms).rhs
        assert got == delta_series_oracle(x, 0.0, h0, n_terms, w)
        spec = smf.AveragedSumSpec(a=4.1, b=5.3, h0=0.2)
        table = divisor_core.sieve_divisors(n_terms)
        assert smf._kernel_series(spec, n_terms, table) == kernel_series_oracle(spec, n_terms, table)

    def test_misplaced_rows_are_caught(self, monkeypatch):
        # an off-by-one between a group's rows and its integrals hands each
        # n its neighbour's value; the exact comparison must see it
        real = smf._oscillatory_integrals
        monkeypatch.setattr(smf, "_oscillatory_integrals", lambda *args: np.roll(real(*args), 1))
        x, h0, n_terms = 9.7, 0.8, 50
        assert smf.smoothed_delta_average(x, h0, n_terms).rhs != delta_series_oracle(x, 0.0, h0, n_terms)


class TestWorkAndMemory:
    def test_series_make_no_scalar_integral_calls(self, monkeypatch):
        calls = {"oscillatory_integral": 0, "smooth_integral": 0}
        for name in calls:
            real = getattr(smf, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(smf, name, counted)
        smf.smoothed_delta_average(31.62, 0.01, 1000)
        # every n of 1..1000 has 4 panels: one row block per kernel order
        assert calls == {"oscillatory_integral": 0, "smooth_integral": 2}
        smf.weighted_delta_average(31.62, 0.0, 0.01, ConstantFn(1.0), 1000)
        smf.smoothed_voronoi_check(smf.AveragedSumSpec(a=30.1, b=31.4, h0=0.1, f=PowerFn(-0.25)), 1000)
        assert calls["oscillatory_integral"] == 0

    def test_memory_is_bounded_in_n_terms(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(smf, "_N_BLOCK", 256)
        monkeypatch.setattr(smf, "_NODE_BLOCK", 1 << 12)
        # narrow ranges keep every n at 4 panels, so a row's nodes do not
        # grow with n either; one table serves both sizes
        x, h0, n_terms = 31.62, 0.01, 1000
        spec = smf.AveragedSumSpec(a=30.1, b=30.11, h0=0.005)
        table = divisor_core.sieve_divisors(4 * n_terms)
        table.summatory()
        monkeypatch.setattr(smf.divisor_core, "sieve_divisors", lambda n, *args: table)
        peaks = []
        for n in (n_terms, 4 * n_terms):
            assert _panel_range(spec.a, spec.b + spec.h0, n) == (4, 4)
            tracemalloc.start()
            smf.smoothed_delta_average(x, h0, n)
            smf.weighted_delta_average(x, 0.0, h0, ConstantFn(1.0), n)
            smf._kernel_series(spec, n, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
