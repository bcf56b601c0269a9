import math
from fractions import Fraction as F

import numpy as np
import pytest

from divisorlab import exp_sums as es
from divisorlab.errors import DomainError, ResourceError


def tensor_oracle(spec):
    """The 2**K corner enumeration one corner at a time: a running Fraction
    sum when a value is rational, a list of every corner for math.fsum
    otherwise."""
    vals = [spec.f(a * spec.nu0) for a in range(spec.k + 1)]
    exact = any(isinstance(v, F) for v in vals)
    total = F(0) if exact else 0.0
    parts = []
    for mask in range(1 << spec.k):
        ones = mask.bit_count()
        term = vals[ones] if (spec.k - ones) % 2 == 0 else -vals[ones]
        if exact:
            total += term
        else:
            parts.append(term)
    return total if exact else math.fsum(parts)


def _primes_from(start, count):
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


class TestExpSumExact:
    def test_empty_range(self, table_1e4):
        spec = es.ExpSumSpec(x=100.0, alpha=0.5, beta=0.1, a=50.0, b=50.0)
        assert es.exp_sum_exact(spec, table=table_1e4) == 0.0
        spec = es.ExpSumSpec(x=100.0, alpha=0.5, beta=0.1, a=50.0, b=20.0)
        assert es.exp_sum_exact(spec, table=table_1e4) == 0.0

    def test_sign_flip(self, table_1e4):
        base = es.ExpSumSpec(x=10**4, alpha=0.25, beta=0.4, a=1.0, b=10**3)
        flip = es.ExpSumSpec(x=10**4, alpha=0.25, beta=0.4 + math.pi, a=1.0, b=10**3)
        h0 = es.exp_sum_exact(base, table=table_1e4)
        h1 = es.exp_sum_exact(flip, table=table_1e4)
        n = np.arange(2, 10**3 + 1, dtype=np.float64)
        scale = float(np.sum(table_1e4.values[2 : 10**3 + 1] * n**-0.25))
        phase_max = 4 * math.pi * math.sqrt(base.x * base.b)
        assert abs(h0 + h1) <= 2.3e-16 * scale * phase_max

    def test_against_fsum_oracle(self, table_1e4):
        spec = es.ExpSumSpec(x=10**4, alpha=0.25, beta=0.0, a=1.0, b=10**3)
        h = es.exp_sum_exact(spec, table=table_1e4)
        n = np.arange(2, 10**3 + 1, dtype=np.float64)
        terms = (
            table_1e4.values[2 : 10**3 + 1]
            * n**-0.25
            * np.cos(4 * math.pi * math.sqrt(spec.x) * np.sqrt(n))
        )
        oracle = math.fsum(sorted(terms.tolist()))
        assert h == pytest.approx(oracle, rel=1e-9)

    def test_weighted(self, table_1e4):
        w = es.InverseSqrtSumWeight(10**4)
        spec = es.ExpSumSpec(
            x=10**4, alpha=0.25, beta=0.0, a=1.0, b=500.0,
            weight=w, weight_scale=w.scale(1.0),
        )
        got = es.exp_sum_exact(spec, table=table_1e4)
        direct = math.fsum(
            float(table_1e4.values[n])
            * n**-0.25
            * w(n)
            * math.cos(4 * math.pi * math.sqrt(spec.x * n))
            for n in range(2, 501)
        )
        assert got == pytest.approx(direct, rel=1e-12)

    def test_weight_satisfies_derivative_condition(self):
        # |f'| <= M / sqrt(X u) on [a, b+1] for the packaged weight
        x, a, b = 10**4, 1.0, 10**3
        w = es.InverseSqrtSumWeight(x)
        m = w.scale(a)
        for u in np.linspace(a, b + 1, 500):
            deriv = 1.0 / (2 * math.sqrt(u) * (math.sqrt(x) + math.sqrt(u)) ** 2)
            assert deriv <= m / math.sqrt(x * u) * (1 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            es.ExpSumSpec(x=100.0, alpha=0.0, beta=0.0, a=0.5, b=10.0)


class TestBoundRatio:
    def test_sweep_under_ceiling(self, table_1e6):
        rows = es.expsum_sweep(500, seed=3, table=table_1e6)
        assert max(r["ratio"] for r in rows) <= es.RATIO_CEILING

    def test_large_alpha_slice(self, table_1e6, rng):
        for _ in range(50):
            x = rng.uniform(100.0, 10**6)
            b = rng.uniform(10.0, x)
            spec = es.ExpSumSpec(x=x, alpha=3.0, beta=rng.uniform(0, 6.28), a=1.0, b=b)
            assert es.exp_sum_bound_ratio(spec, table=table_1e6) <= es.RATIO_CEILING

    def test_weighted_ratio(self, table_1e6, rng):
        for _ in range(50):
            spec = es.random_spec(rng, weighted=True)
            assert es.exp_sum_bound_ratio(spec, table=table_1e6) <= es.RATIO_CEILING


class TestDifferenceOperator:
    def test_first_difference(self):
        f = lambda t: t * t + 1.0
        spec = es.DifferenceSpec(k=1, nu0=0.5, f=f)
        assert es.difference_apply(spec) == pytest.approx(f(0.5) - f(0.0))

    def test_constant_annihilated(self):
        for k in (1, 3, 7):
            spec = es.DifferenceSpec(k=k, nu0=F(1, 3), f=lambda t: F(5))
            assert es.difference_apply(spec) == 0

    def test_polynomial_annihilation_exact(self):
        for k in (2, 4, 7, 11):
            nu0 = F(2, 9)
            for p in range(k):
                f = es.PolynomialFn(tuple([F(0)] * p + [F(1)]))
                assert es.difference_apply(es.DifferenceSpec(k=k, nu0=nu0, f=f)) == 0
            top = es.PolynomialFn(tuple([F(0)] * k + [F(1)]))
            got = es.difference_apply(es.DifferenceSpec(k=k, nu0=nu0, f=top))
            assert got == math.factorial(k) * nu0**k

    def test_binomial_equals_tensor(self):
        nu0 = F(1, 7)
        f = es.PolynomialFn((F(1), F(-2), F(1, 3), F(5)))
        for k in range(1, 21):
            spec = es.DifferenceSpec(k=k, nu0=nu0, f=f)
            assert es.difference_apply(spec) == es.difference_apply_tensor(spec)

    def test_tensor_matches_corner_loop(self, rng):
        # pairwise coprime denominators near 10^6 make the common
        # denominator of the corner values a large product
        primes = _primes_from(10**6, 40)
        for _ in range(30):
            k = int(rng.integers(1, 13))
            dens = rng.permutation(primes)
            coeffs = tuple(
                F(int(rng.integers(-10**9, 10**9)), int(d)) for d in dens[: int(rng.integers(1, k + 3))]
            )
            nu0 = F(int(rng.integers(1, 50)), int(dens[-1]))
            spec = es.DifferenceSpec(k=k, nu0=nu0, f=es.PolynomialFn(coeffs))
            got = es.difference_apply_tensor(spec)
            assert type(got) is F and got == tensor_oracle(spec)
        # int values at the whole-number points, Fractions between them
        mixed = es.DifferenceSpec(
            k=9, nu0=F(1, 2), f=lambda t: t.numerator if t.denominator == 1 else t**3
        )
        assert es.difference_apply_tensor(mixed) == tensor_oracle(mixed)
        ints = es.DifferenceSpec(k=9, nu0=3, f=lambda t: t * t * t)
        got = es.difference_apply_tensor(ints)
        assert type(got) is float and got == tensor_oracle(ints)

    def test_tensor_float_path_bits(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 13))
            nu0 = float(rng.uniform(0.01, 0.2))
            f = (
                es.SineFn(float(rng.uniform(0.5, 4.0)))
                if rng.uniform() < 0.5
                else es.ExpGrowthFn(float(rng.uniform(-2.0, 2.0)))
            )
            spec = es.DifferenceSpec(k=k, nu0=nu0, f=f)
            assert es.difference_apply_tensor(spec).hex() == tensor_oracle(spec).hex()

    def test_order_caps(self):
        spec = es.DifferenceSpec(k=61, nu0=0.1, f=lambda t: t)
        with pytest.raises(ResourceError):
            es.difference_apply(spec)
        spec = es.DifferenceSpec(k=21, nu0=0.1, f=lambda t: t)
        with pytest.raises(ResourceError):
            es.difference_apply_tensor(spec)
        with pytest.raises(DomainError):
            es.DifferenceSpec(k=0, nu0=0.1, f=lambda t: t)

    def test_linearity(self, rng):
        f, g = es.ExpGrowthFn(0.9), es.SineFn(2.1)
        for _ in range(25):
            k = int(rng.integers(1, 10))
            nu0 = rng.uniform(0.005, 0.1)
            c1, c2 = rng.uniform(-2, 2, size=2)
            combo = lambda t: c1 * f(t) + c2 * g(t)
            lhs = es.difference_apply(es.DifferenceSpec(k=k, nu0=nu0, f=combo))
            rhs = c1 * es.difference_apply(
                es.DifferenceSpec(k=k, nu0=nu0, f=f)
            ) + c2 * es.difference_apply(es.DifferenceSpec(k=k, nu0=nu0, f=g))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDecayCeiling:
    def test_exponential_example(self):
        rep = es.difference_decay_check(es.ExpGrowthFn(1.0), 5, 0.01, 1.0)
        assert rep.ratio <= 1.0
        # K-th derivative scale: nu0^K e^xi with xi in [0, 0.05]
        assert rep.value == pytest.approx(1e-10 * math.exp(0.025), rel=0.05)

    def test_sine_example(self):
        rep = es.difference_decay_check(es.SineFn(10.0), 8, 0.001, 0.05)
        assert rep.ratio <= 1.0

    def test_polynomial_below_order(self):
        f = es.PolynomialFn((1.0, 2.0, -0.5))
        rep = es.difference_decay_check(f, 5, 0.01, 1.0)
        assert abs(rep.value) <= rep.ceiling

    def test_domain(self):
        with pytest.raises(DomainError):
            es.difference_decay_check(es.ExpGrowthFn(1.0), 10, 0.2, 1.0)
        with pytest.raises(DomainError):
            es.difference_decay_check(es.ExpGrowthFn(1.0), 5, -0.1, 1.0)


class TestCotangent:
    def test_half_telescopes(self):
        lhs, rhs = es.cotangent_partial_fraction(0.5, 10**4)
        assert rhs == pytest.approx(-2.0, abs=1e-14)
        # symmetric truncation leaves exactly 1/(B + 1/2)
        assert lhs - rhs == pytest.approx(1.0 / (10**4 + 0.5), rel=1e-9)

    def test_third_tail_bound(self):
        lhs, rhs = es.cotangent_partial_fraction(1.0 / 3.0, 10**5)
        assert abs(lhs - rhs) <= 2.0 / 10**5 + 1e-8

    def test_slope(self):
        slope, _ = es.cotangent_slope(1.0 / 3.0, [10**2, 10**3, 10**4, 10**5])
        assert -1.2 <= slope <= -0.8

    def test_pole_isolated(self):
        for alpha in (1e-3, 1e-5):
            _, rhs = es.cotangent_partial_fraction(alpha, 10)
            assert abs(rhs) <= 1.0  # pi cot(pi a) - 1/a -> 0 as a -> 0

    def test_domain(self):
        with pytest.raises(DomainError):
            es.cotangent_partial_fraction(0.0, 100)
        with pytest.raises(DomainError):
            es.cotangent_partial_fraction(1.0, 100)
        with pytest.raises(DomainError):
            es.cotangent_partial_fraction(0.5, 0)
