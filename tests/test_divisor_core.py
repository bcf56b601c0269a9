import json
import math

import numpy as np
import pytest

from divisorlab import _kernels, divisor_core
from divisorlab.divisor_core import (
    EULER_GAMMA,
    delta,
    delta_scan,
    divisor_count,
    divisor_count_lambda,
    points_to_csv,
    points_to_json,
    sieve_divisors,
    summatory_hyperbola,
)
from divisorlab.errors import DomainError, ResourceError


def oracle_divisors(n):
    """Full-range enumeration, independent of the sqrt-bounded routine."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def oracle_dlambda(n, lam):
    if lam == 1:
        return 1
    total = 0
    d = 1
    while d <= n:
        if n % d == 0:
            total += oracle_dlambda(n // d, lam - 1)
        d += 1
    return total


class TestDivisorCount:
    def test_examples(self):
        assert divisor_count(1) == 1
        assert divisor_count(1024) == 11  # d(2^10) = 11
        assert divisor_count(12) == oracle_divisors(12) == 6

    def test_against_enumeration(self):
        for n in range(1, 400):
            assert divisor_count(n) == oracle_divisors(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            divisor_count(0)


class TestDivisorCountLambda:
    def test_examples(self):
        assert divisor_count_lambda(1, 5) == 1
        assert divisor_count_lambda(6, 2) == divisor_count(6) == 4
        # brute force: ordered triples with product 4
        triples = sum(
            1
            for a in range(1, 5)
            for b in range(1, 5)
            for c in range(1, 5)
            if a * b * c == 4
        )
        assert divisor_count_lambda(4, 3) == triples == 6

    def test_against_recursion(self, rng):
        for n in rng.integers(1, 300, size=40):
            for lam in (2, 3, 4):
                assert divisor_count_lambda(int(n), lam) == oracle_dlambda(int(n), lam)

    def test_domain(self):
        with pytest.raises(DomainError):
            divisor_count_lambda(6, 1)
        with pytest.raises(DomainError):
            divisor_count_lambda(0, 2)


class TestSieve:
    def test_small_table(self):
        table = sieve_divisors(10, 2)
        assert table.values[1:].tolist() == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]

    def test_domain(self):
        for n, lam in ((0, 2), (10, 1), (10, 3)):
            with pytest.raises(DomainError):
                sieve_divisors(n, lam)

    def test_oracle_equivalence_to_1e4(self):
        table = sieve_divisors(10**4)
        for n in range(1, 10**4 + 1):
            assert table.values[n] == divisor_count_lambda(n, 2)

    def test_trial_division_kernel_agrees(self):
        got = _kernels.divisor_sieve(2000)
        want = [0] + [divisor_count(n) for n in range(1, 2001)]
        assert got.tolist() == want

    def test_budget(self):
        with pytest.raises(ResourceError):
            sieve_divisors(10**6, 2, budget=10**3)

    def test_invariants(self, table_1e6, rng):
        values = table_1e6.values
        assert values[1] == 1
        for p in (2, 3, 5, 7, 997, 999983):
            assert values[p] == 2
        assert values[1:].min() >= 1
        # multiplicativity on random coprime pairs
        found = 0
        while found < 1000:
            m = int(rng.integers(2, 1000))
            n = int(rng.integers(2, 1000))
            if m * n <= 10**6 and math.gcd(m, n) == 1:
                assert values[m * n] == values[m] * values[n]
                found += 1


class TestSummatory:
    def test_examples(self):
        assert summatory_hyperbola(1) == 1
        assert summatory_hyperbola(10) == sum(oracle_divisors(n) for n in range(1, 11)) == 27
        assert summatory_hyperbola(100) == sum(oracle_divisors(n) for n in range(1, 101)) == 482

    def test_vs_sieve_random(self, table_1e6, rng):
        cumsum = table_1e6.summatory()
        for x in rng.integers(1, 10**6 + 1, size=1000):
            assert summatory_hyperbola(int(x)) == int(cumsum[int(x)])

    def test_million_cross_check(self, table_1e6):
        # two independent methods and a frozen value
        assert summatory_hyperbola(10**6) == int(table_1e6.summatory()[10**6]) == 13970034

    def test_domain(self):
        for x in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                summatory_hyperbola(x)
            with pytest.raises(DomainError):
                delta(x)

    def test_table_summatory_cached(self, table_1e4):
        first = table_1e4.summatory()
        assert table_1e4.summatory() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[1] = 0
        assert first[0] == 0
        assert np.array_equal(first[1:], np.cumsum(table_1e4.values[1:]))

    @pytest.mark.parametrize("exponent", [0, -0.75, -1.25])
    def test_series_columns_against_per_n_oracle(self, table_1e4, exponent):
        for lo, hi in ((1, 300), (4321, 4500), (70, 69)):
            w, sqrtn = table_1e4.series_columns(lo, hi, exponent)
            assert w.dtype == sqrtn.dtype == np.float64
            assert len(w) == len(sqrtn) == max(0, hi - lo + 1)
            for i, n in enumerate(range(lo, hi + 1)):
                want = divisor_count(n) * float(n) ** exponent
                assert abs(w[i] - want) <= 2 * math.ulp(want)
                assert sqrtn[i] == math.sqrt(n)

    def test_pinned_trillion(self):
        assert summatory_hyperbola(10**12) == 27785452449086
        assert _kernels.hyperbola_dsum(10**12) == 27785452449086


def dsum_quotient_blocks(u):
    """D(U) = sum_{n<=U} floor(U/n), one term per run of equal quotients."""
    total, n = 0, 1
    while n <= u:
        q = u // n
        last = u // q
        total += q * (last - n + 1)
        n = last + 1
    return total


def dsum_scalar_loop(u):
    """D(U) = 2 sum_{i<=sqrt U} floor(U/i) - isqrt(U)^2, one Python term per i."""
    s = math.isqrt(u)
    return 2 * sum(u // i for i in range(1, s + 1)) - s * s


def kahan_cos_partials(w, sqrtn, c, phi, stops):
    """Kahan-compensated running sum of w[i] cos(c sqrtn[i] + phi), read
    after each of ``stops`` terms, one Python term at a time."""
    out, total, comp, k = [], 0.0, 0.0, 0
    for i in range(stops[-1]):
        y = float(w[i]) * math.cos(c * float(sqrtn[i]) + phi) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        while k < len(stops) and stops[k] == i + 1:
            out.append(total)
            k += 1
    return out


class TestBlockedHyperbola:
    @pytest.mark.parametrize(
        "s", [1, 2, 7, _kernels.BLOCK - 1, _kernels.BLOCK, _kernels.BLOCK + 1, 2 * _kernels.BLOCK]
    )
    def test_block_edges(self, s):
        # isqrt(u) == s for each u, from the perfect square s*s up to (s+1)**2 - 1
        for u in (s * s, s * s + 1, s * s + s, (s + 1) * (s + 1) - 1):
            got = _kernels.hyperbola_dsum(u)
            assert got == dsum_scalar_loop(u)
            assert got == dsum_quotient_blocks(u)

    def test_limit_keeps_int64_partial_sums(self):
        limit = _kernels.HYPERBOLA_MAX_U
        assert limit * (1 + math.log(_kernels.BLOCK)) < 2**63

    def test_budget_raises_before_work(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"kernel used np.{name} above the budget")

        monkeypatch.setattr(_kernels, "np", NoNumpy())
        with pytest.raises(ResourceError):
            _kernels.hyperbola_dsum(_kernels.HYPERBOLA_MAX_U + 1)
        with pytest.raises(ResourceError):
            summatory_hyperbola(1e30)
        with pytest.raises(ResourceError):
            delta(1e30)


class TestDivisorBound:
    def test_normalized_maximal_order_ceiling(self):
        # classical sharp constant 1.5379 * log 2 (attained near 7e9, so a
        # strict ceiling everywhere below 1e7)
        values = _kernels.divisor_sieve(10**7)
        n = np.arange(3, 10**7 + 1, dtype=np.float64)
        ratio = np.log(values[3:].astype(np.float64)) * np.log(np.log(n)) / np.log(n)
        assert float(ratio.max()) <= 1.5379 * math.log(2)
        # frozen regression value of the max itself
        assert float(ratio.max()) == pytest.approx(1.0618358059096094, rel=1e-9)


class TestDelta:
    def test_point_one(self):
        p = delta(1)
        assert p.d_sum == 1
        assert p.delta == pytest.approx(2 - 2 * EULER_GAMMA, abs=1e-14)
        assert p.delta == pytest.approx(0.84557, abs=5e-6)

    def test_point_ten(self):
        p = delta(10)
        assert p.d_sum == 27
        expect = 27 - 10 * math.log(10) - (2 * EULER_GAMMA - 1) * 10
        assert p.delta == pytest.approx(expect, abs=1e-12)
        assert p.delta == pytest.approx(2.42984, abs=5e-6)

    def test_step_function(self):
        assert delta(10.5).d_sum == 27
        expect = 27 - 10.5 * math.log(10.5) - (2 * EULER_GAMMA - 1) * 10.5
        assert delta(10.5).delta == pytest.approx(expect, abs=1e-12)

    def test_sanity_bound(self, table_1e4):
        cumsum = table_1e4.summatory()
        for x in range(1, 10**4 + 1):
            p = divisor_core.delta_from_cumsum(x, cumsum)
            assert abs(p.delta) < x


class TestDeltaScan:
    def test_examples(self):
        pts = delta_scan(1, 3, 1)
        assert [p.d_sum for p in pts] == [1, 3, 5]
        single = delta_scan(10, 10, 1)
        assert len(single) == 1 and single[0].d_sum == 27

    def test_monotone(self):
        pts = delta_scan(1, 500, 1)
        sums = [p.d_sum for p in pts]
        assert sums == sorted(sums)

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            delta_scan(5, 4, 1)
        with pytest.raises(DomainError):
            delta_scan(0.5, 4, 1)
        with pytest.raises(DomainError):
            delta_scan(1, 4, 0)
        for bad in ((1, math.inf, 1), (1, 4, math.nan), (1, 4, math.inf), (math.nan, 4, 1)):
            with pytest.raises(DomainError):
                delta_scan(*bad)

    def test_point_count_bounded_before_work(self, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("sieved above the point cap")

        monkeypatch.setattr(divisor_core, "sieve_divisors", no_sieve)
        with pytest.raises(ResourceError):
            delta_scan(1, divisor_core.MAX_SCAN_POINTS + 1, 1)

    def test_jumps_only_at_integers(self):
        pts = delta_scan(2.5, 40.5, 0.5)
        for prev, cur in zip(pts[:-1], pts[1:]):
            jump = cur.d_sum - prev.d_sum
            if math.floor(cur.x) == math.floor(prev.x):
                assert jump == 0
            else:
                assert jump == divisor_count(int(math.floor(cur.x)))

    def test_dyadic_mean_square_band(self, table_1e6):
        cumsum = table_1e6.summatory()
        xs = 2 ** np.arange(0, 20)
        xs = xs[xs <= 10**6]
        vals = [divisor_core.delta_from_cumsum(int(x), cumsum).delta for x in xs]
        mean = np.mean([v * v / math.sqrt(x) for v, x in zip(vals, xs)])
        assert mean <= 10.0


class TestOutput:
    def test_csv_shape(self):
        text = points_to_csv(delta_scan(1, 3, 1))
        lines = text.strip().split("\n")
        assert lines[0] == "x,d_sum,delta"
        assert lines[1].startswith("1.0,1,")
        # 15 significant digits on the error column
        assert len(lines[1].split(",")[2].replace("-", "").replace(".", "").lstrip("0")) <= 15

    def test_json_fields(self):
        recs = json.loads(points_to_json(delta_scan(1, 3, 1)))
        assert [r["d_sum"] for r in recs] == [1, 3, 5]
        assert set(recs[0]) == {"x", "d_sum", "delta"}


class TestBackends:
    def test_kernel_equivalence(self, rng):
        # blocked pairwise sums + fsum against a scalar Kahan loop
        w = rng.uniform(-1, 1, size=50000)
        sq = np.sqrt(np.arange(1, 50001, dtype=np.float64))
        stops = [10, 1000, 50000]
        want = kahan_cos_partials(w, sq, 123.456, 0.7, stops)
        assert _kernels.cos_sum(w, sq, 123.456, 0.7) == pytest.approx(want[-1], abs=1e-10)
        got = _kernels.cos_sum_checkpoints(w, sq, 123.456, 0.7, np.array(stops))
        assert np.allclose(got, want, atol=1e-10)

    def test_phase_reduction_path(self):
        # nx beyond 1e10 triggers extended-precision reduction; compare a
        # tiny case against mpmath-grade direct evaluation
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        w = np.ones(4)
        sq = np.sqrt(np.array([1.0, 2.0, 3.0, 4.0]))
        c = 4.0 * math.pi * math.sqrt(1.1e10)
        got = _kernels.cos_sum(w, sq, c, 0.0)
        want = float(sum(mp.cos(mp.mpf(c) * mp.mpf(float(s))) for s in sq))
        assert got == pytest.approx(want, abs=5e-11)
