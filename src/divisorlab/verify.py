"""Named verification suites behind the ``verify`` CLI verb.

Each check is a dict {name, tag, residual, threshold, passed, details}:
``tag`` is a stable formula label for traceability, ``residual`` the
measured quantity, ``threshold`` the tolerance it must stay under (0.0
for exact integer/rational checks).  Reports are deterministic for a
fixed (config, seed): no timestamps, sorted keys, repr floats.
"""

import math
from fractions import Fraction

import numpy as np

from . import (
    construction,
    descriptors,
    divisor_core,
    exp_sums,
    special_functions,
    summation_formulas,
    theta_transform,
    voronoi,
)
from .errors import DomainError, require_count, require_seed

#: frozen regression constants (measured on first run, guarded since)
LEMMA33_ERROR_TIMES_N = 0.5
CHI_CRITICAL_TOL = 1e-8
CHI_REFLECTION_TOL = 1e-8
THETA_TOL_SCALE = 1e-10
VORONOI_SLOPE_BAND = (-0.75, -0.25)
VORONOI_RATIO_CEILING = 50.0
EXPSUM_RATIO_CEILING = 100.0
COTANGENT_SLOPE_BAND = (-1.2, -0.8)
MEAN_SQUARE_BAND = (1.4, 1.6)
MAX_ABS_SLOPE_BAND = (0.15, 0.40)


def _check(name, tag, residual, threshold, passed=None, **details):
    if passed is None:
        passed = residual <= threshold
    return {
        "name": name,
        "tag": tag,
        "residual": float(residual),
        "threshold": float(threshold),
        "passed": bool(passed),
        "details": details,
    }


#: every threshold a config may override, by check name, with its default
TOLERANCES = {
    "chi-critical-line-modulus": CHI_CRITICAL_TOL,
    "chi-reflection": CHI_REFLECTION_TOL,
    "theta-identity": THETA_TOL_SCALE,
    "series-residual-ceiling": VORONOI_RATIO_CEILING,
    "kernel-order-reduction": 1e-12,
    "fourier-dual-error-rate": LEMMA33_ERROR_TIMES_N,
    "main-term-quadrature": 1e-10,
    "event-driven-vs-riemann": 1e-9,
    "constant-weight-reduction": 1e-9,
    "order-shuffled-resummation": 1e-9,
    "bound-ratio-sweep": EXPSUM_RATIO_CEILING,
    "difference-linearity": 1e-12,
}


def _tol(config, name):
    if config is not None and name in config.tolerances:
        return float(config.tolerances[name])
    return TOLERANCES[name]


# ------------------------------------------------------------- coeffs

_GAMMA_TABLE = (
    Fraction(1),
    Fraction(-1, 8),
    Fraction(9, 128),
    Fraction(-75, 1024),
    Fraction(3675, 2**15),
    Fraction(-59535, 2**18),
    Fraction(2401245, 2**22),
)

_STIRLING_TABLE = {
    1: Fraction(1, 12),
    3: Fraction(-1, 360),
    5: Fraction(1, 1260),
    7: Fraction(-1, 1680),
}


def suite_coeffs(config=None, count=100, seed=0):
    checks = []
    got = special_functions.derive_kernel_coefficients(6).gamma
    checks.append(
        _check(
            "kernel-coefficient-table",
            "gamma_0..gamma_6 = 1, -1/8, 9/128, -75/1024, 3675/2^15, -59535/2^18, 2401245/2^22",
            0.0 if got == _GAMMA_TABLE else 1.0,
            0.0,
            derived=[str(g) for g in got],
        )
    )
    v7 = special_functions.stirling_v_coefficients(7)
    checks.append(
        _check(
            "stirling-tail-table",
            "log-Gamma tail c_1, c_3, c_5, c_7 = 1/12, -1/360, 1/1260, -1/1680",
            0.0 if v7.coefficients == _STIRLING_TABLE else 1.0,
            0.0,
            derived={k: str(c) for k, c in sorted(v7.coefficients.items())},
        )
    )
    mu = special_functions.mu2_series(6)
    expect_mu = {
        1: Fraction(-1, 8), 2: Fraction(-1, 16), 3: Fraction(1, 192),
        4: Fraction(5, 128), 5: Fraction(-1, 640), 6: Fraction(-61, 768),
    }
    checks.append(
        _check(
            "exp-argument-series",
            "mu(s) = -1/(8s) - 1/(16 s^2) + 1/(192 s^3) + 5/(128 s^4) - 1/(640 s^5) - 61/(768 s^6)",
            0.0 if mu.coefficients == expect_mu else 1.0,
            0.0,
        )
    )
    stable = all(
        special_functions.mu2_series(12).coefficient(k) == mu.coefficient(k)
        for k in range(1, 7)
    )
    checks.append(
        _check(
            "series-order-stability",
            "doubling the working order never changes earlier coefficients",
            0.0 if stable else 1.0,
            0.0,
        )
    )
    coeffs = special_functions.derive_kernel_coefficients(6)
    recon = special_functions.kernel_basis_roundtrip(coeffs)
    expanded = special_functions.exp_series(special_functions.mu2_series(6))
    roundtrip_ok = all(
        recon.get(k, Fraction(0)) == expanded.get(k, Fraction(0)) for k in range(0, 7)
    )
    checks.append(
        _check(
            "falling-factorial-roundtrip",
            "gamma back-substitution reproduces the exp-series coefficients exactly",
            0.0 if roundtrip_ok else 1.0,
            0.0,
        )
    )
    lead = special_functions.mu_lambda_leading(2)
    checks.append(
        _check(
            "lambda-leading-coefficient",
            "leading 1/s coefficient (1-lam^2)/24; factor-two variant (1-lam^2)/12 reported",
            0.0 if (lead == Fraction(-1, 8) and lead == coeffs.gamma[1]) else 1.0,
            0.0,
            series_value=str(lead),
            factor_two_variant=str(Fraction(1 - 4, 12)),
        )
    )
    # functional-equation factor diagnostics
    mod = abs(special_functions.chi_factor(0.5, 50.0))
    checks.append(
        _check(
            "chi-critical-line-modulus",
            "|1/chi(1/2 + it)| = 1",
            abs(mod - 1.0),
            _tol(config, "chi-critical-line-modulus"),
        )
    )
    ratio = abs(special_functions.chi_factor(1.1, 100.0)) / (100.0 / (2 * math.pi)) ** 0.6
    checks.append(
        _check(
            "chi-growth-ratio",
            "|1/chi(sigma+it)| ~ (t/2pi)^(sigma-1/2)",
            abs(ratio - 1.0),
            0.01,
        )
    )
    # |1/chi(-1+it)| <= 1.1 (t/2pi)^(-3/2); the (2pi)^(3/2) factor belongs
    # to the asymptotic modulus, a bare t^(-3/2) ceiling is unattainable
    mod_neg = abs(special_functions.chi_factor(-1.0, 100.0))
    checks.append(
        _check(
            "chi-negative-sigma-ceiling",
            "|1/chi(-1+it)| <= 1.1 (t/2pi)^(-3/2)",
            mod_neg / (100.0 / (2 * math.pi)) ** -1.5,
            1.1,
        )
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(10.0, 1000.0)
        prod = special_functions.inv_chi(complex(sigma, t)) * special_functions.inv_chi(
            complex(1.0 - sigma, -t)
        )
        worst = max(worst, abs(prod - 1.0))
    checks.append(
        _check(
            "chi-reflection",
            "chi(s) chi(1-s) = 1 via the Gamma-product on both factors",
            worst,
            _tol(config, "chi-reflection"),
            samples=count,
        )
    )
    return checks


# -------------------------------------------------------------- theta

def suite_theta(config=None, count=1000, seed=0):
    tol_scale = _tol(config, "theta-identity")
    reports = theta_transform.theta_sweep(count, seed, tol_scale=tol_scale)
    worst = max(r.rel_residual for r in reports)
    failures = sum(not r.passed for r in reports)
    return [
        _check(
            "theta-identity-sweep",
            "two-sided Gaussian lattice sum: width-V side equals width-1/V side",
            worst,
            tol_scale,
            passed=failures == 0,
            samples=count,
            failures=failures,
        )
    ]


# ------------------------------------------------------------- voronoi

def suite_voronoi(config=None, count=50, seed=0):
    rep = voronoi.convergence_report(count=count, seed=seed)
    lo, hi = VORONOI_SLOPE_BAND
    slope = rep["pooled_slope"]
    checks = [
        _check(
            "series-convergence-slope",
            "log-log decay of median truncation residual vs N over the three-decade ensemble",
            slope,
            hi,
            passed=lo <= slope <= hi,
            decades={str(k): v["slope"] for k, v in rep["decades"].items()},
            pooled_medians={str(k): v for k, v in rep["pooled_medians"].items()},
        )
    ]
    worst_ratio = max(v["max_bound_ratio"] for v in rep["decades"].values())
    checks.append(
        _check(
            "series-residual-ceiling",
            "|residual| / (x^(1/2+eps) N^(-1/2) + x^eps) under the recorded ceiling",
            worst_ratio,
            _tol(config, "series-residual-ceiling"),
        )
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    coeffs = voronoi.lambda_kernel_coefficients(3, 2)
    for _ in range(min(count * 20, 1000)):
        n = int(rng.integers(1, 50))
        x = rng.uniform(1.0, 500.0)
        a = float(voronoi.theta_kernel(n, x, 3))
        b = float(voronoi.theta_kernel_lambda(n, x, 2, 3, coeffs=coeffs))
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    checks.append(
        _check(
            "kernel-order-reduction",
            "order-lambda kernel at lam=2 reproduces the base kernel",
            worst,
            _tol(config, "kernel-order-reduction"),
        )
    )
    return checks


# ------------------------------------------------------------- lemma33

def suite_lemma33(config=None, count=0, seed=0):
    f = descriptors.PowerFn(2.0)
    checks = []
    worst = 0.0
    for n_terms in (10, 100, 1000):
        res = summation_formulas.fourier_sum(f, 0.5, 10.5, n_terms)
        worst = max(worst, abs(res.approx - 385.0) * n_terms)
    checks.append(
        _check(
            "fourier-dual-error-rate",
            "sum_{a<=n<=b} f(n) = Fourier dual + sigma0(a) + sigma0(b) + O((M1+(b-a)M2)/N)",
            worst,
            _tol(config, "fourier-dual-error-rate"),
            exact=385.0,
        )
    )
    lin = descriptors.PowerFn(1.0)
    s0 = summation_formulas.sigma0(lin, 10.0, 50)
    checks.append(
        _check(
            "integer-endpoint-boundary",
            "sigma0(X) = f(X)/2 exactly at integer X",
            abs(s0.value - 5.0),
            0.0,
        )
    )
    s0h = summation_formulas.sigma0(descriptors.ConstantFn(1.0), 3.5, 200)
    checks.append(
        _check(
            "half-integer-boundary",
            "sigma0(X) vanishes at {X} = 1/2",
            abs(s0h.value),
            1e-10,
        )
    )
    val = summation_formulas.sawtooth_fejer(0.5, 10**4)
    checks.append(
        _check(
            "sawtooth-fourier-series",
            "int_0^x (1/2 - {y}) dy = sum (1 - cos 2 n pi x) / (2 pi^2 n^2)",
            abs(val - 0.125),
            1e-4,
        )
    )
    return checks


# ------------------------------------------------------------- lemma23

def suite_lemma23(config=None, count=20, seed=0):
    checks = []
    # smooth main term: quadrature vs closed antiderivative for f = 1
    spec = summation_formulas.AveragedSumSpec(a=3.1, b=5.2, h0=0.05)
    got = summation_formulas.smoothed_main_term(spec)

    def anti(u):
        # int (log x + 2 gamma) dx = x log x + (2 gamma - 1) x
        return u * math.log(u) + (2 * divisor_core.EULER_GAMMA - 1) * u

    from scipy.integrate import quad

    closed = quad(
        lambda h: anti((spec.b + h) ** 2) - anti((spec.a + h) ** 2), 0.0, spec.h0,
        epsabs=1e-13,
    )[0] / spec.h0
    checks.append(
        _check(
            "main-term-quadrature",
            "(1/h0) iint f (log x + 2 gamma) dx dh against the closed antiderivative",
            abs(got - closed),
            _tol(config, "main-term-quadrature"),
        )
    )
    # collapse: with beta0 below both fractional gaps the average equals
    # the plain sum with zero tolerance
    spec_c = summation_formulas.AveragedSumSpec(a=3.1, b=5.2, h0=0.01)
    beta0, gap_a, gap_b, collapses = summation_formulas.collapse_threshold(spec_c)
    table = divisor_core.sieve_divisors(summation_formulas._required_sieve_limit(spec_c))
    avg = summation_formulas.averaged_divisor_sum(spec_c, table=table)
    plain = summation_formulas.averaged_divisor_sum(
        summation_formulas.AveragedSumSpec(a=spec_c.a, b=spec_c.b, h0=0.0), table=table
    )
    checks.append(
        _check(
            "empty-boundary-collapse",
            "averaged sum equals the plain sum when beta0 < min fractional gap",
            abs(avg - plain),
            0.0,
            passed=collapses and avg == plain,
            beta0=beta0,
            gaps=[gap_a, gap_b],
        )
    )
    # event-driven vs midpoint-rule average; the oracle resolves a jump
    # only to one node spacing, so its rigorous resolution bound joins
    # the tolerance (1e-9 alone is out of reach for any practical node
    # count once the boundary jump mass is large)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        a = rng.uniform(2.0, 40.0)
        b = a + rng.uniform(0.3, 4.0)
        h0 = rng.uniform(0.0, min(0.4, a / 2 * 0.9))
        sp = summation_formulas.AveragedSumSpec(a=a, b=b, h0=h0)
        exact = summation_formulas.averaged_divisor_sum(sp)
        riem, bound = summation_formulas.averaged_divisor_sum_riemann(
            sp, nodes=10**6, with_error_bound=True
        )
        excess = (abs(exact - riem) - bound) / max(1.0, abs(exact))
        worst = max(worst, excess)
    checks.append(
        _check(
            "event-driven-vs-riemann",
            "breakpoint integration of the h-average against a midpoint oracle within its resolution",
            worst,
            _tol(config, "event-driven-vs-riemann"),
            samples=count,
        )
    )
    # residual decay of the smoothed expansion
    base = summation_formulas.AveragedSumSpec(
        a=30.1, b=31.4, h0=0.1, f=descriptors.PowerFn(-0.25)
    )
    res_small, res_large = [], []
    for i in range(8):
        sp = summation_formulas.AveragedSumSpec(
            a=base.a + 0.07 * i, b=base.b + 0.07 * i, h0=base.h0, f=base.f
        )
        r10 = summation_formulas.smoothed_voronoi_check(sp, 10)
        r1k = summation_formulas.smoothed_voronoi_check(sp, 1000)
        res_small.append(abs(r10.residual))
        res_large.append(abs(r1k.residual))
    med10, med1k = float(np.median(res_small)), float(np.median(res_large))
    checks.append(
        _check(
            "smoothed-expansion-decay",
            "median residual of (exact average - main term - N-term kernel series) falls as N grows",
            med1k,
            med10,
            passed=med1k < med10,
            median_n10=med10,
            median_n1000=med1k,
        )
    )
    return checks


# ------------------------------------------------------------- lemma25

def suite_lemma25(config=None, count=0, seed=0):
    checks = []
    x, h0 = 31.62, 0.01
    r10 = summation_formulas.smoothed_delta_average(x, h0, 10)
    r1k = summation_formulas.smoothed_delta_average(x, h0, 1000)
    checks.append(
        _check(
            "smoothed-error-average-decay",
            "|average of delta((x+h)^2) - N-term kernel series| falls as N grows",
            abs(r1k.residual),
            abs(r10.residual),
            passed=abs(r1k.residual) < abs(r10.residual),
            residual_n10=r10.residual,
            residual_n1000=r1k.residual,
        )
    )
    # degenerate average: h0 -> 0 recovers delta(x^2) exactly
    xx = 7.3
    table = divisor_core.sieve_divisors(int((xx + 1e-7) ** 2) + 2)
    lhs = summation_formulas._delta_average_exact(xx, 1e-9, table.summatory())
    exact = divisor_core.delta(xx * xx).delta
    checks.append(
        _check(
            "degenerate-average",
            "h0 -> 0 limit of the average equals delta(x^2)",
            abs(lhs - exact),
            1e-5,
        )
    )
    # constant-weight variant reduces to the plain average
    w = summation_formulas.weighted_delta_average(
        x, 0.0, h0, descriptors.ConstantFn(1.0), 200
    )
    plain = summation_formulas.smoothed_delta_average(x, h0, 200)
    checks.append(
        _check(
            "constant-weight-reduction",
            "weight g = 1 reduces the weighted variant to the plain average",
            abs(w.lhs - plain.lhs * h0) + abs(w.rhs - plain.rhs * h0),
            _tol(config, "constant-weight-reduction"),
        )
    )
    return checks


# -------------------------------------------------------------- expsum

def suite_expsum(config=None, count=300, seed=0):
    checks = []
    table = divisor_core.sieve_divisors(10**6)
    spec = exp_sums.ExpSumSpec(x=10**4, alpha=0.25, beta=0.0, a=1.0, b=10**3)
    h = exp_sums.exp_sum_exact(spec, table=table)
    n = np.arange(2, 10**3 + 1, dtype=np.float64)
    terms = table.values[2 : 10**3 + 1] * n**-0.25 * np.cos(
        4 * math.pi * math.sqrt(spec.x) * np.sqrt(n)
    )
    oracle = math.fsum(sorted(terms.tolist()))
    checks.append(
        _check(
            "order-shuffled-resummation",
            "compensated sum equals a sorted-order fsum of the same terms",
            abs(h - oracle) / max(1.0, abs(oracle)),
            _tol(config, "order-shuffled-resummation"),
        )
    )
    scale = float(np.sum(table.values[2 : 10**3 + 1] * n**-0.25))
    flipped = exp_sums.exp_sum_exact(
        exp_sums.ExpSumSpec(x=10**4, alpha=0.25, beta=math.pi, a=1.0, b=10**3),
        table=table,
    )
    # exact up to phase rounding: one ulp of the largest cosine argument
    # costs |w_n| * eps * theta_max per term
    phase_max = 4 * math.pi * math.sqrt(spec.x * spec.b)
    checks.append(
        _check(
            "phase-pi-sign-flip",
            "H(beta + pi) = -H(beta)",
            abs(h + flipped) / (scale * phase_max),
            2.3e-16,
        )
    )
    rows = exp_sums.expsum_sweep(count, seed, table=table)
    worst = max(r["ratio"] for r in rows)
    checks.append(
        _check(
            "bound-ratio-sweep",
            "|H| / ((a^(1/4-alpha)+b^(1/4-alpha)) X^(1/4)) under the recorded ceiling",
            worst,
            _tol(config, "bound-ratio-sweep"),
            samples=count,
        )
    )
    slope, resid = exp_sums.cotangent_slope(1.0 / 3.0, [10**2, 10**3, 10**4, 10**5])
    lo, hi = COTANGENT_SLOPE_BAND
    checks.append(
        _check(
            "cotangent-truncation-slope",
            "sum_{1<=|b|<=B} 1/(alpha-b) -> pi cot(pi alpha) - 1/alpha at rate ~1/B",
            slope,
            hi,
            passed=lo <= slope <= hi,
            residuals=resid,
        )
    )
    lhs, rhs = exp_sums.cotangent_partial_fraction(0.5, 10**6)
    checks.append(
        _check(
            "cotangent-half-point",
            "alpha = 1/2 closed value -2",
            abs(lhs - (-2.0)),
            1e-6,
            rhs=rhs,
        )
    )
    return checks


# -------------------------------------------------------------- diffop

def suite_diffop(config=None, count=0, seed=0):
    checks = []
    worst_exact = 0
    for k in (1, 2, 3, 5, 8, 12, 16, 20):
        nu0 = Fraction(1, 7)
        f = exp_sums.PolynomialFn((Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2)))
        spec = exp_sums.DifferenceSpec(k=k, nu0=nu0, f=f)
        a = exp_sums.difference_apply(spec)
        b = exp_sums.difference_apply_tensor(spec)
        worst_exact = max(worst_exact, 0 if a == b else 1)
    checks.append(
        _check(
            "binomial-vs-tensor",
            "binomial collapse of the K-fold tensor first difference, exact rationals",
            worst_exact,
            0.0,
        )
    )
    ann_fail = 0
    for k in (2, 3, 5, 9):
        nu0 = Fraction(3, 11)
        for power in range(0, k):
            f = exp_sums.PolynomialFn(tuple([Fraction(0)] * power + [Fraction(1)]))
            if exp_sums.difference_apply(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=f)) != 0:
                ann_fail += 1
        f_top = exp_sums.PolynomialFn(tuple([Fraction(0)] * k + [Fraction(1)]))
        top = exp_sums.difference_apply(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=f_top))
        if top != math.factorial(k) * nu0**k:
            ann_fail += 1
    checks.append(
        _check(
            "polynomial-annihilation",
            "Delta^K eta^p = 0 for p < K and K! nu0^K at p = K, exact",
            ann_fail,
            0.0,
        )
    )
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 9))
        radius = rng.uniform(0.2, 2.0)
        nu0 = radius / (4 * k) * rng.uniform(0.5, 1.0)
        f = (
            exp_sums.ExpGrowthFn(rng.uniform(-2, 2))
            if rng.uniform() < 0.5
            else exp_sums.SineFn(rng.uniform(0.5, 4))
        )
        rep = exp_sums.difference_decay_check(f, k, nu0, radius)
        worst_ratio = max(worst_ratio, rep.ratio)
    checks.append(
        _check(
            "analytic-decay-ceiling",
            "|Delta^K f| under the Cauchy estimate K! nu0^K M r (r - nu0 K)^-(K+1)",
            worst_ratio,
            1.0,
            samples=50,
        )
    )
    lin_worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 10))
        nu0 = rng.uniform(0.01, 0.2)
        c1, c2 = rng.uniform(-3, 3, size=2)
        f = exp_sums.ExpGrowthFn(0.7)
        g = exp_sums.SineFn(1.3)
        combo = lambda z: c1 * f(z) + c2 * g(z)
        lhs = exp_sums.difference_apply(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=combo))
        rhs = c1 * exp_sums.difference_apply(
            exp_sums.DifferenceSpec(k=k, nu0=nu0, f=f)
        ) + c2 * exp_sums.difference_apply(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=g))
        lin_worst = max(lin_worst, abs(lhs - rhs))
    checks.append(
        _check(
            "difference-linearity",
            "Delta^K (c1 f + c2 g) = c1 Delta^K f + c2 Delta^K g",
            lin_worst,
            _tol(config, "difference-linearity"),
        )
    )
    return checks


# ----------------------------------------------------------- construct

def suite_construct(config=None, count=2000, seed=0):
    checks = []
    for u in (10**4, 10**6, 10**8):
        p = construction.build_params(float(u), float(u), 200.0)
        sweep = construction.admissible_sweep(p, count, seed)
        checks.append(
            _check(
                f"band-and-empty-interval-u{u}",
                "admissible tuples keep {(B+theta+xi)^2} in (1/20, 9/20) and the window integer-free",
                (1.0 - sweep["in_band_rate"]) + (1.0 - sweep["zero_count_rate"]),
                0.0,
                samples=count,
                violations=len(sweep["violations"]),
            )
        )
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore", construction.ScaledRegimeWarning)
        p1 = construction.build_params(10**6.0, 10**6.0, 1.0)
    violation = construction.find_violation(p1, seed)
    checks.append(
        _check(
            "negative-control",
            "the violable regime (C0 = 1, extreme theta) produces a recorded violation",
            0.0 if violation is not None else 1.0,
            0.0,
            violation=violation,
        )
    )
    p = construction.build_params(10**6.0, 10**6.0, 200.0)
    rng = np.random.default_rng(seed)
    worst_width = 0.0
    for _ in range(200):
        choice, theta = construction.sample_admissible(p, rng)
        bv = construction.b_value(p, choice.k, choice.j, choice.eta_count, choice.k1)
        worst_width = max(worst_width, construction.interval_width_check(p, bv, theta))
    checks.append(
        _check(
            "window-width-bound",
            "(B+theta+xi2)^2 - (B+theta+xi1)^2 < 1/3",
            worst_width,
            1.0 / 3.0,
        )
    )
    toy = construction.toy_omega()
    checks.append(
        _check(
            "toy-composition-zero",
            "every window sum in the toy composition is exactly empty, so the total is 0",
            abs(toy["value"]),
            0.0,
            window_sums_checked=toy["window_sums_checked"],
        )
    )
    scan = construction.delta_exponent_scan(10**6)
    ms = scan["mean_square_exponent"]
    lo, hi = MEAN_SQUARE_BAND
    checks.append(
        _check(
            "mean-square-growth",
            "cumulative delta(X)^2 grows like T^(3/2)",
            ms,
            hi,
            passed=lo <= ms <= hi,
        )
    )
    mx = scan["max_abs_slope"]
    lo2, hi2 = MAX_ABS_SLOPE_BAND
    checks.append(
        _check(
            "block-max-slope",
            "dyadic-block max |delta| log-log slope inside the diagnostic band",
            mx,
            hi2,
            passed=lo2 <= mx <= hi2,
        )
    )
    no_sign_change = [b["t"] for b in scan["blocks"] if b["t"] >= 6 and b["sign_changes"] == 0]
    checks.append(
        _check(
            "sign-changes-every-block",
            "delta changes sign inside every dyadic block from 2^6 up",
            float(len(no_sign_change)),
            0.0,
            missing_blocks=no_sign_change,
        )
    )
    return checks


_SUITE_FNS = {
    "coeffs": suite_coeffs,
    "theta": suite_theta,
    "voronoi": suite_voronoi,
    "lemma33": suite_lemma33,
    "lemma23": suite_lemma23,
    "lemma25": suite_lemma25,
    "expsum": suite_expsum,
    "diffop": suite_diffop,
    "construct": suite_construct,
}

SUITES = tuple(_SUITE_FNS)


def run_verify(suite, count=None, seed=0, config=None):
    """Run one suite (or 'all'); returns the deterministic report dict.

    ``count`` overrides each suite's own default sample count.  A
    tolerance override must name a key of ``TOLERANCES``.
    """
    if count is not None:
        require_count("count", count)
    require_seed(seed)
    unknown = sorted(set(config.tolerances) - set(TOLERANCES)) if config is not None else []
    if unknown:
        raise DomainError(f"unknown tolerance {unknown[0]!r}; choose from {', '.join(TOLERANCES)}")
    if suite == "all":
        names = list(SUITES)
    elif suite in _SUITE_FNS:
        names = [suite]
    else:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    report = {"suite": suite, "seed": seed, "checks": []}
    for name in names:
        kwargs = {"config": config, "seed": seed}
        if count is not None:
            kwargs["count"] = count
        for check in _SUITE_FNS[name](**kwargs):
            check["suite"] = name
            report["checks"].append(check)
    report["passed"] = all(c["passed"] for c in report["checks"])
    report["n_checks"] = len(report["checks"])
    report["n_failed"] = sum(not c["passed"] for c in report["checks"])
    return report
