"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the measured value and its pinned tolerance.  Criteria and
tolerances are frozen here; nothing is deferred to later calibration.
"""

import json
import math
import time
from fractions import Fraction as F

import numpy as np

from divisorlab import (
    _kernels,
    construction,
    divisor_core,
    exp_sums,
    special_functions,
    theta_transform,
    verify,
    voronoi,
)
from divisorlab.config import RunConfig


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_01_summatory_exactness(rng):
    t0 = time.time()
    oracle = np.cumsum(_kernels.divisor_sieve(10**6)[1:], dtype=np.int64)
    bad = 0
    for x in range(1, 10**4 + 1):
        if divisor_core.summatory_hyperbola(x) != int(oracle[x - 1]):
            bad += 1
    for x in rng.integers(1, 10**6 + 1, size=1000):
        if divisor_core.summatory_hyperbola(int(x)) != int(oracle[int(x) - 1]):
            bad += 1
    elapsed = time.time() - t0
    report(
        1,
        "hyperbola identity vs sieve cumsum",
        bad == 0 and elapsed < 60.0,
        f"{bad} mismatches over 11000 points, zero tolerance, {elapsed:.1f}s < 60s",
    )


def test_02_kernel_coefficients():
    want = (
        F(1), F(-1, 8), F(9, 128), F(-75, 1024),
        F(3675, 2**15), F(-59535, 2**18), F(2401245, 2**22),
    )
    got = special_functions.derive_kernel_coefficients(6).gamma
    report(
        2,
        "kernel coefficient table, rational equality",
        got == want,
        f"derived {[str(g) for g in got]}",
    )


def test_03_stirling_coefficients():
    got = special_functions.stirling_v_coefficients(7).coefficients
    want = {1: F(1, 12), 3: F(-1, 360), 5: F(1, 1260), 7: F(-1, 1680)}
    report(3, "log-Gamma tail coefficients, exact", got == want,
           f"derived {({k: str(v) for k, v in sorted(got.items())})}")


def test_04_theta_identity():
    t0 = time.time()
    reports = theta_transform.theta_sweep(1000, seed=0, tol_scale=1e-10)
    elapsed = time.time() - t0
    failures = [r for r in reports if not r.passed]
    worst = max(r.rel_residual for r in reports)
    report(
        4,
        "lattice-sum transform identity on 1000 random specs",
        not failures and elapsed < 120.0,
        f"worst residual {worst:.3e} <= 1e-10*(1+|LHS|), {elapsed:.1f}s < 120s",
    )


def test_05_series_convergence_slope():
    t0 = time.time()
    rep = voronoi.convergence_report(count=50, seed=0)
    elapsed = time.time() - t0
    slope = rep["pooled_slope"]
    report(
        5,
        "truncated-series residual slope over the three-decade ensemble",
        -0.75 <= slope <= -0.25 and elapsed < 600.0,
        f"pooled slope {slope:.4f} in [-0.75, -0.25] "
        f"(decades { {str(k): round(v['slope'], 3) for k, v in rep['decades'].items()} }), "
        f"{elapsed:.1f}s < 600s",
    )


def test_06_empty_interval():
    ok = True
    detail = []
    for u in (10**4, 10**6, 10**8):
        p = construction.build_params(float(u), float(u), 200.0)
        sweep = construction.admissible_sweep(p, 10**4, seed=0)
        ok &= sweep["in_band_rate"] == 1.0 and sweep["zero_count_rate"] == 1.0
        detail.append(f"U=1e{int(math.log10(u))}: {sweep['in_band_rate']:.0%}")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", construction.ScaledRegimeWarning)
        p1 = construction.build_params(10**6, 10**6, 1.0)
    violation = construction.find_violation(p1, seed=0)
    ok &= violation is not None
    report(
        6,
        "band and empty-interval on 10^4 admissible tuples per scale",
        ok,
        "; ".join(detail) + f"; violable-regime witness found: {violation is not None}",
    )


def test_07_fourier_summation():
    from divisorlab import summation_formulas
    from divisorlab.descriptors import PowerFn

    worst = 0.0
    for n in (10, 100, 1000):
        res = summation_formulas.fourier_sum(PowerFn(2.0), 0.5, 10.5, n)
        worst = max(worst, abs(res.approx - 385.0) * n)
    s0 = summation_formulas.sigma0(PowerFn(1.0), 10.0, 50)
    exact_half = s0.value == 5.0
    report(
        7,
        "endpoint-corrected summation error rate and integer boundary",
        worst <= 0.5 and exact_half,
        f"max |approx-385|*N = {worst:.4f} <= 0.5 (frozen), sigma0(10) == f(10)/2 exact: {exact_half}",
    )


def test_08_cotangent_identity():
    slope, _ = exp_sums.cotangent_slope(1.0 / 3.0, [10**2, 10**3, 10**4, 10**5])
    lhs, _ = exp_sums.cotangent_partial_fraction(0.5, 10**6)
    close = abs(lhs - (-2.0)) <= 1e-6
    report(
        8,
        "cotangent partial fractions: slope band and closed half-point",
        -1.2 <= slope <= -0.8 and close,
        f"slope {slope:.4f} in [-1.2, -0.8]; |lhs(B=1e6) + 2| = {abs(lhs + 2):.3e} <= 1e-6",
    )


def test_09_difference_operator(rng):
    nu0 = F(1, 7)
    f = exp_sums.PolynomialFn((F(2), F(-1), F(3), F(1, 2)))
    exact = all(
        exp_sums.difference_apply(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=f))
        == exp_sums.difference_apply_tensor(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=f))
        for k in range(1, 21)
    )
    annihilate = True
    for k in (3, 6, 10):
        for p in range(k):
            poly = exp_sums.PolynomialFn(tuple([F(0)] * p + [F(1)]))
            annihilate &= (
                exp_sums.difference_apply(exp_sums.DifferenceSpec(k=k, nu0=nu0, f=poly)) == 0
            )
    worst_ratio = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        radius = rng.uniform(0.2, 2.0)
        step = radius / (4 * k) * rng.uniform(0.5, 1.0)
        fn = (
            exp_sums.ExpGrowthFn(rng.uniform(-2, 2))
            if rng.uniform() < 0.5
            else exp_sums.SineFn(rng.uniform(0.5, 4.0))
        )
        worst_ratio = max(
            worst_ratio, exp_sums.difference_decay_check(fn, k, step, radius).ratio
        )
    report(
        9,
        "difference operator: tensor equality, annihilation, analytic ceiling",
        exact and annihilate and worst_ratio <= 1.0,
        f"binomial==tensor K<=20: {exact}; annihilation exact: {annihilate}; "
        f"worst Cauchy ratio {worst_ratio:.3e} <= 1",
    )


def test_10_mean_square_growth():
    t0 = time.time()
    scan = construction.delta_exponent_scan(10**6)
    elapsed = time.time() - t0
    exponent = scan["mean_square_exponent"]
    report(
        10,
        "cumulative squared error growth exponent",
        1.4 <= exponent <= 1.6 and elapsed < 300.0,
        f"fitted exponent {exponent:.4f} in [1.4, 1.6], {elapsed:.1f}s < 300s",
    )


def test_11_determinism():
    cfg = RunConfig(seed=123)
    rep1 = verify.run_verify("all", seed=123, config=cfg)
    rep2 = verify.run_verify("all", seed=123, config=cfg)
    blob1 = json.dumps(rep1, sort_keys=True)
    blob2 = json.dumps(rep2, sort_keys=True)
    report(
        11,
        "verify-all reports byte-identical under a fixed seed",
        blob1 == blob2 and rep1["passed"],
        f"{len(blob1)} bytes, equal: {blob1 == blob2}, all checks passed: {rep1['passed']}",
    )
