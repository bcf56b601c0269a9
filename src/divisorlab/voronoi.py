"""Oscillatory kernels for the divisor error term and truncated series
approximations to delta(x), with residual measurement against the exact
value.

The order-lambda kernel (lam = 2 shown) is

    Theta(nx) = sqrt(2) (nx)^(-1/4) sum_{alpha<=alpha0}
        gamma_alpha (nx)^(-alpha/2) (4 pi)^(-alpha)
        cos(4 pi sqrt(nx) + pi/4 + alpha pi/2)

with gamma taken from the exact rational table, and the companion kernel

    phi(n, x) = (x^(1/4) n^(-3/4) / (sqrt(2) pi)) sum_{alpha<=alpha0}
        beta_alpha cos(4 pi sqrt(nx) - pi/4 + alpha pi/2)
        / (4 pi sqrt(nx))^alpha,         beta_0 = 1, beta_1 = 3/8.

The truncated series for the error term is the N-term sum of
d(n) phi(n, x) at alpha0 = 0 (single-phase form) or alpha0 = 1.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, divisor_core, special_functions
from .errors import DomainError, PrecisionError, require_count

#: exponent used in the recorded error scale x^(1/2+eps) N^(-1/2) + x^eps
BOUND_EPS = 0.05

#: generous recorded ceiling for |residual| / bound_scale
RESIDUAL_CEILING = 50.0


@dataclass(frozen=True)
class SeriesResidual:
    x: float
    n_terms: int
    approx: float
    exact: float

    @property
    def residual(self):
        return self.approx - self.exact

    @property
    def bound_scale(self):
        return self.x ** (0.5 + BOUND_EPS) * self.n_terms**-0.5 + self.x**BOUND_EPS


@lru_cache(maxsize=32)
def _gamma_floats(alpha0):
    return special_functions.derive_kernel_coefficients(alpha0).as_floats()


def theta_kernel(n, x, alpha0):
    """Truncated oscillatory kernel Theta(nx); the tail term is measured
    by callers, never modeled here."""
    nx = n * x
    if nx <= 0:
        raise DomainError(f"need n*x > 0, got {nx}")
    gam = _gamma_floats(alpha0)
    root = math.sqrt(nx)
    phase0 = 4.0 * math.pi * root + math.pi / 4.0
    acc = 0.0
    for alpha in range(alpha0 + 1):
        acc += (
            gam[alpha]
            * nx ** (-alpha / 2.0)
            * (4.0 * math.pi) ** -alpha
            * math.cos(phase0 + alpha * math.pi / 2.0)
        )
    return math.sqrt(2.0) * nx**-0.25 * acc


def lambda_kernel_coefficients(alpha_max, lam):
    """Float gamma^(lam) coefficients to the requested order, derived from
    the exact series expansion (gamma_0 = 1, gamma_1 = (1-lam^2)/24)."""
    return tuple(
        float(g)
        for g in special_functions.derive_kernel_coefficients(alpha_max, lam=lam).gamma
    )


def theta_kernel_lambda(n, x, lam, alpha_max, coeffs=None):
    """Order-lambda generalization with phase 2 pi lam (nx)^(1/lam) +
    (lam-1) pi/4 + alpha pi/2 and weights (2 pi lam)^-alpha.

    Only gamma_0 = 1 and gamma_1 = (1 - lam^2)/24 are supplied by default;
    higher orders must be passed in ``coeffs`` (the lam = 2 table or a
    user-derived one).
    """
    if lam < 2:
        raise DomainError(f"order lambda must be >= 2, got {lam}")
    nx = n * x
    if nx <= 0:
        raise DomainError(f"need n*x > 0, got {nx}")
    if coeffs is None:
        coeffs = (1.0, float(special_functions.mu_lambda_leading(lam)))
    if len(coeffs) < alpha_max + 1:
        raise PrecisionError(
            f"order {alpha_max} needs {alpha_max + 1} coefficients, got {len(coeffs)}; "
            "pass coeffs= (see lambda_kernel_coefficients)"
        )
    root = nx ** (1.0 / lam)
    phase0 = 2.0 * math.pi * lam * root + (lam - 1) * math.pi / 4.0
    acc = 0.0
    for alpha in range(alpha_max + 1):
        acc += (
            coeffs[alpha]
            * nx ** (-alpha / lam)
            * (2.0 * math.pi * lam) ** -alpha
            * math.cos(phase0 + alpha * math.pi / 2.0)
        )
    return 2.0 * lam**-0.5 * nx ** (-0.5 + 0.5 / lam) * acc


#: companion-kernel coefficients known in closed form
PHI_BETAS = (1.0, 3.0 / 8.0)


def default_betas(alpha0):
    if alpha0 + 1 > len(PHI_BETAS):
        raise PrecisionError(
            f"companion kernel order {alpha0} needs beta coefficients beyond "
            f"beta_1; supply betas= explicitly"
        )
    return PHI_BETAS[: alpha0 + 1]


def phi_kernel(n, x, alpha0, betas=None):
    """Companion kernel phi(n, x) whose d(n)-weighted series sums to the
    divisor error term at non-integer x."""
    nx = n * x
    if nx <= 0:
        raise DomainError(f"need n*x > 0, got {nx}")
    if betas is None:
        betas = default_betas(alpha0)
    elif len(betas) < alpha0 + 1:
        raise PrecisionError(f"order {alpha0} needs {alpha0 + 1} beta coefficients")
    root = math.sqrt(nx)
    phase0 = 4.0 * math.pi * root - math.pi / 4.0
    acc = 0.0
    for alpha in range(alpha0 + 1):
        acc += betas[alpha] * math.cos(phase0 + alpha * math.pi / 2.0) / (
            4.0 * math.pi * root
        ) ** alpha
    return x**0.25 * n**-0.75 / (math.sqrt(2.0) * math.pi) * acc


def _require_non_integer(x):
    if abs(x - round(x)) < 1e-9:
        raise DomainError(
            f"x={x} is an integer; evaluate at x + 1/2 (the series identity "
            "excludes integer points)"
        )


def _series_weights(n_terms, exponent):
    table = divisor_core.sieve_divisors(n_terms)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    w = table.values[1 : n_terms + 1].astype(np.float64) * n**exponent
    return w, np.sqrt(n)


def truncated_delta(x, n_terms):
    """Single-phase N-term series vs exact delta(x)."""
    _require_non_integer(x)
    require_count("n_terms", n_terms)
    w, sqrtn = _series_weights(n_terms, -0.75)
    total = _kernels.cos_sum(w, sqrtn, 4.0 * math.pi * math.sqrt(x), -math.pi / 4.0)
    approx = x**0.25 / (math.pi * math.sqrt(2.0)) * total
    exact = divisor_core.delta(x).delta
    return SeriesResidual(x=float(x), n_terms=n_terms, approx=approx, exact=exact)


def phi_correction_series(x, n_terms):
    """The alpha = 1 correction series alone (beta_1 term of phi)."""
    w, sqrtn = _series_weights(n_terms, -1.25)
    total = _kernels.cos_sum(w, sqrtn, 4.0 * math.pi * math.sqrt(x), math.pi / 4.0)
    return x**0.25 / (math.pi * math.sqrt(2.0)) * (3.0 / (8.0 * 4.0 * math.pi)) * x**-0.5 * total


def phi_series_delta(x, n_terms):
    """Two-phase kernel series (alpha0 = 1) vs exact delta(x)."""
    _require_non_integer(x)
    require_count("n_terms", n_terms)
    base = truncated_delta(x, n_terms)
    approx = base.approx + phi_correction_series(x, n_terms)
    return SeriesResidual(x=float(x), n_terms=n_terms, approx=approx, exact=base.exact)


# ----------------------------------------------------- convergence scans

#: width of a decade's sample window, relative to its base
WIDTH_FRAC = 0.1


def decade_ensemble(x_base, count=50, seed=0):
    """Deterministic non-integer sample points near x_base.

    Offsets are seeded-uniform over [0, 0.1 x_base] (``WIDTH_FRAC``) so
    the ensemble spans many periods of the slowest surviving series mode
    (wavelength ~ sqrt(x)); a fixed-width window would leave the samples
    phase-correlated at large x and the median unstable.
    """
    rng = np.random.default_rng(seed)
    offs = np.floor(rng.uniform(0.0, WIDTH_FRAC * x_base, size=count))
    return [x_base + 0.5 + off for off in offs]


def convergence_report(count=50, seed=0):
    """Median-residual decay of the truncated series at N = 10, 100, 1000
    and 10000 over ``decade_ensemble`` near 10^3, 10^4 and 10^5.

    Returns per-decade medians and slopes plus the pooled slope over the
    full three-decade ensemble (one median per N across all decades); the
    pooled slope is the headline convergence measurement.
    """
    require_count("count", count)
    n_values = [10, 100, 1000, 10000]
    n_max = n_values[-1]
    table = divisor_core.sieve_divisors(n_max)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    w = table.values[1 : n_max + 1].astype(np.float64) * n**-0.75
    sqrtn = np.sqrt(n)
    stops = np.asarray(n_values, dtype=np.int64)

    decades = {}
    pooled = {nv: [] for nv in n_values}
    for x_base in (10**3, 10**4, 10**5):
        rows = {nv: [] for nv in n_values}
        for x in decade_ensemble(x_base, count=count, seed=seed):
            partials = _kernels.cos_sum_checkpoints(
                w, sqrtn, 4.0 * math.pi * math.sqrt(x), -math.pi / 4.0, stops
            )
            exact = divisor_core.delta(x).delta
            pref = x**0.25 / (math.pi * math.sqrt(2.0))
            for nv, p in zip(n_values, partials):
                r = abs(pref * p - exact)
                rows[nv].append(r)
                pooled[nv].append(r)
        medians = {nv: float(np.median(rows[nv])) for nv in n_values}
        slope = float(
            np.polyfit(np.log(n_values), np.log([medians[nv] for nv in n_values]), 1)[0]
        )
        ratios = [
            max(rows[nv]) / (x_base ** (0.5 + BOUND_EPS) * nv**-0.5 + x_base**BOUND_EPS)
            for nv in n_values
        ]
        decades[x_base] = {
            "medians": medians,
            "slope": slope,
            "max_bound_ratio": float(max(ratios)),
        }
    pooled_medians = {nv: float(np.median(pooled[nv])) for nv in n_values}
    pooled_slope = float(
        np.polyfit(np.log(n_values), np.log([pooled_medians[nv] for nv in n_values]), 1)[0]
    )
    return {
        "n_values": n_values,
        "count": count,
        "seed": seed,
        "width_frac": WIDTH_FRAC,
        "decades": decades,
        "pooled_medians": pooled_medians,
        "pooled_slope": pooled_slope,
    }
