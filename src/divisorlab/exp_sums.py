"""Divisor-weighted exponential sums with bound diagnostics, the K-fold
first-difference operator, its analytic decay ceiling, and the symmetric
partial-fraction form of the cotangent.

The central sum is

    H(X, alpha, beta, a, b) = sum_{a < n <= b} d(n) n^-alpha
                              cos(4 pi sqrt(n X) + beta)

optionally carrying a smooth weight f(n) with |f| <= M.  The recorded
diagnostic is |H| / ((a^(1/4-alpha) + b^(1/4-alpha)) X^(1/4)), guarded by
a generous regression ceiling rather than a theorem-level constant.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, divisor_core
from .errors import DomainError, ResourceError

#: regression ceiling for the bound-ratio diagnostic
RATIO_CEILING = 100.0

#: binomial-form difference operator cap (C(K, K/2) precision wall)
MAX_DIFFERENCE_ORDER = 60

#: tensor-form cross-check cap (2**K term enumeration)
MAX_TENSOR_ORDER = 20


@dataclass(frozen=True)
class ExpSumSpec:
    x: float
    alpha: float
    beta: float
    a: float
    b: float
    weight: object = None
    weight_scale: float = 1.0

    def __post_init__(self):
        if self.a <= 0.9:
            raise DomainError(f"need a > 0.9, got {self.a}")
        if self.x <= 1:
            raise DomainError(f"need X > 1, got {self.x}")


def exp_sum_exact(spec, table=None):
    """Direct compensated summation of the defining sum."""
    if spec.b <= spec.a:
        return 0.0
    hi = int(math.floor(spec.b))
    lo = int(math.floor(spec.a))  # n > a means n >= floor(a)+1
    if table is None:
        table = divisor_core.sieve_divisors(hi)
    elif table.limit < hi:
        raise ResourceError(f"table covers {table.limit}, need {hi}")
    n = np.arange(lo + 1, hi + 1, dtype=np.float64)
    if n.size == 0:
        return 0.0
    w = table.values[lo + 1 : hi + 1].astype(np.float64) * n ** (-spec.alpha)
    if spec.weight is not None:
        w = w * np.asarray(spec.weight(n), dtype=np.float64)
    return _kernels.cos_sum(w, np.sqrt(n), 4.0 * math.pi * math.sqrt(spec.x), spec.beta)


def exp_sum_bound_ratio(spec, table=None):
    """|H| / ((a^(1/4-alpha) + b^(1/4-alpha)) X^(1/4)), divided by the
    weight scale M for weighted sums."""
    h = exp_sum_exact(spec, table=table)
    envelope = (
        spec.a ** (0.25 - spec.alpha) + spec.b ** (0.25 - spec.alpha)
    ) * spec.x**0.25
    ratio = abs(h) / envelope
    if spec.weight is not None:
        ratio /= spec.weight_scale
    return ratio


@dataclass(frozen=True)
class InverseSqrtSumWeight:
    """f(u) = 1 / (sqrt(X) + sqrt(u)); |f| <= M = 1/(sqrt X + sqrt a) and
    |f'| <= M / sqrt(X u) on [a, b+1]."""

    x: float

    def __call__(self, u):
        return 1.0 / (math.sqrt(self.x) + np.sqrt(np.asarray(u, dtype=np.float64)))

    def scale(self, a):
        return 1.0 / (math.sqrt(self.x) + math.sqrt(a))


#: largest X of a random spec, and so the sieve size of a sweep
SWEEP_X_MAX = 10**6


def random_spec(rng, weighted=False):
    """One seeded random sum spec: X uniform on [10, 10^6], 2 <= b <= X,
    0.91 <= a <= max(0.92, b/2), alpha from (0, 1/4, 1/2, 1, 3) and beta
    uniform on [0, 2 pi)."""
    x = rng.uniform(10.0, SWEEP_X_MAX)
    b = rng.uniform(2.0, x)
    a = rng.uniform(0.91, max(0.92, b / 2))
    alpha = float(rng.choice((0.0, 0.25, 0.5, 1.0, 3.0)))
    beta = rng.uniform(0.0, 2 * math.pi)
    if weighted:
        wfn = InverseSqrtSumWeight(x)
        return ExpSumSpec(x=x, alpha=alpha, beta=beta, a=a, b=b,
                          weight=wfn, weight_scale=wfn.scale(a))
    return ExpSumSpec(x=x, alpha=alpha, beta=beta, a=a, b=b)


def expsum_sweep(count, seed, table=None):
    """Bound-ratio sweep rows: dicts with the sampled parameters and ratio.

    Specs come from ``random_spec`` (X <= 10^6, so one table to 10^6
    serves every row); a fifth of the rows, drawn per row, are weighted."""
    rng = np.random.default_rng(seed)
    if table is None:
        table = divisor_core.sieve_divisors(SWEEP_X_MAX)
    rows = []
    for _ in range(count):
        weighted = rng.uniform() < 0.2
        spec = random_spec(rng, weighted=weighted)
        ratio = exp_sum_bound_ratio(spec, table=table)
        rows.append(
            {
                "x": spec.x,
                "alpha": spec.alpha,
                "beta": spec.beta,
                "a": spec.a,
                "b": spec.b,
                "weighted": bool(weighted),
                "ratio": ratio,
            }
        )
    return rows


# ------------------------------------------------------ difference operator

@dataclass(frozen=True)
class DifferenceSpec:
    """K-fold tensor first difference with common step nu0 applied to f."""

    k: int
    nu0: object
    f: object

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"difference order must be >= 1, got {self.k}")


def difference_apply(spec):
    """Binomial form sum_{a=0..K} (-1)^(K-a) C(K,a) f(a nu0).

    Binomials are exact integers; the sum stays exact when f returns
    Fractions and is compensated otherwise.  Orders beyond
    MAX_DIFFERENCE_ORDER are refused: C(K, K/2) outgrows the float
    significand and the alternating sum turns to noise.
    """
    if spec.k > MAX_DIFFERENCE_ORDER:
        raise ResourceError(
            f"difference order {spec.k} exceeds the supported cap "
            f"{MAX_DIFFERENCE_ORDER}"
        )
    vals = [spec.f(a * spec.nu0) for a in range(spec.k + 1)]
    terms = [
        (-1) ** (spec.k - a) * math.comb(spec.k, a) * vals[a] for a in range(spec.k + 1)
    ]
    if any(isinstance(t, Fraction) for t in terms):
        return sum(terms, Fraction(0))
    return math.fsum(terms)


def difference_apply_tensor(spec):
    """2**K corner enumeration of the same operator, kept as an
    independent cross-check of the binomial collapse."""
    if spec.k > MAX_TENSOR_ORDER:
        raise ResourceError(
            f"tensor enumeration caps at order {MAX_TENSOR_ORDER}, got {spec.k}"
        )
    vals = [spec.f(a * spec.nu0) for a in range(spec.k + 1)]
    exact = any(isinstance(v, Fraction) for v in vals)
    total = Fraction(0) if exact else 0.0
    parts = []
    for mask in range(1 << spec.k):
        ones = mask.bit_count()
        term = vals[ones] if (spec.k - ones) % 2 == 0 else -vals[ones]
        if exact:
            total += term
        else:
            parts.append(term)
    return total if exact else math.fsum(parts)


# ------------------------------------------------- analytic decay ceiling

@dataclass(frozen=True)
class ExpGrowthFn:
    """f(z) = exp(c z); |f| <= exp(|c| r) on |z| <= r."""

    c: float = 1.0

    def __call__(self, z):
        return math.exp(self.c * z)

    def disk_bound(self, r):
        return math.exp(abs(self.c) * r)


@dataclass(frozen=True)
class SineFn:
    """f(z) = sin(c z); |f| <= sinh(|c| r) on |z| <= r."""

    c: float = 1.0

    def __call__(self, z):
        return math.sin(self.c * z)

    def disk_bound(self, r):
        return math.sinh(abs(self.c) * r)


@dataclass(frozen=True)
class PolynomialFn:
    """f(z) = sum coeffs[i] z^i; |f| <= sum |coeffs[i]| r^i."""

    coeffs: tuple

    def __call__(self, z):
        out = 0.0 if not isinstance(z, Fraction) else Fraction(0)
        for c in reversed(self.coeffs):
            out = out * z + c
        return out

    def disk_bound(self, r):
        return float(sum(abs(c) * r**i for i, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class DecayReport:
    value: float
    ceiling: float
    k: int
    nu0: float
    radius: float
    disk_bound: float

    @property
    def ratio(self):
        return abs(self.value) / self.ceiling


def difference_decay_check(f, k, nu0, radius):
    """Compare |Delta^K f| against the Cauchy-estimate ceiling

        K! nu0^K M r / (r - nu0 K)^(K+1)

    valid whenever the evaluation points 0 <= eta <= nu0 K stay inside the
    analyticity disk |z| <= r with |f| <= M there.
    """
    if nu0 <= 0:
        raise DomainError(f"step nu0 must be positive, got {nu0}")
    if nu0 * k >= radius:
        raise DomainError(
            f"nu0*K = {nu0 * k} must stay below the disk radius {radius}"
        )
    m_bound = f.disk_bound(radius)
    value = difference_apply(DifferenceSpec(k=k, nu0=nu0, f=f))
    ceiling = (
        math.factorial(k) * nu0**k * m_bound * radius / (radius - nu0 * k) ** (k + 1)
    )
    return DecayReport(
        value=float(value), ceiling=ceiling, k=k, nu0=nu0, radius=radius, disk_bound=m_bound
    )


# --------------------------------------------------- cotangent identity

def cotangent_partial_fraction(alpha, b_max):
    """lhs = sum_{1<=|b|<=B} 1/(alpha - b), rhs = pi cot(pi alpha) - 1/alpha.

    Symmetric truncation pairs b with -b, so the lhs converges at rate
    ~2 alpha / B toward the pole-stripped cotangent.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if b_max < 1:
        raise DomainError(f"truncation B must be >= 1, got {b_max}")
    b = np.arange(1.0, float(b_max) + 0.5)
    terms = 2.0 * alpha / (alpha * alpha - b * b)
    lhs = math.fsum(terms.tolist())
    rhs = math.pi / math.tan(math.pi * alpha) - 1.0 / alpha
    return lhs, rhs


def cotangent_slope(alpha, b_values):
    """Least-squares slope of log |lhs - rhs| against log B."""
    resid = []
    for b_max in b_values:
        lhs, rhs = cotangent_partial_fraction(alpha, b_max)
        resid.append(abs(lhs - rhs))
    return float(np.polyfit(np.log(b_values), np.log(resid), 1)[0]), resid
