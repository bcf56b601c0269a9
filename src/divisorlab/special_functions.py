"""Analytic ingredients: the zeta functional-equation factor, the
log-Gamma tail series, the related exponential expansions and the kernel
coefficient table they generate.

All series work is exact over ``fractions.Fraction``; floats only appear
when a caller asks for them.  Expansions live in the variable u = 1/s,
so a LaurentSeries maps the power k >= 1 to the coefficient of s**(-k).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import loggamma

from .divisor_core import EULER_GAMMA  # noqa: F401  (re-exported constant)
from .errors import DomainError


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated expansion sum_{k=1..order} c_k / s**k with rational c_k."""

    coefficients: dict
    order: int

    def __post_init__(self):
        for k, c in self.coefficients.items():
            if not 1 <= k <= self.order:
                raise DomainError(f"power {k} outside series order {self.order}")
            if not isinstance(c, Fraction):
                raise DomainError(f"coefficient at power {k} is not rational: {c!r}")

    def coefficient(self, k):
        return self.coefficients.get(k, Fraction(0))


@dataclass(frozen=True)
class KernelCoefficients:
    """gamma_0..gamma_alpha0 of the oscillatory divisor kernel, exact."""

    gamma: tuple
    order: int
    lam: int = 2
    _floats: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if len(self.gamma) != self.order + 1:
            raise DomainError("coefficient tuple must have length order + 1")
        if self.gamma[0] != 1:
            raise DomainError("leading kernel coefficient must be 1")
        object.__setattr__(self, "_floats", tuple(float(g) for g in self.gamma))

    def as_floats(self):
        return self._floats


def bernoulli_numbers(m):
    """B_0..B_m as Fractions (B_1 = -1/2 convention)."""
    out = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * out[j]
        out.append(-acc / (k + 1))
    return out


def stirling_v_coefficients(order):
    """Odd-power tail of log Gamma: c_1/s + c_3/s**3 + ...

    c_{2n-1} = B_{2n} / (2n (2n-1)); the first four are 1/12, -1/360,
    1/1260, -1/1680 and the recurrence extends to any order.
    """
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    bern = bernoulli_numbers(2 * ((order + 1) // 2))
    coeffs = {}
    k = 1
    while k <= order:
        n = (k + 1) // 2
        coeffs[k] = bern[2 * n] / (2 * n * (2 * n - 1))
        k += 2
    return LaurentSeries(coeffs, order)


def _shifted_reciprocal_powers(m, shift, order):
    """(s/lam + shift/lam)^-m as a u-series, with lam folded in by caller.

    Returns the u-series of (s (1 + shift u))**(-m): coefficient of u^{m+i}
    is C(m+i-1, i) (-shift)^i.
    """
    out = {}
    for i in range(0, order - m + 1):
        out[m + i] = Fraction(math.comb(m + i - 1, i)) * (-shift) ** i
    return out


def mu_lambda_series(order, lam=2):
    """Expansion of the Stirling mismatch between Gamma(s) and its
    lam-fold rescaling:

        (s - 1/2) log(1 + (lam-1)/(2s)) - (lam-1)/2
            + lam * v(s/lam + 1/2 - 1/(2lam)) - v(s)

    where v is the odd-power log-Gamma tail.  Leading term (1-lam^2)/(24s).
    """
    if order < 1:
        raise DomainError(f"series order must be >= 1, got {order}")
    if lam < 2:
        raise DomainError(f"order lambda must be >= 2, got {lam}")
    w = Fraction(lam - 1, 2)
    out = {}
    # (1/u - 1/2) * sum_k (-1)^{k+1} (w u)^k / k  minus the constant w
    for k in range(1, order + 2):
        c = Fraction((-1) ** (k + 1)) * w**k / k
        if 1 <= k - 1 <= order:
            out[k - 1] = out.get(k - 1, Fraction(0)) + c
        if k <= order:
            out[k] = out.get(k, Fraction(0)) - c / 2
    v = stirling_v_coefficients(order)
    # lam * v(s/lam + (lam-1)/(2 lam)):  (s/lam)(1 + (lam-1)/(2s)) inverted
    for k, c in v.coefficients.items():
        for p, q in _shifted_reciprocal_powers(k, w, order).items():
            out[p] = out.get(p, Fraction(0)) + lam * c * Fraction(lam) ** k * q
    for k, c in v.coefficients.items():
        out[k] = out.get(k, Fraction(0)) - c
    return LaurentSeries({k: c for k, c in out.items() if c and k >= 1}, order)


def mu2_series(order):
    """mu_lambda_series at lam=2: -1/(8s) - 1/(16 s^2) + 1/(192 s^3) + ..."""
    return mu_lambda_series(order, lam=2)


def mu_lambda_leading(lam):
    """The 1/s coefficient (1 - lam^2)/24 of the lam-order expansion.

    A factor-two variant (1 - lam^2)/12 circulates for the same quantity;
    the series expansion above fixes /24, which ``verify coeffs`` reports
    alongside the variant.
    """
    if lam < 2:
        raise DomainError(f"order lambda must be >= 2, got {lam}")
    return Fraction(1 - lam * lam, 24)


def exp_series(series):
    """exp of a zero-constant u-series, truncated at series.order."""
    order = series.order
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    for k in range(1, order + 1):
        nxt = {}
        for i, ci in term.items():
            for j, cj in series.coefficients.items():
                if i + j <= order:
                    nxt[i + j] = nxt.get(i + j, Fraction(0)) + ci * cj
        term = {p: c / k for p, c in nxt.items()}
        if not term:
            break
        for p, c in term.items():
            out[p] = out.get(p, Fraction(0)) + c
    return out  # plain dict including the constant term 1


def falling_factorial_basis(alpha, order):
    """u-series of 1/((s-1)(s-2)...(s-alpha)); leading term u^alpha."""
    out = {0: Fraction(1)}
    for i in range(1, alpha + 1):
        nxt = {}
        for p, c in out.items():
            for k in range(0, order - alpha + 1 - p):
                nxt[p + k] = nxt.get(p + k, Fraction(0)) + c * Fraction(i) ** k
        out = nxt
    return {p + alpha: c for p, c in out.items() if p + alpha <= order}


def derive_kernel_coefficients(alpha0, lam=2):
    """gamma_0..gamma_alpha0 from exp(mu_lambda) re-expressed in the
    falling-factorial basis 1, 1/(s-1), 1/((s-1)(s-2)), ...

    The change of basis is unitriangular, so exact forward substitution
    over rationals recovers the coefficients with zero tolerance.
    """
    if alpha0 < 0:
        raise DomainError(f"kernel order must be >= 0, got {alpha0}")
    expanded = exp_series(mu_lambda_series(max(alpha0, 1), lam=lam))
    gammas = [Fraction(1)]
    bases = [falling_factorial_basis(a, alpha0) for a in range(alpha0 + 1)]
    for a in range(1, alpha0 + 1):
        acc = expanded.get(a, Fraction(0))
        for b in range(1, a):
            acc -= gammas[b] * bases[b].get(a, Fraction(0))
        gammas.append(acc)
    return KernelCoefficients(gamma=tuple(gammas), order=alpha0, lam=lam)


def kernel_basis_roundtrip(coeffs):
    """Rebuild the exp-series coefficients from gamma; exact when correct."""
    order = coeffs.order
    recon = {0: Fraction(1)}
    for a in range(1, order + 1):
        for p, c in falling_factorial_basis(a, order).items():
            recon[p] = recon.get(p, Fraction(0)) + coeffs.gamma[a] * c
    return recon


# ------------------------------------------------- functional-equation factor

def _log_cos_half_pi(s):
    """log cos(pi s / 2) without overflow for large |Im s|."""
    z = 0.5 * math.pi * s
    if z.imag >= 0:
        return -1j * z + np.log1p(np.exp(2j * z)) - math.log(2)
    return 1j * z + np.log1p(np.exp(-2j * z)) - math.log(2)


def inv_chi(s):
    """1/chi(s) = 2 (2 pi)^-s Gamma(s) cos(pi s / 2), assembled in log space."""
    s = complex(s)
    logv = math.log(2) - s * complex(math.log(2 * math.pi)) + loggamma(s) + _log_cos_half_pi(s)
    return complex(np.exp(logv))


def chi_factor(sigma, t):
    """1/chi(sigma + i t) for t > 0; modulus ~ (t / 2 pi)^(sigma - 1/2)."""
    if t <= 0:
        raise DomainError(f"chi_factor needs t > 0, got {t}")
    return inv_chi(complex(sigma, t))
