"""Endpoint-corrected Fourier summation, h-averaged divisor sums, and
smoothed averages of the divisor error term.

Three families of checks live here, each pairing an exact route with a
series/quadrature route:

* ``fourier_sum``: sum_{a<=n<=b} f(n) against the truncated Fourier dual
  with explicit boundary terms sigma_0(a), sigma_0(b).
* ``averaged_divisor_sum``: the h-average (1/h0) int_0^h0 of
  sum_{a+h < sqrt(n) <= b+h} d(n) f(n) dh, integrated exactly over the
  breakpoints of the inner step function.
* ``smoothed_voronoi_check`` / ``smoothed_delta_average``: the averaged
  sums against their smooth main term plus oscillatory kernel series.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import divisor_core, special_functions, voronoi
from .descriptors import ConstantFn
from .divisor_core import EULER_GAMMA
from .errors import DomainError, ResourceError, require_count

TWO_PI = 2.0 * math.pi

#: kernel order of the three smoothed checks: gamma_0, gamma_1 and beta_0, beta_1
ALPHA0 = 1

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def oscillatory_integral(g, lo, hi, omega, phase):
    """integral of g(u) * cos(omega*u + phase) over [lo, hi].

    Composite 16-point Gauss-Legendre with at least 8 nodes per period of
    the fastest oscillation (one panel per period, 16 nodes each).
    """
    if hi <= lo:
        return 0.0
    periods = abs(omega) * (hi - lo) / TWO_PI
    panels = max(4, int(math.ceil(periods)) + 1)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    vals = np.asarray(g(u)) * np.cos(omega * u + phase)
    return float(np.sum(vals.reshape(panels, -1) @ _GL_WEIGHTS * half))


def smooth_integral(g, lo, hi, panels=8):
    """Composite Gauss-Legendre quadrature of a smooth non-oscillatory g."""
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    vals = np.asarray(g(u))
    return float(np.sum(vals.reshape(panels, -1) @ _GL_WEIGHTS * half))


# ------------------------------------------------------- Fourier summation

@dataclass(frozen=True)
class BoundaryTerm:
    endpoint: float
    is_integer: bool
    value: float
    ceiling: float


@dataclass(frozen=True)
class FourierSumResult:
    approx: float
    exact: float
    boundary: tuple
    n_terms: int

    @property
    def error(self):
        return self.approx - self.exact


def _is_integer(x, tol=1e-12):
    return abs(x - round(x)) <= tol


def sigma0(f, x_end, n_terms):
    """Boundary correction at one endpoint.

    Integer endpoints take the exact value f(X)/2 (the sine sum vanishes
    identically there, so the literal formula is evaluated analytically
    rather than through rounded sin(2 pi n X) terms).
    """
    require_count("n_terms", n_terms)
    fx = float(f(x_end))
    if _is_integer(x_end):
        return BoundaryTerm(endpoint=x_end, is_integer=True, value=fx / 2.0, ceiling=abs(fx) / 2.0)
    frac = x_end - math.floor(x_end)
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    sine_sum = float(np.sum(np.sin(TWO_PI * ns * x_end) / (math.pi * ns)))
    value = fx * (0.5 - frac - sine_sum)
    ceiling = (1.0 / frac + 1.0 / (1.0 - frac)) / n_terms
    return BoundaryTerm(endpoint=x_end, is_integer=False, value=value, ceiling=ceiling)


def fourier_sum(f, a, b, n_terms):
    """Truncated Fourier-dual evaluation of sum_{a<=n<=b} f(n).

    approx = sum_{|n|<=N} int_a^b f(x) e(nx) dx + sigma_0(a) + sigma_0(b);
    the n and -n integrals combine into twice the cosine integral, which
    scipy's oscillatory-weight quadrature evaluates adaptively.
    """
    if a >= b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    require_count("n_terms", n_terms)
    exact = math.fsum(float(f(n)) for n in range(math.ceil(a), math.floor(b) + 1))
    fs = lambda x: float(f(x))
    main = [quad(fs, a, b, limit=200)[0]]
    for n in range(1, n_terms + 1):
        cn = quad(fs, a, b, weight="cos", wvar=TWO_PI * n, limit=200, epsabs=1e-13)[0]
        main.append(2.0 * cn)
    s0a = sigma0(f, a, n_terms)
    s0b = sigma0(f, b, n_terms)
    approx = math.fsum(main) + s0a.value + s0b.value
    return FourierSumResult(approx=approx, exact=exact, boundary=(s0a, s0b), n_terms=n_terms)


def sawtooth_fejer(x, n_terms):
    """Partial sum of sum_n (1 - cos(2 n pi x)) / (2 pi^2 n^2), the Fourier
    expansion of int_0^x (1/2 - {y}) dy."""
    require_count("n_terms", n_terms)
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    return float(np.sum((1.0 - np.cos(TWO_PI * ns * x)) / (2.0 * math.pi**2 * ns**2)))


# -------------------------------------------------- h-averaged divisor sums

@dataclass(frozen=True)
class AveragedSumSpec:
    a: float
    b: float
    h0: float
    f: object = ConstantFn(1.0)

    def __post_init__(self):
        if not 0.9 < self.a < self.b:
            raise DomainError(f"need 0.9 < a < b, got a={self.a}, b={self.b}")
        if not 0 <= self.h0 < self.a / 2:
            raise DomainError(f"need 0 <= h0 < a/2, got h0={self.h0}")


def collapse_threshold(spec):
    """beta_0 = (b + h0)^2 - b^2 and the fractional gaps.

    When beta_0 < min(1 - {a^2}, 1 - {b^2}) no integer enters either
    boundary window, so the h-average collapses to the plain sum exactly.
    """
    a, b, h0 = spec.a, spec.b, spec.h0
    beta0 = (b + h0) ** 2 - b**2
    gap_a = 1.0 - (a**2 - math.floor(a**2))
    gap_b = 1.0 - (b**2 - math.floor(b**2))
    return beta0, gap_a, gap_b, beta0 < min(gap_a, gap_b)


def _required_sieve_limit(spec):
    return int(math.floor((spec.b + spec.h0) ** 2)) + 1


def averaged_divisor_sum(spec, table=None):
    """Exact event-driven value of the h-averaged divisor sum.

    The inner sum is a step function of the averaging shift, so each n
    contributes f(n) d(n) times the share of shifts h in [0, h0] with
    a + h < sqrt(n) <= b + h, a piecewise-linear function of sqrt(n):
    exact up to float rounding, with no quadrature error.
    """
    need = _required_sieve_limit(spec)
    if table is None:
        table = divisor_core.sieve_divisors(need)
    elif table.limit < need:
        raise ResourceError(f"table covers {table.limit}, need {need}")
    a, b, h0 = spec.a, spec.b, spec.h0
    lo = int(math.floor(a**2)) + 1            # smallest n with sqrt(n) > a
    hi = need - 1                             # largest n that can ever enter
    if hi < lo:
        return 0.0
    n = np.arange(lo, hi + 1, dtype=np.float64)
    root = n ** 0.5
    if h0 == 0.0:
        w = ((root > a) & (root <= b)).astype(np.float64)
    else:
        w = (np.minimum(root - a, h0) - np.clip(root - b, 0.0, None)).clip(0.0) / h0
    vals = table.values[lo : hi + 1].astype(np.float64) * np.asarray(spec.f(n))
    return float(math.fsum(vals * w))


def averaged_divisor_sum_riemann(spec, nodes=10**6, with_error_bound=False):
    """Midpoint-rule oracle for the same average.

    A jump of mass J crossing one grid cell is mis-measured by at most
    one node spacing, so the oracle's resolution error is bounded by
    (total boundary jump mass) / nodes; ``with_error_bound`` returns that
    rigorous bound alongside the value.
    """
    require_count("nodes", nodes)
    need = _required_sieve_limit(spec)
    table = divisor_core.sieve_divisors(need)
    a, b, h0 = spec.a, spec.b, spec.h0
    lo = int(math.floor(a**2)) + 1
    hi = need - 1
    n = np.arange(lo, hi + 1, dtype=np.float64)
    root = n ** 0.5
    vals = table.values[lo : hi + 1].astype(np.float64) * np.asarray(spec.f(n))
    prefix = np.concatenate([[0.0], np.cumsum(vals)])

    def _jump_mass():
        crossing = ((root > a) & (root <= a + h0)) | ((root > b) & (root <= b + h0))
        return float(np.sum(np.abs(vals[crossing])))

    if h0 == 0.0:
        i0, i1 = np.searchsorted(root, a, "right"), np.searchsorted(root, b, "right")
        out, bound = float(prefix[i1] - prefix[i0]), 0.0
    else:
        h = (np.arange(nodes) + 0.5) * (h0 / nodes)
        i0 = np.searchsorted(root, a + h, "right")
        i1 = np.searchsorted(root, b + h, "right")
        out, bound = float(np.sum(prefix[i1] - prefix[i0]) / nodes), _jump_mass() / nodes
    return (out, bound) if with_error_bound else out


# ----------------------------------------- smoothed sum and error checks

@dataclass(frozen=True)
class ResidualReport:
    lhs: float
    rhs: float
    params: dict

    @property
    def residual(self):
        return self.lhs - self.rhs


def _overlap_weight_pieces(a, b, h0):
    """The measure w(u) of {h in [0,h0] : a+h <= u <= b+h} is piecewise
    linear on [a, b+h0]; return (lo, hi, slope, intercept) pieces."""
    knots = sorted({a, min(a + h0, b), max(a + h0, b), b + h0})
    pieces = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        w_mid = max(0.0, min(mid - a, h0, b + h0 - mid))
        w_lo = max(0.0, min(lo - a, h0, b + h0 - lo))
        w_hi = max(0.0, min(hi - a, h0, b + h0 - hi))
        slope = (w_hi - w_lo) / (hi - lo)
        pieces.append((lo, hi, slope, w_mid - slope * mid))
    return pieces


def smoothed_main_term(spec):
    """(1/h0) int_0^h0 dh int_{(a+h)^2}^{(b+h)^2} f(x) (log x + 2 gamma) dx,
    with 16 Gauss-Legendre panels inside and 8 over h."""
    a, b, h0, f = spec.a, spec.b, spec.h0, spec.f

    def inner(h):
        lo, hi = (a + h) ** 2, (b + h) ** 2
        return smooth_integral(
            lambda x: np.asarray(f(x)) * (np.log(x) + 2 * EULER_GAMMA), lo, hi, panels=16
        )

    if h0 == 0.0:
        return inner(0.0)
    return smooth_integral(np.vectorize(inner), 0.0, h0, panels=8) / h0


def _kernel_series(spec, n_terms, table):
    """sum_{n<=N} (d(n)/h0) * double integral of f * Theta(n x); evaluated
    through the substitution u = sqrt(x) and the overlap weight in u."""
    a, b, h0, f = spec.a, spec.b, spec.h0, spec.f
    gam = special_functions.derive_kernel_coefficients(ALPHA0).as_floats()
    dn = table.values
    pieces = (
        _overlap_weight_pieces(a, b, h0)
        if h0 > 0
        else [(a, b, 0.0, 1.0)]  # weight collapses to the indicator
    )
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
                acc += c * oscillatory_integral(g, lo, hi, omega, phase)
        total.append(scale * dn[n] * acc)
    return math.fsum(total)


def smoothed_voronoi_check(spec, n_terms):
    """Exact averaged sum vs smooth main term plus N-term kernel series."""
    require_count("n_terms", n_terms)
    table = divisor_core.sieve_divisors(max(n_terms, _required_sieve_limit(spec)))
    s_exact = averaged_divisor_sum(spec, table=table)
    s_main = smoothed_main_term(spec)
    series = _kernel_series(spec, n_terms, table)
    return ResidualReport(
        lhs=s_exact,
        rhs=s_main + series,
        params={
            "a": spec.a,
            "b": spec.b,
            "h0": spec.h0,
            "n_terms": n_terms,
            "alpha0": ALPHA0,
            "main_term": s_main,
            "series": series,
        },
    )


# ------------------------------------------ smoothed delta(x^2) averages

def _delta_average_exact(x, h0, cumsum):
    """(1/h0) int_0^h0 delta((x+h)^2) dh by breakpoint integration."""
    lo_sq, hi_sq = x * x, (x + h0) ** 2
    first = int(math.floor(lo_sq)) + 1
    last = int(math.floor(hi_sq))
    cuts = [0.0] + [math.sqrt(m) - x for m in range(first, last + 1)] + [h0]
    step_part = []
    for h_lo, h_hi in zip(cuts[:-1], cuts[1:]):
        if h_hi <= h_lo:
            continue
        mid_sq = (x + 0.5 * (h_lo + h_hi)) ** 2
        step_part.append(float(cumsum[int(math.floor(mid_sq))]) * (h_hi - h_lo))

    def smooth_anti(u):
        # antiderivative of u^2 log(u^2) + (2 gamma - 1) u^2
        return (2.0 / 3.0) * u**3 * math.log(u) - (2.0 / 9.0) * u**3 + (2 * EULER_GAMMA - 1) * u**3 / 3.0

    if h0 < 1e-4:
        # the antiderivative difference cancels catastrophically when
        # divided by a tiny h0; midpoint value is exact to O(h0^2)
        mid = x + 0.5 * h0
        smooth_avg = mid * mid * (math.log(mid * mid) + 2 * EULER_GAMMA - 1)
    else:
        smooth_avg = (smooth_anti(x + h0) - smooth_anti(x)) / h0
    return math.fsum(step_part) / h0 - smooth_avg


def _phi_average(n, x, h0, betas):
    """(1/h0) int_0^h0 phi(n, (x+h)^2) dh via u = x + h."""
    acc = 0.0
    omega = 4.0 * math.pi * math.sqrt(n)
    for alpha, beta in enumerate(betas):
        c = beta * n**-0.75 / (math.sqrt(2.0) * math.pi) / (4.0 * math.pi * math.sqrt(n)) ** alpha
        phase = -math.pi / 4.0 + alpha * math.pi / 2.0
        g = lambda u: u ** (0.5 - alpha)
        acc += c * oscillatory_integral(g, x, x + h0, omega, phase)
    return acc / h0


def smoothed_delta_average(x, h0, n_terms):
    """Average of delta((x+h)^2) over h in [0,h0] vs its kernel series."""
    if x < 0.9:
        raise DomainError(f"need x >= 0.9, got {x}")
    if h0 <= 0:
        raise DomainError(f"need h0 > 0, got {h0}")
    require_count("n_terms", n_terms)
    table = divisor_core.sieve_divisors(max(int(math.floor((x + h0) ** 2)) + 1, n_terms))
    cumsum = table.summatory()
    betas = voronoi.default_betas(ALPHA0)
    lhs = _delta_average_exact(x, h0, cumsum)
    rhs = math.fsum(
        float(table.values[n]) * _phi_average(n, x, h0, betas)
        for n in range(1, n_terms + 1)
    )
    return ResidualReport(
        lhs=lhs, rhs=rhs,
        params={"x": x, "h0": h0, "n_terms": n_terms, "alpha0": ALPHA0},
    )


def weighted_delta_average(x, h1, h2, weight, n_terms):
    """int_{h1}^{h2} g(h) delta((x+h)^2) dh vs the kernel series, for a
    smooth weight g; reduces to the plain average when g = 1."""
    if not h1 < h2:
        raise DomainError(f"need h1 < h2, got [{h1}, {h2}]")
    if x + h1 < 0.9:
        raise DomainError(f"need x + h1 >= 0.9, got {x + h1}")
    require_count("n_terms", n_terms)
    table = divisor_core.sieve_divisors(max(int(math.floor((x + h2) ** 2)) + 1, n_terms))
    cumsum = table.summatory()

    lo_sq, hi_sq = (x + h1) ** 2, (x + h2) ** 2
    first, last = int(math.floor(lo_sq)) + 1, int(math.floor(hi_sq))
    cuts = [h1] + [math.sqrt(m) - x for m in range(first, last + 1)] + [h2]
    lhs_parts = []
    for a_h, b_h in zip(cuts[:-1], cuts[1:]):
        if b_h <= a_h:
            continue
        d_here = float(cumsum[int(math.floor((x + 0.5 * (a_h + b_h)) ** 2))])
        g_step = lambda h: np.asarray(weight(h)) * d_here
        g_smooth = lambda h: np.asarray(weight(h)) * (
            (x + h) ** 2 * np.log((x + h) ** 2) + (2 * EULER_GAMMA - 1) * (x + h) ** 2
        )
        lhs_parts.append(smooth_integral(g_step, a_h, b_h, panels=4))
        lhs_parts.append(-smooth_integral(g_smooth, a_h, b_h, panels=8))
    lhs = math.fsum(lhs_parts)

    betas = voronoi.default_betas(ALPHA0)
    rhs_parts = []
    for n in range(1, n_terms + 1):
        omega = 4.0 * math.pi * math.sqrt(n)
        acc = 0.0
        for alpha, beta in enumerate(betas):
            c = beta * n**-0.75 / (math.sqrt(2.0) * math.pi)
            c /= (4.0 * math.pi * math.sqrt(n)) ** alpha
            phase = -math.pi / 4.0 + alpha * math.pi / 2.0
            g = lambda u: np.asarray(weight(u - x)) * u ** (0.5 - alpha)
            acc += c * oscillatory_integral(g, x + h1, x + h2, omega, phase)
        rhs_parts.append(float(table.values[n]) * acc)
    rhs = math.fsum(rhs_parts)
    return ResidualReport(
        lhs=lhs, rhs=rhs,
        params={"x": x, "h1": h1, "h2": h2, "n_terms": n_terms, "alpha0": ALPHA0},
    )
