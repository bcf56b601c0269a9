"""Two-sided evaluation of the generalized Gaussian lattice-sum identity

    (1/sqrt V) sum_j exp(-pi (j+b)^2 / V) e(j x) (j+b)^m0
        = sum_j exp(-pi V (j+x)^2) e(-b (x+j)) p_m0(x, j)

for Re V > 0, real b, complex x, integer m0 >= 0, where e(z) = exp(2 pi i z)
and p_m0 is the closed-form Gaussian moment polynomial

    p_m0(x, j) = sum_{2 nu <= m0} C(m0, 2 nu) (2 nu - 1)!! (V/(2 pi))^nu
                 * (V i (x+j))^(m0 - 2 nu),    (-1)!! = 1.

Both sides are summed independently with Gaussian-envelope truncation, so
their agreement is a genuine two-route check, not an algebraic identity of
the code.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, require_seed

#: stop once the two-sided tail bound drops below this times the peak term
TAIL_RATIO = 1e-18

#: refuse truncations beyond this many terms per side
MAX_TERMS = 10**6


@dataclass(frozen=True)
class ThetaSpec:
    v: complex
    b: float
    m0: int
    x: complex

    def __post_init__(self):
        if complex(self.v).real <= 0:
            raise DomainError(f"Re V must be positive, got {self.v}")
        if self.m0 < 0:
            raise DomainError(
                f"polynomial weight degree m0 must be >= 0, got {self.m0}"
            )


@dataclass(frozen=True)
class ThetaReport:
    spec: ThetaSpec
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    lhs_terms: int
    rhs_terms: int
    tolerance: float
    passed: bool


def _sum_two_sided(term_log_env, term_value, j_max_cap=MAX_TERMS):
    """Sum term_value(j) over j = 0, -1, +1, -2, ... until the envelope says
    both tails are negligible against the largest term seen so far.

    term_log_env(j) must be an upper bound for log|term(j)| that is
    eventually decreasing in |j| on both sides.
    """
    total_re, total_im = [], []
    peak = -math.inf
    j = 0
    ring = 0
    quiet = 0
    while True:
        js = [0] if ring == 0 else [-ring, ring]
        level = -math.inf
        for j in js:
            val = term_value(j)
            total_re.append(val.real)
            total_im.append(val.imag)
            level = max(level, term_log_env(j))
        peak = max(peak, level)
        if level < peak + math.log(TAIL_RATIO):
            quiet += 1
            # ask for a few consecutive quiet rings: the envelope may dip
            # between the two Gaussian humps when the center is offset
            if quiet >= 3:
                break
        else:
            quiet = 0
        ring += 1
        if ring > j_max_cap:
            raise ResourceError(
                f"series truncation exceeded {j_max_cap} terms per side "
                "without meeting the tail target"
            )
    return complex(math.fsum(total_re), math.fsum(total_im)), 2 * ring + 1


def _direct_side(spec, j_trunc, max_terms):
    """psi_direct's value and the number of terms it summed."""
    v, b, m0, x = complex(spec.v), spec.b, spec.m0, complex(spec.x)
    inv_v_re = (1 / v).real
    x2 = x.imag
    sqrt_v = cmath.sqrt(v)

    def term(j):
        base = cmath.exp(-math.pi * (j + b) ** 2 / v + 2j * math.pi * j * x)
        if m0 == 0:
            return base  # (j+b)^0 == 1 including at j+b == 0
        return base * (j + b) ** m0

    def log_env(j):
        r = abs(j + b)
        poly = m0 * math.log(r) if (m0 and r > 0) else 0.0
        return -math.pi * inv_v_re * (j + b) ** 2 + 2 * math.pi * abs(j) * abs(x2) + poly

    if j_trunc is not None:
        vals = [term(j) for j in range(-j_trunc, j_trunc + 1)]
        total = complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
        return total / sqrt_v, len(vals)
    total, count = _sum_two_sided(log_env, term, j_max_cap=max_terms)
    return total / sqrt_v, count


def psi_direct(spec, j_trunc=None, max_terms=MAX_TERMS):
    """Left side: Gaussian-of-width-V lattice sum with character and
    polynomial weight; truncation chosen from the Gaussian envelope."""
    return _direct_side(spec, j_trunc, max_terms)[0]


def _double_factorial_odd(k):
    # (2 nu - 1)!! with (-1)!! = 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def p_weight(spec, j):
    """Gaussian-moment polynomial p_m0(x, j); equals the integral
    int exp(-pi theta^2) (V i (x+j) + sqrt(V) theta)^m0 dtheta."""
    v, m0, x = complex(spec.v), spec.m0, complex(spec.x)
    core = v * 1j * (x + j)
    total = 0j
    for nu in range(0, m0 // 2 + 1):
        total += (
            math.comb(m0, 2 * nu)
            * _double_factorial_odd(2 * nu - 1)
            * (v / (2 * math.pi)) ** nu
            * core ** (m0 - 2 * nu)
        )
    return total


def _transformed_side(spec, j_trunc, max_terms):
    """psi_transformed's value and the number of terms it summed."""
    v, b, m0, x = complex(spec.v), spec.b, spec.m0, complex(spec.x)
    v_re = v.real
    x1, x2 = x.real, x.imag
    abs_v = abs(v)

    def term(j):
        return (
            cmath.exp(-math.pi * v * (j + x) ** 2 - 2j * math.pi * b * (x + j))
            * p_weight(spec, j)
        )

    def log_env(j):
        # |exp(-pi V (j+x)^2)| = exp(-pi Re(V (j+x)^2))
        quad = v_re * ((j + x1) ** 2 - x2 * x2) - 2 * v.imag * (j + x1) * x2
        r = abs_v * abs(complex(j + x1, x2))
        poly = m0 * math.log(max(r, 1e-300)) + m0 if m0 else 0.0
        return -math.pi * quad + 2 * math.pi * abs(b * x2) + poly

    if j_trunc is not None:
        vals = [term(j) for j in range(-j_trunc, j_trunc + 1)]
        return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals)), len(vals)
    return _sum_two_sided(log_env, term, j_max_cap=max_terms)


def psi_transformed(spec, j_trunc=None, max_terms=MAX_TERMS):
    """Right side: Gaussian of width 1/V with phase shift and p_m0 weight."""
    return _transformed_side(spec, j_trunc, max_terms)[0]


def verify_theta(spec, tol_scale=1e-10, max_terms=MAX_TERMS):
    """Residual report for one spec; PASS iff |LHS-RHS| <= tol*(1+|LHS|)."""
    lhs, lhs_terms = _direct_side(spec, None, max_terms)
    rhs, rhs_terms = _transformed_side(spec, None, max_terms)
    abs_res = abs(lhs - rhs)
    tol = tol_scale * (1 + abs(lhs))
    return ThetaReport(
        spec=spec,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=abs_res / (1 + abs(lhs)),
        lhs_terms=lhs_terms,
        rhs_terms=rhs_terms,
        tolerance=tol,
        passed=abs_res <= tol,
    )


def random_spec(rng):
    """One random ThetaSpec in the standard sweep box: Re V in [0.2, 5],
    Im V in [-2, 2], b in [-2, 2], m0 in 0..6 and |x| <= 1."""
    v = complex(rng.uniform(0.2, 5.0), rng.uniform(-2.0, 2.0))
    b = rng.uniform(-2.0, 2.0)
    m0 = int(rng.integers(0, 7))
    ang = rng.uniform(0, 2 * math.pi)
    rad = rng.uniform(0, 1.0)
    x = complex(rad * math.cos(ang), rad * math.sin(ang))
    return ThetaSpec(v=v, b=b, m0=m0, x=x)


def theta_sweep(count, seed, tol_scale=1e-10):
    """Residual reports for ``count`` seeded random specs."""
    require_seed(seed)
    rng = np.random.default_rng(seed)
    return [verify_theta(random_spec(rng), tol_scale=tol_scale) for _ in range(count)]
