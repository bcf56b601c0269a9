"""Parameter scaffold for the gap construction, the empty-interval
property it forces, the Lambda series evaluator, and empirical
error-term exponent diagnostics.

The construction places squared points (B + theta + xi)^2 with

    B = sqrt(U) + (k + j) / (2 sqrt U) + eta,
    eta = (number of active steps) * k1 / sqrt(U),
    xi in [xi1, xi2] = [1/(16 sqrt U), 3/(16 sqrt U)],
    |theta| <= 5 sqrt(L) / A,  A = C0 sqrt(U L),

so that the fractional part of the square lands inside (1/20, 9/20) and
the window ((B+theta+xi1)^2, (B+theta+xi2)^2] contains no integer.  The
fractional part is computed from the expanded square

    U + (k+j) + 2*count*k1 + [2 sqrt(U)(theta+xi) + s^2],
    s = (k+j)/(2 sqrt U) + eta + theta + xi,

with the integer block exact in int arithmetic and only the O(1) bracket
in floats; squaring B directly would need > 53 bits once U > 1e8.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, divisor_core
from .errors import DomainError, PrecisionError, ResourceError, require_count

#: largest U for which the split arithmetic keeps full float headroom
MAX_U = 1 << 50

BAND_LO = 1.0 / 20.0
BAND_HI = 9.0 / 20.0


class ScaledRegimeWarning(UserWarning):
    """Emitted when C0 is below the fully-safe reference scale 200."""


@dataclass(frozen=True)
class ConstructionParams:
    x: float
    x2: float
    c0: float
    u: int
    log_x2: float          # L
    a_gauss: float         # A = C0 sqrt(U L)
    k_diff: int            # K = floor(C0 L / log L)
    m0: int
    v_window: float        # V = X2^(1/log L)
    eps0: float
    j0: int
    xi1: float
    xi2: float

    @property
    def theta_max(self):
        return 5.0 * math.sqrt(self.log_x2) / self.a_gauss

    @property
    def margin(self):
        """Available head-room for s^2 in the band derivation:
        3/40 - 10/C0 (negative in violable regimes)."""
        return 3.0 / 40.0 - 10.0 / self.c0


def build_params(x, x2, c0):
    """Derive the full parameter bundle from (X, X2, C0).

    The reference scale is C0 >= 200; smaller values are allowed for
    scaled or deliberately violable runs and trigger ScaledRegimeWarning.
    The m0 definition appears with and without a factor 2 in circulation;
    this takes the factor-1 reading, m0 = max(1, floor(sqrt(X2) / L^2)).
    """
    if x < 3:
        raise DomainError(f"need X >= 3, got {x}")
    if x2 < x:
        raise DomainError(f"need X <= X2, got X={x}, X2={x2}")
    if c0 < 1:
        raise DomainError(f"need C0 >= 1, got {c0}")
    log_x2 = math.log(x2)
    if log_x2 <= math.e:
        raise DomainError(f"need log X2 > e, got {log_x2}")
    if c0 < 200:
        warnings.warn(
            f"C0 = {c0} is below the reference scale 200; margins shrink to "
            f"{3 / 40 - 10 / c0:.4f}",
            ScaledRegimeWarning,
            stacklevel=2,
        )
    u = int(math.floor(x))
    if u > MAX_U:
        raise PrecisionError(
            f"U = {u} exceeds {MAX_U}; the split fractional-part arithmetic "
            "would lose float headroom"
        )
    eps0 = 1.0 / math.log(log_x2)
    v_window = x2**eps0
    return ConstructionParams(
        x=float(x),
        x2=float(x2),
        c0=float(c0),
        u=u,
        log_x2=log_x2,
        a_gauss=c0 * math.sqrt(u * log_x2),
        k_diff=int(math.floor(c0 * log_x2 / math.log(log_x2))),
        m0=max(1, int(math.floor(math.sqrt(x2) / log_x2**2))),
        v_window=v_window,
        eps0=eps0,
        j0=int(math.floor(math.sqrt(v_window) * log_x2)),
        xi1=1.0 / (16.0 * math.sqrt(u)),
        xi2=3.0 / (16.0 * math.sqrt(u)),
    )


@dataclass(frozen=True)
class GapWitness:
    b_value: float
    theta: float
    xi: float
    frac: float
    in_band: bool


@dataclass(frozen=True)
class TupleChoice:
    """One admissible-candidate tuple (k, j, eta selection)."""

    k: int
    j: int
    k1: int
    eta_count: int


def _eta_count(eta_choice):
    arr = np.asarray(eta_choice)
    if arr.ndim == 0:
        return int(arr)
    if not np.all((arr == 0) | (arr == 1)):
        raise DomainError("eta selection must be a 0/1 vector")
    return int(arr.sum())


def _small_parts(p, k, j, count, k1, theta, xi):
    """(integer block beyond U, O(1) real remainder r) of (B+theta+xi)^2."""
    sqrt_u = math.sqrt(p.u)
    s = (k + j) / (2.0 * sqrt_u) + count * k1 / sqrt_u + theta + xi
    r = 2.0 * sqrt_u * (theta + xi) + s * s
    return k + j + 2 * count * k1, r


def b_value(p, k, j, eta_choice, k1):
    count = _eta_count(eta_choice)
    sqrt_u = math.sqrt(p.u)
    return sqrt_u + (k + j) / (2.0 * sqrt_u) + count * k1 / sqrt_u


def gap_witness(p, k, j, eta_choice, k1, theta, xi):
    """Fractional part of (B + theta + xi)^2 via the split arithmetic."""
    if p.u > MAX_U:
        raise PrecisionError(f"U = {p.u} beyond split-arithmetic range")
    count = _eta_count(eta_choice)
    _, r = _small_parts(p, k, j, count, k1, theta, xi)
    frac = r - math.floor(r)
    return GapWitness(
        b_value=b_value(p, k, j, count, k1),
        theta=theta,
        xi=xi,
        frac=frac,
        in_band=BAND_LO < frac < BAND_HI,
    )


def s_of_b_count(p, k, j, eta_choice, k1, theta):
    """Exact number of integers in ((B+theta+xi1)^2, (B+theta+xi2)^2].

    Zero for admissible tuples: the whole sum collapses without touching
    the Gaussian integral it would otherwise weight.
    """
    count = _eta_count(eta_choice)
    _, r_lo = _small_parts(p, k, j, count, k1, theta, p.xi1)
    _, r_hi = _small_parts(p, k, j, count, k1, theta, p.xi2)
    return int(math.floor(r_hi)) - int(math.floor(r_lo))


def interval_width_check(p, b_val, theta):
    """(B+theta+xi2)^2 - (B+theta+xi1)^2, stably as a product."""
    return (p.xi2 - p.xi1) * (2.0 * b_val + 2.0 * theta + p.xi1 + p.xi2)


def is_admissible(p, k, j, count, k1, theta):
    """Sufficient condition for the band property: s(xi)^2 must fit inside
    the margin 3/40 - 10/C0 at both window ends."""
    margin = p.margin
    if margin <= 0:
        return False
    if abs(theta) > p.theta_max * (1 + 1e-12):
        return False
    sqrt_u = math.sqrt(p.u)
    for xi in (p.xi1, p.xi2):
        s = (k + j) / (2.0 * sqrt_u) + count * k1 / sqrt_u + theta + xi
        if s * s >= margin * (1.0 - 1e-9):
            return False
    return True


def sample_admissible(p, rng):
    """One admissible tuple: k <= m and k1 in the upper m0 band, j within
    the j-budget left by the margin, eta with an in-budget active count."""
    if p.margin <= 0:
        raise DomainError(
            f"C0 = {p.c0} leaves no admissibility margin; sample the "
            "violable regime with sample_unconstrained instead"
        )
    m_low, m_high = p.m0 + 1, 2 * p.m0
    sqrt_u = math.sqrt(p.u)
    s_cap = math.sqrt(p.margin) * (1 - 1e-6)
    for _ in range(10000):
        m = int(rng.integers(m_low, m_high + 1))
        k = int(rng.integers(0, m + 1))
        k1 = int(rng.integers(m_low, m_high + 1))
        theta = rng.uniform(-p.theta_max, p.theta_max)
        # joint budget for y = j/(2 sqrt U) + count k1 / sqrt U given the
        # rest: |base + y + xi| <= s_cap at both window ends
        base = k / (2.0 * sqrt_u) + theta
        y_lo = -s_cap - p.xi1 - base
        y_hi = s_cap - p.xi2 - base
        if y_hi <= y_lo:
            continue
        count_max = min(p.k_diff, int(max(0.0, y_hi) * sqrt_u / k1))
        count = int(rng.integers(0, count_max + 1)) if count_max > 0 else 0
        eta = count * k1 / sqrt_u
        j_low = max(-p.j0, int(math.ceil((y_lo - eta) * 2 * sqrt_u)))
        j_high = min(p.j0, int(math.floor((y_hi - eta) * 2 * sqrt_u)))
        if j_low > j_high:
            continue
        j = int(rng.integers(j_low, j_high + 1))
        if is_admissible(p, k, j, count, k1, theta):
            return TupleChoice(k=k, j=j, k1=k1, eta_count=count), theta
    raise ResourceError("no admissible tuple found in 10000 draws")


def sample_unconstrained(p, rng):
    """One tuple from the raw parameter box (negative-control sampling).

    theta spans the whole window: with small C0 the swing 2 sqrt(U) theta
    reaches +-10/C0, so intermediate theta (not just the exact extremes,
    which shift the square by a near-integer) push the fractional part
    out of the band."""
    m = int(rng.integers(p.m0 + 1, 2 * p.m0 + 1))
    k = int(rng.integers(0, m + 1))
    k1 = int(rng.integers(p.m0 + 1, 2 * p.m0 + 1))
    count = int(rng.integers(0, p.k_diff + 1))
    j = int(rng.integers(-p.j0, p.j0 + 1))
    theta = rng.uniform(-p.theta_max, p.theta_max)
    return TupleChoice(k=k, j=j, k1=k1, eta_count=count), theta


def admissible_sweep(p, samples, seed):
    """Band and empty-interval rates over seeded admissible tuples."""
    require_count("samples", samples)
    rng = np.random.default_rng(seed)
    in_band = 0
    zero_count = 0
    violations = []
    for _ in range(samples):
        choice, theta = sample_admissible(p, rng)
        xi = rng.uniform(p.xi1, p.xi2)
        w = gap_witness(p, choice.k, choice.j, choice.eta_count, choice.k1, theta, xi)
        c = s_of_b_count(p, choice.k, choice.j, choice.eta_count, choice.k1, theta)
        in_band += w.in_band
        zero_count += c == 0
        if not w.in_band or c != 0:
            violations.append(
                {"tuple": vars(choice), "theta": theta, "xi": xi, "frac": w.frac, "count": c}
            )
    return {
        "samples": samples,
        "in_band_rate": in_band / samples,
        "zero_count_rate": zero_count / samples,
        "violations": violations,
    }


def find_violation(p, seed):
    """Search the raw box (10^5 draws at most) for a tuple breaking the
    band or the empty interval; the violable regime (small C0) yields one
    quickly."""
    rng = np.random.default_rng(seed)
    for _ in range(10**5):
        choice, theta = sample_unconstrained(p, rng)
        xi = rng.uniform(p.xi1, p.xi2)
        w = gap_witness(p, choice.k, choice.j, choice.eta_count, choice.k1, theta, xi)
        c = s_of_b_count(p, choice.k, choice.j, choice.eta_count, choice.k1, theta)
        if not w.in_band or c != 0:
            return {
                "tuple": vars(choice),
                "theta": theta,
                "xi": xi,
                "frac": w.frac,
                "count": c,
            }
    return None


def construct_check(u, c0, samples, seed):
    """CLI-facing sweep: admissible rates plus one negative-control search
    in the C0 = 1 regime at the same U."""
    x = float(u)
    p = build_params(x, x, c0)
    out = admissible_sweep(p, samples, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaledRegimeWarning)
        p_violable = build_params(x, x, 1.0)
    out["negative_control"] = find_violation(p_violable, seed)
    out["u"] = u
    out["c0"] = c0
    out["seed"] = seed
    return out


# ----------------------------------------------------- Lambda evaluator

def lambda_evaluator(x, p, c1, c2, n_cut):
    """Linear-in-coefficients double series

        Lambda(X) = X/(m0+1)^2 sum_{a<=4K} C1(a) S_{5/4}(a)
                  + sqrt(X)/(m0+1) sum_{a<=4K+2} C2(a) S_{7/4}(a),

        S_p(a) = sum_{n<=N} d(n) n^-p cos(4 pi sqrt(n) (sqrt X +
                 a m0 / (2 sqrt X)) - pi/4 - p pi/2 ... )

    with the phase offsets -3pi/4 and -5pi/4 on the two blocks.  The
    coefficient arrays are caller-supplied (no ground-truth values exist);
    zero entries skip their inner sum entirely.
    """
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    if c1.shape != (4 * p.k_diff,):
        raise DomainError(f"C1 must have length 4K = {4 * p.k_diff}, got {c1.size}")
    if c2.shape != (4 * p.k_diff + 2,):
        raise DomainError(f"C2 must have length 4K+2 = {4 * p.k_diff + 2}, got {c2.size}")
    n_limit = int(min(n_cut, math.floor(p.x2 * p.log_x2**2 / p.v_window)))
    if n_limit < 1:
        return 0.0
    table = divisor_core.sieve_divisors(n_limit)
    n = np.arange(1, n_limit + 1, dtype=np.float64)
    sqrtn = np.sqrt(n)
    dn = table.values[1 : n_limit + 1].astype(np.float64)
    w1 = dn * n**-1.25
    w2 = dn * n**-1.75
    sx = math.sqrt(x)
    total = 0.0
    for a_idx in np.nonzero(c1)[0]:
        a = int(a_idx) + 1
        c = 4.0 * math.pi * (sx + a * p.m0 / (2.0 * sx))
        total += (
            x
            / (p.m0 + 1) ** 2
            * float(c1[a_idx])
            * _kernels.cos_sum(w1, sqrtn, c, -3.0 * math.pi / 4.0)
        )
    for a_idx in np.nonzero(c2)[0]:
        a = int(a_idx) + 1
        c = 4.0 * math.pi * (sx + a * p.m0 / (2.0 * sx))
        total += (
            sx
            / (p.m0 + 1)
            * float(c2[a_idx])
            * _kernels.cos_sum(w2, sqrtn, c, -5.0 * math.pi / 4.0)
        )
    return total


def lambda_triangle_ceiling(p, c1, c2, n_cut):
    """Term-wise triangle-inequality ceiling for |Lambda(X)|."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    n_limit = int(min(n_cut, math.floor(p.x2 * p.log_x2**2 / p.v_window)))
    table = divisor_core.sieve_divisors(n_limit)
    n = np.arange(1, n_limit + 1, dtype=np.float64)
    dn = table.values[1 : n_limit + 1].astype(np.float64)
    s1 = float(np.sum(dn * n**-1.25))
    s2 = float(np.sum(dn * n**-1.75))
    x = p.x
    return (
        np.abs(c1).max(initial=0.0) * x / (p.m0 + 1) ** 2 * 4 * p.k_diff * s1
        + np.abs(c2).max(initial=0.0) * math.sqrt(x) / (p.m0 + 1) * (4 * p.k_diff + 2) * s2
    )


# ----------------------------------------------------- toy composition

def toy_omega():
    """Structural stand-in for the full weighted composition over
    (j, k1, m, k) of K-fold differenced window sums.

    At reference scale the composition runs over K ~ C0 L / log L
    difference directions and m0 ~ sqrt(X2)/L^2 shifts; the binomial
    weights C(K, K/2) alone overflow any fixed-width significand long
    before those sizes, so the full object is out of numeric reach.  This
    toy keeps the exact structure at U = 10^6, C0 = 200, K = 8, m0 = 4
    and j0 capped at 40, and verifies by interval arithmetic that every
    window sum is empty, whence the whole composition is exactly zero.
    """
    p = build_params(1e6, 1e6, 200.0)
    p = replace(p, k_diff=8, m0=4, j0=min(p.j0, 40))
    checked = 0
    for j in range(-p.j0, p.j0 + 1):
        for k1 in range(p.m0 + 1, 2 * p.m0 + 1):
            for m in range(p.m0 + 1, 2 * p.m0 + 1):
                for k in range(0, m + 1):
                    for count in range(0, p.k_diff + 1):
                        # interval arithmetic over theta: r is increasing in
                        # theta, so the extremes bracket every window end
                        ok = True
                        for theta in (-p.theta_max, p.theta_max):
                            for xi in (p.xi1, p.xi2):
                                _, r = _small_parts(p, k, j, count, k1, theta, xi)
                                ok &= BAND_LO < r < BAND_HI
                        if not ok:
                            raise PrecisionError(
                                "toy composition left the proven band; enlarge "
                                "C0 or shrink the toy ranges"
                            )
                        checked += 1
    return {"value": 0.0, "window_sums_checked": checked}


# ------------------------------------------------- exponent diagnostics

def delta_exponent_scan(x_hi):
    """Dyadic-block diagnostics of the error term up to x_hi.

    Per block [2^t, 2^(t+1)): max |delta|, sign-change count; fitted are
    the log-log slope of the block maxima and the growth exponent of the
    cumulative sum of delta(X)^2 (classical expectation ~ T^(3/2))."""
    x_hi = int(x_hi)
    t_max = int(math.floor(math.log2(x_hi)))
    if t_max < 4:
        raise DomainError(f"need at least 4 dyadic blocks, got x_hi = {x_hi}")
    cumsum = divisor_core.sieve_divisors(x_hi).summatory()
    xs = np.arange(1, x_hi + 1, dtype=np.float64)
    deltas = cumsum[1:].astype(np.float64) - xs * np.log(xs) - (2 * divisor_core.EULER_GAMMA - 1) * xs

    blocks = []
    for t in range(0, t_max):
        lo, hi = 2**t, min(2 ** (t + 1), x_hi)
        if hi <= lo:
            break
        seg = deltas[lo - 1 : hi]
        signs = np.signbit(seg)
        blocks.append(
            {
                "t": t,
                "lo": lo,
                "hi": hi,
                "max_abs": float(np.abs(seg).max()),
                "sign_changes": int(np.sum(signs[1:] != signs[:-1])),
            }
        )
    mids = np.array([math.sqrt(b["lo"] * b["hi"]) for b in blocks])
    maxes = np.array([b["max_abs"] for b in blocks])
    skip = 3 if len(blocks) >= 8 else 0  # drop the noisy leading blocks when affordable
    max_slope = float(np.polyfit(np.log(mids[skip:]), np.log(maxes[skip:]), 1)[0])

    sq_cumsum = np.cumsum(deltas * deltas)
    ts = 2 ** np.arange(min(6, t_max - 1), t_max + 1)
    ts = ts[ts <= x_hi]
    ms_slope = float(np.polyfit(np.log(ts), np.log(sq_cumsum[ts - 1]), 1)[0])
    return {
        "x_hi": x_hi,
        "blocks": blocks,
        "max_abs_slope": max_slope,
        "mean_square_exponent": ms_slope,
    }
