"""Reference computations the benchmark checks divisorlab's outputs against.

None of them calls divisorlab or repeats its formulas:

* d(n) for every n <= N comes from a smallest-prime-factor factorisation,
  and D(n) is its running sum, so D(n) - D(n-1) = d(n) holds by
  construction.  divisorlab counts divisors with an additive sieve.
* D(X) at a single X is sum_{k <= X} floor(X/k), summed over the blocks of
  k on which the quotient is constant.  divisorlab uses the hyperbola
  identity 2 * sum_{k <= sqrt X} floor(X/k) - floor(sqrt X)^2.
* delta(X) = D - X log X - (2 gamma - 1) X is evaluated in 50-digit mpmath
  from the reference D, and, for long scans, in 80-bit long double.  The
  tolerance is the float64 rounding bound of that formula, a few units of
  2^-52 * (D + X log X + X); it does not depend on today's digits.
* The layers of ``verify`` get references of the same kind: the K-th
  difference of a polynomial through Stirling numbers (divisorlab sums the
  2^K corners or the binomial form), the oscillatory integral of a
  polynomial in closed form at 50 digits (divisorlab uses Gauss-Legendre
  panels), the h-averaged divisor sum from the length of the shift interval
  each n is counted on (divisorlab's oracle is a midpoint rule), and the
  divisor-weighted cosine sum in long double.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

#: units of 2^-52 * (D + X log X + X) a float64 delta may be off by
DELTA_ULPS = 4.0
EPS = 2.0**-52
mpmath.mp.dps = 50
_TWO_GAMMA_MINUS_1_MP = 2 * mpmath.euler - 1
_TWO_GAMMA_MINUS_1_LD = np.longdouble(mpmath.nstr(_TWO_GAMMA_MINUS_1_MP, 30))
_PI_LD = np.longdouble(mpmath.nstr(mpmath.pi, 30))
#: long double carries at least 11 more bits than float64 (80-bit x87 or quad)
LONGDOUBLE_OK = np.finfo(np.longdouble).eps <= 2.0**-63


def divisor_counts(n):
    """d(m) for 0 <= m <= n by factorising m over its smallest prime factors."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    m = np.arange(n + 1, dtype=np.int64)
    unset = spf == 0
    spf[unset] = m[unset]  # primes are their own smallest factor
    d = np.ones(n + 1, dtype=np.int64)
    d[0] = 0
    idx = np.arange(2, n + 1)
    rest = m[2:].copy()
    prime = np.zeros(idx.size, dtype=np.int64)
    exp = np.zeros(idx.size, dtype=np.int64)
    while idx.size:
        p = spf[rest]
        new = p != prime
        d[idx[new]] *= exp[new] + 1
        exp[new] = 0
        prime = p
        exp += 1
        rest //= p
        done = rest == 1
        d[idx[done]] *= exp[done] + 1
        keep = ~done
        idx, rest, prime, exp = idx[keep], rest[keep], prime[keep], exp[keep]
    return d


def summatory_table(n):
    """D(m) = sum_{k <= m} d(k) for 0 <= m <= n, exact int64."""
    return np.cumsum(divisor_counts(n))


def summatory_blocks(x, chunk=1 << 20):
    """Exact D(x) = sum_{k<=x} floor(x/k), grouped by the value of the quotient.

    For k <= x // (s+1) the quotient exceeds s = isqrt(x) and is summed term
    by term; every larger k has quotient q <= s, and exactly
    floor(x/q) - floor(x/(q+1)) of them share the quotient q.
    """
    x = int(x)
    if x < 1:
        return 0
    s = math.isqrt(x)
    k0 = x // (s + 1)
    total = 0
    for lo in range(1, k0 + 1, chunk):
        k = np.arange(lo, min(lo + chunk, k0 + 1), dtype=np.int64)
        total += int((x // k).sum())
    for lo in range(1, s + 1, chunk):
        q = np.arange(lo, min(lo + chunk, s + 1), dtype=np.int64)
        total += int((q * (x // q - x // (q + 1))).sum())
    return total


def delta_mp(x, d_sum):
    """delta(x) in 50-digit arithmetic, x taken as the exact float64 value."""
    xm = mpmath.mpf(float(x))
    return d_sum - xm * mpmath.log(xm) - _TWO_GAMMA_MINUS_1_MP * xm


def delta_bound(x, d_sum):
    """float64 rounding bound of D - X log X - (2 gamma - 1) X."""
    x = float(x)
    return DELTA_ULPS * EPS * (float(d_sum) + x * math.log(x) + x)


def delta_errors_mp(xs, d_sums, deltas):
    """Indices whose delta is outside the rounding bound of the mpmath value."""
    bad = []
    for i, (x, d, got) in enumerate(zip(xs, d_sums, deltas)):
        if not abs(mpmath.mpf(float(got)) - delta_mp(x, int(d))) <= delta_bound(x, d):
            bad.append(i)
    return bad


def delta_errors_longdouble(xs, d_sums, deltas):
    """Vectorised form of delta_errors_mp for long scans (needs LONGDOUBLE_OK)."""
    xl = np.asarray(xs, dtype=np.float64).astype(np.longdouble)
    dl = np.asarray(d_sums, dtype=np.int64).astype(np.longdouble)
    ref = dl - xl * np.log(xl) - _TWO_GAMMA_MINUS_1_LD * xl
    x = np.asarray(xs, dtype=np.float64)
    bound = DELTA_ULPS * EPS * (np.asarray(d_sums, dtype=np.float64) + x * np.log(x) + x)
    err = np.abs(np.asarray(deltas, dtype=np.float64).astype(np.longdouble) - ref)
    return np.flatnonzero(~(err <= bound)).tolist()


def delta_table_longdouble(summatory):
    """delta(X) for X = 1..len(summatory)-1 in long double from exact D(X)."""
    xl = np.arange(1, len(summatory), dtype=np.longdouble)
    return summatory[1:].astype(np.longdouble) - xl * np.log(xl) - _TWO_GAMMA_MINUS_1_LD * xl


# ------------------------------------------------- references for verify layers

def kth_difference_poly(coeffs, step, k):
    """Delta_step^K f(0) for f(z) = sum c_i z^i, exactly: sum_i c_i step^i K! S(i, K).

    S(i, K) are Stirling numbers of the second kind; the K-th difference of
    z^i at 0 with unit step is K! S(i, K).
    """
    n = len(coeffs) - 1
    stirling = [[0] * (k + 1) for _ in range(n + 1)]
    stirling[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            stirling[i][j] = j * stirling[i - 1][j] + stirling[i - 1][j - 1]
    total = Fraction(0)
    for i in range(k, n + 1):
        total += Fraction(coeffs[i]) * Fraction(step) ** i * stirling[i][k]
    return total * math.factorial(k)


def oscillatory_integral_poly(coeffs, lo, hi, omega, phase):
    """integral over [lo, hi] of sum c_m u^m cos(omega u + phase), in closed form.

    Re(e^(i phase) [F]), F(u) = e^(i omega u) sum_m c_m sum_j (-1)^j m!/(m-j)!
    u^(m-j) / (i omega)^(j+1), evaluated at 50 digits from the float inputs.
    """
    iw = mpmath.mpc(0, omega)

    def antiderivative(u):
        u = mpmath.mpf(u)
        total = mpmath.mpc(0)
        for m, c in enumerate(coeffs):
            inner = mpmath.mpc(0)
            for j in range(m + 1):
                inner += (-1) ** j * math.perm(m, j) * u ** (m - j) / iw ** (j + 1)
            total += mpmath.mpf(c) * inner
        return mpmath.expj(mpmath.mpf(omega) * u) * total

    return float(mpmath.re(mpmath.expj(mpmath.mpf(phase)) * (antiderivative(hi) - antiderivative(lo))))


def oscillatory_bound(coeffs, lo, hi, omega, phase):
    """float64 rounding bound of a quadrature sum of g(u) cos(omega u + phase):
    the cosine argument is off by a few ulps of |omega| hi + |phase|, and the
    sum of (16 per period, plus a few panels) node terms adds one ulp each."""
    g_max = sum(abs(c) * max(abs(lo), abs(hi)) ** m for m, c in enumerate(coeffs))
    nodes = 16 * (abs(omega) * (hi - lo) / (2 * math.pi) + 5)
    return 16 * EPS * (hi - lo) * g_max * (abs(omega) * hi + abs(phase) + nodes)


def averaged_divisor_sum(a, b, h0, d):
    """(1/h0) * integral over h in [0, h0) of sum_{(a+h)^2 < n <= (b+h)^2} d(n).

    n is counted for the shifts r - b <= h < r - a, r = sqrt(n); the average
    is the d(n)-weighted length of that interval within [0, h0), over h0.
    """
    lo = math.floor(a * a) + 1
    hi = math.floor((b + h0) ** 2)
    n = np.arange(lo, hi + 1)
    r = np.sqrt(n.astype(np.float64))
    length = np.clip(np.minimum(h0, r - a) - np.maximum(0.0, r - b), 0.0, None)
    return math.fsum((d[lo : hi + 1] * length).tolist()) / h0


def exp_sum_reference(d, x, alpha, beta, a, b):
    """sum_{a < n <= b} d(n) n^-alpha cos(4 pi sqrt(x n) + beta), and the
    float64 rounding bound of evaluating it: a few ulps of each cosine
    argument, weighted by |term|, plus one ulp of sum |terms| per term."""
    lo, hi = math.floor(a) + 1, math.floor(b)
    n = np.arange(lo, hi + 1, dtype=np.longdouble)
    w = d[lo : hi + 1].astype(np.longdouble) * n ** np.longdouble(-alpha)
    arg = 4 * _PI_LD * np.sqrt(np.longdouble(x) * n) + np.longdouble(beta)
    ref = float(np.sum(w * np.cos(arg)))
    wf, argf = w.astype(np.float64), arg.astype(np.float64)
    bound = EPS * float(np.sum(np.abs(wf) * (8 * np.abs(argf) + 8)) + len(wf) * np.sum(np.abs(wf)))
    if not LONGDOUBLE_OK:
        bound *= 2  # the reference itself carries float64 rounding
    return ref, bound
