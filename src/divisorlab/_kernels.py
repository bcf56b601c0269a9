"""Hot numeric kernels in NumPy.

The divisor sieve counts divisor pairs: every i <= sqrt(N) adds 2 to each
multiple m >= i*i (the pair i, m/i) and takes 1 back at m = i*i, so it
makes isqrt(N) strided passes instead of N.  The hyperbola sum adds
floor(U/i) over i <= sqrt(U) in blocks of BLOCK terms into a Python int,
so its memory is O(BLOCK) whatever U is.  ``hyperbola_dsum`` accepts
U <= HYPERBOLA_MAX_U, where every int64 block sum stays below 2**63, and
raises ResourceError above it.
"""

import math

import numpy as np

from .errors import ResourceError

BLOCK = 1 << 16

#: Largest U that ``hyperbola_dsum`` accepts.  A block sum of floor(U/i)
#: is at most U * (1 + ln BLOCK) < 2.5e18, below 2**63 = 9.22e18.
HYPERBOLA_MAX_U = 2 * 10**17


# ------------------------------------------------------------------ sieve

def divisor_sieve(n):
    """d(n) for 1 <= n <= N as an int64 array indexed by n (slot 0 unused)."""
    out = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, math.isqrt(n) + 1):
        out[i * i :: i] += 2
        out[i * i] -= 1
    return out


# ------------------------------------------------------- summatory counts

def hyperbola_dsum(u):
    """D(U) = sum_{n<=U} d(n) by the hyperbola identity, exact.

    Raises ResourceError for U > HYPERBOLA_MAX_U, before any allocation.
    """
    if u > HYPERBOLA_MAX_U:
        raise ResourceError(
            f"hyperbola sum needs U <= {HYPERBOLA_MAX_U} for exact int64 partial "
            f"sums, got U = {u}"
        )
    s = math.isqrt(u)
    total = 0
    for lo in range(1, s + 1, BLOCK):
        hi = min(lo + BLOCK, s + 1)
        total += int((u // np.arange(lo, hi, dtype=np.int64)).sum())
    return 2 * total - s * s


# ---------------------------------------------------- oscillatory sums

PHASE_REDUCE_ABOVE = 1e10


def _blocked_partials(w, sqrtn, c, phi, stops):
    """sum_i w[i] * cos(c * sqrtn[i] + phi) after each of ``stops`` terms:
    np.sum per block of BLOCK terms, math.fsum over the block sums."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    sqrtn = np.ascontiguousarray(sqrtn, dtype=np.float64)
    if sqrtn.size and abs(c) * float(sqrtn[-1]) > PHASE_REDUCE_ABOVE:
        sqrtn = reduced_phase(c, sqrtn)
        c = 1.0
    out = np.empty(len(stops), dtype=np.float64)
    parts = []
    prev = 0
    for k, stop in enumerate(stops):
        for lo in range(prev, stop, BLOCK):
            hi = min(lo + BLOCK, stop)
            parts.append(float(np.sum(w[lo:hi] * np.cos(c * sqrtn[lo:hi] + phi))))
        prev = stop
        out[k] = math.fsum(parts)
    return out


def cos_sum(w, sqrtn, c, phi):
    """sum_i w[i] * cos(c * sqrtn[i] + phi) with compensated accumulation.

    Phases beyond PHASE_REDUCE_ABOVE are pre-reduced mod 2*pi in extended
    precision so the cosine argument keeps sub-ulp accuracy.
    """
    return float(_blocked_partials(w, sqrtn, c, phi, (len(w),))[0])


def cos_sum_checkpoints(w, sqrtn, c, phi, stops):
    """Partial oscillatory sums after stops[0], stops[1], ... terms.

    ``stops`` must be increasing term counts, each <= len(w).
    """
    return _blocked_partials(w, sqrtn, c, phi, np.ascontiguousarray(stops, dtype=np.int64))


def reduced_phase(c, sqrtn):
    """c * sqrtn reduced mod 2*pi in extended precision.

    Doubles carry ~16 digits; once the raw phase exceeds ~1e10 its
    reduction mod 2*pi loses the low bits that the cosine needs, so the
    product is formed in 80-bit longdouble before reduction.
    """
    ph = np.multiply(np.longdouble(c), sqrtn.astype(np.longdouble))
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    return np.asarray(np.mod(ph, two_pi), dtype=np.float64)
