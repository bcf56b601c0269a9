"""Hot numeric kernels, each with a numba and a pure-NumPy implementation.

The numba builds are scalar loops with Kahan compensation; the NumPy
fallbacks reproduce the same results with blocked pairwise summation
(block size 2**16) combined by ``math.fsum``.  Dispatchers pick the
backend chosen in ``_accel`` unless an explicit ``backend=`` is passed,
which the equivalence tests and the benchmark use.

The NumPy divisor sieve counts divisor pairs: every i <= sqrt(N) adds 2
to each multiple m >= i*i (the pair i, m/i) and takes 1 back at m = i*i,
so it makes isqrt(N) strided passes instead of N.  The NumPy hyperbola
sum adds floor(U/i) over i <= sqrt(U) in blocks of BLOCK terms into a
Python int, so its memory is O(BLOCK) whatever U is.  ``hyperbola_dsum``
accepts U <= HYPERBOLA_MAX_U, where every int64 partial sum of either
backend stays below 2**63, and raises ResourceError above it.
"""

import math

import numpy as np

from ._accel import USE_NUMBA, njit
from .errors import ResourceError

BLOCK = 1 << 16

#: Largest U that ``hyperbola_dsum`` accepts.  A NumPy block sum of
#: floor(U/i) is at most U * (1 + ln BLOCK) < 2.5e18, and twice the numba
#: twin's running total is at most 2U * (1 + ln sqrt U) < 8.4e18; both stay
#: below 2**63 = 9.22e18.
HYPERBOLA_MAX_U = 2 * 10**17


def _pick(backend, numba_impl, numpy_impl):
    if backend is None:
        return numba_impl if USE_NUMBA else numpy_impl
    if backend == "numba":
        return numba_impl
    if backend == "numpy":
        return numpy_impl
    raise ValueError(f"unknown backend {backend!r}")


# ----------------------------------------------------------------- sieves

@njit
def _divisor_sieve_nb(n):
    out = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        for m in range(i, n + 1, i):
            out[m] += 1
    return out


def _divisor_sieve_np(n):
    out = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, math.isqrt(n) + 1):
        out[i * i :: i] += 2
        out[i * i] -= 1
    return out


def divisor_sieve(n, backend=None):
    """d(n) for 1 <= n <= N as an int64 array indexed by n (slot 0 unused)."""
    return _pick(backend, _divisor_sieve_nb, _divisor_sieve_np)(n)


@njit
def _unit_convolve_nb(prev):
    n = prev.shape[0] - 1
    out = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        v = prev[i]
        for m in range(i, n + 1, i):
            out[m] += v
    return out


def _unit_convolve_np(prev):
    n = prev.shape[0] - 1
    out = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        out[i::i] += prev[i]
    return out


def unit_convolve(prev, backend=None):
    """One Dirichlet-convolution pass against the unit function."""
    return _pick(backend, _unit_convolve_nb, _unit_convolve_np)(prev)


# ------------------------------------------------------- summatory counts

@njit
def _int_sqrt(u):
    # float sqrt can land one off near perfect squares at large u
    s = int(math.sqrt(u))
    while s * s > u:
        s -= 1
    while (s + 1) * (s + 1) <= u:
        s += 1
    return s


@njit
def _hyperbola_dsum_nb(u):
    s = _int_sqrt(u)
    total = 0
    for i in range(1, s + 1):
        total += u // i
    return 2 * total - s * s


def _hyperbola_dsum_np(u):
    s = math.isqrt(u)
    total = 0
    for lo in range(1, s + 1, BLOCK):
        hi = min(lo + BLOCK, s + 1)
        total += int((u // np.arange(lo, hi, dtype=np.int64)).sum())
    return 2 * total - s * s


def hyperbola_dsum(u, backend=None):
    """D(U) = sum_{n<=U} d(n) by the hyperbola identity, exact.

    Raises ResourceError for U > HYPERBOLA_MAX_U, before any allocation.
    """
    if u > HYPERBOLA_MAX_U:
        raise ResourceError(
            f"hyperbola sum needs U <= {HYPERBOLA_MAX_U} for exact int64 partial "
            f"sums, got U = {u}"
        )
    return int(_pick(backend, _hyperbola_dsum_nb, _hyperbola_dsum_np)(u))


# ---------------------------------------------------- oscillatory sums

@njit
def _cos_sum_nb(w, sqrtn, c, phi):
    total = 0.0
    comp = 0.0
    for i in range(w.shape[0]):
        term = w[i] * math.cos(c * sqrtn[i] + phi)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _cos_sum_np(w, sqrtn, c, phi):
    parts = []
    for lo in range(0, w.shape[0], BLOCK):
        hi = min(lo + BLOCK, w.shape[0])
        parts.append(float(np.sum(w[lo:hi] * np.cos(c * sqrtn[lo:hi] + phi))))
    return math.fsum(parts)


PHASE_REDUCE_ABOVE = 1e10


def cos_sum(w, sqrtn, c, phi, backend=None):
    """sum_i w[i] * cos(c * sqrtn[i] + phi) with compensated accumulation.

    Phases beyond PHASE_REDUCE_ABOVE are pre-reduced mod 2*pi in extended
    precision so the cosine argument keeps sub-ulp accuracy.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    sqrtn = np.ascontiguousarray(sqrtn, dtype=np.float64)
    if sqrtn.size and abs(c) * float(sqrtn[-1]) > PHASE_REDUCE_ABOVE:
        sqrtn = reduced_phase(c, sqrtn)
        c = 1.0
    return float(_pick(backend, _cos_sum_nb, _cos_sum_np)(w, sqrtn, c, phi))


@njit
def _cos_sum_checkpoints_nb(w, sqrtn, c, phi, stops):
    out = np.empty(stops.shape[0], dtype=np.float64)
    total = 0.0
    comp = 0.0
    k = 0
    for i in range(w.shape[0]):
        term = w[i] * math.cos(c * sqrtn[i] + phi)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        while k < stops.shape[0] and stops[k] == i + 1:
            out[k] = total
            k += 1
    while k < stops.shape[0]:
        out[k] = total
        k += 1
    return out


def _cos_sum_checkpoints_np(w, sqrtn, c, phi, stops):
    out = np.empty(stops.shape[0], dtype=np.float64)
    parts = []
    prev = 0
    for k, stop in enumerate(stops):
        for lo in range(prev, stop, BLOCK):
            hi = min(lo + BLOCK, stop)
            parts.append(float(np.sum(w[lo:hi] * np.cos(c * sqrtn[lo:hi] + phi))))
        prev = stop
        out[k] = math.fsum(parts)
    return out


def cos_sum_checkpoints(w, sqrtn, c, phi, stops, backend=None):
    """Partial oscillatory sums after stops[0], stops[1], ... terms.

    ``stops`` must be increasing term counts, each <= len(w).
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    sqrtn = np.ascontiguousarray(sqrtn, dtype=np.float64)
    stops = np.ascontiguousarray(stops, dtype=np.int64)
    if sqrtn.size and abs(c) * float(sqrtn[-1]) > PHASE_REDUCE_ABOVE:
        sqrtn = reduced_phase(c, sqrtn)
        c = 1.0
    impl = _pick(backend, _cos_sum_checkpoints_nb, _cos_sum_checkpoints_np)
    return impl(w, sqrtn, c, phi, stops)


def reduced_phase(c, sqrtn):
    """c * sqrtn reduced mod 2*pi in extended precision.

    Doubles carry ~16 digits; once the raw phase exceeds ~1e10 its
    reduction mod 2*pi loses the low bits that the cosine needs, so the
    product is formed in 80-bit longdouble before reduction.
    """
    ph = np.multiply(np.longdouble(c), sqrtn.astype(np.longdouble))
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    return np.asarray(np.mod(ph, two_pi), dtype=np.float64)
