"""Exact divisor counts, their summatory function and the error term.

A divisor-pair sieve tabulates d(n); the summatory function D(X) comes
from that table's running sums or, at any X, from the O(sqrt X)
hyperbola identity

    D(X) = 2 * sum_{n <= sqrt X} floor(X/n) - floor(sqrt X)**2.

Per-n trial division (``divisor_count``) and the count of ordered
lambda-tuples by factorization (``divisor_count_lambda``) are independent
oracles for the tests.

The error term is delta(X) = D(X) - X log X - (2*gamma - 1) X with D exact
and only the smooth part in floating point.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceError

# Euler-Mascheroni constant, 30 significant digits (float64 keeps ~17).
EULER_GAMMA = 0.577215664901532860606512090082

#: default cap on sieve size, in table entries
DEFAULT_SIEVE_BUDGET = 2 * 10**8

#: cap on the points of one scan; a point costs about 370 bytes
MAX_SCAN_POINTS = 5 * 10**6


@dataclass(frozen=True)
class DivisorTable:
    """Sieved d(n) for 1 <= n <= limit; values[n] is d(n)."""

    limit: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def summatory(self):
        """Cumulative sums: result[n] = sum_{m<=n} values[m].

        Computed on the first call; every call returns that read-only array.
        """
        out = self.__dict__.get("_summatory")
        if out is None:
            out = np.zeros(self.limit + 1, dtype=np.int64)
            np.cumsum(self.values[1:], out=out[1:])
            out.flags.writeable = False
            object.__setattr__(self, "_summatory", out)
        return out

    def series_columns(self, lo, hi, exponent):
        """Float columns (d(n) * n**exponent, sqrt(n)) for lo <= n <= hi:
        the weights and roots of every oscillatory divisor sum."""
        n = np.arange(lo, hi + 1, dtype=np.float64)
        return self.values[lo : hi + 1].astype(np.float64) * n**exponent, np.sqrt(n)


@dataclass(frozen=True)
class SummatoryPoint:
    x: float
    d_sum: int
    delta: float


def divisor_count(n):
    """d(n) by trial division up to sqrt(n)."""
    if n < 1:
        raise DomainError(f"divisor_count needs n >= 1, got {n}")
    count = 0
    i = 1
    while i * i < n:
        if n % i == 0:
            count += 2
        i += 1
    if i * i == n:
        count += 1
    return count


def _factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisor_count_lambda(n, lam):
    """Ordered lambda-tuples with product n: prod_p C(e_p + lam - 1, lam - 1)."""
    if n < 1:
        raise DomainError(f"divisor_count_lambda needs n >= 1, got {n}")
    if lam < 2:
        raise DomainError(f"order lambda must be >= 2, got {lam}")
    out = 1
    for _, e in _factorize(n):
        out *= math.comb(e + lam - 1, lam - 1)
    return out


def sieve_divisors(n, lam=2, budget=DEFAULT_SIEVE_BUDGET):
    """DivisorTable of d(m) for m <= N."""
    if n < 1:
        raise DomainError(f"sieve limit must be >= 1, got {n}")
    # lam only accepts 2: the benchmark's workloads pass that order positionally
    if lam != 2:
        raise DomainError(f"the sieve tabulates d(n), order lambda 2, got {lam}")
    if n + 1 > budget:
        raise ResourceError(
            f"sieve needs {n + 1} entries but the budget is {budget}; "
            "raise the sieve_limit budget to proceed"
        )
    return DivisorTable(limit=n, values=_kernels.divisor_sieve(n))


def summatory_hyperbola(x):
    """Exact D(floor(X)) in O(sqrt X) integer operations."""
    if not 1 <= x < math.inf:
        raise DomainError(f"summatory_hyperbola needs a finite X >= 1, got {x}")
    return _kernels.hyperbola_dsum(int(math.floor(x)))


def delta(x, table=None):
    """SummatoryPoint at X: exact D(floor(X)) plus floating delta(X)."""
    if not 1 <= x < math.inf:
        raise DomainError(f"delta needs a finite X >= 1, got {x}")
    u = int(math.floor(x))
    if table is not None and table.limit >= u:
        d_sum = int(table.summatory()[u])
    else:
        d_sum = summatory_hyperbola(u)
    x = float(x)
    return SummatoryPoint(x=x, d_sum=d_sum, delta=d_sum - x * math.log(x) - (2 * EULER_GAMMA - 1) * x)


def delta_from_cumsum(x, cumsum):
    """delta(X) from a precomputed summatory array (scan fast path)."""
    u = int(math.floor(x))
    d_sum = int(cumsum[u])
    x = float(x)
    return SummatoryPoint(x=x, d_sum=d_sum, delta=d_sum - x * math.log(x) - (2 * EULER_GAMMA - 1) * x)


def delta_scan(x_lo, x_hi, step, budget=DEFAULT_SIEVE_BUDGET):
    """SummatoryPoints on the grid x_lo, x_lo+step, ..., <= x_hi, at most
    MAX_SCAN_POINTS of them; the sieve to x_hi obeys ``budget``."""
    if not (1 <= x_lo <= x_hi < math.inf and 0 < step < math.inf):
        raise DomainError(
            f"scan range [{x_lo}, {x_hi}] with step {step} is empty, starts below 1 "
            "or is not finite"
        )
    count = int(math.floor((x_hi - x_lo) / step + 1e-9)) + 1
    if count > MAX_SCAN_POINTS:
        raise ResourceError(
            f"scan has {count} points but at most {MAX_SCAN_POINTS} are allowed; "
            "narrow the range or widen the step"
        )
    xs = [x_lo + i * step for i in range(count)]
    top = int(math.floor(xs[-1]))
    if top + 1 <= budget:
        cumsum = sieve_divisors(top, budget=budget).summatory()
        return [delta_from_cumsum(x, cumsum) for x in xs]
    return [delta(x) for x in xs]


# ---------------------------------------------------------------- output

def _format_delta(value):
    return f"{value:.15g}"


def points_to_csv(points):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "d_sum", "delta"])
    for p in points:
        writer.writerow([repr(float(p.x)), str(p.d_sum), _format_delta(p.delta)])
    return buf.getvalue()


def points_to_json(points):
    recs = [
        {"x": float(p.x), "d_sum": p.d_sum, "delta": float(_format_delta(p.delta))}
        for p in points
    ]
    return json.dumps(recs, sort_keys=True, indent=2) + "\n"
