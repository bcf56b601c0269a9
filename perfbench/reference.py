"""Reference work: the machine's speed, measured next to the program.

The machines these figures are taken on share their CPUs with other
tenants.  Their speed flips between states about 2x apart within
milliseconds, and the share of time spent in the slow state drifts over
seconds to minutes: a fixed 2.4 s round of ``scan`` took from 1.3 s to
3.1 s within ten minutes, and CPU time moved with wall time.  A mean over
a 25 s run follows that share, so two runs of the same code minutes apart
can differ by half.

So the worker also times a fixed piece of work of its own, which never
calls divisorlab, before the first round and after every round, and
scales every time measured in the run by ``REF_S[workload] / c``, where c
is the mean of those reference times.  Each workload's reference does the
same kind of work as its operations, in about the same proportions, at a
tenth of a round's size or less: the state of the machine slows both
alike, and the scaled time is the time the run would have taken had the
reference taken ``REF_S``.  Set-up times are scaled in the same way by the
mean of three reference times taken right after set-up.  A change to
divisorlab moves the program's times and not the reference's, so it moves
the scaled times by its full ratio.

``REF_S`` holds each reference's median time over many runs on 2 vCPUs
of a shared 2.0 GHz Xeon virtual machine (Python 3.11, NumPy 2.4), so the
scaled times read as seconds on that machine in its usual state.
"""

import cmath
import csv
import io
import math
from fractions import Fraction
from time import perf_counter

import numpy as np


def _scan():
    # a divisor-count sieve by one NumPy slice per index and its running
    # sum, then one CSV row per point: what delta_scan and points_to_csv do
    n = 60_000
    d = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        d[i::i] += 1
    cumsum = np.cumsum(d)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for k in range(4_000):
        x = 20_000.0 + 0.37 * k
        u = int(x)
        rest = float(cumsum[u]) - x * math.log(x) - 0.1544313298030657 * x
        writer.writerow([repr(x), str(int(cumsum[u])), f"{rest:.15g}"])
    return len(buf.getvalue())


_BUFFERS = {}


def _points():
    # running sums of an int64 table and hyperbola-style quotient sums over
    # sqrt(X)-sized int64 ranges: what delta(x, table=T) and hyperbola_dsum
    # do.  Into buffers allocated on the first call, so that the reference
    # leaves the allocator, and with it the peak resident set, as it found it.
    if not _BUFFERS:
        _BUFFERS["table"] = np.arange(200_001, dtype=np.int64) % 7
        _BUFFERS["sums"] = np.empty(200_000, dtype=np.int64)
        _BUFFERS["k"] = np.arange(1, 400_001, dtype=np.int64)
        _BUFFERS["q"] = np.empty(400_000, dtype=np.int64)
    table, sums, k, q = (_BUFFERS[name] for name in ("table", "sums", "k", "q"))
    total = 0
    for _ in range(40):
        np.cumsum(table[1:], out=sums)
        total += int(sums[-1])
    for u in (4 * 10**10, 9 * 10**10, 16 * 10**10) * 5:
        s = math.isqrt(u)
        np.floor_divide(u, k[:s], out=q[:s])
        total += 2 * int(q[:s].sum()) - s * s
    return total


def _verify():
    # in the shares a traced verify round shows: a slice-per-index sieve
    # (delta_exponent_scan), a scalar complex exponential loop (the theta
    # sweep), many small NumPy quadratures (oscillatory_integral),
    # Fraction arithmetic over 2^K corners (difference_apply_tensor) and
    # one long vectorised cosine sum (cos_sum, the Riemann averages)
    d = np.zeros(11_001, dtype=np.int64)
    for i in range(1, 11_001):
        d[i::i] += 1
    theta = 0j
    for j in range(25_000):
        theta += cmath.exp(-math.pi * (j * 1e-3 + 0.3) ** 2 / (1.5 + 0.2j) + 2j * math.pi * j * 0.37)
    nodes, weights = np.linspace(-1.0, 1.0, 16), np.full(16, 0.125)
    quad = 0.0
    for k in range(320):
        edges = np.linspace(1.0 + k * 1e-3, 2.0, 5)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        u = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        quad += float(np.sum((np.cos(40.0 * u + 0.3) * (1.0 + 0.5 * u)).reshape(4, -1) @ weights * half))
    coeffs = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(12)]
    acc = Fraction(0)
    for corner in range(1 << 7):
        x = Fraction(bin(corner).count("1"), 7)
        v = Fraction(0)
        for c in reversed(coeffs):
            v = v * x + c
        acc += v if corner & 1 else -v
    n = np.arange(1, 400_001, dtype=np.float64)
    cos = float(np.sum(np.cos(7.3 * np.sqrt(n) + 0.4) / n))
    return int(d.sum()) + abs(theta) + quad + float(acc) + cos


WORK = {"scan": _scan, "points": _points, "verify": _verify, "verify_all": _verify}

#: each reference's median time, in seconds, on the machine described above
REF_S = {"scan": 0.18, "points": 0.056, "verify": 0.08, "verify_all": 0.08}


def timed(workload):
    """Seconds one run of the workload's reference work takes."""
    t0 = perf_counter()
    WORK[workload]()
    return perf_counter() - t0
