#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-NumPy fallbacks.

Runs each hot kernel on both backends at a few sizes and prints a table
with the speedup.  The first numba call per kernel compiles; a warmup
round keeps that out of the timings.

Usage:
    python benchmarks/bench_backends.py [--repeat 3]
"""

import argparse
import math
import time

import numpy as np

from divisorlab import _kernels
from divisorlab._accel import HAVE_NUMBA


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def cases():
    yield "divisor_sieve(1e6)", lambda b: _kernels.divisor_sieve(10**6, backend=b)
    yield "divisor_sieve(1e7)", lambda b: _kernels.divisor_sieve(10**7, backend=b)
    d = _kernels.divisor_sieve(10**6)
    yield "unit_convolve(1e6)", lambda b: _kernels.unit_convolve(d, backend=b)
    yield "hyperbola_dsum(1e12)", lambda b: _kernels.hyperbola_dsum(10**12, backend=b)
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    w = d[1:].astype(np.float64) * n**-0.75
    sq = np.sqrt(n)
    c = 4.0 * math.pi * math.sqrt(12345.5)
    yield "cos_sum(1e6 terms)", lambda b: _kernels.cos_sum(w, sq, c, -math.pi / 4, backend=b)
    stops = np.array([10, 10**3, 10**5, 10**6])
    yield "cos_sum_checkpoints(1e6)", lambda b: _kernels.cos_sum_checkpoints(
        w, sq, c, -math.pi / 4, stops, backend=b
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    if not HAVE_NUMBA:
        print("numba not importable; nothing to compare")
        return

    print(f"{'kernel':<28} {'numba':>10} {'numpy':>10} {'speedup':>9}")
    print("-" * 60)
    for name, call in cases():
        call("numba")  # compile warmup
        t_nb = best_of(lambda: call("numba"), args.repeat)
        t_np = best_of(lambda: call("numpy"), args.repeat)
        print(f"{name:<28} {t_nb * 1e3:>8.1f}ms {t_np * 1e3:>8.1f}ms {t_np / t_nb:>8.2f}x")


if __name__ == "__main__":
    main()
