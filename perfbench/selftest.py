#!/usr/bin/env python3
"""Quick self-test: the benchmark's checks pass on divisorlab's real outputs
at tiny sizes and reject deliberately wrong ones.

    python3 perfbench/selftest.py      (from the repository root; a few seconds)

Exits 0 when every check behaves, 1 otherwise.
"""

import copy
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from divisorlab import divisor_core  # noqa: E402

FAILURES = []


def expect(label, errors, should_fail):
    ok = bool(errors) == should_fail
    print(f"{'ok ' if ok else 'BAD'} {label}: {'rejected' if errors else 'accepted'}"
          + (f" ({errors[0]})" if errors else ""))
    if not ok:
        FAILURES.append(label)


def test_oracle():
    d = oracle.divisor_counts(2000)
    brute = [0] + [sum(1 for k in range(1, n + 1) if n % k == 0) for n in range(1, 2001)]
    expect("factorised d(n) equals brute-force divisor counts up to 2000",
           [] if d.tolist() == brute else ["mismatch"], False)
    table = oracle.summatory_table(3000)
    bad = [u for u in range(3001) if int(table[u]) != oracle.summatory_blocks(u)]
    expect("block-sum D(u) equals the factorised running sum up to 3000", bad, False)
    xs = np.array([1.5, 10.0, 99.25, 2999.9])
    ds = table[np.floor(xs).astype(np.int64)]
    deltas = [float(oracle.delta_mp(x, int(dd))) for x, dd in zip(xs, ds)]
    expect("long-double delta agrees with mpmath delta", oracle.delta_errors_longdouble(xs, ds, deltas), False)


def scan_checks(grid, corrupt=None, corrupt_csv=None):
    scan = workloads.Scan()
    points = divisor_core.delta_scan(*grid)
    if corrupt:
        points = corrupt(list(points))
    text = divisor_core.points_to_csv(points)
    if corrupt_csv:
        text = corrupt_csv(text)
    record, errors = scan.keep(grid, (points, text))
    return errors + scan.check([record], seed=0)


def test_scan():
    grids = [(1.0, 300.0, 1.0), (10.5, 80.0, 0.37), (3.0, 2900.0, 111.0)]
    for grid in grids:
        expect(f"scan {grid} as computed", scan_checks(grid), False)
    grid = grids[1]

    def d_off_by_one(pts):
        pts[7] = replace(pts[7], d_sum=pts[7].d_sum + 1, delta=pts[7].delta + 1)
        return pts

    def delta_perturbed(pts):
        p = pts[-1]
        pts[-1] = replace(p, delta=p.delta + 2 * oracle.delta_bound(p.x, p.d_sum))
        return pts

    def row_missing(pts):
        return pts[:-1]

    expect("scan row with D off by one", scan_checks(grid, d_off_by_one), True)
    expect("scan row with delta moved by twice its bound", scan_checks(grid, delta_perturbed), True)
    expect("scan grid missing its last row", scan_checks(grid, row_missing), True)
    def csv_delta_changed(text):
        lines = text.split("\n")
        x, d, delta = lines[3].split(",")
        lines[3] = f"{x},{d},{float(delta) * (1 + 1e-12)!r}"
        return "\n".join(lines)

    expect("scan CSV with a delta changed in its 12th digit", scan_checks(grid, corrupt_csv=csv_delta_changed), True)


def test_points():
    pts = workloads.Points()
    pts.table = divisor_core.sieve_divisors(2000)
    queries = [(1.5, True), (999.75, True), (1999.0, True), (3.3e7, False), (1.23e9, False)]
    kept, errors = [], []
    for q in queries:
        record, errs = pts.keep(q, pts.run_op(q))
        kept.append(record)
        errors += errs
    expect("points queries as computed", errors + pts.check(kept, seed=0), False)
    for i, label in ((0, "table"), (4, "hyperbola")):
        bad = copy.deepcopy(kept)
        x, d, delta = bad[i]
        bad[i] = (x, d + 1, delta + 1)
        expect(f"points {label} query with D off by one", pts.check(bad, seed=0), True)
    bad = copy.deepcopy(kept)
    x, d, delta = bad[3]
    bad[3] = (x, d, delta + 2 * oracle.delta_bound(x, d))
    expect("points query with delta moved by twice its bound", pts.check(bad, seed=0), True)


def test_verify_all():
    ver = workloads.VerifyAll()
    reports = [
        {"suite": suite, "seed": 0, "passed": True, "n_failed": 0, "n_checks": 1,
         "checks": [{"name": f"{suite}-check", "residual": 0.5, "threshold": 1.0, "passed": True}]}
        for suite in ver.verify.SUITES
    ]
    reports[0] = ver.run_op(["coeffs"])[0]
    good = ver.keep(ver.verify.SUITES, reports)[0]
    expect("verify reports that pass", ver.check([good, good], seed=0), False)

    def edited(old, new, index=1):
        suite, text = good[index]
        return good[:index] + [(suite, text.replace(old, new))] + good[index + 1:]

    expect("verify check whose residual exceeds its threshold",
           ver.check([edited('"residual": 0.5', '"residual": 1.5')] * 2, seed=0), True)
    expect("verify band check below its band",
           ver.check([edited('"theta-check"', '"mean-square-growth"')] * 2, seed=0), True)
    expect("verify report bytes that differ between two runs",
           ver.check([good, edited('"residual": 0.5', '"residual": 0.25')], seed=0), True)
    expect("verify pass missing a suite", ver.check([good[1:]] * 2, seed=0), True)


def test_verify_layers():
    ver = workloads.Verify()
    ver.EXPSUM_B = (500.0, 3000.0)
    ver.SCAN_X_HI = (300.0, 2000.0)
    ver.EXPSUM_CHECKS = 10**6  # check every sum
    ver.setup()
    ver.verify.run_verify = lambda suite, seed=0: {"suite": suite, "seed": seed, "passed": True, "n_failed": 0,
                                                   "n_checks": 0, "checks": [{"name": "c", "residual": 0.0,
                                                                              "threshold": 0.0, "passed": True}]}
    kept = []
    for op in ver.round_inputs(seed=0, r=0):
        kept.append(ver.keep(op, ver.run_op(op))[0])
    expect("verify layer calls as computed", ver.check(kept, seed=0), False)

    def changed(kind, edit):
        bad = copy.deepcopy(kept)
        i = next(i for i, rec in enumerate(bad) if rec[0] == kind)
        bad[i] = edit(*bad[i])
        return ver.check(bad, seed=0)

    expect("tensor difference off by 1/7",
           changed("tensor", lambda kind, args, out: (kind, args, out + Fraction(1, 7))), True)

    def osc_moved(kind, args, out):
        coeffs, lo, hi, omega, phase = args[0]
        return kind, args, [out[0] + 2 * oracle.oscillatory_bound(coeffs, lo, hi, omega, phase)] + out[1:]

    expect("oscillatory integral moved by twice its bound", changed("oscillatory", osc_moved), True)
    expect("Riemann average moved by twice its own error bound",
           changed("riemann", lambda kind, args, out: (kind, args, (out[0] + 2 * out[1] + 1e-6, out[1]))), True)

    def expsum_moved(kind, args, out):
        d = oracle.divisor_counts(int(ver.EXPSUM_B[1]))
        return kind, args, out + 2 * oracle.exp_sum_reference(d, *args)[1]

    expect("exp sum moved by twice its rounding bound", changed("expsum", expsum_moved), True)

    def block_moved(kind, args, out):
        out = copy.deepcopy(out)
        out["blocks"][-1]["max_abs"] *= 1 + 1e-9
        return kind, args, out

    expect("exponent scan block maximum changed in its 9th digit", changed("exponent_scan", block_moved), True)
    expect("admissible sweep with one tuple out of band",
           changed("admissible", lambda kind, args, out: (kind, args, {**out, "in_band_rate": 1999 / 2000})), True)
    expect("verify round missing a suite",
           ver.check([rec for rec in kept if rec[:2] != ("suite", "theta")], seed=0), True)


def main():
    test_oracle()
    test_scan()
    test_points()
    test_verify_all()
    test_verify_layers()
    print(f"{len(FAILURES)} self-test failures" if FAILURES else "self-test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
