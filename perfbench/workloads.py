"""The workloads: their seeded inputs, their operation and their checks.

A workload is run in rounds.  Each round is built from (seed, round index)
alone: the seed draws one round's operations, and round r repeats them
with each input shifted by a small amount that grows with r, so the same
seed always gives the same inputs and every round holds the same
operations with the same work, yet no operation but the ``verify`` suites
(run at seed 0, as the CLI runs them) asks a question twice.  After
each operation the worker stops the clock and calls ``keep``, which runs
the cheap checks that need the full output and returns a compact copy of
it for the worker to keep.
``check`` runs once the timed phase is over and compares every kept
output with the reference computations in ``oracle``, which is imported
only then: its mpmath import counts neither in set-up time nor in the peak
resident set, which the worker reads at the end of the timed phase.
"""

import csv
import importlib
import io
import json
import math
from fractions import Fraction

import numpy as np

#: the sieve table the ``points`` workload builds once in set-up
TABLE_LIMIT = 10**6
#: |parsed - value| / |value| allowed for a delta printed with 15 significant
#: digits: half a unit in the 15th digit plus the rounding of the parse
PRINT_REL = 5e-15 + 2.0**-52


def _module(name):
    # imported on first use: only the verify workload pays for scipy in set-up
    return importlib.import_module(f"divisorlab.{name}")


def _round_rng(seed, workload, r):
    return np.random.default_rng([seed, workload, r])


def _sample(rng, n, k):
    """k seeded row indices out of n, always including the first and last."""
    if n <= k + 2:
        return list(range(n))
    inner = rng.choice(np.arange(1, n - 1), size=k, replace=False)
    return [0, *sorted(int(i) for i in inner), n - 1]


# ------------------------------------------------------------------ scan

class Scan:
    """``delta_scan`` plus ``points_to_csv``, the library path of ``divisorlab scan``.

    Each round has three sparse grids (x_hi near 2e5, 2.5e5 and 3e5,
    integer steps in the hundreds), where the sieve up to x_hi dominates,
    and two dense grids of 20 000 points below 5e4 (step 1, and a
    non-integer step below 1), where the per-point objects and the CSV
    text dominate.  The seed draws the five grids once; round r shifts
    each by r, so that no two rounds ask for the same grid while each
    operation's work stays the same from round to round.  The grids stay
    well below the 1e6 the CLI reaches, so that a 25 s run repeats each
    operation about ten times.
    """

    name = "scan"
    min_rounds = 3
    SPARSE_X_HI = (2.0e5, 2.5e5, 3.0e5)
    SPARSE_WIDTH = 1.0e4  # x_hi of a sparse grid lies in [x, x + width)
    DENSE_POINTS = 20_000
    MP_ROWS = 200  # rows per grid also checked against 50-digit mpmath

    def __init__(self):
        self.divisor_core = _module("divisor_core")

    def setup(self):
        pass

    def round_inputs(self, seed, r):
        rng = _round_rng(seed, 1, 0)
        grids = [(float(rng.integers(1, 1000)), x + self.SPARSE_WIDTH * rng.random(), float(rng.integers(100, 1000)))
                 for x in self.SPARSE_X_HI]
        for step, x_lo in ((1.0, float(rng.integers(20_000, 30_000))),
                           (float(rng.uniform(0.05, 0.95)), float(rng.uniform(20_000, 30_000)))):
            # half a step of slack keeps the point count exact under rounding
            grids.append((x_lo, x_lo + (self.DENSE_POINTS - 0.5) * step, step))
        return [(x_lo + r, x_hi + r, step) for x_lo, x_hi, step in grids]

    def run_op(self, grid):
        points = self.divisor_core.delta_scan(*grid)
        return points, self.divisor_core.points_to_csv(points)

    def keep(self, grid, out):
        points, text = out
        x_lo, x_hi, step = grid
        errors = []
        xs = np.fromiter((p.x for p in points), dtype=np.float64, count=len(points))
        ds = np.fromiter((p.d_sum for p in points), dtype=np.int64, count=len(points))
        deltas = np.fromiter((p.delta for p in points), dtype=np.float64, count=len(points))
        n_expected = math.floor((x_hi - x_lo) / step) + 1
        if len(points) != n_expected or xs[0] != x_lo:
            errors.append(f"scan {grid}: {len(points)} rows from x={xs[0] if len(xs) else None}, "
                          f"expected {n_expected} from x={x_lo}")
        elif n_expected > 1 and not np.all(np.abs(np.diff(xs) - step) <= 1e-9 * np.maximum(1.0, xs[1:])):
            errors.append(f"scan {grid}: grid spacing differs from the step")
        errors += _csv_errors(text, xs, ds, deltas, grid)
        return (grid, xs, ds, deltas), errors

    def check(self, kept, seed):
        import oracle

        errors = []
        top = max(int(math.floor(xs.max())) for _, xs, _, _ in kept)
        ref = oracle.summatory_table(top)
        rng = _round_rng(seed, 11, 0)
        for u in [top, *rng.integers(1, top + 1, size=8).tolist()]:
            if int(ref[u]) != oracle.summatory_blocks(u):
                errors.append(f"reference D({u}) disagrees between factorisation and block sums")
        for grid, xs, ds, deltas in kept:
            want = ref[np.floor(xs).astype(np.int64)]
            bad = np.flatnonzero(ds != want)
            if bad.size:
                i = int(bad[0])
                errors.append(f"scan {grid}: {bad.size} rows with wrong D, first x={xs[i]!r} "
                              f"d_sum={int(ds[i])} expected {int(want[i])}")
            if oracle.LONGDOUBLE_OK:
                bad = oracle.delta_errors_longdouble(xs, want, deltas)
            else:
                bad = oracle.delta_errors_mp(xs, want, deltas)
            rows = _sample(rng, len(xs), self.MP_ROWS)
            bad_mp = oracle.delta_errors_mp(xs[rows], want[rows], deltas[rows])
            if bad or bad_mp:
                errors.append(f"scan {grid}: {len(bad)} rows (and {len(bad_mp)} of {len(rows)} mpmath "
                              "rows) with delta outside the float64 rounding bound")
        return errors


def _csv_errors(text, xs, ds, deltas, label):
    """The CSV text must hold exactly the returned points, delta to 15 digits."""
    rows = csv.reader(io.StringIO(text))
    if next(rows, None) != ["x", "d_sum", "delta"]:
        return [f"scan {label}: CSV header is wrong"]
    n = 0
    for n, row in enumerate(rows, start=1):
        if n > len(xs):
            break
        x, d, delta = float(row[0]), int(row[1]), float(row[2])
        want = deltas[n - 1]
        if x != xs[n - 1] or d != ds[n - 1] or not abs(delta - want) <= PRINT_REL * abs(want):
            return [f"scan {label}: CSV row {n} {row} does not match the point"]
    if n != len(xs):
        return [f"scan {label}: CSV has {n} rows for {len(xs)} points"]
    return []


# ---------------------------------------------------------------- points

class Points:
    """Single-point ``delta`` queries, as ``divisorlab compute`` answers them.

    Each round has 84 queries uniform in [1, 1e6], answered from a
    DivisorTable built in set-up, and 28 queries spread log-uniformly over
    [1e7, 1e14], one near the middle of each of 28 equal log strata (within
    a tenth of a stratum), which take the hyperbola path.  Three of four are
    table queries, so the median latency is a table query's; the narrow
    strata keep the work and the largest hyperbola array, which sets the
    peak resident set, within about 1.5 % from seed to seed.  The seed draws the
    112 queries once; round r adds r to each (modulo 1000 for the table
    queries, which stay within the table), so no two rounds ask the same
    question and each operation's work stays the same.
    """

    name = "points"
    min_rounds = 3
    STRATA = 28
    TABLE_QUERIES = 84
    BIG_LO, BIG_HI = 7.0, 14.0  # log10 range of the hyperbola queries
    BIG_D_CHECKS = 8  # queries above 1e12 whose D is re-summed by blocks
    SHIFTS = 1000  # table queries lie in [1, 1e6 - 1000] before the shift

    def __init__(self):
        self.divisor_core = _module("divisor_core")
        self.table = None

    def setup(self):
        self.table = self.divisor_core.sieve_divisors(TABLE_LIMIT)

    def round_inputs(self, seed, r):
        rng = _round_rng(seed, 2, 0)
        u = (np.arange(self.STRATA) + 0.45 + 0.1 * rng.random(self.STRATA)) / self.STRATA
        big = [(float(x) + r, False) for x in 10.0 ** (self.BIG_LO + (self.BIG_HI - self.BIG_LO) * u)]
        small = [(float(x) + r % self.SHIFTS, True)
                 for x in rng.uniform(1.0, TABLE_LIMIT - self.SHIFTS, self.TABLE_QUERIES)]
        return big + small

    def run_op(self, query):
        x, use_table = query
        if use_table:
            return self.divisor_core.delta(x, table=self.table)
        return self.divisor_core.delta(x)

    def keep(self, query, point):
        errors = [] if point.x == query[0] else [f"points {query}: returned x={point.x!r}"]
        return (query[0], point.d_sum, point.delta), errors

    def check(self, kept, seed):
        import oracle

        errors = []
        ref = oracle.summatory_table(TABLE_LIMIT)
        rng = _round_rng(seed, 12, 0)
        above = [i for i, (x, _, _) in enumerate(kept) if x > 1e12]
        sampled = set(rng.choice(above, size=min(len(above), self.BIG_D_CHECKS), replace=False).tolist()) if above else set()
        xs, want, got = [], [], []
        for i, (x, d_sum, delta) in enumerate(kept):
            u = int(math.floor(x))
            if u <= TABLE_LIMIT:
                d_ref = int(ref[u])
            elif u <= 10**12 or i in sampled:
                d_ref = oracle.summatory_blocks(u)
            else:
                d_ref = d_sum  # D unchecked here; delta is still checked given D
            if d_sum != d_ref:
                errors.append(f"points x={x!r}: d_sum={d_sum} expected {d_ref}")
            xs.append(x)
            want.append(d_ref)
            got.append(delta)
        bad = oracle.delta_errors_mp(xs, want, got)
        if bad:
            errors.append(f"points: {len(bad)} queries with delta outside the float64 rounding bound, "
                          f"first x={xs[bad[0]]!r}")
        return errors




# ---------------------------------------------------------------- verify

#: acceptance bands of the band-type checks, as documented in the README
BANDS = {
    "series-convergence-slope": (-0.75, -0.25),
    "cotangent-truncation-slope": (-1.2, -0.8),
    "mean-square-growth": (1.4, 1.6),
    "block-max-slope": (0.15, 0.40),
}

#: the suites the ``verify`` workload runs whole: each takes under 0.3 s
QUICK_SUITES = ("coeffs", "theta", "voronoi", "lemma33", "lemma25")


def _report_text(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"  # as the CLI writes it


def _report_errors(texts, suites):
    """Suite reports given as (suite, JSON text) pairs: each suite ran, its
    text is the same in every run at seed 0, and every check passes, with
    ``residual <= threshold`` (and the documented bands) re-tested here."""
    errors = []
    first = {}
    for suite, text in texts:
        if first.setdefault(suite, text) != text:
            errors.append(f"verify {suite}: report bytes differ between two runs at seed 0")
    if set(first) != set(suites):
        errors.append(f"verify: suites run {sorted(first)}, expected {sorted(suites)}")
    for suite, text in first.items():
        report = json.loads(text)
        if report["n_failed"] != 0 or not report["passed"] or not report["checks"]:
            errors.append(f"verify {suite}: report says passed={report['passed']} "
                          f"n_failed={report['n_failed']}")
        for c in report["checks"]:
            lo, hi = BANDS.get(c["name"], (-math.inf, c["threshold"]))
            if not (c["passed"] and lo <= c["residual"] <= hi and c["residual"] <= c["threshold"]):
                errors.append(f"verify {suite}:{c['name']}: residual {c['residual']!r} "
                              f"threshold {c['threshold']!r} passed={c['passed']}")
    return errors


class Verify:
    """What ``divisorlab verify all`` spends its time on, as short operations.

    A pass of the nine suites takes about 15 s, and four suites take seconds
    each whatever their ``count``, so a run would hold a handful of long
    operations.  Instead each round holds 17 operations of 10-400 ms:

    * ``verify.run_verify(suite, seed=0)``, as the CLI runs it, for the five
      suites that take under 0.3 s (``QUICK_SUITES``);
    * seeded direct calls into the layers that lemma23, expsum, diffop and
      construct spend their seconds in, with arguments of the kind those
      suites pass: ``exp_sums.difference_apply_tensor`` at orders 13 and 14
      (2^K ``Fraction`` corners, polynomial degree K + 1), two batches of 200
      ``summation_formulas.oscillatory_integral`` calls, three
      ``averaged_divisor_sum_riemann`` calls with 10^6 nodes, three
      ``exp_sums.exp_sum_exact`` sums (``_kernels.cos_sum``) over a table
      built in set-up, one ``construction.delta_exponent_scan`` (a sieve to
      x_hi) and one ``construction.admissible_sweep``.

    The suites run at seed 0 in every run; the seed draws the layer calls'
    arguments once, and round r adds r * SHIFT
    to one real argument of each layer call (r to the scan's x_hi, the
    sweep's seed and the constant term of the differenced polynomial), so
    each operation's work stays the same from round to round.  At least two rounds run, so each suite's report bytes are
    compared between two runs at the same seed.
    """

    name = "verify"
    min_rounds = 2
    TENSOR_ORDERS = (13, 14)
    OSC_BATCHES, OSC_CALLS = 2, 200
    # three, to make the operation count odd: the median latency is then one
    # operation's (admissible_sweep or lemma33, about 80 ms), not the mean of
    # two neighbours of which one, the order-14 tensor, varies with the seed
    RIEMANN_OPS, RIEMANN_NODES = 3, 10**6
    EXPSUM_OPS, EXPSUM_B = 3, (1.0e5, 3.0e5)
    SCAN_X_HI = (1.2e5, 1.22e5)  # narrow: the scan's time grows with x_hi
    SWEEP_U, SWEEP_SAMPLES = (1e4, 1e6, 1e8), 2000
    SHIFT = 1e-6  # round r adds r * SHIFT to one real argument of each layer call
    OSC_CHECKS = 48  # seeded calls per batch checked against the closed form
    EXPSUM_CHECKS = 6  # seeded sums per run checked in long double (0.15 s each)

    def __init__(self):
        self.verify = _module("verify")
        self.exp_sums = _module("exp_sums")
        self.summation_formulas = _module("summation_formulas")
        self.construction = _module("construction")
        self.tracer = None
        self.table = None

    def setup(self):
        self.table = _module("divisor_core").sieve_divisors(int(self.EXPSUM_B[1]), 2)

    def round_inputs(self, seed, r):
        rng = _round_rng(seed, 3, 0)
        shift = r * self.SHIFT
        ops = [("suite", s) for s in QUICK_SUITES]
        for k in self.TENSOR_ORDERS:
            degree = k + 1
            coeffs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(degree + 1)]
            coeffs[0] += r  # the constant term: a k-th difference does not see it
            ops.append(("tensor", (k, Fraction(int(rng.integers(1, 10)), int(rng.integers(2, 14))), tuple(coeffs))))
        for _ in range(self.OSC_BATCHES):
            calls = []
            for _ in range(self.OSC_CALLS):
                coeffs = tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 4))).tolist())
                lo = float(rng.uniform(1.0, 100.0)) + shift
                hi = lo + float(rng.uniform(0.01, 2.0))
                omega, phase = float(rng.uniform(1.0, 400.0)), float(rng.uniform(0.0, 2 * math.pi))
                # the integrand is built here, outside the timed operation
                calls.append((np.polynomial.Polynomial(coeffs), coeffs, lo, hi, omega, phase))
            ops.append(("oscillatory", calls))
        for _ in range(self.RIEMANN_OPS):
            a = float(rng.uniform(2.0, 40.0))
            b = a + float(rng.uniform(0.3, 4.0))
            ops.append(("riemann", (a + shift, b + shift, float(rng.uniform(0.01, min(0.4, 0.45 * a))))))
        lo, hi = self.EXPSUM_B
        for i in range(self.EXPSUM_OPS):
            b = lo + (hi - lo) * (i + rng.random()) / self.EXPSUM_OPS
            ops.append(("expsum", (float(10 ** rng.uniform(3.0, 6.0)), float(rng.choice([0.25, 0.5, 0.75])),
                                   float(rng.uniform(0.0, 2 * math.pi)) + shift, float(rng.uniform(1.0, 100.0)), b)))
        ops.append(("exponent_scan", int(rng.uniform(*self.SCAN_X_HI)) + r))
        ops.append(("admissible", (float(rng.choice(self.SWEEP_U)), int(rng.integers(0, 2**31)) + r)))
        return ops

    def run_op(self, op):
        kind, args = op
        if kind == "suite":
            if self.tracer:
                with self.tracer.span(f"verify.suite.{args}"):
                    return self.verify.run_verify(args, seed=0)
            return self.verify.run_verify(args, seed=0)
        if kind == "tensor":
            k, step, coeffs = args
            spec = self.exp_sums.DifferenceSpec(k=k, nu0=step, f=self.exp_sums.PolynomialFn(coeffs))
            return self.exp_sums.difference_apply_tensor(spec)
        if kind == "oscillatory":
            integral = self.summation_formulas.oscillatory_integral
            return [integral(g, lo, hi, omega, phase) for g, _, lo, hi, omega, phase in args]
        if kind == "riemann":
            a, b, h0 = args
            spec = self.summation_formulas.AveragedSumSpec(a=a, b=b, h0=h0)
            return self.summation_formulas.averaged_divisor_sum_riemann(
                spec, nodes=self.RIEMANN_NODES, with_error_bound=True)
        if kind == "expsum":
            x, alpha, beta, a, b = args
            spec = self.exp_sums.ExpSumSpec(x=x, alpha=alpha, beta=beta, a=a, b=b)
            return self.exp_sums.exp_sum_exact(spec, table=self.table)
        if kind == "exponent_scan":
            return self.construction.delta_exponent_scan(args)
        if kind == "admissible":
            u, sweep_seed = args
            return self.construction.admissible_sweep(
                self.construction.build_params(u, u, 200.0), self.SWEEP_SAMPLES, sweep_seed)
        raise ValueError(f"unknown operation {kind!r}")

    def keep(self, op, out):
        kind, args = op
        if kind == "suite":
            out = _report_text(out)
        elif kind == "oscillatory":
            args = [call[1:] for call in args]  # drop the integrand objects
        elif kind == "admissible":
            out = {**out, "violations": len(out["violations"])}
        return (kind, args, out), []

    def check(self, kept, seed):
        import oracle

        errors = _report_errors([(s, text) for kind, s, text in kept if kind == "suite"], QUICK_SUITES)
        scans = [x_hi for kind, x_hi, _ in kept if kind == "exponent_scan"]
        d = oracle.divisor_counts(max([int(self.EXPSUM_B[1]), *scans]))
        summatory = np.cumsum(d)
        deltas = oracle.delta_table_longdouble(summatory[: max(scans, default=1) + 1])
        rng = _round_rng(seed, 13, 0)
        sums = [i for i, (kind, _, _) in enumerate(kept) if kind == "expsum"]
        sums = set(rng.choice(sums, size=min(len(sums), self.EXPSUM_CHECKS), replace=False).tolist()) if sums else set()
        for i, (kind, args, out) in enumerate(kept):
            if kind == "tensor":
                k, step, coeffs = args
                want = oracle.kth_difference_poly(coeffs, step, k)
                if out != want:
                    errors.append(f"tensor difference of order {k}: {out} expected {want}")
            elif kind == "oscillatory":
                for j in _sample(rng, len(args), self.OSC_CHECKS):
                    (coeffs, lo, hi, omega, phase), got = args[j], out[j]
                    want = oracle.oscillatory_integral_poly(coeffs, lo, hi, omega, phase)
                    if not abs(got - want) <= oracle.oscillatory_bound(coeffs, lo, hi, omega, phase):
                        errors.append(f"oscillatory_integral {coeffs} on [{lo!r}, {hi!r}] omega={omega!r} "
                                      f"phase={phase!r}: {got!r} expected {want!r}")
                        break
            elif kind == "riemann":
                a, b, h0 = args
                got, bound = out
                exact = oracle.averaged_divisor_sum(a, b, h0, d)
                # the check of the lemma23 suite, against the benchmark's own exact value
                if not (abs(exact - got) - bound) / max(1.0, abs(exact)) <= 1e-9:
                    errors.append(f"riemann average a={a!r} b={b!r} h0={h0!r}: {got!r} with bound "
                                  f"{bound!r}, exact {exact!r}")
            elif kind == "expsum" and i in sums:
                want, bound = oracle.exp_sum_reference(d, *args)
                if not abs(out - want) <= bound:
                    errors.append(f"exp sum {args}: {out!r} expected {want!r} within {bound!r}")
            elif kind == "exponent_scan":
                errors += _exponent_scan_errors(args, out, summatory, deltas)
            elif kind == "admissible":
                if not (out["samples"] == self.SWEEP_SAMPLES and out["in_band_rate"] == 1.0
                        and out["zero_count_rate"] == 1.0 and out["violations"] == 0):
                    errors.append(f"admissible sweep {args}: {out}")
        return errors


def _exponent_scan_errors(x_hi, out, summatory, deltas):
    """Block maxima and sign changes of delta on [2^t, 2^(t+1)] against the
    reference deltas, and the two fits redone from them as the docstring of
    ``delta_exponent_scan`` describes."""
    import oracle

    t_max = int(math.floor(math.log2(x_hi)))
    spans = [(2**t, min(2 ** (t + 1), x_hi)) for t in range(t_max)]
    blocks = out["blocks"]
    if out["x_hi"] != x_hi or [(b["lo"], b["hi"]) for b in blocks] != spans:
        return [f"exponent scan {x_hi}: blocks {[(b['lo'], b['hi']) for b in blocks]}"]
    errors = []
    maxes = []
    for b in blocks:
        seg = deltas[b["lo"] - 1 : b["hi"]]
        ref_max = float(np.abs(seg).max())
        maxes.append(ref_max)
        bound = oracle.delta_bound(b["hi"], int(summatory[b["hi"]]))
        signs = np.signbit(seg)
        if not abs(b["max_abs"] - ref_max) <= bound or b["sign_changes"] != int(np.sum(signs[1:] != signs[:-1])):
            errors.append(f"exponent scan {x_hi}: block {b} expected max {ref_max!r}")
    mids = np.log([math.sqrt(lo * hi) for lo, hi in spans])
    skip = 3 if len(spans) >= 8 else 0
    max_slope = float(np.polyfit(mids[skip:], np.log(maxes[skip:]), 1)[0])
    ts = 2 ** np.arange(min(6, t_max - 1), t_max + 1)
    ts = ts[ts <= x_hi]
    sq = np.cumsum(deltas[:x_hi] ** 2)[ts - 1].astype(np.float64)
    ms_slope = float(np.polyfit(np.log(ts), np.log(sq), 1)[0])
    if not (abs(out["max_abs_slope"] - max_slope) <= 1e-9 and abs(out["mean_square_exponent"] - ms_slope) <= 1e-9):
        errors.append(f"exponent scan {x_hi}: slopes {out['max_abs_slope']!r}, {out['mean_square_exponent']!r} "
                      f"expected {max_slope!r}, {ms_slope!r}")
    return errors


class VerifyAll:
    """One whole ``divisorlab verify all`` pass per operation:
    ``verify.run_verify(suite, seed=0)`` for each of the nine suites in the
    CLI's order.  Not listed in BENCHMARK.json (a run holds two or three
    passes of about 15 s); run by hand for the per-suite times of the
    traced run (``verify.suite.<name>.s``) of all nine suites.
    """

    name = "verify_all"
    min_rounds = 3

    def __init__(self):
        self.verify = _module("verify")
        self.tracer = None

    def setup(self):
        pass

    def round_inputs(self, seed, r):
        return [self.verify.SUITES]

    def run_op(self, suites):
        reports = []
        for suite in suites:
            if self.tracer:
                with self.tracer.span(f"verify.suite.{suite}"):
                    reports.append(self.verify.run_verify(suite, seed=0))
            else:
                reports.append(self.verify.run_verify(suite, seed=0))
        return reports

    def keep(self, suites, reports):
        return [(s, _report_text(r)) for s, r in zip(suites, reports)], []

    def check(self, kept, seed):
        return _report_errors([pair for op in kept for pair in op], self.verify.SUITES)


WORKLOADS = {w.name: w for w in (Scan, Points, Verify, VerifyAll)}
