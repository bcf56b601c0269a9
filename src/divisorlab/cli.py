"""Command-line entry point binding all modules.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error,
3 resource or precision error.  Every emitted file is deterministic for
a fixed (config, seed); scans also write a ``<out>.meta.json`` sidecar
with the config hash and seed.
"""

import argparse
import json
import sys

import numpy as np

from . import (
    construction,
    divisor_core,
    exp_sums,
    special_functions,
    summation_formulas,
    theta_transform,
    verify,
    voronoi,
)
from .config import RunConfig, load_config, read_json
from .descriptors import PowerFn
from .errors import DomainError, PrecisionError, ResourceError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM; got {text!r}")


def positive_int(text):
    """argparse type for counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def seed_int(text):
    """argparse type for seeds: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _load_coeffs(path):
    """The c1 and c2 arrays of a ``construct lambda --coeffs`` file."""
    raw = read_json(path)
    try:
        return np.asarray(raw["c1"], dtype=np.float64), np.asarray(raw["c2"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        raise DomainError(f"coeffs {path} must be an object with c1 and c2 number arrays") from None


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_sidecar(path, cfg, seed, command):
    if path is None:
        return
    meta = {"config_hash": cfg.config_hash(), "seed": seed, "command": command}
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit_json(obj, path=None):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _rows_to_csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def _csv_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="divisorlab",
        description="divisor summatory functions, oscillatory series and their lemma-level checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact D(X) and the error term at one point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scan", help="error-term scan over a grid, CSV/JSON out")
    p.add_argument("--from", dest="x_lo", type=float, default=1.0)
    p.add_argument("--to", dest="x_hi", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None)

    p = sub.add_parser("coeffs", help="kernel coefficients as exact fractions and floats")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--lam", type=int, default=2)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("suite", choices=verify.SUITES + ("all",))
    p.add_argument("--count", type=positive_int, default=None)
    p.add_argument("--seed", type=seed_int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("voronoi", help="truncated-series evaluation and convergence")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    pe = vsub.add_parser("eval")
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--terms", type=positive_int, required=True)
    pe.add_argument("--kernel-order", type=int, choices=(0, 1), default=0)
    ps = vsub.add_parser("slope")
    ps.add_argument("--count", type=positive_int, default=50)
    ps.add_argument("--seed", type=seed_int, default=0)
    ps.add_argument("--out", default=None)

    p = sub.add_parser("theta", help="Gaussian lattice-sum transform checks")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    tv = tsub.add_parser("verify")
    tv.add_argument("--v", type=_parse_complex, required=True, metavar="RE,IM")
    tv.add_argument("--b", type=float, required=True)
    tv.add_argument("--m0", type=int, required=True)
    tv.add_argument("--x", type=_parse_complex, required=True, metavar="RE,IM")
    tw = tsub.add_parser("sweep")
    tw.add_argument("--count", type=positive_int, default=100)
    tw.add_argument("--seed", type=seed_int, default=0)
    tw.add_argument("--out", default=None)

    p = sub.add_parser("sumcheck", help="summation-formula residual checks")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    s33 = ssub.add_parser("lemma33")
    s33.add_argument("--exponent", type=float, default=2.0)
    s33.add_argument("--a", type=float, default=0.5)
    s33.add_argument("--b", type=float, default=10.5)
    s33.add_argument("--terms", type=positive_int, default=100)
    s23 = ssub.add_parser("lemma23")
    s23.add_argument("--a", type=float, default=30.1)
    s23.add_argument("--b", type=float, default=31.4)
    s23.add_argument("--h0", type=float, default=0.1)
    s23.add_argument("--exponent", type=float, default=-0.25)
    s23.add_argument("--terms", type=positive_int, default=100)
    s25 = ssub.add_parser("lemma25")
    s25.add_argument("--x", type=float, default=31.62)
    s25.add_argument("--h0", type=float, default=0.01)
    s25.add_argument("--terms", type=positive_int, default=100)

    p = sub.add_parser("expsum", help="divisor exponential sums")
    esub = p.add_subparsers(dest="subcommand", required=True)
    ee = esub.add_parser("eval")
    ee.add_argument("--x", type=float, required=True)
    ee.add_argument("--alpha", type=float, required=True)
    ee.add_argument("--beta", type=float, required=True)
    ee.add_argument("--a", type=float, required=True)
    ee.add_argument("--b", type=float, required=True)
    ew = esub.add_parser("sweep")
    ew.add_argument("--count", type=positive_int, default=200)
    ew.add_argument("--seed", type=seed_int, default=0)
    ew.add_argument("--out", default=None)

    p = sub.add_parser("diffop", help="K-fold difference operator checks")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    dc = dsub.add_parser("check")
    dc.add_argument("--k", type=int, required=True)
    dc.add_argument("--nu0", type=float, required=True)
    dc.add_argument("--fn", choices=("exp", "sin"), default="exp")
    dc.add_argument("--param", type=float, default=1.0)
    dc.add_argument("--radius", type=float, required=True)

    p = sub.add_parser("construct", help="gap-construction sweeps and the Lambda series")
    csub = p.add_subparsers(dest="subcommand", required=True)
    cc = csub.add_parser("check")
    cc.add_argument("--u", type=int, required=True)
    cc.add_argument("--c0", type=float, default=200.0)
    cc.add_argument("--samples", type=positive_int, default=1000)
    cc.add_argument("--seed", type=seed_int, default=0)
    cl = csub.add_parser("lambda")
    cl.add_argument("--coeffs", required=True, help="JSON file with c1[], c2[] arrays")
    cl.add_argument("--x", type=float, required=True)
    cl.add_argument("--x2", type=float, default=None)
    cl.add_argument("--c0", type=float, default=200.0)
    cl.add_argument("--n-cut", type=int, default=10**5)

    return ap


def _cmd_compute(args):
    point = divisor_core.delta(args.x)
    if args.json:
        _emit_json({"x": point.x, "d_sum": point.d_sum, "delta": point.delta})
    else:
        sys.stdout.write(f"x={point.x!r} d_sum={point.d_sum} delta={point.delta:.15g}\n")
    return EXIT_OK


def _cmd_scan(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    points = divisor_core.delta_scan(args.x_lo, args.x_hi, args.step, budget=cfg.sieve_limit)
    text = divisor_core.points_to_csv(points) if args.format == "csv" else divisor_core.points_to_json(points)
    _write_text(args.out, text)
    _write_sidecar(args.out, cfg, cfg.seed, "scan")
    return EXIT_OK


def _cmd_coeffs(args):
    coeffs = special_functions.derive_kernel_coefficients(args.order, lam=args.lam)
    lead = special_functions.mu_lambda_leading(args.lam)
    _emit_json(
        {
            "order": args.order,
            "lam": args.lam,
            "fractions": [str(g) for g in coeffs.gamma],
            "floats": list(coeffs.as_floats()),
            "leading_series_coefficient": str(lead),
            "leading_factor_two_variant": str(lead * 2),
        }
    )
    return EXIT_OK


def _cmd_verify(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    seed = args.seed if args.seed is not None else cfg.seed
    report = verify.run_verify(args.suite, count=args.count, seed=seed, config=cfg)
    report["config_hash"] = cfg.config_hash()
    _emit_json(report, args.out)
    if args.out:
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            sys.stdout.write(f"{status} {check['suite']}:{check['name']}\n")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def _cmd_voronoi(args):
    if args.subcommand == "eval":
        res = (
            voronoi.truncated_delta(args.x, args.terms)
            if args.kernel_order == 0
            else voronoi.phi_series_delta(args.x, args.terms)
        )
        _emit_json(
            {
                "x": res.x,
                "n_terms": res.n_terms,
                "approx": res.approx,
                "exact": res.exact,
                "residual": res.residual,
                "bound_scale": res.bound_scale,
            }
        )
        return EXIT_OK
    rep = voronoi.convergence_report(count=args.count, seed=args.seed)
    rows = []
    for x_base, data in rep["decades"].items():
        for nv, med in data["medians"].items():
            rows.append({"x_base": x_base, "n_terms": nv, "median_residual": med,
                         "slope": data["slope"]})
    text = _rows_to_csv(rows, ["x_base", "n_terms", "median_residual", "slope"])
    text += f"# pooled_slope,{rep['pooled_slope']!r}\n"
    _write_text(args.out, text)
    return EXIT_OK


def _cmd_theta(args):
    if args.subcommand == "verify":
        spec = theta_transform.ThetaSpec(v=args.v, b=args.b, m0=args.m0, x=args.x)
        rep = theta_transform.verify_theta(spec)
        _emit_json(
            {
                "lhs": [rep.lhs.real, rep.lhs.imag],
                "rhs": [rep.rhs.real, rep.rhs.imag],
                "abs_residual": rep.abs_residual,
                "rel_residual": rep.rel_residual,
                "lhs_terms": rep.lhs_terms,
                "rhs_terms": rep.rhs_terms,
                "tolerance": rep.tolerance,
                "passed": rep.passed,
            }
        )
        return EXIT_OK if rep.passed else EXIT_VERIFY_FAIL
    reports = theta_transform.theta_sweep(args.count, args.seed)
    rows = [
        {
            "re_v": r.spec.v.real, "im_v": r.spec.v.imag, "b": r.spec.b,
            "m0": r.spec.m0, "re_x": r.spec.x.real, "im_x": r.spec.x.imag,
            "abs_residual": r.abs_residual, "passed": r.passed,
        }
        for r in reports
    ]
    text = _rows_to_csv(rows, ["re_v", "im_v", "b", "m0", "re_x", "im_x", "abs_residual", "passed"])
    _write_text(args.out, text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def _cmd_sumcheck(args):
    if args.subcommand == "lemma33":
        res = summation_formulas.fourier_sum(PowerFn(args.exponent), args.a, args.b, args.terms)
        _emit_json(
            {
                "lhs": res.exact,
                "rhs": res.approx,
                "residual": res.error,
                "params": {"a": args.a, "b": args.b, "n_terms": args.terms,
                           "exponent": args.exponent},
            }
        )
        return EXIT_OK
    if args.subcommand == "lemma23":
        spec = summation_formulas.AveragedSumSpec(
            a=args.a, b=args.b, h0=args.h0, f=PowerFn(args.exponent)
        )
        rep = summation_formulas.smoothed_voronoi_check(spec, args.terms)
    else:
        rep = summation_formulas.smoothed_delta_average(args.x, args.h0, args.terms)
    _emit_json({"lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual, "params": rep.params})
    return EXIT_OK


def _cmd_expsum(args):
    if args.subcommand == "eval":
        spec = exp_sums.ExpSumSpec(x=args.x, alpha=args.alpha, beta=args.beta, a=args.a, b=args.b)
        h = exp_sums.exp_sum_exact(spec)
        ratio = exp_sums.exp_sum_bound_ratio(spec)
        _emit_json({"h": h, "bound_ratio": ratio,
                    "params": {"x": args.x, "alpha": args.alpha, "beta": args.beta,
                               "a": args.a, "b": args.b}})
        return EXIT_OK
    rows = exp_sums.expsum_sweep(args.count, args.seed)
    text = _rows_to_csv(rows, ["x", "alpha", "beta", "a", "b", "weighted", "ratio"])
    _write_text(args.out, text)
    return EXIT_OK


def _cmd_diffop(args):
    f = exp_sums.ExpGrowthFn(args.param) if args.fn == "exp" else exp_sums.SineFn(args.param)
    rep = exp_sums.difference_decay_check(f, args.k, args.nu0, args.radius)
    _emit_json(
        {
            "value": rep.value,
            "ceiling": rep.ceiling,
            "ratio": rep.ratio,
            "k": rep.k,
            "nu0": rep.nu0,
            "radius": rep.radius,
            "disk_bound": rep.disk_bound,
        }
    )
    return EXIT_OK if rep.ratio <= 1.0 else EXIT_VERIFY_FAIL


def _cmd_construct(args):
    if args.subcommand == "check":
        out = construction.construct_check(args.u, args.c0, args.samples, args.seed)
        _emit_json(out)
        ok = out["in_band_rate"] == 1.0 and out["zero_count_rate"] == 1.0
        return EXIT_OK if ok else EXIT_VERIFY_FAIL
    c1, c2 = _load_coeffs(args.coeffs)
    x2 = args.x2 if args.x2 is not None else args.x
    p = construction.build_params(args.x, x2, args.c0)
    value = construction.lambda_evaluator(args.x, p, c1, c2, args.n_cut)
    ceiling = construction.lambda_triangle_ceiling(p, c1, c2, args.n_cut)
    _emit_json({"lambda": value, "triangle_ceiling": ceiling, "x": args.x,
                "k_diff": p.k_diff, "m0": p.m0})
    return EXIT_OK


_DISPATCH = {
    "compute": _cmd_compute,
    "scan": _cmd_scan,
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "voronoi": _cmd_voronoi,
    "theta": _cmd_theta,
    "sumcheck": _cmd_sumcheck,
    "expsum": _cmd_expsum,
    "diffop": _cmd_diffop,
    "construct": _cmd_construct,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_USAGE
    except (ResourceError, PrecisionError) as exc:
        sys.stderr.write(f"resource/precision error: {exc}\n")
        return EXIT_RESOURCE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
