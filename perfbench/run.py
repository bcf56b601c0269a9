#!/usr/bin/env python3
"""divisorlab benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare DIR_A DIR_B

Run from the repository root.  Each workload runs in its own single-threaded
worker process with ``src`` on PYTHONPATH; see perfbench/README.md for the
workloads, metrics and checks.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced and prints the
per-layer metrics and the tracing overhead.  Every run also writes a result
file (run record, all metrics, check errors) under ``--out``.
"""

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
from workloads import QUICK_SUITES

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan", "points", "verify", "verify_all")
SETUP_SAMPLES = 3  # set-ups per run (two probe processes plus the measured one)
DEADLINE_S = 170.0  # every worker is stopped before the run reaches 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}

#: per-layer metrics on the result line of a traced run (the full table is in
#: the result file); a layer a workload never calls reads 0 there, which its
#: ``.calls`` count confirms
PER_LAYER = {
    "trace_overhead_s": "s",
    "kernels.self_s": "s",
    "divisor_core.self_s": "s",
    "kernels.divisor_sieve.calls": "count",
    "kernels.divisor_sieve.entries": "count",
    "kernels.divisor_sieve.s": "s",
    "setup.kernels.divisor_sieve.entries": "count",
    "setup.kernels.divisor_sieve.s": "s",
    "kernels.hyperbola_dsum.calls": "count",
    "kernels.hyperbola_dsum.terms": "count",
    "kernels.hyperbola_dsum.bytes_computed": "bytes",
    "kernels.hyperbola_dsum.s": "s",
    "kernels.cos_sum.calls": "count",
    "kernels.cos_sum.terms": "count",
    "kernels.cos_sum.s": "s",
    "kernels.cos_sum_checkpoints.s": "s",
    "divisor_core.DivisorTable.summatory.calls": "count",
    "divisor_core.DivisorTable.summatory.s": "s",
    "divisor_core.delta_scan.self_s": "s",
    "divisor_core.points_to_csv.bytes": "bytes",
    "divisor_core.points_to_csv.s": "s",
    "exp_sums.difference_apply_tensor.calls": "count",
    "exp_sums.difference_apply_tensor.corners": "count",
    "exp_sums.difference_apply_tensor.s": "s",
    "summation_formulas.oscillatory_integral.calls": "count",
    "summation_formulas.oscillatory_integral.s": "s",
    "summation_formulas.averaged_divisor_sum_riemann.s": "s",
    "construction.delta_exponent_scan.s": "s",
    "construction.admissible_sweep.s": "s",
    "theta_transform.theta_sweep.s": "s",
    **{f"verify.suite.{suite}.s": "s" for suite in QUICK_SUITES},
}


class WorkerError(RuntimeError):
    pass


def worker_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread per workload process
    return env


def run_worker(root, extra, deadline):
    """Start a worker, time it to READY, wait for it; returns (setup_s, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - perf_counter())):
                raise WorkerError("worker set-up did not finish in time")
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise WorkerError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def git_sha(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    except OSError:
        pass
    return None


def measure(root, args, out_dir):
    t_start = perf_counter()
    deadline = t_start + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    if not args.trace:
        setups = []  # (set-up time, reference time right after it)
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, line = run_worker(root, base + ["--probe"], deadline)
            setups.append((setup_s, float(line.split()[1])))
        setup_s, line = run_worker(root, base, deadline)
        res = json.loads(line)
        setups.append((setup_s, res["setup_reference_s"]))
        # scaled to the reference speed, as the worker scales its rounds
        ref_s = reference.REF_S[args.workload]
        res["setup_s"] = statistics.median(t * ref_s / c for t, c in setups)
        res["raw_setup_samples_s"] = [t for t, _ in setups]
        res["setup_reference_s"] = [c for _, c in setups]
        metrics = {k: res[k] for k in END_TO_END}
        units = END_TO_END
    else:
        _, untraced_line = run_worker(root, base, deadline)
        spans = out_dir / f"spans-{args.workload}-s{args.seed}.json"
        _, line = run_worker(root, base + ["--trace", "1", "--spans", str(spans)], deadline)
        untraced, res = json.loads(untraced_line), json.loads(line)
        res["untraced_wall_s"] = untraced["wall_s"]
        res["layers"]["trace_overhead_s"] = res["wall_s"] - untraced["wall_s"]
        res["correct"] = res["correct"] and untraced["correct"]
        metrics = {k: res["layers"].get(k, 0) for k in PER_LAYER}
        units = PER_LAYER
    record.update(res)
    record["run_s"] = perf_counter() - t_start
    return record, metrics, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a, dir_b):
    """Median and quartiles per workload and metric for two sets of result files."""
    sides = []
    for d in (dir_a, dir_b):
        groups = {}
        for f in sorted(Path(d).glob("*.json")):
            rec = json.loads(f.read_text())
            if "workload" not in rec:
                continue  # span dumps
            metrics = rec["metrics"]
            for name, m in metrics.items():
                groups.setdefault((rec["workload"], rec["trace"], name, m["unit"]), []).append(m["value"])
        sides.append(groups)
    keys = sorted(set(sides[0]) | set(sides[1]))
    print(f"{'workload':<8} {'metric':<46} {'A median [q1, q3] (n)':>36} {'B median [q1, q3] (n)':>36} {'B/A':>7}")
    for key in keys:
        workload, trace, name, unit = key
        cells = []
        for groups in sides:
            vals = groups.get(key)
            if not vals:
                cells.append((None, "-"))
                continue
            q1, q2, q3 = quartiles(vals)
            cells.append((q2, f"{q2:.5g} [{q1:.5g}, {q3:.5g}] ({len(vals)})"))
        ratio = f"{cells[1][0] / cells[0][0]:.3f}" if cells[0][0] and cells[1][0] is not None else "-"
        print(f"{workload:<8} {name + ' ' + unit:<46} {cells[0][1]:>36} {cells[1][1]:>36} {ratio:>7}")


def main():
    # a SIGTERM ends run.py through its finally blocks, which stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench", help="directory for result files (default .perfbench)")
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "divisorlab" / "__init__.py").is_file():
        sys.stderr.write("run from the repository root: src/divisorlab is missing\n")
        return 2
    out_dir = root / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        record, metrics, units = measure(root, args, out_dir)
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        for k in sorted(record["layers"]):
            sys.stdout.write(f"# {k} = {record['layers'][k]:.6g}\n")
    for e in record["check_errors"][:20]:
        sys.stdout.write(f"# CHECK FAILED: {e}\n")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
