"""One workload in one process: set-up, timed rounds, checks, one JSON line.

Started by run.py with ``src`` on PYTHONPATH.  It prints ``READY`` once
set-up is done (run.py times set-up up to that line) and times the
workload's reference work (reference.py).  With ``--probe`` it prints that
time and exits; otherwise it runs whole rounds, timing the reference after
each, until the timed operations add up to ``--seconds``, and prints its
result as one JSON line.  Nothing else is written to stdout; diagnostics
go to stderr.
"""

import argparse
import sys
from time import perf_counter


def run_record():
    import platform

    import numpy
    import scipy

    import divisorlab

    return {
        "backend": divisorlab.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def backend_comparison(repeat=3):
    """The numba-vs-NumPy kernel timings of benchmarks/bench_backends.py,
    taken with that script's own ``cases`` and ``best_of``; skipped, with
    the reason, when numba is not importable."""
    import importlib.util
    from pathlib import Path

    from divisorlab import HAVE_NUMBA

    if not HAVE_NUMBA:
        return {"status": "skipped", "reason": "numba not importable; only the NumPy kernels can run"}
    path = Path("benchmarks") / "bench_backends.py"
    if not path.is_file():
        return {"status": "skipped", "reason": f"{path} not found"}
    spec = importlib.util.spec_from_file_location("bench_backends", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = {"status": "measured", "best_of": repeat}
    for name, call in script.cases():
        call("numba")  # the first numba call compiles
        out[name] = {
            "numba_s": script.best_of(lambda: call("numba"), repeat),
            "numpy_s": script.best_of(lambda: call("numpy"), repeat),
        }
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true", help="set up, print READY and the reference time, and exit")
    ap.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    args = ap.parse_args()

    import divisorlab  # noqa: F401  (set-up includes the package import)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        workload.tracer = tracer
    workload.setup()
    print("READY", flush=True)
    import reference  # after READY: not part of set-up

    reference.timed(args.workload)  # first-call allocations, untimed
    # the machine's speed right after set-up, to scale setup_s by
    setup_ref = sum(reference.timed(args.workload) for _ in range(3)) / 3
    if args.probe:
        print(f"REFERENCE {setup_ref!r}", flush=True)
        return 0

    import json
    import pickle
    import resource
    import statistics
    import tempfile
    import traceback

    import numpy as np

    if tracer:
        tracer.phase = "timed"
    # latencies by operation: every round repeats the same operations, so
    # slot i holds operation i's time in each round
    slots, round_walls, errors = [], [], []
    refs = [reference.timed(args.workload)]  # before round 0, then after every round
    attempted = failed = 0
    timed = 0.0
    r = 0
    # kept outputs go to a file, so that memory does not grow with the number
    # of rounds and peak_rss_mib stays the program's
    with tempfile.TemporaryFile(dir=".") as spill:
        while r < workload.min_rounds or timed < args.seconds:
            round_wall = 0.0
            ops = workload.round_inputs(args.seed, r)
            slots = slots or [[] for _ in ops]
            # a new order every round: the allocator's state when the largest
            # operation runs, and with it the peak resident set, then varies
            # over the rounds instead of staying whatever one order gives
            for i in np.random.default_rng([args.seed, 0, r]).permutation(len(ops)):
                inp = ops[i]
                attempted += 1
                try:
                    t0 = perf_counter()
                    out = workload.run_op(inp)
                    dt = perf_counter() - t0
                except Exception:  # a failed operation is counted, not fatal
                    failed += 1
                    sys.stderr.write(f"{args.workload} operation {inp!r} failed:\n{traceback.format_exc()}")
                    continue
                slots[i].append(dt)
                round_wall += dt
                record, errs = workload.keep(inp, out)
                del out
                pickle.dump(record, spill)
                errors += errs
            refs.append(reference.timed(args.workload))
            round_walls.append(round_wall)
            timed += round_wall
            r += 1
            if not round_wall:
                break  # every operation of the round failed; more rounds would fail too
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spill.seek(0)
        kept = [pickle.load(spill) for _ in range(attempted - failed)]

    t_check = perf_counter()
    errors += workload.check(kept, args.seed) if kept else ["no operation completed"]
    for e in errors[:20]:
        sys.stderr.write(f"CHECK FAILED: {e}\n")

    # every time scaled to the reference speed by the reference times taken
    # between the rounds (see reference.py): one factor for the run, the
    # ratio of means, so that the noise of single reference times averages
    # out instead of biasing the mean of their inverses.  Then means over
    # the run, which follow whatever drift is left smoothly, where a median
    # of latencies of different sizes or a minimum jumps between values.
    scale = reference.REF_S[args.workload] / statistics.fmean(refs)
    op_means = [statistics.fmean(times) for times in slots if times]
    op_p50_s = statistics.median(op_means) if op_means else None
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "operations_per_round": attempted // r,
        "wall_s": timed / r * scale,
        "op_p50_ms": op_p50_s * 1e3 * scale if op_means else None,
        "peak_rss_mib": peak_rss_mib,
        "scale": scale,
        "raw_wall_s": timed / r,
        "raw_op_p50_ms": op_p50_s * 1e3 if op_means else None,
        "setup_reference_s": setup_ref,
        "reference_s": refs,
        "round_walls_s": round_walls,
        "op_mean_s": op_means,
        "check_s": perf_counter() - t_check,
        "check_errors": errors[:100],
    }
    result["record"] = run_record()
    if tracer:
        result["layers"] = tracer.layer_metrics(r)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
        # after the spans are taken: the comparison calls traced kernels
        result["backend_comparison"] = backend_comparison()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
