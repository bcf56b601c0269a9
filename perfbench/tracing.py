"""Spans around divisorlab's public functions, installed from outside.

Only the traced run calls ``install``.  It replaces module attributes (and
``DivisorTable.summatory`` on the class) with wrappers that record a span
(name, phase, parent, start, end, work counters) per call.  divisorlab's
modules look these names up at call time, so every internal call is seen.
Spans stay in memory until the run ends; ``layer_metrics`` then derives,
per name, the call count, busy seconds, self seconds (busy time minus the
time of traced calls nested directly inside) and the summed counters.
Layer names follow the modules of ``src/divisorlab``, with ``kernels``
standing for ``_kernels``.
"""

import importlib
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


#: (module, attribute, counters from the call's arguments, counters from its result)
TRACED = (
    ("_kernels", "divisor_sieve", lambda n, **k: {"entries": n + 1}, None),
    ("_kernels", "hyperbola_dsum",
     # the NumPy kernel holds an int64 arange and its quotient array, isqrt(U) each
     lambda u, **k: {"terms": math.isqrt(u), "bytes_computed": 16 * math.isqrt(u)}, None),
    ("_kernels", "cos_sum", lambda w, *a, **k: {"terms": len(w)}, None),
    ("_kernels", "cos_sum_checkpoints",
     lambda w, sqrtn, c, phi, stops, **k: {"terms": int(stops[-1]) if len(stops) else 0}, None),
    ("divisor_core", "sieve_divisors", None, None),
    ("divisor_core", "delta", None, None),
    ("divisor_core", "delta_scan", None, lambda pts: {"points": len(pts)}),
    ("divisor_core", "points_to_csv", None, lambda text: {"bytes": len(text)}),
    ("divisor_core", "DivisorTable.summatory", None, None),
    ("exp_sums", "difference_apply_tensor", lambda spec: {"corners": 1 << spec.k}, None),
    ("summation_formulas", "oscillatory_integral", None, None),
    ("summation_formulas", "averaged_divisor_sum_riemann", None, None),
    ("construction", "delta_exponent_scan", None, None),
    ("construction", "admissible_sweep", None, None),
    ("theta_transform", "theta_sweep", None, None),
)


def layer_name(module, attr):
    return f"{module.lstrip('_')}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, phase, parent index, start, end, counters]
        self.stack = []
        self.phase = "setup"

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into divisorlab."""
        index = self._open(name, {})
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name, counters):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.phase, parent, perf_counter(), None, counters])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index):
        self.spans[index][4] = perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self._open(name, before(*args, **kwargs) if before else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                self.spans[index][5].update(after(result))
            return result

        setattr(owner, attr, traced)

    def install(self):
        for module, attr, before, after in TRACED:
            owner = importlib.import_module(f"divisorlab.{module}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            self.wrap(owner, path[-1], layer_name(module, attr), before, after)

    def layer_metrics(self, rounds):
        """Per-layer table: timed-phase values per round, set-up values as they are."""
        child_time = defaultdict(float)
        for name, phase, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, phase, parent, start, end, counters) in enumerate(self.spans):
            pre = "" if phase == "timed" else "setup."
            busy = end - start
            out[f"{pre}{name}.calls"] += 1
            out[f"{pre}{name}.s"] += busy
            out[f"{pre}{name}.self_s"] += busy - child_time[i]
            out[f"{pre}{name.split('.')[0]}.self_s"] += busy - child_time[i]
            for key, value in counters.items():
                out[f"{pre}{name}.{key}"] += value
        return {k: v if k.startswith("setup.") else v / rounds for k, v in out.items()}

    def dump(self):
        return [
            {"name": n, "phase": ph, "parent": p, "start": s, "end": e, **c}
            for n, ph, p, s, e, c in self.spans
        ]
