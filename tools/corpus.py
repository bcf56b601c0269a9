"""The documented CLI commands and the input files they read.

``COMMANDS`` holds the commands of the README's CLI section, in its order,
then the variants the README documents elsewhere, then variants that set
the flags and config keys the others leave at their defaults.  Paths in
them are relative: run them in a directory where ``write_inputs`` wrote
``cfg.json``, ``small.json`` and ``c.json``.  ``census.py`` traces them
and ``pinned.py`` digests their outputs.
"""

import json
import math
from pathlib import Path

COMMANDS = (
    # the README's CLI section, in its order
    ("compute", "--x", "10"),
    ("scan", "--to", "1000", "--step", "1", "--out", "d.csv"),
    ("coeffs", "--order", "6"),
    ("verify", "all"),
    ("verify", "theta", "--count", "1000", "--seed", "7"),
    ("voronoi", "eval", "--x", "100.5", "--terms", "1000"),
    ("voronoi", "slope", "--out", "slope.csv"),
    ("theta", "verify", "--v", "1.7,-0.3", "--b", "0.25", "--m0", "3", "--x", "0.4"),
    ("theta", "sweep", "--count", "100", "--seed", "1", "--out", "sweep.csv"),
    ("sumcheck", "lemma33", "--terms", "100"),
    ("sumcheck", "lemma23", "--a", "30.1", "--b", "31.4", "--h0", "0.1", "--terms", "1000"),
    ("sumcheck", "lemma25", "--x", "31.62", "--h0", "0.01", "--terms", "1000"),
    ("expsum", "eval", "--x", "10000", "--alpha", "0.25", "--beta", "0", "--a", "1", "--b", "1000"),
    ("expsum", "sweep", "--count", "500", "--seed", "0", "--out", "es.csv"),
    ("diffop", "check", "--k", "8", "--nu0", "0.001", "--radius", "0.05", "--fn", "sin", "--param", "10"),
    ("construct", "check", "--u", "1000000", "--c0", "200", "--samples", "10000", "--seed", "0"),
    ("construct", "lambda", "--coeffs", "c.json", "--x", "10000"),
    # variants the README documents outside that section
    ("compute", "--x", "10", "--json"),
    ("voronoi", "eval", "--x", "100.5", "--terms", "1000", "--kernel-order", "1"),
    ("expsum", "eval", "--x", "1e25", "--alpha", "0.25", "--beta", "0", "--a", "1", "--b", "1000"),
    ("scan", "--to", "1000", "--format", "json", "--out", "d.json"),
    ("coeffs", "--order", "4", "--lam", "3"),
    ("diffop", "check", "--k", "8", "--nu0", "0.001", "--radius", "0.05", "--fn", "exp"),
    ("verify", "all", "--config", "cfg.json"),
    # non-default --count, --seed and sieve_limit
    ("verify", "all", "--count", "2", "--seed", "5"),
    ("voronoi", "slope", "--count", "7", "--seed", "3", "--out", "slope7.csv"),
    ("scan", "--to", "100", "--config", "small.json", "--out", "small.csv"),
)

#: the README's example config file
CONFIG = {
    "sieve_limit": 200000000,
    "tolerances": {"theta-identity": 1e-10},
    "seed": 0,
}

#: a sieve budget below a 100-point scan's top, so the scan takes the
#: hyperbola path
SMALL_CONFIG = {"sieve_limit": 50, "seed": 4}


def write_inputs(directory="."):
    """cfg.json, small.json, and c.json with c1 (length 4K) and c2 (length
    4K + 2) for X = X2 = 1e4 at C0 = 200, where K = floor(C0 L / log L),
    L = log X2, written to directory.  Returns the names written."""
    log_x2 = math.log(1e4)
    k_diff = int(math.floor(200.0 * log_x2 / math.log(log_x2)))
    c1 = [0.0] * (4 * k_diff)
    c2 = [0.0] * (4 * k_diff + 2)
    c1[0] = c1[-1] = c2[0] = c2[-1] = 1.0
    inputs = {"c.json": {"c1": c1, "c2": c2}, "cfg.json": CONFIG, "small.json": SMALL_CONFIG}
    for name, obj in inputs.items():
        Path(directory, name).write_text(json.dumps(obj))
    return set(inputs)
