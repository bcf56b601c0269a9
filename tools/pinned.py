#!/usr/bin/env python3
"""Digests of the pinned CLI outputs of one or two source trees.

Runs each command of ``corpus.COMMANDS``, the extra pinned commands below
and the bad-input cases in a fresh process and a fresh temporary
directory, with ``PYTHONPATH`` set to the tree's ``src``.  For each
command it prints the first 16 hex digits of a sha256 over the exit code,
stdout, stderr and every file the command wrote, then the exit code and
the command.

With two trees it prints both digests side by side, marks each command
whose digests differ and exits 1 if any does.  A bad-input case prints
paths of its tree when it ends in a traceback, so it differs between any
two trees until it exits with one line.

Usage, from the repository root (takes a minute or two per tree):

    python3 tools/pinned.py                      # this tree
    python3 tools/pinned.py PARENT_TREE .        # side by side
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from corpus import COMMANDS, write_inputs

ROOT = Path(__file__).resolve().parent.parent

PINNED = COMMANDS + (
    ("verify", "all", "--seed", "123"),
    ("scan", "--to", "1e5", "--step", "7", "--out", "d7.csv"),
    ("sumcheck", "lemma25", "--terms", "3000"),
    ("compute", "--x", "1e12"),
    ("compute", "--x", "100000000000000.5"),
    ("compute", "--x", "1e30"),
    ("compute", "--x", "nan"),
    ("construct", "lambda", "--coeffs", "c.json", "--x", "10000", "--n-cut", "50"),
)

#: inputs that must exit 2 without a traceback: (config file contents or
#: None, argv).  A bad flag prints argparse's usage and error lines, a bad
#: config one ``domain error:`` line.
BAD_INPUT = tuple(
    (None, argv + ("--seed", "-1"))
    for argv in (
        ("verify", "coeffs"),
        ("voronoi", "slope"),
        ("theta", "sweep"),
        ("expsum", "sweep"),
        ("construct", "check", "--u", "1000"),
    )
) + (
    ({"seed": "abc"}, ("verify", "coeffs", "--config", "bad.json")),
    ({"seed": -1}, ("verify", "coeffs", "--config", "bad.json")),
    ({"sieve_limit": "x"}, ("scan", "--to", "3", "--config", "bad.json")),
)


def digest(tree, argv, config=None):
    """(hex digest, exit code) of one command run against tree's src."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(tmp)
        if config is not None:
            Path(tmp, "bad.json").write_text(json.dumps(config))
            inputs.add("bad.json")
        proc = subprocess.run(
            [sys.executable, "-m", "divisorlab.cli", *argv],
            cwd=tmp, env=env, capture_output=True,
        )
        h = hashlib.sha256()
        for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
            h.update(len(part).to_bytes(8, "big") + part)
        for path in sorted(Path(tmp).iterdir()):
            if path.name not in inputs:
                data = path.read_bytes()
                h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()[:16], proc.returncode


def main(trees):
    trees = trees or [str(ROOT)]
    print("  ".join(f"tree {i + 1}: {Path(t).resolve()}" for i, t in enumerate(trees)))
    differ = 0
    cases = [("pinned", None, argv) for argv in PINNED]
    cases += [("bad input", config, argv) for config, argv in BAD_INPUT]
    section = None
    for kind, config, argv in cases:
        if kind != section:
            section = kind
            print(f"{kind}:")
        results = [digest(tree, argv, config) for tree in trees]
        cells = "  ".join(f"{d} exit {code}" for d, code in results)
        mark = ""
        if len(results) > 1:
            same = len(set(results)) == 1
            differ += not same
            mark = "same     " if same else "DIFFERS  "
        shown = " ".join(argv) + (f"  with {json.dumps(config)}" if config else "")
        print(f"  {mark}{cells}  divisorlab {shown}", flush=True)
    if len(trees) > 1:
        print(f"{differ} of {len(cases)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
