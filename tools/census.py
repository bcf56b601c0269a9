#!/usr/bin/env python3
"""Reach census: the code in src/divisorlab that no documented command runs.

Runs every command of the README's CLI section, plus the variants the
README names elsewhere (a ``--config`` run, JSON output, the other kernel
order of ``voronoi eval``, a phase large enough for the extended-precision
reduction, ``coeffs --lam 3`` and the ``exp`` function of ``diffop``), in this one process under a line
tracer and inside a temporary directory.  Then prints

* each function or method of src/divisorlab that no command entered, with
  its line count,
* per module, the first line of each statement that never executed, and
* each parameter of a public function or method that every call left at
  its default object, with the number of calls.  The test is identity, so
  a caller that passes a value equal to the default but built elsewhere
  counts as setting it; None, small ints and interned strings are shared
  objects, so passing them explicitly does not.

Docstrings are not statements.  A decorated function counts from its first
decorator line, where Python starts its code object.  Commands that exit
non-zero are listed first, because a failed command hides what it would
have reached.

Usage, from the repository root (takes about a minute):

    python3 tools/census.py
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "divisorlab"

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
)

#: the README's example config file
CONFIG = {
    "sieve_limit": 200000000,
    "tolerances": {"theta-identity": 1e-10},
    "seed": 0,
}


def _write_inputs():
    """cfg.json, and c.json with c1 (length 4K) and c2 (length 4K + 2) for
    X = X2 = 1e4 at C0 = 200, where K = floor(C0 L / log L), L = log X2."""
    log_x2 = math.log(1e4)
    k_diff = int(math.floor(200.0 * log_x2 / math.log(log_x2)))
    c1 = [0.0] * (4 * k_diff)
    c2 = [0.0] * (4 * k_diff + 2)
    c1[0] = c1[-1] = c2[0] = c2[-1] = 1.0
    Path("c.json").write_text(json.dumps({"c1": c1, "c2": c2}))
    Path("cfg.json").write_text(json.dumps(CONFIG))


def _public_defaults():
    """{code object: (module file name, qualified name, {parameter: default})}
    for every public function and public-class method of the package."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"divisorlab.{path.stem}")
        owners = [(module, "")] + [
            (cls, name + ".") for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and not name.startswith("_")
        ]
        for owner, prefix in owners:
            for name, fn in vars(owner).items():
                fn = inspect.unwrap(fn)
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                defaults = {
                    p.name: p.default for p in inspect.signature(fn).parameters.values()
                    if p.default is not inspect.Parameter.empty
                }
                if defaults:
                    out[fn.__code__] = (path.name, prefix + name, defaults)
    return out


def _trace_commands():
    """Line numbers run per file of the package, the (file, first line) of
    every code object entered there, the commands that exited non-zero, and
    per public function with defaults its call count and the parameters
    some call set to another object."""
    prefix = str(PKG) + os.sep
    lines = defaultdict(set)
    entered = set()
    watched = {}
    calls = defaultdict(int)
    set_params = defaultdict(set)

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        if code in watched:
            calls[code] += 1
            for name, default in watched[code][2].items():
                if frame.f_locals[name] is not default:
                    set_params[code].add(name)
        hit = lines[code.co_filename]

        def on_line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    failed = []
    sys.settrace(on_call)
    try:
        from divisorlab import cli  # traced, so module-level statements count

        watched.update(_public_defaults())
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(list(argv))
            if code != 0:
                failed.append((argv, code, err.getvalue().strip()))
    finally:
        sys.settrace(None)
    never_set = [
        (module, name, param, calls[code])
        for code, (module, name, defaults) in watched.items() if calls[code]
        for param in defaults if param not in set_params[code]
    ]
    return lines, entered, failed, sorted(never_set)


def _is_docstring(stmt):
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _first_line(node):
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators])


def _child_bodies(node):
    """The statement blocks directly inside a compound statement."""
    bodies = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
    bodies += [h.body for h in getattr(node, "handlers", [])]
    bodies += [c.body for c in getattr(node, "cases", [])]
    return [body for body in bodies if isinstance(body, list)]


def _functions(node, prefix=""):
    """(qualified name, first line, last line) of every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name, _first_line(child), child.end_lineno
            yield from _functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def _statements(body, hit, docstring_allowed):
    """(first line, ran) of every statement in body and nested in it, and
    whether a statement directly in body ran.  A compound statement ran if
    a line of its header ran or a statement in one of its blocks did; the
    body of a def or class does not count for the def or class itself."""
    records, any_ran = [], False
    for i, stmt in enumerate(body):
        if (docstring_allowed and i == 0 and _is_docstring(stmt)) or isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        is_scope = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        bodies = _child_bodies(stmt)
        firsts = [s.lineno for sub in bodies for s in sub]
        header_end = max(stmt.lineno, min(firsts) - 1) if firsts else stmt.end_lineno
        ran = any(n in hit for n in range(_first_line(stmt), header_end + 1))
        nested = []
        for sub in bodies:
            sub_records, sub_ran = _statements(sub, hit, is_scope)
            nested += sub_records
            ran = ran or (sub_ran and not is_scope)
        records.append((_first_line(stmt), ran))
        records += nested
        any_ran = any_ran or ran
    return records, any_ran


def _ranges(numbers):
    out, start, prev = [], None, None
    for n in sorted(numbers):
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(f"{start}" if start == prev else f"{start}-{prev}")
        start = prev = n
    if start is not None:
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
    return ", ".join(out)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            _write_inputs()
            lines, entered, failed, never_set = _trace_commands()
        finally:
            os.chdir(here)

    print(f"commands run: {len(COMMANDS)}")
    for argv, code, err in failed:
        print(f"  exit {code}: divisorlab {' '.join(argv)}: {err}")

    unentered, report, n_stmts, n_missed = [], [], 0, 0
    for path in sorted(PKG.glob("*.py")):
        key = str(path)
        tree = ast.parse(path.read_text(), filename=key)
        for name, first, last in _functions(tree):
            if (key, first) not in entered:
                unentered.append((path.name, first, name, last - first + 1))
        records, _ = _statements(tree.body, lines.get(key, set()), True)
        missed = [line for line, ran in records if not ran]
        n_stmts += len(records)
        n_missed += len(missed)
        if missed:
            report.append(f"  {path.name}: {len(missed)}: lines {_ranges(missed)}")

    print(f"functions never entered: {len(unentered)} ({sum(n for *_, n in unentered)} lines)")
    for module, first, name, n in unentered:
        print(f"  {module}:{first}  {name}  ({n} lines)")
    print(f"statements never executed: {n_missed} of {n_stmts}")
    print("\n".join(report))
    print(f"parameters every call left at the default: {len(never_set)}")
    for module, name, param, n_calls in never_set:
        print(f"  {module}  {name}({param})  ({n_calls} calls)")


if __name__ == "__main__":
    main()
