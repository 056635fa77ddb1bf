"""An opt-in mutation probe, with the standard library only:

    python tests/mutate.py --target balance:_condition_sweep,_full_test \\
        --target young:_sweep_read -- tests/test_balance.py -k "search or sweep"

For each target, a module of ``src/orlicz_korn`` and functions in it, the
probe flips one operator at a time inside those functions: a comparison
(< and <=, > and >=, == and !=, each into the other) or a binary or
augmented + or - (each into the other).  Each flip is written into a copy of
the package under a temporary directory, and the test arguments after
``--`` run against that copy with ``pytest -x``, one subprocess at a time,
each with a timeout of 600 s.  A mutant is killed when the
tests fail or time out.  The tests run once on the unflipped copy first and
must pass there.

Survivors are written to ``.mutate.json`` at the root of the repository,
as {"tests": [...], "mutants": n, "killed": n, "equivalent": [...],
"survivors": [...]}, each mutant as {"module", "function", "line", "col",
"code", "flip"}.  A survivor listed in ``EQUIVALENT`` below, with the reason no
input can tell it from the original, is reported under "equivalent".
pytest does not collect this file (it is no test module).
"""

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PACKAGE = os.path.join("src", "orlicz_korn")
_TIMEOUT = 600     # seconds per test run
_FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
          "+": "-", "-": "+", "+=": "-=", "-=": "+="}

# (module, function, the stripped source line, the flip's column in it, flip):
# why no input can tell the flip from the original
EQUIVALENT = {}


def _sites(source, functions):
    """(function, row, col, end col, token) of every flippable operator inside
    the named functions of source, rows 1-based, columns in characters."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type == tokenize.OP]
    lines = source.splitlines()

    def chars(row, col):
        return len(lines[row - 1].encode()[:col].decode())

    def between(a, b, wanted):
        start, stop = (a.end_lineno, chars(a.end_lineno, a.end_col_offset)), (b.lineno, chars(b.lineno, b.col_offset))
        hits = [t for t in tokens if start <= t.start and t.end <= stop and t.string in wanted]
        return hits[0] if len(hits) == 1 else None

    out = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for node in ast.walk(fn):
            pairs = []
            if isinstance(node, ast.Compare):
                left = [node.left, *node.comparators]
                pairs = [(left[i], left[i + 1], ("<", "<=", ">", ">=", "==", "!="))
                         for i in range(len(node.ops))]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                pairs = [(node.left, node.right, ("+", "-"))]
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
                pairs = [(node.target, node.value, ("+=", "-="))]
            for a, b, wanted in pairs:
                tok = between(a, b, wanted)
                if tok is not None:
                    out.append((fn.name, tok.start[0], tok.start[1], tok.end[1], tok.string))
    return sorted(set(out), key=lambda s: (s[1], s[2]))


def _run(copy, tests):
    """Whether the tests pass against the package copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=_ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--target", action="append", required=True,
                        help="module:function[,function...] of src/orlicz_korn; repeatable")
    parser.add_argument("tests", nargs="+", help="pytest arguments, after --")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(_ROOT, _PACKAGE), os.path.join(tmp, _PACKAGE),
                        ignore=shutil.ignore_patterns("__pycache__"))
        if not _run(tmp, args.tests):
            sys.exit("the tests fail on the unflipped package")
        mutants, survivors, equivalent = 0, [], []
        for target in args.target:
            module, _, names = target.partition(":")
            path = os.path.join(tmp, _PACKAGE, module + ".py")
            with open(path) as fh:
                source = fh.read()
            lines = source.splitlines(keepends=True)
            for function, row, col, end, op in _sites(source, set(names.split(","))):
                line = lines[row - 1]
                with open(path, "w") as fh:
                    fh.write("".join(lines[:row - 1]) + line[:col] + _FLIPS[op] + line[end:] + "".join(lines[row:]))
                mutants += 1
                code = line.strip()
                mutant = {"module": module, "function": function, "line": row,
                          "col": col - (len(line) - len(line.lstrip())) + 1, "code": code,
                          "flip": f"{op} -> {_FLIPS[op]}"}
                killed = not _run(tmp, args.tests)
                print(f"{module}.py:{row}:{col + 1} {op} -> {_FLIPS[op]}: {'killed' if killed else 'SURVIVED'}",
                      flush=True)
                if not killed:
                    key = (module, function, code, mutant["col"], mutant["flip"])
                    if key in EQUIVALENT:
                        equivalent.append({**mutant, "reason": EQUIVALENT[key]})
                    else:
                        survivors.append(mutant)
            with open(path, "w") as fh:
                fh.write(source)
    with open(os.path.join(_ROOT, ".mutate.json"), "w") as fh:
        json.dump({"tests": args.tests, "mutants": mutants, "killed": mutants - len(survivors) - len(equivalent),
                   "equivalent": equivalent, "survivors": survivors}, fh, indent=1)
        fh.write("\n")
    print(f"{mutants} mutants, {len(survivors)} survivors, {len(equivalent)} equivalent")


if __name__ == "__main__":
    main()
