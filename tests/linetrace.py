"""An opt-in pytest plugin that records which lines of ``src/orlicz_korn``
a test run executes, with the standard library only:

    PYTHONPATH=src:tests python -m pytest -p linetrace

writes ``.linetrace.json`` at the root of the repository, as {"executed":
{"src/orlicz_korn/<module>.py": [line, ...]}, "unreached": {...}}, where
"unreached" lists, per module, the first line of each statement inside a
function that the run never executed (a docstring is no statement).  The
trace starts when the plugin is imported, before the package is, so code
that runs at import counts.  Only frames of the package are traced line by
line; subprocesses are not traced.
"""

import ast
import json
import os
import sys
import threading

_PACKAGE = os.sep + os.path.join("src", "orlicz_korn") + os.sep
_lines = {}


def _line(frame, event, arg):
    if event == "line":
        _lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if _PACKAGE in frame.f_code.co_filename else None


threading.settrace(_call)
sys.settrace(_call)


def _unreached(body, lines, out):
    """Whether any statement of body ran; appends to out the first line of
    each one that did not.  A compound statement ran if its header did or
    anything inside it ran."""
    ran = False
    for stmt in body:
        inner = [b for b in (getattr(stmt, name, None) for name in ("body", "orelse", "finalbody")) if b]
        inner += [handler.body for handler in getattr(stmt, "handlers", ())]
        inner += [case.body for case in getattr(stmt, "cases", ())]
        header_end = min((b[0].lineno for b in inner), default=stmt.end_lineno + 1) - 1
        here = any(n in lines for n in range(stmt.lineno, max(header_end, stmt.lineno) + 1))
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = []         # a nested definition is visited as its own function
        reached = [_unreached(b, lines, out) for b in inner]
        if not (here or any(reached)):
            out.append(stmt.lineno)
        ran = ran or here or any(reached)
    return ran


def _unreached_in_functions(path, lines):
    out = []
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            _unreached(body, lines, out)
    return sorted(set(out))


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    root = os.path.realpath(session.config.rootpath)
    traced = {os.path.realpath(name): lines for name, lines in _lines.items()}
    package = os.path.join(root, "src", "orlicz_korn")
    modules = sorted(os.path.join(package, name) for name in os.listdir(package) if name.endswith(".py"))
    executed = {os.path.relpath(name, root): sorted(lines) for name, lines in sorted(traced.items())}
    unreached = {os.path.relpath(path, root): _unreached_in_functions(path, traced.get(path, set()))
                 for path in modules}
    with open(os.path.join(root, ".linetrace.json"), "w") as fh:
        json.dump({"executed": executed, "unreached": {k: v for k, v in unreached.items() if v}}, fh, indent=0)
        fh.write("\n")
