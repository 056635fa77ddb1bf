"""An opt-in pytest plugin that records which lines of ``src/orlicz_korn``
a test run executes, with the standard library only:

    PYTHONPATH=src:tests python -m pytest -p linetrace

writes ``.linetrace.json`` at the root of the repository, as
{"src/orlicz_korn/<module>.py": [line, ...]}.  Only frames of the package
are traced line by line; subprocesses are not traced.
"""

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


def pytest_sessionstart(session):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    root = str(session.config.rootpath)
    with open(os.path.join(root, ".linetrace.json"), "w") as fh:
        json.dump({os.path.relpath(name, root): sorted(lines) for name, lines in sorted(_lines.items())},
                  fh, indent=0)
        fh.write("\n")
