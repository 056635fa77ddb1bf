"""Every script under ``demos/`` runs to completion and prints something."""

import os
import pathlib
import subprocess
import sys

import pytest

import orlicz_korn

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_a_runtime_warning(path, tmp_path):
    src = os.path.dirname(os.path.dirname(orlicz_korn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
