"""Start-up cost of each command of the README, with the standard library only:

    python3 tests/startup.py

runs every ``orlicz-korn ...`` line of the README's "Command line" block
once, one after another, each in a fresh interpreter with ``--out`` in a
temporary directory.  For each it prints the wall time from spawn to exit,
the peak RSS (``ru_maxrss`` of the child, from ``os.wait4``), the exit code
and the ``orlicz_korn`` modules the command loaded.  Not collected by pytest.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the child: run the command as the entry point does, then write the package
# modules it loaded to the file named by its first argument
_CHILD = """
import atexit, json, sys
from orlicz_korn.cli import main
path, argv = sys.argv[1], sys.argv[2:]
atexit.register(lambda: json.dump(sorted(m for m in sys.modules if m.split(".")[0] == "orlicz_korn"),
                                  open(path, "w")))
sys.exit(main(argv))
"""


def readme_commands() -> list:
    """The argv of each ``orlicz-korn`` line of the README's command block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("orlicz-korn ")]


def run(argv: list, scratch: str) -> dict:
    modules = os.path.join(scratch, "modules.json")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", _CHILD, modules, *argv, "--out", os.path.join(scratch, "out")],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, cwd=scratch)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(modules) as fh:
        loaded = json.load(fh)
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0, "exit": child.returncode,
            "modules": [m.split(".", 1)[1] for m in loaded if "." in m]}


def main() -> int:
    print(f"{'wall s':>7} {'RSS MiB':>8} {'exit':>4}  command; modules loaded")
    for argv in readme_commands():
        with tempfile.TemporaryDirectory() as scratch:
            r = run(argv, scratch)
        print(f"{r['wall_s']:7.3f} {r['peak_rss_mib']:8.1f} {r['exit']:4d}  {' '.join(argv)}; "
              f"{', '.join(r['modules'])}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
