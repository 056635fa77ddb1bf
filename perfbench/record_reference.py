"""Record the reference output of every op the benchmark can generate.

    python3 perfbench/record_reference.py

Runs each op every workload can generate once, over every pooled input, and stores its exit code and CSV tables (or growth verdicts) in
perfbench/reference.json.  Run it only on a commit whose outputs are
known to be right; a benchmark run counts an op as failed when its output
differs from this record.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main() -> int:
    os.chdir(ROOT)
    reference = {}
    entries = workloads.catalog_entries()
    out_root = os.path.join(".perfbench", "out", "reference")
    os.makedirs(out_root, exist_ok=True)
    for name in workloads.WORKLOADS:
        for i, key in enumerate(workloads.universe(name, entries)):
            start = time.perf_counter()
            _, output = workloads.execute(workloads.Op(i, 0, key), out_root, entries)
            reference[" ".join(key)] = output
            print(f"{time.perf_counter() - start:7.2f}s {' '.join(key)}", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
