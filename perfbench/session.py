"""One fresh benchmark process: set up, run whole rounds of ops, report.

    python3 perfbench/session.py --workload norms --seed 1 --rounds 4
    python3 perfbench/session.py --workload norms --seed 1 --rounds 1 --trace

Set-up is the interpreter start, ``import orlicz_korn``, the catalog load and
the op-list generation; the process reports the monotonic clock reading at
which it ended, so the caller can time set-up from the moment it spawned the
process.  It runs ``--rounds`` whole rounds (0 measures set-up only).
``--trace`` runs every op twice, untraced and traced; the traced run wraps
the public API in timed spans (see spans.py) and writes them to
``.perfbench/spans-<workload>-<seed>.json``.  The last line of standard output is one JSON
object with the set-up clock, every op's argv, latency and check result, and
the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import orlicz_korn.cli  # noqa: E402,F401  (import cost is part of set-up)

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_one(op, out_root: str, entries: dict, reference: dict, recorder=None) -> dict:
    """Run and check one op; an op that raises counts as failed."""
    gc.collect()  # each op starts from a clean heap, as a fresh invocation would
    try:
        latency, output = workloads.execute(op, out_root, entries, recorder)
        reason = workloads.check(op, output, reference)
    except Exception:  # the run goes on; the reason goes into the record
        latency = None
        reason = traceback.format_exc(limit=-3).strip().splitlines()[-1]
    return {"argv": op.argv(out_root), "round": op.round, "traced": recorder is not None,
            "latency_s": latency, "ok": reason is None, "reason": reason}


def run_ops(ops, out_root: str, entries: dict, reference: dict, recorder=None) -> list:
    """Run ``ops`` in order and check every output.

    With a recorder, every op runs twice, untraced and traced, in alternating
    order, so that the two latencies of an op are taken under the same
    machine conditions.
    """
    records = []
    for op in ops:
        if recorder is None:
            records.append(run_one(op, out_root, entries, reference))
            continue
        import spans
        for traced in ((False, True) if op.index % 2 == 0 else (True, False)):
            if not traced:
                records.append(run_one(op, out_root, entries, reference))
                continue
            uninstall = spans.install(recorder)
            try:
                records.append(run_one(op, out_root, entries, reference, recorder))
            finally:
                uninstall()
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    os.chdir(ROOT)  # op argv name output directories relative to the checkout

    entries = workloads.catalog_entries()
    ops = workloads.op_list(args.workload, args.seed, entries, args.rounds)
    ready = monotonic()

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    out_root = os.path.join(".perfbench", "out",
                            f"{args.workload}-{args.seed}{'-traced' if args.trace else ''}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    records = run_ops(ops, out_root, entries, reference, recorder)
    shutil.rmtree(out_root, ignore_errors=True)

    import numpy
    result = {"ops": records, "ready": ready, "numpy": numpy.__version__,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        recorder.dump(spans.spans_file(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
