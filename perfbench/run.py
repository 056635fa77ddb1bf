"""Benchmark of the orlicz-korn toolkit, driven through its public entry points.

    python3 perfbench/run.py --workload balance --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics: it times set-up in several fresh processes, then runs one
fresh untraced process that works through the seeded op list in a closed loop
(one client).  The list holds a fixed number of whole rounds, as many as
take ``--seconds`` seconds at the speed of the commit that added the
benchmark, so that every commit runs the same ops.  Throughput is taken
over every op of the run, not over a few of them, because the speed of a
shared machine drifts in spells of seconds to a minute.
``--trace 1`` instead runs one round in which every op runs twice, untraced
and traced, and reports the per-layer metrics and the tracing overhead; it
does not use ``--seconds``.  Every op's output is
checked against the reference outputs in ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, op list, every latency) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")

SETUP_PROBES = 8        # set-up-only processes; with the timed run's own, 9 samples
TIME_LIMIT_S = 170.0    # the whole benchmark ends within this
TAIL_BEYOND = 10        # recorded tail: highest percentile with this many ops beyond it
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB",
                    "correct_ratio": "ratio"}


class SessionError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(latencies) -> tuple:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND ops beyond it; with too few ops, the maximum (percentile 100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n
    return xs[-1], 100.0


def session(workload: str, seed: int, extra: list, deadline: float) -> dict:
    """Run session.py in a fresh process; add its set-up time."""
    cmd = [sys.executable, SESSION, "--workload", workload, "--seed", str(seed), *extra]
    spawned = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise SessionError(f"{' '.join(cmd[1:])}: no result within the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def environment(seed: int, numpy_version: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy_version,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, "seed": seed}


def timed(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    def probe():
        return session(workload, seed, ["--rounds", "0"], deadline)["setup_s"]

    # half the set-up probes before the timed run and half after, so that
    # they sample the machine at different times
    rounds = workloads.rounds_for(workload, seconds)
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    run = session(workload, seed, ["--rounds", str(rounds)], deadline)
    setups += [run["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    ops = run["ops"]
    correct = sum(op["ok"] for op in ops)
    latencies = [op["latency_s"] for op in ops if op["latency_s"] is not None]
    tail_s, tail_pct = tail(latencies)
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": correct / sum(latencies),
               "peak_rss_mib": run["peak_rss_mib"],
               "correct_ratio": correct / len(ops)}
    # single latencies, kept in the record only: each rests on a few ops
    # and so moves with the machine's speed at the moment they ran
    quantiles = {"p50_s": statistics.median(latencies),
                 "tail_s": tail_s, "tail_percentile": tail_pct, "samples": len(latencies)}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "run": run,
            "setup_samples_s": setups, "rounds": rounds, "op_quantiles": quantiles}


def traced(workload: str, seed: int, deadline: float) -> dict:
    import spans
    run = session(workload, seed, ["--rounds", "1", "--trace"], deadline)
    metrics = dict(run["layers"])
    time_in = {flag: sum(op["latency_s"] for op in run["ops"]
                         if op["traced"] is flag and op["latency_s"] is not None)
               for flag in (False, True)}
    metrics["trace.overhead_ratio"] = time_in[True] / time_in[False] - 1.0
    return {"metrics": metrics, "units": spans.units(), "run": run,
            "spans_file": spans.spans_file(workload, seed)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orlicz_korn", "__init__.py")):
        print(f"perfbench: no orlicz_korn sources under {ROOT}/src; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            report = traced(args.workload, args.seed, deadline)
        else:
            report = timed(args.workload, args.seed, args.seconds, deadline)
    except SessionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    run = report["run"]
    ops = run["ops"]
    failed = sum(not op["ok"] for op in ops)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed, run["numpy"]),
              **{k: v for k, v in report.items() if k not in ("units", "run")},
              "op_list": [op["argv"] for op in ops if not op["traced"]],
              "ops": ops}
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for op in ops:
        if not op["ok"]:
            print(f"FAILED {' '.join(op['argv'])}: {op['reason']}")
    if "op_quantiles" in report:
        q = report["op_quantiles"]
        print(f"{q['samples']} ops in {report['rounds']} round(s); median {q['p50_s']:.4f} s, "
              f"p{q['tail_percentile']:.1f} {q['tail_s']:.4f} s")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": report["units"][name]}
                                  for name, value in report["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
