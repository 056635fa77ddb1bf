"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import copy
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import session  # puts the package sources on sys.path
import run
import spans
import workloads

from orlicz_korn import cli, young

with open(session.REFERENCE) as _fh:
    REFERENCE = json.load(_fh)
ENTRIES = workloads.catalog_entries()
ROUNDS = 2 * len(workloads.SEED_POOL)
with open(os.path.join(session.ROOT, "BENCHMARK.json")) as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]
KORN = ("verify-korn", "--A", "LlogL", "--B", "L1", "--suite", "smooth", "--mode", "zero_bc")


def _ops(*keys):
    return [workloads.Op(i, 0, key) for i, key in enumerate(keys)]


# ---------------------------------------------------------------------------
# run-wide latency statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, index, percentile", [
    (11, 0, 100 / 11), (25, 14, 60.0), (40, 29, 75.0), (100, 89, 90.0)])
def test_tail_is_highest_percentile_with_ten_ops_beyond(n, index, percentile):
    xs = [float(i) for i in range(n)][::-1]
    value, pct = run.tail(xs)
    assert value == float(index)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(percentile)


@pytest.mark.parametrize("n", [1, 4, 10])
def test_tail_of_too_few_ops_is_the_maximum(n):
    assert run.tail([3.0] + [1.0] * (n - 1)) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# self time of nested spans
# ---------------------------------------------------------------------------

def _recorder(events):
    """Recorder fed by a scripted clock: events are ("open", name, t) or
    ("close", t)."""
    times = iter(t for *_, t in events)
    rec = spans.Recorder(clock=lambda: next(times))
    stack = []
    for event in events:
        if event[0] == "open":
            stack.append(rec.open(event[1]))
        else:
            rec.close(stack.pop())
    return rec


def test_self_time_subtracts_children_but_not_grandchildren():
    rec = _recorder([("open", "a", 0.0),
                     ("open", "b", 1.0), ("close", 3.0),
                     ("open", "c", 4.0),
                     ("open", "d", 5.0), ("close", 6.0),
                     ("close", 8.0),
                     ("close", 10.0)])
    assert [spans.self_time(rec, n) for n in "abcd"] == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert spans.layer_totals(rec)["c"]["s"] == pytest.approx(4.0)


def test_self_time_can_subtract_one_layer_at_any_depth():
    # a norm that calls value directly and through inverse, and whose
    # luxemburg call is a nested span of the same layer
    rec = _recorder([("open", "rearrange.norm", 0.0),
                     ("open", "young.value", 1.0), ("close", 2.0),
                     ("open", "young.inverse", 3.0),
                     ("open", "young.value", 4.0), ("close", 6.0),
                     ("close", 7.0),
                     ("open", "rearrange.norm", 8.0),
                     ("open", "young.value", 9.0), ("close", 12.0),
                     ("close", 13.0),
                     ("close", 20.0)])
    only_value = spans.SELF_SUBTRACT["rearrange.norm"]
    assert spans.self_time(rec, "rearrange.norm", only_value) == pytest.approx(20.0 - 6.0)
    assert spans.self_time(rec, "rearrange.norm") == pytest.approx(20.0 - 1.0 - 4.0 - 3.0)
    m = spans.layer_metrics(rec)
    assert m["rearrange.norm.self_s"] + m["young.value.s"] == pytest.approx(20.0)
    assert m["rearrange.norm.calls"] == 1
    assert m["rearrange.modular_per_norm"] == 2


def test_nested_spans_of_one_name_count_once():
    rec = _recorder([("open", "v", 0.0), ("open", "v", 1.0), ("close", 2.0),
                     ("close", 3.0)])
    totals = spans.layer_totals(rec)["v"]
    assert totals["calls"] == 1
    assert totals["s"] == pytest.approx(3.0)
    assert spans.self_time(rec, "v") == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_count_depends_on_the_arguments_alone(workload):
    # a run plans whole rounds from --seconds, so the ops it makes do not
    # change with the program's speed
    rounds = workloads.rounds_for(workload, RUN_SECONDS)
    assert rounds == {"balance": 2, "norms": len(workloads.SEED_POOL)}[workload]
    assert workloads.rounds_for(workload, 1) == 1
    ops = workloads.op_list(workload, 5, ENTRIES, rounds)
    assert len(ops) == rounds * len(workloads._kinds(workload, ENTRIES))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_of_the_benchmark_length_make_the_same_ops_for_every_seed(workload):
    # the seed orders the ops but does not choose them, so runs with
    # different seeds do the same work
    rounds = workloads.rounds_for(workload, RUN_SECONDS)
    assert len(workloads.PAIR_POOL) == len(workloads.SEED_POOL)

    def ops(seed):
        return [op.key for op in workloads.op_list(workload, seed, ENTRIES, rounds)]
    assert collections.Counter(ops(1)) == collections.Counter(ops(2))
    assert ops(1) != ops(2)


def test_balance_ops_cover_the_example_pairs_and_controls():
    from orlicz_korn import balance
    pairs = {tuple(op.key[2:5:2]) for op in workloads.op_list("balance", 1, ENTRIES, 1)
             if op.key[0] == "check-balance"}
    assert pairs == {(a, b) for a, b, _ in balance.EXAMPLE_PAIRS} | set(workloads.CONTROLS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    first = workloads.op_list(workload, 7, ENTRIES, 6)
    assert first == workloads.op_list(workload, 7, ENTRIES, 6)
    assert first != workloads.op_list(workload, 8, ENTRIES, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_argv_repeats_and_every_round_holds_every_kind(workload):
    ops = workloads.op_list(workload, 3, ENTRIES, ROUNDS)
    # growth ops call the library and have no argv; their key is unique per round
    argvs = [tuple(op.argv("out")) for op in ops if not op.is_growth]
    assert len(set(argvs)) == len(argvs)
    keys = workloads.universe(workload, ENTRIES)
    assert all(" ".join(k) in REFERENCE for k in keys)
    rounds = [[op.key for op in grp] for _, grp in itertools.groupby(ops, lambda o: o.round)]
    assert len(rounds) == ROUNDS
    kinds = {len(r) for r in rounds}
    assert len(kinds) == 1
    for r in rounds:
        assert len(set(r)) == len(r)
    if workload != "balance":
        # within as many rounds as the pool has inputs, a pooled input runs
        # once; a kind without pooled inputs runs once per round
        pool = len(workloads.SEED_POOL)
        counts = collections.Counter(k for r in rounds[:pool] for k in r)
        n_pooled = sum(len(v) > 1 for v in workloads._kinds(workload, ENTRIES))
        assert sum(c == 1 for c in counts.values()) == n_pooled * pool
        assert set(counts.values()) <= {1, pool}


def test_no_op_reuses_a_young_function_object(monkeypatch, tmp_path):
    used = {}
    current = [None]
    real_execute = workloads.execute

    def execute(op, *args, **kwargs):
        current[0] = op.index
        return real_execute(op, *args, **kwargs)

    def record(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            used.setdefault(current[0], []).append(out)
            return out
        return wrapper

    def record_arg(fn):
        def wrapper(A, *args, **kwargs):
            used.setdefault(current[0], []).append(A)
            return fn(A, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(workloads, "execute", execute)
    monkeypatch.setattr(cli, "_resolve", record(cli._resolve))
    monkeypatch.setattr(young, "check_delta2", record_arg(young.check_delta2))
    monkeypatch.setattr(young, "check_nabla2", record_arg(young.check_nabla2))
    ops = _ops(("growth", "--A", "L2_log"), ("growth", "--A", "L2_log"),
               ("check-balance", "--A", "L2", "--B", "L2"), KORN,
               ("check-balance", "--A", "L2", "--B", "L2"))
    records = session.run_ops(ops, str(tmp_path), ENTRIES, REFERENCE)
    assert all(op["ok"] for op in records), records
    assert sorted(used) == list(range(len(ops)))
    # `used` keeps every object alive, so equal ids mean the same object
    ids = [{id(obj) for obj in used[i]} for i in range(len(ops))]
    for a, b in itertools.combinations(ids, 2):
        assert a.isdisjoint(b)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _perturbed(key, edit):
    ref = copy.deepcopy(REFERENCE)
    edit(ref[" ".join(key)])
    return ref


def _scale_first_number(entry, factor):
    for rows in entry["csv"].values():
        for row in rows[1:]:
            for j, cell in enumerate(row):
                x = workloads._number(cell)
                if x is not None and x != 0.0 and math.isfinite(x):
                    row[j] = repr(float(cell) * factor)
                    return
    raise AssertionError("no numeric cell")


@pytest.mark.parametrize("factor, ok", [(1.0, True), (1 + 1e-7, True), (1 + 1e-5, False)])
def test_perturbed_reference_makes_the_op_fail(tmp_path, factor, ok):
    ref = _perturbed(KORN, lambda e: _scale_first_number(e, factor))
    records = session.run_ops(_ops(KORN), str(tmp_path), ENTRIES, ref)
    assert records[0]["ok"] is ok


def test_wrong_exit_code_or_growth_constant_makes_the_op_fail(tmp_path):
    def bump_exit(entry):
        entry["exit"] = 1
    growth = ("growth", "--A", "LlogL")

    def bump_constant(entry):
        cells = entry["growth"]["delta2_A"]
        cells[1] = repr(float(cells[1]) * (1 + 1e-5))

    for key, edit in ((KORN, bump_exit), (growth, bump_constant)):
        records = session.run_ops(_ops(key), str(tmp_path), ENTRIES, _perturbed(key, edit))
        assert not records[0]["ok"]


def test_balance_verdicts_must_match_the_acceptance_classification():
    op = _ops(("check-balance", "--A", "LlogL", "--B", "LlogL"))[0]
    good = copy.deepcopy(REFERENCE[" ".join(op.key)])
    assert workloads.check(op, good, REFERENCE) is None
    bad = copy.deepcopy(good)
    bad["csv"]["balance.csv"][1][2] = "True"
    ref = copy.deepcopy(REFERENCE)
    ref[" ".join(op.key)] = bad   # even a reference that agrees cannot save it
    assert "want ('False', 'True')" in workloads.check(op, bad, ref)


def test_growth_ops_must_show_the_duality():
    op = _ops(("growth", "--A", "expL"))[0]
    out = copy.deepcopy(REFERENCE[" ".join(op.key)])
    assert workloads.check(op, out, REFERENCE) is None
    out["growth"]["nabla2_conj"][0] = str(out["growth"]["delta2_A"][0] != "True")
    assert "duality" in workloads.check(op, out, REFERENCE)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_traced_ops_give_the_same_output_and_uninstall_restores(tmp_path):
    originals = {(id(owner), attr): vars(owner)[attr] for _, owner, attr, _ in spans._targets()}
    rec = spans.Recorder()
    ops = _ops(("check-balance", "--A", "LlogL", "--B", "L1"),
               ("growth", "--A", "LlogL"), KORN)
    records = session.run_ops(ops, str(tmp_path), ENTRIES, REFERENCE, rec)
    assert [op["traced"] for op in records] == [False, True, True, False, False, True]
    assert all(op["ok"] for op in records), records
    for _, owner, attr, _ in spans._targets():
        assert vars(owner)[attr] is originals[(id(owner), attr)]
    m = spans.layer_metrics(rec)   # spans of the traced runs only
    assert m["balance.check.calls"] == 1
    assert m["young.growth.calls"] == 4
    assert m["young.conj_log.calls"] > 0 and m["young.conj_log.points"] > 0
    assert m["rearrange.norm.calls"] > 0 and m["rearrange.modular_per_norm"] > 1
    assert 0 < m["cli.self_s"] < m["ops.s"]
    assert set(m) | {"trace.overhead_ratio"} == set(spans.units())
    assert set(rec.op) == {0, 1, 2}


# ---------------------------------------------------------------------------
# the benchmark outside a source checkout
# ---------------------------------------------------------------------------

def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(session.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", "balance", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
