"""Workloads of the benchmark: seeded op lists, op execution and output checks.

An *op* is one in-process call to ``orlicz_korn.cli.main(argv)`` whose
``--out`` points at a directory the benchmark owns, so CSV and manifest
writing is part of the op.  The one exception is the ``growth`` op of the
``balance`` workload, which calls the library directly.  Every op resolves
its Young functions afresh, as a real invocation does, so per-object caches
start cold.

A *round* holds every op kind of a workload exactly once, in a seeded order.
Ops whose inputs can vary (a ``--seed`` or an ``--A``/``--B`` pair) take them
from a fixed pool, so that every input has a recorded reference output and no
input repeats within a run until the pool is exhausted.  Each op writes to its
own numbered output directory, so no argv repeats within a run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import time
from dataclasses import dataclass

WORKLOADS = ("balance", "norms")

# seconds one round takes at the commit that added the benchmark (2-vCPU
# Xeon VM); a run of --seconds S runs ceil(S / ROUND_SECONDS) whole rounds,
# so that the ops a run makes depend on the arguments alone and not on the
# program's speed
ROUND_SECONDS = {"balance": 37.5, "norms": 13.5}

# balance: besides balance.EXAMPLE_PAIRS, which must all hold both ways, the
# negative controls, with the (primal, dual) verdicts the acceptance suite
# requires of them
CONTROLS = {("LlogL", "LlogL"): ("False", "True"),
            ("expL", "expL"): ("True", "False"),
            ("L2", "L2"): ("True", "True")}

# norms: op kinds as argv templates; "{seed}" is filled from SEED_POOL and
# "{A}"/"{B}" from PAIR_POOL.  The Bogovskii op is the one op of the
# benchmark that reaches bogovskii.apply; its pair only changes the two
# norms taken after the solve, not the solve itself.
NORMS_KINDS = (
    "verify-hardy --A L2 --B L2 --seed {seed}",
    "verify-hardy --A L1 --B L1 --seed {seed}",
    "negative-norm --A L2 --seed {seed}",
    "negative-norm --A LlogL --seed {seed}",
    "verify-korn --A LlogL --B L1 --suite random --mode zero_bc --seed {seed}",
    "verify-korn --A LlogL --B L1 --suite random --mode full --seed {seed}",
    "verify-korn --A LlogL --B L1 --suite smooth --mode zero_bc",
    "verify-korn --A LlogL --B L1 --suite smooth --mode full",
    "poincare --A LlogL --mode full --seed {seed}",
    "laminate-demo --A L1 --B L1 --realize",
    "bogovskii --suite spike --grid 32 --A {A} --B {B}",
)
# as many pooled inputs as a norms run of BENCHMARK.json's run_seconds has
# rounds, so that every such run makes the same ops, whatever its seed, and
# the seed only orders them
SEED_POOL = (101, 202, 303)
PAIR_POOL = (("LlogL", "L1"), ("L2", "L2"), ("LlogL2", "LlogL"))

REL_TOL = 1e-6


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds a run of ``seconds`` seconds plans (at least one)."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


def expected_balance() -> dict:
    """(A, B) -> the (primal, dual) verdicts of every check-balance op."""
    from orlicz_korn import balance
    expected = {(a, b): ("True", "True") for a, b, _ in balance.EXAMPLE_PAIRS}
    expected.update(CONTROLS)
    return expected


@dataclass(frozen=True)
class Op:
    """One op of a run: ``key`` is its argv without ``--out``."""

    index: int
    round: int
    key: tuple

    @property
    def is_growth(self) -> bool:
        return self.key[0] == "growth"

    def argv(self, out_root: str) -> list:
        if self.is_growth:
            return list(self.key)
        return list(self.key) + ["--out", os.path.join(out_root, f"op{self.index:04d}")]


def _split(template: str, **fill) -> tuple:
    return tuple(template.format(**fill).split())


def _kinds(workload: str, catalog_names) -> list:
    """Per op kind, every key it can take: one, or one per pooled input."""
    if workload == "balance":
        return [[_split("check-balance --A {} --B {}".format(*pair))] for pair in expected_balance()] \
            + [[("growth", "--A", name)] for name in catalog_names]
    if workload == "norms":
        return [[_split(t, seed=s) for s in SEED_POOL] if "{seed}" in t
                else [_split(t, A=a, B=b) for a, b in PAIR_POOL] if "{A}" in t
                else [_split(t)] for t in NORMS_KINDS]
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str, catalog_names) -> list:
    """Every op key a run of the workload can generate, for any seed."""
    return [key for keys in _kinds(workload, catalog_names) for key in keys]


def op_list(workload: str, seed: int, catalog_names, rounds: int) -> list:
    """The seeded op list: ``rounds`` rounds, each every op kind once.

    Pooled inputs are dealt from a fresh seeded permutation of the pool, so
    an input repeats only after the whole pool has been used.
    """
    kinds = _kinds(workload, catalog_names)
    rng = random.Random(f"{workload}:{seed}")
    decks = [[] for _ in kinds]
    ops = []
    for r in range(rounds):
        keys = []
        for deck, variants in zip(decks, kinds):
            if not deck:
                deck.extend(rng.sample(variants, len(variants)))
            keys.append(deck.pop())
        rng.shuffle(keys)
        ops.extend([Op(len(ops) + i, r, key) for i, key in enumerate(keys)])
    return ops


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def catalog_entries() -> dict:
    """name -> JSON spec of every catalog function (loaded once, at set-up)."""
    from orlicz_korn import young
    return {name: young.to_json(A) for name, A in young.load_catalog().items()}


def _verdict_cells(v) -> list:
    return [str(v.holds), _fmt(v.witness_constant), _fmt(v.threshold_t0)]


def _fmt(x: float) -> str:
    return repr(float(x))


def run_growth(spec: dict) -> dict:
    """check_delta2 and check_nabla2 on A and on its numerical conjugate,
    both built afresh from JSON."""
    from orlicz_korn import young
    A = young.from_json(spec)
    C = young.conjugate(A)
    return {"delta2_A": _verdict_cells(young.check_delta2(A)),
            "nabla2_A": _verdict_cells(young.check_nabla2(A)),
            "delta2_conj": _verdict_cells(young.check_delta2(C)),
            "nabla2_conj": _verdict_cells(young.check_nabla2(C))}


def read_csvs(outdir: str) -> dict:
    tables = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name)) as fh:
                tables[name] = [line.split(",") for line in fh.read().splitlines()]
    return tables


def execute(op: Op, out_root: str, entries: dict, recorder=None):
    """Run one op; return its latency in seconds and its observable output:
    the exit code and every CSV table (CLI ops), or the four growth verdicts
    (growth ops).  The latency covers the program call only.  A recorder, if
    given, gets a root span ``op`` around that call."""
    from orlicz_korn import cli
    argv = op.argv(out_root)
    if not op.is_growth:
        # laminate-demo --realize writes its fields before it creates --out
        os.makedirs(argv[-1], exist_ok=True)
    sink = io.StringIO()
    span = (recorder.span("op", op=op.index) if recorder is not None
            else contextlib.nullcontext())
    start = time.perf_counter()
    with span:
        if op.is_growth:
            output = {"growth": run_growth(entries[op.key[2]])}
        else:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
    latency = time.perf_counter() - start
    if not op.is_growth:
        outdir = argv[-1]
        output = {"exit": code, "csv": read_csvs(outdir) if os.path.isdir(outdir) else {}}
        shutil.rmtree(outdir, ignore_errors=True)
    return latency, output


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def cells_match(got: str, want: str) -> bool:
    """Equal strings, or numbers within REL_TOL relative (nan equals nan)."""
    if got == want:
        return True
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return False
    if math.isnan(g) or math.isnan(w) or math.isinf(g) or math.isinf(w):
        return g == w or (math.isnan(g) and math.isnan(w))
    return abs(g - w) <= REL_TOL * max(abs(g), abs(w))


def _tables_match(got: dict, want: dict):
    if sorted(got) != sorted(want):
        return f"tables {sorted(got)} != {sorted(want)}"
    for name, rows in want.items():
        if len(got[name]) != len(rows):
            return f"{name}: {len(got[name])} rows, want {len(rows)}"
        for i, (grow, wrow) in enumerate(zip(got[name], rows)):
            if len(grow) != len(wrow) or not all(map(cells_match, grow, wrow)):
                return f"{name} row {i}: {grow} != {wrow}"
    return None


def check(op: Op, output: dict, reference: dict):
    """None if the op's output is correct, else the reason it is not."""
    want = reference.get(" ".join(op.key))
    if want is None:
        return "no reference output recorded for this op"
    if op.is_growth:
        g = output["growth"]
        # Delta2 of A is nabla2 of its conjugate, and the other way round
        if g["delta2_A"][0] != g["nabla2_conj"][0] or g["nabla2_A"][0] != g["delta2_conj"][0]:
            return f"growth verdicts break the Delta2/nabla2 duality: {g}"
        return _tables_match({k: [v] for k, v in g.items()},
                             {k: [v] for k, v in want["growth"].items()})
    if output["exit"] != want["exit"]:
        return f"exit code {output['exit']}, want {want['exit']}"
    if op.key[0] == "check-balance":
        expected = expected_balance()[(op.key[2], op.key[4])]
        rows = output["csv"].get("balance.csv", [])
        got = tuple(rows[1][2:4]) if len(rows) > 1 else None
        if got != expected:
            return f"verdicts (primal, dual) = {got}, want {expected}"
    return _tables_match(output["csv"], want["csv"])
