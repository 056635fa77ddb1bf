"""Timed spans around the public API of orlicz_korn, for the traced run.

``install(recorder)`` replaces module functions and class methods of the
package with wrappers that record one span per call (name, start, end,
parent, op id, size).  Program code is not edited; untraced runs never call
``install``.  Spans stay in memory and are written out when the run ends.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
from array import array

import numpy as np


def spans_file(workload: str, seed: int) -> str:
    """Where the traced run writes its spans, relative to the checkout."""
    return os.path.join(".perfbench", f"spans-{workload}-{seed}.json")


class Recorder:
    """Spans in parallel arrays; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.name_id: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self._open: list = []
        self.current_op = -1

    def __len__(self):
        return len(self.start)

    def open(self, name: str, size: int = 0) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.current_op)
        self.size.append(size)
        self.end.append(math.nan)
        self._open.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, size: int = 0):
        if op is not None:
            self.current_op = op
        i = self.open(name, size)
        try:
            yield
        finally:
            self.close(i)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op", "size"],
                       "spans": [list(row) for row in zip(
                           self.name, self.start, self.end, self.parent,
                           self.op, self.size)]}, fh)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _points(args):
    return int(np.size(args[1])) if len(args) > 1 else 0


def _samples(args):
    return len(args[1]) if len(args) > 1 else 0


def _nodes(args):
    return int(math.prod(args[0].grid.node_shape))


def _targets():
    """(span name, owner, attribute, size-of-call) for every wrapped callable.

    Methods are wrapped on each class that defines them, so inherited
    definitions are wrapped once.
    """
    from orlicz_korn import (balance, bogovskii, cli, fields, hardy, laminate,
                             rearrange, young)
    kinds = [c for c in vars(young).values()
             if inspect.isclass(c) and issubclass(c, young.YoungFunction)]

    def methods(name, attr, size=None, skip=()):
        return [(name, c, attr, size) for c in kinds
                if attr in vars(c) and c not in skip]

    return [
        ("young.conj_log", young.ConjugateYoung, "log_value_logt", _points),
        *methods("young.log_value", "log_value_logt", _points, skip=(young.ConjugateYoung,)),
        ("young.conjugate", young, "conjugate", None),
        *methods("young.conjugate", "conjugate"),
        ("young.growth", young, "check_delta2", None),
        ("young.growth", young, "check_nabla2", None),
        *methods("young.value", "value", _points),
        *methods("young.inverse", "inverse", _points),
        ("balance.check", balance, "check_balance", None),
        ("rearrange.norm", rearrange, "norm", _samples),
        ("rearrange.norm", rearrange, "luxemburg", _samples),
        ("hardy.operators", hardy, "averaging_operator", None),
        ("hardy.operators", hardy, "dual_operator", None),
        ("hardy.verify", hardy, "verify_hardy", None),
        *[("fields.calculus", fields, f, None)
          for f in ("gradient", "sym_gradient", "dev_sym_gradient", "divergence")],
        ("fields.project", fields, "project_kernel", None),
        ("fields.negnorm", fields, "negative_norm_lower_bound", None),
        ("laminate", laminate, "blowup_curve", None),
        ("laminate", laminate, "realize_field", None),
        ("laminate", laminate.LaminateRealization, "as_grid_field", None),
        ("bogovskii.apply", bogovskii, "apply", _nodes),
        ("cli", cli, "main", None),
    ]


def _wrap(fn, name, recorder, size):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = recorder.open(name, size(args) if size else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(i)
    return traced


def install(recorder: Recorder):
    """Wrap every target; return a function that puts the originals back.

    A module function is replaced in every ``orlicz_korn`` module that holds
    it, so calls through ``from ... import`` names are traced as well.
    """
    undo = []
    modules = [m for n, m in sys.modules.items()
               if n == "orlicz_korn" or n.startswith("orlicz_korn.")]
    for name, owner, attr, size in _targets():
        fn = vars(owner)[attr]
        traced = _wrap(fn, name, recorder, size)
        holders = [owner] if inspect.isclass(owner) else \
            [m for m in modules if vars(m).get(attr) is fn]
        for holder in holders:
            undo.append((holder, attr, fn))
            setattr(holder, attr, traced)

    def uninstall():
        for holder, attr, fn in reversed(undo):
            setattr(holder, attr, fn)
    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _outermost(rec: Recorder) -> list:
    """True for spans with no ancestor of the same name (nested calls of one
    layer, such as a scaled function calling its base, count once)."""
    out = []
    for i in range(len(rec)):
        p, nid = rec.parent[i], rec.name[i]
        while p >= 0 and rec.name[p] != nid:
            p = rec.parent[p]
        out.append(p < 0)
    return out


def self_time(rec: Recorder, name: str, subtract=None) -> float:
    """Self time of a layer: the time inside its outermost spans, minus the
    time covered by the nearest spans beneath them whose name ``subtract``
    selects (default: every other layer).  Spans of the layer itself nested
    inside are never subtracted."""
    nid = rec.name_id.get(name)
    if nid is None:
        return 0.0
    picked = [j != nid and (subtract is None or subtract(n))
              for j, n in enumerate(rec.names)]
    covered = [0.0] * len(rec)
    for i in reversed(range(len(rec))):   # a child comes after its parent
        p = rec.parent[i]
        if p >= 0:
            covered[p] += rec.end[i] - rec.start[i] if picked[rec.name[i]] else covered[i]
    top = _outermost(rec)
    return sum(rec.end[i] - rec.start[i] - covered[i]
               for i in range(len(rec)) if rec.name[i] == nid and top[i])


def layer_totals(rec: Recorder) -> dict:
    """name -> calls, s (inclusive) and size of its outermost spans."""
    top = _outermost(rec)
    totals = {n: {"calls": 0, "s": 0.0, "size": 0} for n in rec.names}
    for i in range(len(rec)):
        if top[i]:
            t = totals[rec.names[rec.name[i]]]
            t["calls"] += 1
            t["s"] += rec.end[i] - rec.start[i]
            t["size"] += rec.size[i]
    return totals


# what a layer's self time leaves out, where that is not every other layer
SELF_SUBTRACT = {
    "balance.check": lambda name: name.startswith("young."),
    "rearrange.norm": lambda name: name == "young.value",
}

PER_LAYER = (
    # (metric, unit, span name, field)
    ("young.conj_log.calls", "count", "young.conj_log", "calls"),
    ("young.conj_log.points", "count", "young.conj_log", "size"),
    ("young.conj_log.s", "s", "young.conj_log", "s"),
    ("young.log_value.points", "count", "young.log_value", "size"),
    ("young.log_value.s", "s", "young.log_value", "self_s"),
    ("young.conjugate.calls", "count", "young.conjugate", "calls"),
    ("young.conjugate.s", "s", "young.conjugate", "s"),
    ("young.growth.calls", "count", "young.growth", "calls"),
    ("young.growth.self_s", "s", "young.growth", "self_s"),
    ("young.value.calls", "count", "young.value", "calls"),
    ("young.value.points", "count", "young.value", "size"),
    ("young.value.s", "s", "young.value", "s"),
    ("young.inverse.calls", "count", "young.inverse", "calls"),
    ("young.inverse.s", "s", "young.inverse", "s"),
    ("balance.check.calls", "count", "balance.check", "calls"),
    ("balance.check.self_s", "s", "balance.check", "self_s"),
    ("rearrange.norm.calls", "count", "rearrange.norm", "calls"),
    ("rearrange.norm.samples", "count", "rearrange.norm", "size"),
    ("rearrange.norm.self_s", "s", "rearrange.norm", "self_s"),
    ("hardy.operators.calls", "count", "hardy.operators", "calls"),
    ("hardy.operators.s", "s", "hardy.operators", "s"),
    ("hardy.verify.self_s", "s", "hardy.verify", "self_s"),
    ("fields.calculus.s", "s", "fields.calculus", "s"),
    ("fields.project.calls", "count", "fields.project", "calls"),
    ("fields.project.s", "s", "fields.project", "s"),
    ("fields.negnorm.self_s", "s", "fields.negnorm", "self_s"),
    ("laminate.s", "s", "laminate", "s"),
    ("bogovskii.apply.calls", "count", "bogovskii.apply", "calls"),
    ("bogovskii.apply.nodes", "count", "bogovskii.apply", "size"),
    ("bogovskii.apply.s", "s", "bogovskii.apply", "s"),
    ("cli.self_s", "s", "cli", "self_s"),
    ("ops.s", "s", "op", "s"),
)
DERIVED_UNITS = {"rearrange.modular_per_norm": "count",
                 "trace.overhead_ratio": "ratio"}


def layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric except ``trace.overhead_ratio``, which needs
    the untraced run."""
    totals = layer_totals(rec)
    empty = {"calls": 0, "s": 0.0, "size": 0}
    out = {metric: self_time(rec, span, SELF_SUBTRACT.get(span)) if field == "self_s"
           else totals.get(span, empty)[field]
           for metric, _, span, field in PER_LAYER}
    # modular evaluations: value calls made directly by a norm span
    value_id = rec.name_id.get("young.value")
    norm_id = rec.name_id.get("rearrange.norm")
    modular = sum(1 for i in range(len(rec))
                  if rec.name[i] == value_id and rec.parent[i] >= 0
                  and rec.name[rec.parent[i]] == norm_id)
    calls = out["rearrange.norm.calls"]
    out["rearrange.modular_per_norm"] = modular / calls if calls else 0.0
    return out


def units() -> dict:
    """metric -> unit for every per-layer metric."""
    return {**{m: u for m, u, _, _ in PER_LAYER}, **DERIVED_UNITS}
