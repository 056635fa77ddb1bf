"""Averaging and dual Hardy operators on step functions over (0, L).

Both operators are evaluated exactly on step functions (prefix sums, and
suffix sums with per-cell log weights); outputs are sampled at cell midpoints
and carry the original cell weights, so only the Luxemburg bisection
tolerance enters downstream norm ratios.

The empirical verification runs a fixed trial family (random
steps, power spikes, log spikes, certificate-derived profiles) and reports
the worst ratio per operator, plus a spike-sharpness sweep whose growth
witnesses unboundedness when the balance conditions fail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import balance, rearrange
from .rearrange import SampledFunction
from .young import DomainError, YoungFunction

__all__ = ["StepFunction", "HardyTrial", "HardyReport", "averaging_operator",
           "dual_operator", "suffix_log_integral", "verify_hardy",
           "step_on_interval", "spike"]

_PER_DECADE = 96              # cells per decade of the geometric partitions
# the powers k of the log spikes ln(L/s)^k; the largest integrates to k! L
# over (0, L), the largest integral of the trial family, which leaves the
# float range past L = _MAX_L
_LOG_SPIKE_POWERS = range(1, 9)
_MAX_L = sys.float_info.max / math.factorial(_LOG_SPIKE_POWERS[-1])
# the family's smallest partition edge is L * 1e-12, inside a certificate
# spike of width L * 1e-9, whose height 1e9 / L is its largest 1/delta: from
# _MIN_L on, every edge and every 1/delta is a normal float
_MIN_L = sys.float_info.min * 1e12


@dataclass(frozen=True)
class StepFunction:
    """Step function on (0, L): value values[i] on (edges[i], edges[i+1])."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or len(e) != len(v) + 1:
            raise DomainError("need len(edges) == len(values) + 1")
        if e[0] < 0 or np.any(np.diff(e) <= 0):
            raise DomainError("edges must be nonnegative and increasing")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> float:
        return float(self.edges[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def sampled(self) -> SampledFunction:
        return SampledFunction(self.values, self.widths)


def step_on_interval(L: float, values) -> StepFunction:
    values = np.asarray(values, dtype=float)
    edges = np.linspace(0.0, L, len(values) + 1)
    return StepFunction(edges, values)


def _log_edges(L: float, inner: float) -> np.ndarray:
    """Geometric partition of (0, L) resolving scales down to ``inner``."""
    decades = max(1.0, math.log10(L / inner))
    n = int(decades * _PER_DECADE) + 1
    e = np.geomspace(inner, L, n)
    return np.concatenate(([0.0], e))


def spike(L: float, delta: float) -> StepFunction:
    """f = (1/delta) * indicator(0, delta) on a grid with a breakpoint at delta."""
    lo = _log_edges(delta, delta * 1e-3)
    hi = np.geomspace(delta, L, int(math.log10(L / delta) * _PER_DECADE) + 2)[1:]
    edges = np.concatenate((lo, hi))
    vals = np.where(0.5 * (edges[:-1] + edges[1:]) <= delta, 1.0 / delta, 0.0)
    return StepFunction(edges, vals)


def averaging_operator(f: StepFunction) -> SampledFunction:
    """s -> (1/s) * integral_0^s f, exact at cell midpoints."""
    w = f.widths
    mids = f.midpoints
    prefix = np.concatenate(([0.0], np.cumsum(w * f.values)))
    upto_mid = prefix[:-1] + f.values * (mids - f.edges[:-1])
    return SampledFunction(upto_mid / mids, w)


def suffix_log_integral(f: StepFunction, s, upper: float) -> np.ndarray:
    """integral_s^upper f(r)/r dr at each s (exact for the step function f)."""
    e = np.minimum(f.edges, upper)
    with np.errstate(divide="ignore"):
        logw = np.log(np.maximum(e[1:], 1e-320)) - np.log(np.maximum(e[:-1], 1e-320))
    cell = f.values * np.maximum(logw, 0.0)
    suffix = np.concatenate((np.cumsum(cell[::-1])[::-1], [0.0]))
    s = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(f.edges, s, side="right") - 1, 0, len(f.values) - 1)
    top = np.minimum(e[idx + 1], upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        part = f.values[idx] * np.maximum(np.log(top) - np.log(np.maximum(s, 1e-320)), 0.0)
    out = part + suffix[idx + 1]
    return np.where(s >= upper, 0.0, out)


def dual_operator(f: StepFunction) -> SampledFunction:
    """s -> integral_s^L f(r) dr / r, exact at cell midpoints (log weights)."""
    return SampledFunction(suffix_log_integral(f, f.midpoints, f.length), f.widths)


@dataclass
class HardyTrial:
    ratio_avg: float
    ratio_dual: float
    label: str


@dataclass
class HardyReport:
    worst_avg: HardyTrial
    worst_dual: HardyTrial
    trials: list
    spike_sweep: list             # (delta, ratio_avg)
    sweep_growing: bool
    balance_holds: bool


def _trial_family(report: balance.BalanceReport, L: float, trials: int,
                  seed: int) -> list:
    """The trial family: 64 random steps, 16 power spikes, 8 log
    spikes, plus profiles from the failure certificates in ``report``."""
    rng = np.random.default_rng(seed)
    fams = []
    n_random = min(64, trials)
    for i in range(n_random):
        n = int(rng.integers(8, 256))
        vals = np.abs(rng.standard_normal(n)) * rng.uniform(0.2, 5.0)
        fams.append((step_on_interval(L, vals), f"random_step_{i}"))
    # the power and log spikes share one partition
    edges = _log_edges(L, L * 1e-8)
    mids = 0.5 * (edges[:-1] + edges[1:])
    for i, theta in enumerate(np.linspace(0.05, 0.92, 16)):
        fams.append((StepFunction(edges, mids ** (-theta)), f"power_spike_{i}"))
    for i, k in enumerate(_LOG_SPIKE_POWERS):
        fams.append((StepFunction(edges, np.log(L / mids) ** k), f"log_spike_{i}"))
    for cond in (report.primal, report.dual):
        for t in cond.failure_certificate[:4]:
            if t and math.isfinite(t) and t > 0:
                delta = max(min(L / 2.0, L / t), L * 1e-9)
                fams.append((spike(L, delta), f"certificate_{t:.3g}"))
    return fams


def _ratios(A, B, f: StepFunction, operators: tuple) -> list:
    """||T f||_B / ||f||_A for each operator T (0 where ||f||_A is)."""
    denom = rearrange.norm(A, f.sampled())
    return [rearrange.norm(B, T(f)) / denom if denom else 0.0 for T in operators]


def verify_hardy(A: YoungFunction, B: YoungFunction, L: float = 1.0,
                 trials: int = 64, seed: int = 20240) -> HardyReport:
    """Worst Hardy-operator norm ratios over the fixed trial family, plus a
    spike-sharpness sweep diagnosing unboundedness.  L must lie in
    [min normal float * 1e12, max float / 8!] (about [2.23e-296, 4.46e303]),
    where every edge and 1/delta of the family is a normal float and every
    integral of it a finite one."""
    if not _MIN_L <= L <= _MAX_L:
        raise DomainError(f"need {_MIN_L!r} <= L <= {_MAX_L:.6g}, where the trial family's "
                          "edges stay normal floats and its integrals finite")
    if trials < 1:
        raise DomainError("need trials >= 1")
    report = balance.check_balance(A, B)
    out = []
    for f, label in _trial_family(report, L, trials, seed):
        ra, rd = _ratios(A, B, f, (averaging_operator, dual_operator))
        out.append(HardyTrial(ra, rd, label))
    worst_avg = max(out, key=lambda t: t.ratio_avg)
    worst_dual = max(out, key=lambda t: t.ratio_dual)
    sweep = []
    for delta in 10.0 ** np.arange(-1, -6.51, -0.5):
        f = spike(L, delta * L)
        ra, = _ratios(A, B, f, (averaging_operator,))
        sweep.append((float(delta * L), float(ra)))
    ratios = [r for _, r in sweep]
    growing = all(b > a * 1.02 for a, b in zip(ratios, ratios[1:]))
    return HardyReport(worst_avg, worst_dual, out, sweep, growing, report.holds)
