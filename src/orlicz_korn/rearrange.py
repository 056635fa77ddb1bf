"""Decreasing rearrangements and Luxemburg norms of sampled functions.

A sampled function is a list of values with positive cell measures on a
finite measure space.  The Luxemburg norm is the usual

    ||u|| = inf { lam > 0 : sum_i w_i A(|u_i| / lam) <= 1 },

computed by bisection with a guaranteed bracket; indicator-kind Young
functions reproduce the essential supremum exactly.  Modular sums use
numpy's pairwise summation, so results are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .young import DomainError, YoungFunction, conjugate

__all__ = ["SampledFunction", "rearrangement", "luxemburg", "norm",
           "holder_check", "DegenerateInputError"]

_LAMBDA_RTOL = 1e-10


class DegenerateInputError(ValueError):
    """Raised when a norm ratio is requested for an a.e. zero function."""


@dataclass(frozen=True)
class SampledFunction:
    """Values with positive weights (cell measures in Lebesgue units)."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.shape != w.shape or v.ndim != 1:
            raise DomainError("values and weights must be 1-d arrays of equal length")
        if not np.all(w > 0):              # NaN is not positive either
            raise DomainError("weights must be positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.weights))

    def __len__(self):
        return len(self.values)


def rearrangement(u: SampledFunction) -> SampledFunction:
    """Weight-carrying decreasing rearrangement of |u|.

    Ties are broken by original index (stable sort); the result represents
    the right-continuous step function u* on (0, total_measure).
    """
    order = np.argsort(-np.abs(u.values), kind="stable")
    return SampledFunction(np.abs(u.values[order]), u.weights[order])


def _modular(A: YoungFunction, u_abs: np.ndarray, w: np.ndarray, lam: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = A.value(u_abs / lam)
        total = float(np.sum(vals * w))
    return math.inf if np.any(np.isinf(vals)) else total


def luxemburg(A: YoungFunction, u: SampledFunction) -> float:
    """Luxemburg norm of u in the Orlicz space of A over the sampled space."""
    u_abs = np.abs(u.values)
    w = u.weights
    peak = float(np.max(u_abs)) if len(u_abs) else 0.0
    if peak == 0.0:
        return 0.0
    omega = u.total_measure
    wmin = float(np.min(w))
    # bracket from the inverse at the extreme cell measures, then expand
    inv_small = float(A.inverse(1.0 / wmin))
    inv_large = float(A.inverse(1.0 / omega))
    lo = peak / inv_small if inv_small > 0 and math.isfinite(inv_small) else 0.0
    hi = peak / inv_large if inv_large > 0 else peak * 2.0
    if not math.isfinite(hi) or hi <= 0:
        hi = peak
    verdicts = {}              # lambda -> whether the modular there is <= 1

    def fits(lam: float) -> bool:
        if lam not in verdicts:
            verdicts[lam] = _modular(A, u_abs, w, lam) <= 1.0
        return verdicts[lam]

    for _ in range(200):
        if fits(hi):
            break
        hi *= 2.0
    lo = min(lo, hi)
    for _ in range(200):
        if lo <= 0 or not fits(lo):
            break
        lo *= 0.5
    if lo <= 0:
        lo = hi * 1e-18
    while fits(lo) and lo > hi * 1e-30:
        lo *= 0.5
    if fits(lo):
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= _LAMBDA_RTOL * hi:
            break
    return hi


norm = luxemburg


def holder_check(A: YoungFunction, u: SampledFunction, v: SampledFunction) -> float:
    """integral(u v) / (||u||_A * ||v||_conj(A)); at most 2 by duality."""
    if not np.array_equal(u.weights, v.weights):
        raise DomainError("u and v must share cell weights")
    nu = norm(A, u)
    nv = norm(conjugate(A), v)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("Hoelder ratio undefined for zero input")
    pairing = float(np.sum(u.values * v.values * u.weights))
    return pairing / (nu * nv)
