"""Decreasing rearrangements and Luxemburg norms of sampled functions.

A sampled function is a list of values with positive cell measures on a
finite measure space.  The Luxemburg norm is the usual

    ||u|| = inf { lam > 0 : sum_i w_i A(|u_i| / lam) <= 1 },

computed by bisection with a guaranteed bracket; indicator-kind Young
functions reproduce the essential supremum exactly.  Modular sums use
numpy's pairwise summation, so results are reproducible across runs.

The bisection tests about 40 lambda, and the modular is evaluated at about
five of them.  The modular does not increase with lambda, so a test at or
below a lambda whose modular exceeded 1 + delta fails, and one at or above
a lambda whose modular was below 1 - delta fits.  The margin delta
(``_MODULAR_MARGIN``) exceeds twice the rounding error of the modular, so
such a verdict is the one an evaluation would give, and lambda is the plain
bisection's to the bit.  Before a test that no evaluated lambda decides, a
probe estimates the root from the points so far, interpolating ln M against
ln lambda, and evaluates the ends of the deeper bisection interval that
holds the estimate.  When the estimate is right, they are lambda the
bisection tests anyway, and they decide every test above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .young import DomainError, YoungFunction, conjugate

__all__ = ["SampledFunction", "rearrangement", "luxemburg", "norm",
           "holder_check", "DegenerateInputError"]

_LAMBDA_RTOL = 1e-10
# The margin that makes an inferred verdict exact.  The true modular
# M(lam) = sum w A(|u|/lam) does not increase with lam, and the computed one
# is within a relative eta of it: each term carries the rounding of |u|/lam,
# which A amplifies by t A'(t)/A(t) <= p ln A <= 709 p ulps at a finite value
# (p the power of the growth: 2 for exp(t^2)), plus a few ulps of A's own
# evaluation, and the pairwise sum adds about 40 ulps.  For the catalog that
# is about 1,460 ulps, eta = 1.6e-13.  A modular computed above 1 + delta at
# lam' is then truly above 1 + delta - eta, so the one computed at any
# lam <= lam' is above 1 + delta - 2 eta > 1: the verdict there is "fails"
# without evaluating it, and likewise "fits" at lam >= lam' when the one at
# lam' was below 1 - delta.
_MODULAR_MARGIN = 1e-12
# a guard on the probes made before one bisection test is evaluated itself
_PROBES_PER_TEST = 8
# No probe below the normal floats: there the rounding of |u|/lam is not
# relative, so the margin does not hold, and the midpoint of a bisection
# interval can round to one of its ends, where the path would never end.
_NORMAL_MIN = np.finfo(float).tiny


class DegenerateInputError(ValueError):
    """Raised when a norm ratio is requested for an a.e. zero function."""


@dataclass(frozen=True)
class SampledFunction:
    """Values with positive weights (cell measures in Lebesgue units), each
    at least the smallest normal float."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.shape != w.shape or v.ndim != 1:
            raise DomainError("values and weights must be 1-d arrays of equal length")
        # below the normal floats 1 / w can overflow, and luxemburg's bracket
        # then falls back to a walk that stops short of the norm (NaN fails too)
        if not np.all(w >= _NORMAL_MIN):
            raise DomainError("weights must be positive normal floats")
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
    # lambda = 0 (a bracket end that underflowed) divides to inf: it never fits
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = A.value(u_abs / lam)
        total = float(np.sum(vals * w))
    return math.inf if np.any(np.isinf(vals)) else total


class _Modular:
    """The modular of one sampled function and the verdicts it decides: a
    lambda fails at or below one whose modular exceeded 1 + delta, and fits
    at or above one whose modular was below 1 - delta."""

    def __init__(self, A: YoungFunction, u_abs: np.ndarray, w: np.ndarray):
        self.A, self.u_abs, self.w = A, u_abs, w
        self.at = {}                   # lambda -> its modular
        self.fails_to = -math.inf      # lambda <= this fails
        self.fits_from = math.inf      # lambda >= this fits
        self.points = []               # (ln lambda, ln M), in evaluation order
        self.guess = None              # ln lambda of the last root estimate

    def __call__(self, lam: float) -> float:
        m = self.at.get(lam)
        if m is None:
            m = self.at[lam] = _modular(self.A, self.u_abs, self.w, lam)
            if m > 1.0 + _MODULAR_MARGIN:
                self.fails_to = max(self.fails_to, lam)
            elif m < 1.0 - _MODULAR_MARGIN:
                self.fits_from = min(self.fits_from, lam)
            if 0.0 < lam < math.inf and not math.isnan(m):
                self.points.append((math.log(lam), _log(m)))
        return m

    def known(self, lam: float):
        """The verdict at lambda if it needs no evaluation, else None."""
        if lam <= self.fails_to:
            return False
        if lam >= self.fits_from:
            return True
        m = self.at.get(lam)
        return None if m is None else m <= 1.0

    def fits(self, lam: float) -> bool:
        verdict = self.known(lam)
        return self(lam) <= 1.0 if verdict is None else verdict

    def probe(self, lo: float, hi: float) -> bool:
        """Evaluate one end of a deeper interval of the bisection from
        [lo, hi], the one it reaches if the root is where it is estimated.
        Returns whether it evaluated one: not without an estimate, nor when
        every end it would take is decided already, nor below
        ``_NORMAL_MIN``.

        The estimate (``_root_estimate``) solves f = ln M against
        x = ln lambda from the points evaluated so far.  Its uncertainty is
        the square of its distance from the estimate before: the first one
        has none, and is exact where M is a power of lambda.  The bisection
        is followed down while its midpoint stays clear of that uncertainty
        and its interval is wider than its stopping width.  If the root is
        inside, both ends are lambda the bisection tests anyway."""
        fail = max((p for p in self.points if p[1] > 0.0), default=None)
        fit = min((p for p in self.points if p[1] <= 0.0), default=None)
        if fail is None or fit is None:
            return False
        x = _root_estimate(self.points, fail, fit)
        if x is None:
            return False
        spread = 0.0 if self.guess is None else abs(x - self.guess) ** 2
        self.guess = x
        below, above = math.exp(x - spread), math.exp(x + spread)
        path = [(lo, hi)]
        while hi - lo > _LAMBDA_RTOL * hi:
            if hi < _NORMAL_MIN:
                return False
            mid = 0.5 * (lo + hi)
            verdict = self.known(mid)
            if verdict is None:
                if below < mid < above:
                    break
                verdict = mid >= above
            if verdict:
                hi = mid
            else:
                lo = mid
            path.append((lo, hi))
        # on each side the deepest end that decides the tests beyond it: an
        # end whose modular is within delta of 1 does not, and the end one
        # interval up is taken instead
        for side in (0, 1):
            for interval in reversed(path):
                end = interval[side]
                if end <= self.fails_to if side == 0 else end >= self.fits_from:
                    break
                if self.known(end) is None:
                    self(end)
                    return True
        return False


def _log(m: float) -> float:
    return math.log(m) if m > 0.0 else -math.inf


def _root_estimate(points: list, fail: tuple, fit: tuple):
    """A root of f between the points (x, f(x)) ``fail`` (the largest x with
    f(x) > 0) and ``fit`` (the smallest with f(x) <= 0): inverse quadratic
    interpolation through the last three ``points``, else the secant through
    the last two, else regula falsi on the bracket, whichever first falls
    strictly inside it; None if none does."""
    (xa, fa), (xb, fb) = fail, fit
    tries = []
    (x0, f0), (x1, f1), (x2, f2) = ([(math.nan, math.nan)] + points)[-3:]
    if all(map(math.isfinite, (f0, f1, f2))) and f0 != f1 and f1 != f2 and f0 != f2:
        tries.append(x0 * f1 * f2 / ((f0 - f1) * (f0 - f2)) + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                     + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
    if math.isfinite(f1) and math.isfinite(f2) and f1 != f2:
        tries.append(x2 - f2 * (x2 - x1) / (f2 - f1))
    if math.isfinite(fa) and math.isfinite(fb):
        tries.append(xb - fb * (xb - xa) / (fb - fa))
    return next((x for x in tries if xa < x < xb), None)


def luxemburg(A: YoungFunction, u: SampledFunction) -> float:
    """Luxemburg norm of u in the Orlicz space of A over the sampled space.

    The bracket and the bisection decide lambda; ``_Modular`` answers each
    test, inferring most verdicts from a few evaluations of the modular
    (see the module docstring)."""
    u_abs = np.abs(u.values)
    w = u.weights
    peak = float(np.max(u_abs)) if len(u_abs) else 0.0
    if peak == 0.0:
        return 0.0
    # bracket from the inverse at the extreme cell measures, then expand
    inv_small, inv_large = np.ravel(A.inverse([1.0 / float(np.min(w)), 1.0 / u.total_measure])).tolist()
    lo = peak / inv_small if inv_small > 0 and math.isfinite(inv_small) else 0.0
    hi = peak / inv_large if inv_large > 0 else peak * 2.0
    if not math.isfinite(hi) or hi <= 0:
        hi = peak
    modular = _Modular(A, u_abs, w)
    fits = modular.fits
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
        for _ in range(_PROBES_PER_TEST):
            if modular.known(mid) is not None or not modular.probe(lo, hi):
                break
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
