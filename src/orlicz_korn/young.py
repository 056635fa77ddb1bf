"""Young functions: evaluation, conjugation, inverses, and the
doubling-type growth conditions near infinity.

A Young function A is convex, left-continuous, A(0) = 0, not identically 0 or
infinity.  The package represents them as a closed family of constructors
(power, power-log, exponential, indicator, tabulated piecewise-linear, scaled,
numerical conjugate); arbitrary user functions enter through the tabulated
kind.  All values are extended reals: +inf propagates and comparisons follow
the convention inf <= inf.

Growth verdicts (doubling / lower-doubling / dominance) are semi-decisions
over a documented search grid with refinement-stability and asymptotic-trend
diagnostics; a "fails" verdict always carries a certificate of violating
points.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ._numerics import LN2, maximize_unimodal

__all__ = [
    "YoungFunction", "PowerYoung", "PowerLogLogYoung",
    "ExpPowerYoung", "ExpLogPowerYoung", "IndicatorYoung",
    "TabulatedYoung", "ScaledYoung", "ConjugateYoung", "GrowthVerdict",
    "conjugate", "check_delta2", "check_nabla2",
    "dominates", "load_catalog", "from_json", "to_json",
    "resolve", "CATALOG_VERSION", "LEGENDRE_GRID", "DomainError",
]

CATALOG_VERSION = "1"

# Single documented approximation source for numerical conjugation: the
# supremand is interpolated linearly on this grid, which is the same as
# conjugating the secant-slope tabulation of the source function exactly.
LEGENDRE_GRID = np.geomspace(1e-6, 1e9, 2048)

_REFINE_DRIFT = 0.05          # constants must be stable under 2x grid refinement
_LN_MAX = math.log(np.finfo(float).max)   # e^x is a float iff x <= _LN_MAX

# The search settings shared by the growth checks, dominance and the balance
# sweep: the dyadic constants 2^k and the thresholds t0 (dominance and
# balance try t0 = 0 first, from tau = _TAU_FLOOR below).
_C_EXPONENTS = range(-10, 11)
_T0_SCAN = (1.0, 10.0, 100.0, 1000.0)

# The sweep grids in tau = ln t.  Each is named by its points per ln 2;
# where that is an integer, every dyadic constant 2^k is an exact index
# shift.  Growth and dominance read the dense, refined and coarse grids; the
# balance sweep reads dense, mid and tail.  No other module does index
# arithmetic on them: they read ln A(2^k t) through ``_shifted`` and
# ``_sweep_shifted``.
_TAU_MAX = 2.0e4              # asymptotic sweep upper end
_DENSE_LO = -32.0
_DENSE_HI = 64.0 * LN2        # ~44.4, regime transitions live below this
_OVERLAP = 12                 # ln2-units of overlap for shift headroom
# sparse far tail: witnesses slow divergences (log-factor gaps) that only
# overtake the dyadic constants at tau ~ 1e5..1e6; curvature of the log
# curves out there is negligible, so shifted values interpolate safely
_TAIL_MAX = 6.0e5
_PER_LN2 = {"dense": 64, "refined": 128, "coarse": 1, "mid": 8, "tail": 0.25}
_GRIDS = {name: np.arange(lo, hi + _OVERLAP * LN2, LN2 / _PER_LN2[name])
          for name, lo, hi in (("dense", _DENSE_LO, _DENSE_HI),
                               ("refined", _DENSE_LO, _DENSE_HI),
                               ("coarse", _DENSE_HI, _TAU_MAX),
                               ("mid", _DENSE_HI - _OVERLAP * LN2, _TAU_MAX),
                               ("tail", _TAU_MAX, _TAIL_MAX))}
_DENSE_GRID, _REFINED_GRID, _COARSE_GRID, _MID_GRID, _TAIL_GRID = _GRIDS.values()
# lowest tested tau: every searched 2^k multiple of it is still on the grid
_TAU_FLOOR = _DENSE_LO - min(_C_EXPONENTS) * LN2

# The balance sweep: dense up to _DENSE_HI, then mid up to _TAU_MAX, then
# tail up to _TAIL_MAX, as (grid, first index, end index) parts.
_MID_JOIN = _OVERLAP * _PER_LN2["mid"]      # index of the mid point at _DENSE_HI
_ND = int(np.searchsorted(_DENSE_GRID, _DENSE_HI + 1e-12, "right"))  # dense points up to _DENSE_HI
_SWEEP_PARTS = (("dense", 0, _ND),
                ("mid", _MID_JOIN + 1, int(np.searchsorted(_MID_GRID, _TAU_MAX + 1e-9, "right"))),
                ("tail", 1, int(np.searchsorted(_TAIL_GRID, _TAIL_MAX + 1e-9, "right"))))
_SWEEP_TAU = np.concatenate([_GRIDS[g][lo:hi] for g, lo, hi in _SWEEP_PARTS])

# The numerical conjugate evaluates tau in blocks of _BLOCK points (larger
# blocks raise peak memory, smaller ones the cost per numpy pass); calls of
# more than one block share _POOL, made on first use.
_BLOCK = 8192
_POOL = None


class DomainError(ValueError):
    """Argument outside the domain of a Young-function operation."""


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class YoungFunction:
    """Each kind states ``superlinear`` (A(t)/t is unbounded) exactly: A* is
    finite-valued iff A is superlinear, and superlinear iff A is finite-valued."""

    kind = "abstract"
    finite_valued = True

    # -- core evaluation ----------------------------------------------------
    def value(self, t):
        raise NotImplementedError

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("Young functions are defined for t >= 0")
        return self.value(t)

    def log_value_logt(self, tau):
        """ln A(e^tau); must stay meaningful far beyond float range of t."""
        raise NotImplementedError

    # -- generalized right-continuous inverse -------------------------------
    def inverse(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("inverse needs r >= 0")
        if r.ndim == 0:
            return self._inverse_scalar(float(r))
        return np.array([self._inverse_scalar(float(x)) for x in r.ravel()]).reshape(r.shape)

    def _inverse_scalar(self, r: float) -> float:
        # sup { t : A(t) <= r } by bracketed monotone bisection
        if math.isinf(r):
            return math.inf
        hi = 1.0
        for _ in range(2400):
            if self.value(np.asarray(hi)) > r:
                break
            hi *= 2.0
        else:
            return math.inf
        lo = 0.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if self.value(np.asarray(mid)) <= r:
                lo = mid
            else:
                hi = mid
        return lo

    # -- conjugation ---------------------------------------------------------
    def conjugate(self) -> "YoungFunction":
        return ConjugateYoung(self)

    # -- misc ----------------------------------------------------------------
    @property
    def jump_point(self):
        """Largest t with A finite just before (None if finite everywhere)."""
        return None

    def params(self) -> dict:
        return {}

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({ps})"


# ---------------------------------------------------------------------------
# closed-form kinds
# ---------------------------------------------------------------------------

class PowerYoung(YoungFunction):
    """A(t) = coeff * t**p, p >= 1."""

    kind = "power"

    def __init__(self, p: float, coeff: float = 1.0):
        if p < 1 or coeff <= 0:
            raise DomainError("power kind needs p >= 1, coeff > 0")
        self.p = float(p)
        self.coeff = float(coeff)
        self.superlinear = self.p > 1.0

    def value(self, t):
        with np.errstate(over="ignore"):
            return self.coeff * np.power(t, self.p)

    def log_value_logt(self, tau):
        return math.log(self.coeff) + self.p * np.asarray(tau, dtype=float)

    def inverse(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("inverse needs r >= 0")
        return np.power(r / self.coeff, 1.0 / self.p)

    def conjugate(self):
        if self.p == 1.0:
            return IndicatorYoung(self.coeff)
        q = self.p / (self.p - 1.0)
        if -math.log(self.coeff * self.p) / (self.p - 1.0) > _LN_MAX:
            raise DomainError(f"the conjugate of {self!r} has a coefficient beyond float range")
        cq = ((self.p - 1.0) / self.p) * (self.coeff * self.p) ** (-1.0 / (self.p - 1.0))
        return PowerYoung(q, cq)

    def params(self):
        return {"p": self.p, "coeff": self.coeff}


class IndicatorYoung(YoungFunction):
    """A(t) = 0 on [0, t1], +inf beyond: the L-infinity Young function."""

    kind = "indicator"
    finite_valued = False
    superlinear = True

    def __init__(self, t1: float = 1.0):
        if t1 <= 0:
            raise DomainError("indicator kind needs t1 > 0")
        self.t1 = float(t1)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.t1, 0.0, np.inf)

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        return np.where(tau <= math.log(self.t1), -np.inf, np.inf)

    def inverse(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("inverse needs r >= 0")
        return np.where(np.isinf(r), np.inf, self.t1)

    def conjugate(self):
        return PowerYoung(1.0, self.t1)

    @property
    def jump_point(self):
        return self.t1

    def params(self):
        return {"t1": self.t1}


class PowerLogLogYoung(YoungFunction):
    """A(t) = t**p * log(1+t)**alpha * log(1+log(1+t))**gamma.

    Covers the logarithmic (gamma = 0) and doubly-logarithmic catalog
    entries; convexity is spot-checked at construction because not every
    parameter combination is convex.
    """

    kind = "power_log_log"

    def __init__(self, p: float, alpha: float, gamma: float = 0.0):
        if p < 1 or alpha < 0 or gamma < 0:
            raise DomainError("power_log_log kind needs p >= 1, alpha, gamma >= 0")
        self.p = float(p)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.superlinear = self.p > 1.0 or self.alpha > 0.0 or self.gamma > 0.0
        _assert_convex(self)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        L = np.log1p(t)
        M = np.log1p(L)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.power(t, self.p)
            if self.alpha:
                out = out * np.power(L, self.alpha)
            if self.gamma:
                out = out * np.power(M, self.gamma)
        return np.where(t == 0.0, 0.0, out)

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        L = np.where(tau > 35.0, tau, np.log1p(np.exp(np.minimum(tau, 700.0))))
        with np.errstate(divide="ignore"):
            out = self.p * tau + self.alpha * np.log(L)
            if self.gamma:
                out = out + self.gamma * np.log(np.log1p(L))
        return out

    def params(self):
        return {"p": self.p, "alpha": self.alpha, "gamma": self.gamma}


class ExpPowerYoung(YoungFunction):
    """A(t) = exp(t**beta) - 1 for beta >= 1; for beta < 1 the non-convex
    piece near zero is replaced by the tangent line through the origin."""

    kind = "exp_power"
    superlinear = True

    def __init__(self, beta: float):
        if beta <= 0:
            raise DomainError("exp_power kind needs beta > 0")
        self.beta = float(beta)
        if beta >= 1.0:
            self.t_splice = 0.0
            self.slope = 0.0
        else:
            self.t_splice, self.slope = self._tangent_from_origin()

    def _tangent_from_origin(self):
        b = self.beta
        raw = lambda t: math.expm1(t ** b)
        rawd = lambda t: b * t ** (b - 1.0) * math.exp(t ** b)
        # tangency point: raw'(t) t = raw(t); g is increasing past the
        # inflection t_c, negative at t_c, positive for large t
        g = lambda t: rawd(t) * t - raw(t)
        # below beta ~ 0.007, t_c or the tangent point is past the float range
        beyond = DomainError(f"exp_power with beta = {b} splices beyond float range")
        if math.log((1.0 - b) / b) / b > _LN_MAX:    # ln t_c
            raise beyond
        t_c = ((1.0 - b) / b) ** (1.0 / b)
        lo = t_c
        hi = max(2.0 * t_c, 2.0)
        while g(hi) < 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        t_s = 0.5 * (lo + hi)
        if not math.isfinite(t_s):
            raise beyond
        return t_s, raw(t_s) / t_s

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            raw = np.expm1(np.power(t, self.beta))
        if self.t_splice > 0:
            return np.where(t <= self.t_splice, self.slope * t, raw)
        return raw

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        x = np.exp(np.minimum(self.beta * tau, 709.0))  # t**beta
        x = np.where(self.beta * tau > 709.0, np.inf, x)
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(x > 700.0, x, np.log(np.expm1(np.minimum(x, 700.0))))
        if self.t_splice > 0:
            out = np.where(tau <= math.log(self.t_splice), math.log(self.slope) + tau, out)
        return out

    def params(self):
        return {"beta": self.beta}


class ExpLogPowerYoung(YoungFunction):
    """A(t) = exp(a * G(t)**beta) - exp(a), with G(t) = log(e + t), or
    G(t) = log(e + t) - (beta - 1) log log(e + t) for the reduced variant.

    Realizes the exp(a (log t)^beta)-type catalog entries and the matching
    reduced partner; convexity is spot-checked at construction.
    """

    kind = "exp_log_power"
    superlinear = True

    def __init__(self, a: float, beta: float, reduced: bool = False):
        if a <= 0 or beta <= 1:
            raise DomainError("exp_log_power kind needs a > 0, beta > 1")
        if a > _LN_MAX:
            raise DomainError(f"exp_log_power kind needs a <= {_LN_MAX:.6g}, so that e^a is a float")
        self.a = float(a)
        self.beta = float(beta)
        self.reduced = bool(reduced)
        _assert_convex(self)

    def _G(self, logept):
        # logept = log(e + t)
        if self.reduced:
            return logept - (self.beta - 1.0) * np.log(logept)
        return logept

    def value(self, t):
        t = np.asarray(t, dtype=float)
        logept = np.log(math.e + t)
        x = self.a * np.power(self._G(logept), self.beta)
        with np.errstate(over="ignore"):
            return np.exp(x) - math.exp(self.a)

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        logept = np.where(tau > 40.0, tau, np.log(math.e + np.exp(np.minimum(tau, 700.0))))
        x = self.a * np.power(self._G(logept), self.beta)
        k0 = math.exp(self.a)
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.where(x > 700.0, x, np.log(np.maximum(np.exp(np.minimum(x, 700.0)) - k0, 0.0)))
        return out

    def params(self):
        return {"a": self.a, "beta": self.beta, "reduced": self.reduced}


# ---------------------------------------------------------------------------
# tabulated kind (piecewise-linear convex functions, exact conjugation)
# ---------------------------------------------------------------------------

class TabulatedYoung(YoungFunction):
    """Piecewise-linear convex Young function given by the breakpoints of its
    piecewise-constant density.

    slopes[i] is the density on (breakpoints[i-1], breakpoints[i]] (with
    breakpoints[-1] = 0); final_slope rules beyond the last breakpoint and may
    be +inf, which caps the function (L-infinity-like jump).  Densities above
    ``slope_cap`` are clipped and the event is recorded in ``cap_applied``.
    """

    kind = "tabulated"

    def __init__(self, breakpoints, slopes, final_slope, slope_cap: float = np.inf):
        bp = np.asarray(breakpoints, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        if bp.ndim != 1 or sl.shape != bp.shape:
            raise DomainError("breakpoints and slopes must be 1-d arrays of equal length")
        if len(bp) == 0 or np.any(bp <= 0) or np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be positive and strictly increasing")
        seq = np.append(sl, float(final_slope))   # checked before the cap
        with np.errstate(invalid="ignore"):       # inf - inf is no fall
            falls = np.diff(seq) < -1e-12 * np.maximum(seq[:-1], 1.0)
        if np.any(seq < 0) or np.any(falls | (np.isinf(seq[:-1]) & np.isfinite(seq[1:]))):
            raise DomainError("slopes and final_slope must be nonnegative and nondecreasing")
        self.cap_applied = bool(np.any(sl > slope_cap) or final_slope > slope_cap)
        sl = np.minimum(sl, slope_cap)
        final_slope = min(final_slope, slope_cap) if not math.isinf(slope_cap) else final_slope
        self.breakpoints = bp
        self.slopes = np.maximum.accumulate(sl)
        self.final_slope = float(final_slope)
        # knots [0, breakpoints], A at the knots, densities with the last piece's
        self._knots = np.concatenate(([0.0], bp))
        with np.errstate(over="ignore"):   # an infinite value means A = inf there
            self.cum_values = np.cumsum(self.slopes * np.diff(self._knots))
        self._knot_values = np.concatenate(([0.0], self.cum_values))
        self._densities = np.concatenate((self.slopes, [self.final_slope]))
        if self.final_slope < math.inf and not (self.cum_values[-1] > 0 or self.final_slope > 0):
            raise DomainError("tabulated function is identically zero")
        self.superlinear = math.isinf(self.final_slope)
        self.finite_valued = not self.superlinear

    def value(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.interp(t, self._knots, self._knot_values)
        beyond_amount = np.maximum(t - self.breakpoints[-1], 0.0)
        with np.errstate(invalid="ignore"):
            tail = np.where(beyond_amount > 0,
                            self.cum_values[-1] + self.final_slope * beyond_amount, 0.0)
        return np.where(t <= self.breakpoints[-1], inside, tail)

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        t_top = self.breakpoints[-1]
        small = tau <= math.log(t_top)
        with np.errstate(divide="ignore"):
            inside = np.log(self.value(np.exp(np.minimum(tau, math.log(t_top)))))
        if math.isinf(self.final_slope):
            tail = np.full_like(tau, np.inf)
        elif self.final_slope == 0.0:
            tail = np.full_like(tau, math.log(self.cum_values[-1]))
        else:
            # A(t) = s*t + d beyond the table, d = A(t_top) - s*t_top
            s = self.final_slope
            d = self.cum_values[-1] - s * t_top
            with np.errstate(over="ignore", invalid="ignore"):
                rel = d / s * np.exp(np.clip(-tau, -745.0, 700.0))
            tail = math.log(s) + tau + np.log1p(np.clip(rel, -0.999999999, np.inf))
        return np.where(small, inside, tail)

    def inverse(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("inverse needs r >= 0")
        # the piece where A first exceeds r: inside the table its slope is
        # positive; the final one may be flat (A <= r) or infinite (a jump)
        i = np.searchsorted(self.cum_values, r, side="right")
        slope = self._densities[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._knots[i] + (r - self._knot_values[i]) / slope
        out = np.where(np.isinf(r) | (slope == 0.0), np.inf, out)
        return out if out.ndim else float(out)

    def conjugate(self):
        # vertices of A: (t_i, A_i); slopes s_i on (t_{i-1}, t_i); the
        # conjugate is piecewise linear with breakpoints at the distinct
        # finite slopes (each that rises above all before it) and slopes
        # equal to the t-vertices where they start.
        s = self._densities
        rises = np.isfinite(s) & (s > np.maximum.accumulate(np.concatenate(([0.0], s[:-1]))))
        if not rises.any():
            # slope 0 until the jump (a finite-valued table always rises)
            return PowerYoung(1.0, self.jump_point)
        return TabulatedYoung(s[rises], self._knots[rises],
                              self.jump_point if self.superlinear else math.inf)

    @property
    def jump_point(self):
        # the knot where the first infinite slope starts
        return self._knots[np.argmax(np.isinf(self._densities))] if self.superlinear else None

    def params(self):
        return {"breakpoints": self.breakpoints.tolist(),
                "slopes": self.slopes.tolist(),
                "final_slope": self.final_slope}


class ScaledYoung(YoungFunction):
    """A(t) = base(arg_scale * t) / m."""

    kind = "scaled"

    def __init__(self, m: float, base: YoungFunction, arg_scale: float = 1.0):
        if m <= 0 or arg_scale <= 0:
            raise DomainError("scaled kind needs m > 0 and arg_scale > 0")
        self.m = float(m)
        self.base = base
        self.arg_scale = float(arg_scale)
        self.finite_valued = base.finite_valued
        self.superlinear = base.superlinear

    def value(self, t):
        return self.base.value(np.asarray(t, dtype=float) * self.arg_scale) / self.m

    def log_value_logt(self, tau):
        return self.base.log_value_logt(np.asarray(tau, dtype=float) + math.log(self.arg_scale)) - math.log(self.m)

    def inverse(self, r):
        return self.base.inverse(np.asarray(r, dtype=float) * self.m) / self.arg_scale

    def conjugate(self):
        return ScaledYoung(self.m, self.base.conjugate(), self.m / self.arg_scale)

    @property
    def jump_point(self):
        jp = self.base.jump_point
        return None if jp is None else jp / self.arg_scale

    def params(self):
        return {"m": self.m, "arg_scale": self.arg_scale, "of": to_json(self.base)}


# ---------------------------------------------------------------------------
# numerical conjugation
# ---------------------------------------------------------------------------

def _tabulate(A: YoungFunction) -> TabulatedYoung:
    """Secant-slope tabulation of A on ``LEGENDRE_GRID`` (interpolates A
    exactly at the grid nodes); overflowing values truncate the table with an
    infinite final slope."""
    with np.errstate(over="ignore"):
        vals = A(LEGENDRE_GRID)
    finite = np.isfinite(vals)
    if not finite.any():
        raise DomainError("function overflows on the whole tabulation grid")
    bp = LEGENDRE_GRID[finite]
    v = vals[finite]
    keep = v > 0
    first_pos = np.argmax(keep) if keep.any() else None
    if first_pos is None:
        raise DomainError("function is zero on the whole tabulation grid")
    widths = np.diff(np.concatenate(([0.0], bp)))
    with np.errstate(over="ignore"):
        secants = np.diff(np.concatenate(([0.0], v))) / widths
    secants = np.maximum.accumulate(np.maximum(secants, 0.0))
    if finite.all():
        final = secants[-1]
    else:
        final = math.inf
    return TabulatedYoung(bp, secants, final)


class ConjugateYoung(YoungFunction):
    """Numerical Young conjugate, answering through two evaluators.

    ``value`` and ``inverse`` read the exact conjugate of the
    secant tabulation of the source on ``LEGENDRE_GRID`` (equivalently, the
    linearly interpolated supremand maximized on that grid); the norms use
    it.  ``log_value_logt`` maximizes ln(r e^tau - source(r)) by golden
    search in sigma = ln r, so the far-field growth stays faithful; the
    growth and balance sweeps use it.  The two differ by the tabulation
    error: for expL, against A*(s) = s ln s - s + 1, the table is 2.9e-5
    (relative) low at s = 1.5 and 5.8e-4 low at s = 1e8, while
    ``log_value_logt`` stays within 1.2e-10 in ln A* on the balance sweep
    out to tau = 6e5 (within 1.2e-9 for the conjugate of t^1.5, 2.3e-10 for
    t^2).  Each tau is evaluated on its own: its value is +inf exactly when
    its supremand still rises at the end of the bracket search.
    """

    kind = "conjugate"

    def __init__(self, source: YoungFunction):
        self.source = source
        self.table = _tabulate(source).conjugate()
        # exact, where the truncated table is not
        self.finite_valued = source.superlinear
        self.superlinear = source.finite_valued

    def value(self, t):
        return self.table.value(t)

    def inverse(self, r):
        return self.table.inverse(r)

    @property
    def jump_point(self):
        return self.table.jump_point

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = _conjugate_log_value(self.source, tau.ravel()).reshape(tau.shape)
        return out if out.ndim else float(out)

    def conjugate(self):
        # honest round trip: conjugate the tabulated representation exactly
        return self.table.conjugate()

    def params(self):
        return {"of": to_json(self.source)}


def _conjugate_log_value(source: YoungFunction, tau: np.ndarray) -> np.ndarray:
    """ln of sup_r { r e^tau - source(r) } at each point of the 1-d array tau.

    Each point is evaluated on its own, so a call of more than ``_BLOCK``
    points splits into blocks that run on a pool of one thread per CPU
    available to the process (numpy releases the interpreter lock inside each
    pass); the result does not depend on the split.
    """
    if tau.size <= _BLOCK:
        return _conjugate_block(source, tau)
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        # the CPUs this process may run on, where the platform can tell
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        _POOL = ThreadPoolExecutor(cpus or 1)
    err = np.geterr()          # numpy's error settings are per thread

    def block(i):
        with np.errstate(**err):
            return _conjugate_block(source, tau[i:i + _BLOCK])
    return np.concatenate(list(_POOL.map(block, range(0, tau.size, _BLOCK))))


def _conjugate_block(source: YoungFunction, tau: np.ndarray) -> np.ndarray:
    """``_conjugate_log_value`` on one block, by golden search in sigma = ln r."""

    def theta(sigma, tau):
        # ln(e^a - source(e^sigma)) with a = sigma + tau: log_sub_exp(a, v)
        # for finite a, in fewer passes
        a = sigma + tau
        v = source.log_value_logt(sigma)
        with np.errstate(divide="ignore"):
            return a + np.log1p(-np.exp(np.fmin(v - a, 0.0)))

    hi = np.full_like(tau, 60.0)
    # expand each point's hi until its supremand is decreasing there
    rising = np.arange(tau.size)
    for _ in range(24):
        h, t = hi[rising], tau[rising]
        th1 = theta(h, t)
        rising = rising[(th1 >= theta(h - 0.25, t)) & (th1 > -np.inf)]
        if not rising.size:
            break
        hi[rising] *= 2.2
    # a point still rising never found a turning point: its conjugate is +inf
    out = np.full_like(tau, np.inf)
    done = np.ones(tau.size, dtype=bool)
    done[rising] = False
    t = tau[done]
    out[done] = maximize_unimodal(lambda sigma: theta(sigma, t), np.full_like(t, -45.0), hi[done])
    return out


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _memo(A: YoungFunction) -> dict:
    """The per-object store of what is derived from A: its log-curve on each
    sweep grid, filled on first read, and its conjugate."""
    return vars(A).setdefault("_memo", {})


def conjugate(A: YoungFunction) -> YoungFunction:
    """The Young conjugate of A, built once per object."""
    memo = _memo(A)
    if "conjugate" not in memo:
        memo["conjugate"] = A.conjugate()
    return memo["conjugate"]


@dataclass
class GrowthVerdict:
    holds: bool
    threshold_t0: float
    witness_constant: float
    failure_certificate: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.holds


def _log_curve(A: YoungFunction, grid: str) -> np.ndarray:
    """ln A(e^tau) on the named sweep grid (a key of ``_GRIDS``), computed on
    first read and kept in A's memo."""
    memo = _memo(A)
    if grid not in memo:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            memo[grid] = A.log_value_logt(_GRIDS[grid])
        memo[grid].flags.writeable = False   # shared by every reader of A
    return memo[grid]


def _index_shift(grid: str, k: float) -> int:
    """The index offset that multiplies t by 2^k on the named grid."""
    s = _PER_LN2[grid] * k
    if s != int(s):
        raise ValueError(f"2^{k} is not an index shift on the {grid} grid")
    return int(s)


def _shifted(A: YoungFunction, grid: str, k: float):
    """Aligned (tau, ln A(e^tau), ln A(2^k e^tau)) on the named grid, at every
    point whose 2^k multiple is on the grid too: an exact index shift."""
    s = _index_shift(grid, k)
    tau, v = _GRIDS[grid], _log_curve(A, grid)
    lo, n = max(-s, 0), len(v) - abs(s)
    return tau[lo:lo + n], v[lo:lo + n], v[lo + s:lo + s + n]


def _sweep_shifted(A: YoungFunction, k: float) -> np.ndarray:
    """ln A(2^k e^tau) at every tau of ``_SWEEP_TAU``: exact index shifts on
    the dense and mid parts (NaN where 2^k e^tau is below the grid), linear
    interpolation on the tail."""
    # fill every curve before the parts exist: a conjugate's evaluator needs
    # tens of MB of temporaries, and they should not stack on the parts
    curves = [_log_curve(A, grid) for grid, _, _ in _SWEEP_PARTS]
    parts = []
    for (grid, lo, hi), v in zip(_SWEEP_PARTS, curves):
        if grid != "tail":
            idx = np.arange(lo, hi) + _index_shift(grid, k)
            parts.append(np.where(idx >= 0, v[np.maximum(idx, 0)], np.nan))
            continue
        tail_tau = _TAIL_GRID[lo:hi] + k * LN2
        with np.errstate(invalid="ignore"):
            finite = np.isfinite(v)
            if finite.all():
                parts.append(np.interp(tail_tau, _TAIL_GRID, v))
            else:
                v = np.nan_to_num(np.where(finite, v, np.inf), posinf=1e308)
                tail = np.interp(tail_tau, _TAIL_GRID, v)
                parts.append(np.where(tail >= 1e307, np.inf, tail))
    return np.concatenate(parts)


def _doubling_ratio(A: YoungFunction, grid: str):
    """(tau, ln A(t), ln A(2t), ln A(2t) - ln A(t)) on the named grid."""
    tau, v, v2 = _shifted(A, grid, 1)
    with np.errstate(invalid="ignore"):
        return tau, v, v2, v2 - v


def _scan_t0(at, A: YoungFunction, near_infinity: bool) -> GrowthVerdict:
    """The first verdict ``at(A, tau_lo, t0)`` that holds along the t0 scan,
    else the last one; without near_infinity only t0 = 0, tested from
    tau = -14."""
    for t0 in _T0_SCAN if near_infinity else (0.0,):
        verdict = at(A, math.log(t0) if t0 > 0 else -14.0, t0)
        if verdict.holds:
            break
    return verdict


def check_delta2(A: YoungFunction, near_infinity: bool = True) -> GrowthVerdict:
    """Upper doubling A(2t) <= C A(t) (near infinity: for t >= t0)."""
    if not A.finite_valued:
        jp = A.jump_point or 1.0
        return GrowthVerdict(False, 0.0, math.inf, [0.75 * jp],
                             {"reason": "not finite-valued: A jumps to infinity"})
    return _scan_t0(_delta2_at, A, near_infinity)


def _tail_probe(tau, r, frac):
    """r at the point of tau nearest to frac * _TAU_MAX."""
    return float(r[np.argmin(np.abs(tau - frac * _TAU_MAX))])


def _delta2_at(A, tau_lo, t0):
    td, vd0, vd2, rd = _doubling_ratio(A, "dense")
    tc, _, _, rc = _doubling_ratio(A, "coarse")
    md = td >= tau_lo
    mc = tc >= tau_lo
    # A jumps from 0 to positive inside the window: no finite constant
    zero_to_pos = md & np.isneginf(vd0) & ~np.isneginf(vd2)
    if zero_to_pos.any():
        ts = np.exp(td[zero_to_pos][-4:])
        return GrowthVerdict(False, t0, math.inf, ts.tolist(),
                             {"reason": "A(2t) > 0 = A(t): no finite doubling constant"})
    r_all = np.concatenate((rd[md], rc[mc]))
    informative = np.isfinite(r_all)
    if not informative.any():
        # finite-valued functions only reach here by overflowing the whole
        # window, which already implies super-doubling growth
        return GrowthVerdict(False, t0, math.inf,
                             [float(np.exp(min(tau_lo, 690.0)))],
                             {"reason": "values overflow the entire window"})
    sup = float(np.max(r_all[informative]))
    tail = [_tail_probe(tc, rc, f) for f in (0.25, 0.5, 1.0)]
    climbing = (math.isfinite(tail[-1]) and tail[0] > 1e-6
                and tail[-1] > 1.3 * tail[0])
    if climbing or not math.isfinite(tail[-1]) or not informative.all():
        cert = [math.exp(min(f * _TAU_MAX, 690.0)) for f in (0.25, 0.5, 1.0)]
        return GrowthVerdict(False, t0, math.inf, cert,
                             {"reason": "doubling ratio grows without bound",
                              "ratio_log_tail": tail})
    # refinement stability of the certified constant (dense window, 2x finer)
    t2, _, _, r2 = _doubling_ratio(A, "refined")
    m2 = (t2 >= tau_lo) & np.isfinite(r2)
    sup2 = float(np.max(r2[m2])) if m2.any() else sup
    sup_all = max(sup, sup2, tail[-1])
    drift = abs(math.expm1(min(abs(sup2 - sup), 1.0)))
    if drift > _REFINE_DRIFT:
        return GrowthVerdict(False, t0, math.inf,
                             [float(np.exp(min(tau_lo, 600.0)))],
                             {"reason": "constant unstable under refinement",
                              "drift": drift})
    return GrowthVerdict(True, t0, math.exp(min(sup_all, 700.0)), [],
                         {"refinement_drift": drift, "ratio_log_tail": tail})


def check_nabla2(A: YoungFunction, near_infinity: bool = True) -> GrowthVerdict:
    """Lower doubling A(2t) >= C A(t) with C > 2 (near infinity: t >= t0)."""
    if not A.finite_valued:
        return GrowthVerdict(True, 0.0, 4.0, [],
                             {"reason": "A jumps to infinity: lower doubling is vacuous"})
    return _scan_t0(_nabla2_at, A, near_infinity)


def _nabla2_at(A, tau_lo, t0):
    td, vd, _, rd = _doubling_ratio(A, "dense")
    tc, _, _, rc = _doubling_ratio(A, "coarse")
    md = td >= tau_lo
    mc = tc >= tau_lo
    # informative points: 0 < A(t) < inf (zero or infinite A(t) satisfy any C)
    id_ = md & np.isfinite(rd) & np.isfinite(vd)
    ic = mc & np.isfinite(rc)
    if not (id_.any() or ic.any()):
        return GrowthVerdict(True, t0, 4.0, [], {"reason": "vacuous"})
    r_all = np.concatenate((rd[id_], rc[ic]))
    t_all = np.concatenate((td[id_], tc[ic]))
    inf_log = float(np.min(r_all))
    gap = inf_log - LN2
    g1 = _tail_probe(tc, rc, 0.25) - LN2
    g2 = _tail_probe(tc, rc, 1.0) - LN2
    decaying = (math.isfinite(g1) and math.isfinite(g2) and g2 < 0.75 * g1
                ) or (math.isfinite(g2) and g2 < 1e-4)
    if gap <= 1e-9 or decaying:
        worst = t_all[np.argsort(r_all)[:4]]
        return GrowthVerdict(False, t0, 2.0,
                             [float(np.exp(min(t, 690.0))) for t in worst],
                             {"reason": "doubling ratio not bounded away from 2",
                              "gap_tail": [g1, g2]})
    t2, v2, _, r2 = _doubling_ratio(A, "refined")
    m2 = (t2 >= tau_lo) & np.isfinite(r2) & np.isfinite(v2)
    inf2 = float(np.min(r2[m2])) if m2.any() else inf_log
    c = math.exp(min(inf_log, inf2, g2 + LN2))
    drift = abs(math.exp(min(inf2, 10.0)) - math.exp(min(inf_log, 10.0))) / math.exp(min(inf_log, 10.0))
    if c <= 2.0 * (1.0 + 1e-12) or drift > _REFINE_DRIFT:
        return GrowthVerdict(False, t0, 2.0, [float(np.exp(min(t_all[np.argmin(r_all)], 690.0)))],
                             {"reason": "no stable constant above 2", "drift": drift})
    return GrowthVerdict(True, t0, c, [], {"refinement_drift": drift, "gap_tail": [g1, g2]})


def dominates(A: YoungFunction, B: YoungFunction, near_infinity: bool = True) -> GrowthVerdict:
    """Search for C with B(t) <= A(C t) for t >= t0 (near infinity) or
    globally; smallest passing dyadic C is reported."""
    t0_list = ((0.0,) + _T0_SCAN) if near_infinity else (0.0,)
    for k in _C_EXPONENTS:             # smallest passing constant wins
        for t0 in t0_list:
            tau_lo = math.log(t0) if t0 > 0 else _TAU_FLOOR
            # the refined grid rechecks refinement stability
            if not any(_dominance_violations(A, B, grid, k, tau_lo).size
                       for grid in ("dense", "coarse", "refined")):
                return GrowthVerdict(True, t0, 2.0 ** k, [], {})
    t0 = t0_list[-1]
    tau_lo = math.log(t0) if t0 > 0 else _TAU_FLOOR
    bad_t = [float(np.exp(min(t, 690.0))) for grid in ("dense", "coarse")
             for t in _dominance_violations(A, B, grid, max(_C_EXPONENTS), tau_lo)[:6]]
    return GrowthVerdict(False, t0, math.inf, bad_t[:6],
                         {"reason": "no dyadic constant certifies dominance"})


def _dominance_violations(A, B, grid, k, tau_lo):
    """The tau >= tau_lo of the named grid where ln B(t) <= ln A(2^k t) fails."""
    tau, b, _ = _shifted(B, grid, k)
    _, _, a = _shifted(A, grid, k)
    with np.errstate(invalid="ignore"):
        ok = (b <= a + 1e-9) | np.isneginf(b) | np.isposinf(a)
    return tau[(tau >= tau_lo) & ~ok]


# ---------------------------------------------------------------------------
# convexity guard
# ---------------------------------------------------------------------------

def _assert_convex(A: YoungFunction):
    """Spot-check convexity: secant slopes must be nondecreasing on a log grid."""
    grid = np.geomspace(1e-6, 1e6, 400)
    with np.errstate(over="ignore"):
        v = A.value(grid)
    finite = np.isfinite(v)
    g = grid[finite]
    v = v[finite]
    sec = np.diff(np.concatenate(([0.0], v))) / np.diff(np.concatenate(([0.0], g)))
    bad = np.diff(sec) < -1e-9 * np.maximum(sec[:-1], 1e-300)
    if bad.any():
        raise DomainError(f"{A!r} is not convex near t={g[1:][bad][:3]}")


# ---------------------------------------------------------------------------
# JSON catalog
# ---------------------------------------------------------------------------

# catalog kinds that are special cases of power_log_log (gamma = 0)
_POWER_LOG_ALIASES = {"power_log": {}, "linear_log": {"p": 1.0, "alpha": 1.0}}

# each JSON kind: its class, its required and its optional parameters
_KINDS = {cls.kind: (cls, required, optional) for cls, required, optional in (
    (PowerYoung, ("p",), ("coeff",)),
    (PowerLogLogYoung, ("p", "alpha"), ("gamma",)),
    (ExpPowerYoung, ("beta",), ()),
    (ExpLogPowerYoung, ("a", "beta"), ("reduced",)),
    (IndicatorYoung, (), ("t1",)),
    (TabulatedYoung, ("breakpoints", "slopes", "final_slope"), ("slope_cap",)),
    (ScaledYoung, ("m", "of"), ("arg_scale",)),
    (ConjugateYoung, ("of",), ()),
)}


def _checked_params(obj) -> tuple:
    """(class, params) of a JSON Young function, with every parameter name
    known and every value a number other than NaN (a list of them for the
    tabulated breakpoints and slopes; a nested JSON function for "of")."""
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise DomainError('a Young function is a JSON object {"kind": ..., "params": {...}}')
    kind = obj["kind"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise DomainError(f"params of kind {kind!r} must be a JSON object")
    if kind in _POWER_LOG_ALIASES:
        kind, params = "power_log_log", {**_POWER_LOG_ALIASES[kind], **params}
    if kind not in _KINDS:
        raise DomainError(f"unknown Young-function kind {kind!r}")
    cls, required, optional = _KINDS[kind]
    missing = [k for k in required if k not in params]
    unknown = [k for k in params if k not in required + optional]
    if missing or unknown:
        raise DomainError(f"kind {kind!r} takes parameters {list(required)}, optionally "
                          f"{list(optional)}; missing {missing}, unknown {unknown}")
    for k, v in params.items():
        values = v if k in ("breakpoints", "slopes") and isinstance(v, list) else [v]
        if k != "of" and not all(isinstance(x, (int, float)) and x == x for x in values):
            raise DomainError(f"parameter {k!r} of kind {kind!r} must be a number, not NaN")
    return cls, params


def from_json(obj) -> YoungFunction:
    """Build a Young function from {"kind": ..., "params": {...}} (or a full
    catalog entry carrying a "name")."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    cls, params = _checked_params(obj)
    if cls is ConjugateYoung:
        return ConjugateYoung(from_json(params["of"]))
    if cls is ScaledYoung:
        return ScaledYoung(params["m"], from_json(params["of"]), params.get("arg_scale", 1.0))
    return cls(**params)


def to_json(A: YoungFunction) -> dict:
    return {"kind": A.kind, "params": A.params()}


def load_catalog() -> dict:
    """Named Young functions shipped with the package."""
    text = resources.files(__package__).joinpath("catalog.json").read_text()
    entries = json.loads(text)
    return {e["name"]: from_json(e) for e in entries}


def resolve(name_or_json: str, catalog: dict | None = None) -> YoungFunction:
    """Accepts a catalog name or an inline JSON object string."""
    s = name_or_json.strip()
    if s.startswith("{"):
        return from_json(s)
    catalog = catalog if catalog is not None else load_catalog()
    if s not in catalog:
        raise KeyError(s)
    return catalog[s]
