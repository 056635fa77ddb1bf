"""Young functions: evaluation, densities, conjugation, inverses, and the
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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ._numerics import LN2, log_sub_exp, maximize_unimodal

__all__ = [
    "YoungFunction", "PowerYoung", "PowerLogLogYoung",
    "ExpPowerYoung", "ExpLogPowerYoung", "IndicatorYoung",
    "TabulatedYoung", "ScaledYoung", "ConjugateYoung", "GrowthVerdict",
    "conjugate", "check_delta2", "check_nabla2",
    "dominates", "equivalent", "load_catalog", "from_json", "to_json",
    "resolve", "CATALOG_VERSION", "LEGENDRE_GRID", "DomainError",
]

CATALOG_VERSION = "1"

# Single documented approximation source for numerical conjugation: the
# supremand is interpolated linearly on this grid, which is the same as
# conjugating the secant-slope tabulation of the source function exactly.
LEGENDRE_GRID = np.geomspace(1e-6, 1e9, 2048)

_REFINE_DRIFT = 0.05          # constants must be stable under 2x grid refinement
_TAU_MAX = 2.0e4              # asymptotic sweep upper end, in tau = ln t
_T0_SCAN = (1.0, 10.0, 100.0, 1000.0)

# The sweep grids in tau = ln t, shared by the growth checks, dominance and
# the balance sweep.  Steps divide ln 2, so every dyadic constant in a search
# grid is an exact integer index shift.  Growth and dominance read the dense,
# refined and coarse grids; the balance sweep reads dense, mid and tail.
_DENSE_LO = -32.0
_DENSE_HI = 64.0 * LN2        # ~44.4, regime transitions live below this
_DENSE_STEP = LN2 / 64.0
_COARSE_STEP = LN2
_MID_STEP = LN2 / 8.0
_OVERLAP = 12                 # ln2-units of overlap for shift headroom
# sparse far tail: witnesses slow divergences (log-factor gaps) that only
# overtake the dyadic constants at tau ~ 1e5..1e6; curvature of the log
# curves out there is negligible, so shifted values interpolate safely
_TAIL_MAX = 6.0e5
_TAIL_STEP = 4.0 * LN2
_DENSE_GRID = np.arange(_DENSE_LO, _DENSE_HI + 12.0 * LN2, _DENSE_STEP)
_REFINED_GRID = np.arange(_DENSE_LO, _DENSE_HI + 12.0 * LN2, _DENSE_STEP / 2.0)
_COARSE_GRID = np.arange(_DENSE_HI, _TAU_MAX + 12.0 * LN2, _COARSE_STEP)
_MID_GRID = np.arange(_DENSE_HI - _OVERLAP * LN2, _TAU_MAX + _OVERLAP * LN2, _MID_STEP)
_TAIL_GRID = np.arange(_TAU_MAX, _TAIL_MAX + _OVERLAP * LN2, _TAIL_STEP)
_GRIDS = {"dense": _DENSE_GRID, "refined": _REFINED_GRID, "coarse": _COARSE_GRID,
          "mid": _MID_GRID, "tail": _TAIL_GRID}
_MID_JOIN = _OVERLAP * 8      # index of the mid point sitting at _DENSE_HI
_ND = int(np.searchsorted(_DENSE_GRID, _DENSE_HI + 1e-12, "right"))  # dense points up to _DENSE_HI


class DomainError(ValueError):
    """Argument outside the domain of a Young-function operation."""


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class YoungFunction:
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

    def density(self, t):
        raise NotImplementedError

    def log_value_logt(self, tau):
        """ln A(e^tau); must stay meaningful far beyond float range of t."""
        tau = np.asarray(tau, dtype=float)
        t = np.exp(np.minimum(tau, 709.0))
        with np.errstate(divide="ignore", over="ignore"):
            out = np.log(self.value(t))
        return np.where(tau > 709.0, np.inf, out)

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

    def value(self, t):
        with np.errstate(over="ignore"):
            return self.coeff * np.power(t, self.p)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        if self.p == 1.0:
            return np.full_like(t, self.coeff)
        with np.errstate(over="ignore"):
            return self.coeff * self.p * np.power(t, self.p - 1.0)

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
        cq = ((self.p - 1.0) / self.p) * (self.coeff * self.p) ** (-1.0 / (self.p - 1.0))
        return PowerYoung(q, cq)

    def params(self):
        return {"p": self.p, "coeff": self.coeff}


class IndicatorYoung(YoungFunction):
    """A(t) = 0 on [0, t1], +inf beyond: the L-infinity Young function."""

    kind = "indicator"
    finite_valued = False

    def __init__(self, t1: float = 1.0):
        if t1 <= 0:
            raise DomainError("indicator kind needs t1 > 0")
        self.t1 = float(t1)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.t1, 0.0, np.inf)

    def density(self, t):
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

    def density(self, t):
        t = np.asarray(t, dtype=float)
        L = np.log1p(t)
        M = np.log1p(L)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            base = self.value(t)
            logderiv = self.p / np.where(t > 0, t, 1.0)
            if self.alpha:
                logderiv = logderiv + self.alpha / (np.where(L > 0, L, 1.0) * (1.0 + t))
            if self.gamma:
                logderiv = logderiv + self.gamma / (np.where(M > 0, M, 1.0) * (1.0 + L) * (1.0 + t))
            out = base * logderiv
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
        return t_s, raw(t_s) / t_s

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            raw = np.expm1(np.power(t, self.beta))
        if self.t_splice > 0:
            return np.where(t <= self.t_splice, self.slope * t, raw)
        return raw

    def density(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            raw = self.beta * np.power(t, self.beta - 1.0) * np.exp(np.power(t, self.beta))
        raw = np.where(t == 0.0, 0.0 if self.beta > 1 else (1.0 if self.beta == 1.0 else np.inf), raw)
        if self.t_splice > 0:
            return np.where(t <= self.t_splice, self.slope, raw)
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

    def __init__(self, a: float, beta: float, reduced: bool = False):
        if a <= 0 or beta <= 1:
            raise DomainError("exp_log_power kind needs a > 0, beta > 1")
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

    def density(self, t):
        t = np.asarray(t, dtype=float)
        logept = np.log(math.e + t)
        G = self._G(logept)
        x = self.a * np.power(G, self.beta)
        gprime = (1.0 - ((self.beta - 1.0) / logept if self.reduced else 0.0)) / (math.e + t)
        with np.errstate(over="ignore"):
            return np.exp(x) * self.a * self.beta * np.power(G, self.beta - 1.0) * gprime

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
        if np.any(sl < 0) or np.any(np.diff(sl) < -1e-12 * np.maximum(sl[:-1], 1.0)):
            raise DomainError("slopes must be nonnegative and nondecreasing")
        self.cap_applied = bool(np.any(sl > slope_cap) or final_slope > slope_cap)
        sl = np.minimum(sl, slope_cap)
        final_slope = min(final_slope, slope_cap) if not math.isinf(slope_cap) else final_slope
        self.breakpoints = bp
        self.slopes = np.maximum.accumulate(sl)
        self.final_slope = float(final_slope)
        widths = np.diff(np.concatenate(([0.0], bp)))
        self.cum_values = np.cumsum(self.slopes * widths)
        if self.final_slope < math.inf and not (self.cum_values[-1] > 0 or self.final_slope > 0):
            raise DomainError("tabulated function is identically zero")
        self.finite_valued = not math.isinf(self.final_slope)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        xp = np.concatenate(([0.0], self.breakpoints))
        fp = np.concatenate(([0.0], self.cum_values))
        inside = np.interp(t, xp, fp)
        beyond_amount = np.maximum(t - self.breakpoints[-1], 0.0)
        with np.errstate(invalid="ignore"):
            tail = np.where(beyond_amount > 0,
                            self.cum_values[-1] + self.final_slope * beyond_amount, 0.0)
        return np.where(t <= self.breakpoints[-1], inside, tail)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="left")
        ext = np.concatenate((self.slopes, [self.final_slope]))
        out = ext[np.minimum(idx, len(self.slopes))]
        return np.where(t == 0.0, 0.0, out)

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
        cv = self.cum_values
        idx = np.searchsorted(cv, r, side="right")  # first segment with cum > r
        out = np.empty_like(r, dtype=float)
        flat = out.ravel()
        rf = r.ravel()
        idxf = np.atleast_1d(idx).ravel()
        bp = np.concatenate(([0.0], self.breakpoints))
        cve = np.concatenate(([0.0], cv))
        for k in range(flat.size):
            i = idxf[k]
            rv = rf[k]
            if math.isinf(rv):
                flat[k] = math.inf
                continue
            if i >= len(self.slopes):
                if math.isinf(self.final_slope):
                    flat[k] = self.breakpoints[-1]
                elif self.final_slope == 0.0:
                    flat[k] = math.inf
                else:
                    flat[k] = self.breakpoints[-1] + (rv - cv[-1]) / self.final_slope
                continue
            s = self.slopes[i]
            if s == 0.0:
                # plateau: sup of the zero-density region, extend to segment end
                j = i
                while j < len(self.slopes) and self.slopes[j] == 0.0:
                    j += 1
                flat[k] = self.breakpoints[j - 1] if j > 0 else 0.0
                if j >= len(self.slopes) and self.final_slope == 0.0:
                    flat[k] = math.inf
            else:
                flat[k] = bp[i] + (rv - cve[i]) / s
        return out if out.ndim else float(out)

    def conjugate(self):
        # vertices of A: (t_i, A_i); slopes s_i on (t_{i-1}, t_i); the
        # conjugate is piecewise linear with breakpoints at the distinct
        # slope values and slopes equal to the t-vertices where they start.
        verts_t = np.concatenate(([0.0], self.breakpoints))
        slopes = np.concatenate((self.slopes, [self.final_slope]))
        dual_bp = []
        dual_sl = []
        prev_slope = 0.0
        for i, s in enumerate(slopes):
            if math.isinf(s):
                break
            if s > prev_slope:
                dual_bp.append(s)
                dual_sl.append(verts_t[i])
                prev_slope = s
        if math.isinf(slopes[-1]):
            dual_final = self.breakpoints[-1]
        else:
            dual_final = math.inf
        if not dual_bp:
            # density identically 0 until a jump: the conjugate is linear
            return PowerYoung(1.0, dual_final) if not math.isinf(dual_final) else IndicatorYoung(1.0)
        return TabulatedYoung(np.array(dual_bp), np.array(dual_sl), dual_final)

    @property
    def jump_point(self):
        return self.breakpoints[-1] if math.isinf(self.final_slope) else None

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

    def value(self, t):
        return self.base.value(np.asarray(t, dtype=float) * self.arg_scale) / self.m

    def density(self, t):
        return self.base.density(np.asarray(t, dtype=float) * self.arg_scale) * self.arg_scale / self.m

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

def _tabulate(A: YoungFunction, grid=None) -> TabulatedYoung:
    """Secant-slope tabulation of A on a log grid (interpolates A exactly at
    the grid nodes); overflowing values truncate the table with an infinite
    final slope."""
    grid = LEGENDRE_GRID if grid is None else np.asarray(grid, dtype=float)
    with np.errstate(over="ignore"):
        vals = A(grid)
    finite = np.isfinite(vals)
    if not finite.any():
        raise DomainError("function overflows on the whole tabulation grid")
    bp = grid[finite]
    v = vals[finite]
    keep = v > 0
    first_pos = np.argmax(keep) if keep.any() else None
    if first_pos is None:
        raise DomainError("function is zero on the whole tabulation grid")
    widths = np.diff(np.concatenate(([0.0], bp)))
    secants = np.diff(np.concatenate(([0.0], v))) / widths
    secants = np.maximum.accumulate(np.maximum(secants, 0.0))
    if finite.all():
        final = secants[-1]
    else:
        final = math.inf
    return TabulatedYoung(bp, secants, final)


class ConjugateYoung(YoungFunction):
    """Numerical Young conjugate: exact conjugate of the secant tabulation of
    the source (equivalently, the linearly interpolated supremand maximized on
    the tabulation grid), with a log-domain evaluator for arguments beyond the
    table so the far-field growth stays faithful."""

    kind = "conjugate"

    def __init__(self, source: YoungFunction):
        self.source = source
        self.table = _tabulate(source).conjugate()
        # the conjugate is finite everywhere iff the source density is
        # unbounded; probe the density growth instead of trusting the
        # truncated table
        with np.errstate(over="ignore"):
            d1 = float(np.asarray(source.density(np.asarray(1e250))))
            d2 = float(np.asarray(source.density(np.asarray(1e300))))
        self.finite_valued = (not math.isfinite(d2)) or d2 > d1 * (1.0 + 1e-9)

    def value(self, t):
        return self.table.value(t)

    def density(self, t):
        return self.table.density(t)

    def inverse(self, r):
        return self.table.inverse(r)

    @property
    def jump_point(self):
        return self.table.jump_point

    def log_value_logt(self, tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        out = _conjugate_log_value(self.source, tau)
        return out if out.shape else float(out)

    def conjugate(self):
        # honest round trip: conjugate the tabulated representation exactly
        return self.table.conjugate()

    def params(self):
        return {"of": to_json(self.source)}


def _conjugate_log_value(source: YoungFunction, tau: np.ndarray) -> np.ndarray:
    """ln of sup_r { r e^tau - source(r) } via golden search in sigma = ln r."""
    tau = np.asarray(tau, dtype=float)

    def theta(sigma):
        v = source.log_value_logt(sigma)
        return log_sub_exp(sigma + tau, v)

    lo = np.full_like(tau, -45.0)
    hi = np.full_like(tau, 60.0)
    # expand hi until the supremand is decreasing there
    still = np.ones(tau.shape, dtype=bool)
    for _ in range(24):
        th1 = theta(hi)
        still = (th1 >= theta(hi - 0.25)) & (th1 > -np.inf)
        if not still.any() or np.all(hi > 1e6):
            break
        hi = np.where(still, hi * 2.2, hi)
    _, best = maximize_unimodal(theta, lo, hi)
    # sup never found a turning point: the conjugate is +inf there
    return np.where(still & (hi > 1e6), np.inf, best)


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


def _shift_pairs(base: np.ndarray, shifted_by: int):
    """Aligned views (v[i], v[i+s]) for integer shift s (s may be negative)."""
    s = shifted_by
    if s >= 0:
        return base[: len(base) - s if s else None], base[s:]
    return base[-s:], base[:s]


def _coarse_index(tau: float) -> int:
    return int(round((tau - _DENSE_HI) / _COARSE_STEP))


def _doubling_data(A):
    dv, cv = _log_curve(A, "dense"), _log_curve(A, "coarse")
    with np.errstate(invalid="ignore"):
        r_dense = dv[64:] - dv[:-64]
        r_coarse = cv[1:] - cv[:-1]
    t_dense = _DENSE_GRID[:-64]
    t_coarse = _COARSE_GRID[:-1]
    return (t_dense, r_dense, dv[:-64], dv[64:]), (t_coarse, r_coarse, cv[:-1])


def check_delta2(A: YoungFunction, near_infinity: bool = True) -> GrowthVerdict:
    """Upper doubling A(2t) <= C A(t) (near infinity: for t >= t0)."""
    if not A.finite_valued:
        jp = A.jump_point or 1.0
        return GrowthVerdict(False, 0.0, math.inf, [0.75 * jp],
                             {"reason": "not finite-valued: A jumps to infinity"})
    (td, rd, vd0, vd2), (tc, rc, vc) = _doubling_data(A)
    t0_list = _T0_SCAN if near_infinity else (0.0,)
    for t0 in t0_list:
        tau_lo = math.log(t0) if t0 > 0 else -14.0
        verdict = _delta2_at(A, tau_lo, t0, td, rd, vd0, vd2, tc, rc)
        if verdict.holds:
            return verdict
    return verdict


def _tail_probe(tc, rc, frac):
    i = min(len(rc) - 1, _coarse_index(frac * _TAU_MAX))
    return float(rc[i])


def _delta2_at(A, tau_lo, t0, td, rd, vd0, vd2, tc, rc):
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
    grid2, dv2 = _REFINED_GRID, _log_curve(A, "refined")
    with np.errstate(invalid="ignore"):
        r2 = dv2[128:] - dv2[:-128]
    m2 = grid2[:-128] >= tau_lo
    sup2 = float(np.max(r2[m2 & np.isfinite(r2)])) if (m2 & np.isfinite(r2)).any() else sup
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
    (td, rd, vd0, vd2), (tc, rc, vc) = _doubling_data(A)
    t0_list = _T0_SCAN if near_infinity else (0.0,)
    verdict = None
    for t0 in t0_list:
        tau_lo = math.log(t0) if t0 > 0 else -14.0
        verdict = _nabla2_at(A, tau_lo, t0, td, rd, vd0, tc, rc)
        if verdict.holds:
            return verdict
    return verdict


def _nabla2_at(A, tau_lo, t0, td, rd, vd, tc, rc):  # vd = unshifted curve
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
    grid2, dv2 = _REFINED_GRID, _log_curve(A, "refined")
    with np.errstate(invalid="ignore"):
        r2 = dv2[128:] - dv2[:-128]
        m2 = (grid2[:-128] >= tau_lo) & np.isfinite(r2) & np.isfinite(dv2[:-128])
    inf2 = float(np.min(r2[m2])) if m2.any() else inf_log
    c = math.exp(min(inf_log, inf2, g2 + LN2))
    drift = abs(math.exp(min(inf2, 10.0)) - math.exp(min(inf_log, 10.0))) / math.exp(min(inf_log, 10.0))
    if c <= 2.0 * (1.0 + 1e-12) or drift > _REFINE_DRIFT:
        return GrowthVerdict(False, t0, 2.0, [float(np.exp(min(t_all[np.argmin(r_all)], 690.0)))],
                             {"reason": "no stable constant above 2", "drift": drift})
    return GrowthVerdict(True, t0, c, [], {"refinement_drift": drift, "gap_tail": [g1, g2]})


_C_EXPONENTS = list(range(-10, 11))


def dominates(A: YoungFunction, B: YoungFunction, near_infinity: bool = True) -> GrowthVerdict:
    """Search for C with B(t) <= A(C t) for t >= t0 (near infinity) or
    globally; smallest passing dyadic C is reported."""
    t0_list = ((0.0,) + _T0_SCAN) if near_infinity else (0.0,)
    dvA, cvA = _log_curve(A, "dense"), _log_curve(A, "coarse")
    dvB, cvB = _log_curve(B, "dense"), _log_curve(B, "coarse")
    for k in _C_EXPONENTS:             # smallest passing constant wins
        for t0 in t0_list:
            tau_lo = math.log(t0) if t0 > 0 else -32.0 + 10.0 * LN2
            md = _DENSE_GRID >= tau_lo
            mc = _COARSE_GRID >= tau_lo
            if (not _dominance_violations(dvB, dvA, 64 * k, md).any()
                    and not _dominance_violations(cvB, cvA, k, mc).any()):
                c = 2.0 ** k
                # refinement stability: same verdict on the 2x-finer curve
                dB2, dA2 = _log_curve(B, "refined"), _log_curve(A, "refined")
                if not _dominance_violations(dB2, dA2, 128 * k, _REFINED_GRID >= tau_lo).any():
                    return GrowthVerdict(True, t0, c, [], {})
    t0 = t0_list[-1]
    tau_lo = math.log(t0) if t0 > 0 else -32.0 + 10.0 * LN2
    bad_t = []
    for vB, vA, shift, grid in ((dvB, dvA, 64 * _C_EXPONENTS[-1], _DENSE_GRID),
                                (cvB, cvA, _C_EXPONENTS[-1], _COARSE_GRID)):
        bad = _dominance_violations(vB, vA, shift, grid >= tau_lo)
        bad_t += [float(np.exp(min(t, 690.0))) for t in _shift_pairs(grid, shift)[0][bad][:6]]
    return GrowthVerdict(False, t0, math.inf, bad_t[:6],
                         {"reason": "no dyadic constant certifies dominance"})


def _dominance_violations(vB, vA, shift, mask):
    """Points of mask where ln B(t) <= ln A(C t) fails, C being the constant
    that shifts the curve index by `shift`."""
    b0, _ = _shift_pairs(vB, shift)
    _, a1 = _shift_pairs(vA, shift)
    m, _ = _shift_pairs(mask, shift)
    with np.errstate(invalid="ignore"):
        return m & ~((b0 <= a1 + 1e-9) | np.isneginf(b0) | np.isposinf(a1))


def equivalent(A: YoungFunction, B: YoungFunction, near_infinity: bool = True) -> bool:
    return dominates(A, B, near_infinity).holds and dominates(B, A, near_infinity).holds


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
