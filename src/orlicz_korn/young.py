"""Young functions: evaluation, conjugation, inverses, and the
doubling-type growth conditions near infinity.

A Young function A is convex, left-continuous, A(0) = 0, not identically 0 or
infinity.  The package represents them as a closed family of constructors
(power, power-log, exponential, tabulated piecewise-linear, scaled, numerical
conjugate); arbitrary user functions enter through the tabulated kind, and so
does the L-infinity indicator (0 on [0, t1], +inf beyond), as its case of one
flat piece followed by an infinite slope (``indicator``).  All values are
extended reals: +inf propagates and comparisons follow the convention
inf <= inf.

Growth verdicts (doubling / lower-doubling / dominance) are semi-decisions
over a documented search grid with refinement-stability and asymptotic-trend
diagnostics; a "fails" verdict always carries a certificate of violating
points.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ._numerics import LN2, log_sub_exp, maximize_unimodal

__all__ = [
    "YoungFunction", "PowerYoung", "PowerLogLogYoung",
    "ExpPowerYoung", "ExpLogPowerYoung", "TabulatedYoung", "indicator",
    "ScaledYoung", "ConjugateYoung", "GrowthVerdict",
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
_TINY = float(np.finfo(float).tiny)        # the smallest normal float
# below this tau power_log_log's closed forms lose t = e^tau (they clamp e^-tau
# at e^700, and t turns subnormal near -708), while L = ln(1 + t) and
# ln(1 + L) equal t to full precision: its readers give their t -> 0 limits
_LOG_LOG_LOW = -700.0
# the bracket ends of the generic inverse: 2^0, 2^1, ..., 2^1023, the largest float
_INVERSE_ENDS = np.append(2.0 ** np.arange(1024), np.finfo(float).max)

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
# ``_sweep_read``.
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
_DENSE_GRID, _MID_GRID, _TAIL_GRID = _GRIDS["dense"], _GRIDS["mid"], _GRIDS["tail"]
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

# The numerical conjugate evaluates tau in blocks of _BLOCK points, one
# after another, to bound its peak memory (smaller blocks raise the cost per
# numpy pass).
_BLOCK = 8192
# On the mid and tail grids from tau = _FILL_FROM on, the conjugate of a
# closed-form source is solved at every _FILL_STRIDE-th point (the nodes)
# and after the last whole stride; the points between two nodes are filled
# (``_filled_curve``).
_FILL_STRIDE = 8
_FILL_FROM = 200.0


class DomainError(ValueError):
    """Argument outside the domain of a Young-function operation."""


def _finite(kind: str, **params):
    """Raise a DomainError naming the first of the parameters that is not a
    finite number (JSON's 1e400 reads as inf)."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{kind} kind needs a finite {name}")


_SERIES_TERMS = 20


def _series(x, coeffs):
    """sum_n coeffs[n - 2] x^n, from n = 2, by Horner's rule."""
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = (out + c) * x
    return out * x


def _x_minus_log1p(x):
    """x - log1p(x) for x >= 0, by its series below x = 0.1, where the
    difference cancels."""
    out = np.array(x - np.log1p(x))
    small = x < 0.1
    out[small] = _series(x[small], [(-1.0) ** n / n for n in range(2, _SERIES_TERMS + 2)])
    return out


def _bisect(below, lo, hi):
    """Halve the brackets [lo, hi] (arrays) all at once, keeping the upper
    half where ``below`` holds at the midpoint 0.5 lo + 0.5 hi (which cannot
    overflow), until every midpoint rounds to an end; the final (lo, hi)."""
    while not np.all(((mid := 0.5 * lo + 0.5 * hi) == lo) | (mid == hi)):
        keep = below(mid)
        lo, hi = np.where(keep, mid, lo), np.where(keep, hi, mid)
    return lo, hi


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

    def log_slope_logt(self, tau):
        """ln A'(e^tau) in closed form (at a kink, the slope of the piece that
        ends there)."""
        raise NotImplementedError

    def log_excess_logt(self, tau):
        """ln(1 - A(t)/(t A'(t))) at t = e^tau, in closed form: the excess
        A'(t) - A(t)/t as a fraction of A'(t).  By the Fenchel-Young equality
        A*(A'(t)) = t A'(t) - A(t), so ln A*(A'(t)) is ln t + ln A'(t) + this,
        with no two large logarithms to cancel."""
        raise NotImplementedError

    # -- generalized right-continuous inverse -------------------------------
    def inverse(self, r):
        """sup { t : A(t) <= r } elementwise: an array of r's shape, or a
        float for a scalar r."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("inverse needs r >= 0")
        out = self._inverse(r)
        return out if r.ndim else float(out)

    def _inverse(self, r):
        """``inverse`` of a float array r >= 0, by bisection of all elements at
        once: from the first of the ends 1, 2, 4, ..., 2^1023, the largest
        float (``_INVERSE_ENDS``) where A passes r and the end before it (or 0),
        halving until every midpoint rounds to an end; +inf where A passes r at
        no end.  So r = 0 gives the largest t at which ``value`` rounds to 0."""
        flat = r.ravel()
        j = np.searchsorted(self.value(_INVERSE_ENDS), flat, "right")
        lo, _ = _bisect(lambda t: self.value(t) <= flat, np.where(j > 0, _INVERSE_ENDS[j - 1], 0.0),
                        _INVERSE_ENDS[np.minimum(j, _INVERSE_ENDS.size - 1)])
        return np.where(j == _INVERSE_ENDS.size, np.inf, lo).reshape(r.shape)

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
        _finite("power", p=p, coeff=coeff)
        if p < 1 or coeff <= 0:
            raise DomainError("power kind needs p >= 1, coeff > 0")
        self.p = float(p)
        self.coeff = float(coeff)
        self.superlinear = self.p > 1.0

    def value(self, t):
        with np.errstate(over="ignore"):
            out = self.coeff * np.power(t, self.p)
            if self.coeff < 1.0:
                # where t^p overflows, coeff t^p need not: scale t first there
                far = np.isinf(out) & np.isfinite(t)
                if far.any():
                    out = np.where(far, np.power(t * self.coeff ** (1.0 / self.p), self.p), out)[()]
        return out

    def log_value_logt(self, tau):
        return math.log(self.coeff) + self.p * np.asarray(tau, dtype=float)

    def log_slope_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.p == 1.0:     # coeff, also at tau = +-inf, where (p - 1) tau is 0 * inf
            return np.where(np.isnan(tau), np.nan, math.log(self.coeff))
        return math.log(self.coeff * self.p) + (self.p - 1.0) * tau

    def log_excess_logt(self, tau):
        # 1 - 1/p: exactly 0 for p = 1
        ln_frac = math.log1p(-1.0 / self.p) if self.p > 1.0 else -math.inf
        return np.where(np.isnan(tau), np.nan, ln_frac)

    def _inverse(self, r):
        with np.errstate(over="ignore"):   # where r / coeff overflows, the root need not
            q, e = r / self.coeff, 1.0 / self.p
            return np.where(np.isinf(q), np.power(r, e) / self.coeff ** e, np.power(q, e))

    def conjugate(self):
        if self.p == 1.0:
            return indicator(self.coeff)
        q = self.p / (self.p - 1.0)
        if -math.log(self.coeff * self.p) / (self.p - 1.0) > _LN_MAX:
            raise DomainError(f"the conjugate of {self!r} has a coefficient beyond float range")
        cq = ((self.p - 1.0) / self.p) * (self.coeff * self.p) ** (-1.0 / (self.p - 1.0))
        return PowerYoung(q, cq)

    def params(self):
        return {"p": self.p, "coeff": self.coeff}


class PowerLogLogYoung(YoungFunction):
    """A(t) = t**p * log(1+t)**alpha * log(1+log(1+t))**gamma.

    Covers the logarithmic (gamma = 0) and doubly-logarithmic catalog
    entries; convexity is spot-checked at construction because not every
    parameter combination is convex.
    """

    kind = "power_log_log"

    def __init__(self, p: float, alpha: float, gamma: float = 0.0):
        _finite("power_log_log", p=p, alpha=alpha, gamma=gamma)
        if p < 1 or alpha < 0 or gamma < 0:
            raise DomainError("power_log_log kind needs p >= 1, alpha, gamma >= 0")
        self.p = float(p)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.superlinear = self.p > 1.0 or self.alpha > 0.0 or self.gamma > 0.0
        # A(t) ~ t^s as t -> 0
        self._s = self.p + self.alpha + self.gamma
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
        out = self.p * tau
        with np.errstate(divide="ignore"):
            if self.alpha:
                out = out + self.alpha * np.log(L)
            if self.gamma:
                out = out + self.gamma * np.log(np.log1p(L))
        low = tau < _LOG_LOG_LOW
        return np.where(low, self._s * tau, out) if low.any() else out

    def _rates(self, tau):
        """(ln(A(t)/t), c) with t A'(t)/A(t) = p + c and
        c = alpha q/L + gamma q/((1 + L) M), q = t/(1 + t), L = ln(1 + t),
        M = ln(1 + L): the terms of A' and A' - A/t, nonnegative, so
        nothing cancels, also at p = 1.  Below ``_LOG_LOG_LOW`` they are
        their limits at t = 0, ((s - 1) tau, alpha + gamma)."""
        tau = np.asarray(tau, dtype=float)
        if np.all(tau > 40.0):
            # e^-tau is below half an ulp of 1: L = tau and q = 1 exactly
            L, q, low = tau, 1.0, None
        else:
            L = np.where(tau > 35.0, tau, np.log1p(np.exp(np.minimum(tau, 700.0))))
            q = 1.0 / (1.0 + np.exp(np.minimum(-tau, 700.0)))
            low = tau < _LOG_LOG_LOW
        c = np.where(np.isnan(tau), np.nan, 0.0)     # NaN at NaN also where alpha = gamma = 0
        # (p - 1) tau is 0 * inf at tau = +-inf for p = 1, where the term is 0
        ln_ratio = (self.p - 1.0) * tau if self.p > 1.0 else c
        with np.errstate(divide="ignore"):
            if self.alpha:
                c = c + self.alpha * q / L
                ln_ratio = ln_ratio + self.alpha * np.log(L)
            if self.gamma:
                c = c + self.gamma * q / ((1.0 + L) * np.log1p(L))
                ln_ratio = ln_ratio + self.gamma * np.log(np.log1p(L))
        if low is not None and low.any():
            ln_ratio = np.where(low, (self._s - 1.0) * tau if self._s > 1.0 else 0.0, ln_ratio)
            c = np.where(low, self.alpha + self.gamma, c)
        return ln_ratio, c

    def log_slope_logt(self, tau):
        ln_ratio, c = self._rates(tau)
        return ln_ratio + np.log(self.p + c)

    def log_excess_logt(self, tau):
        _, c = self._rates(tau)
        with np.errstate(divide="ignore"):
            return np.log((self.p - 1.0) + c) - np.log(self.p + c)

    def params(self):
        return {"p": self.p, "alpha": self.alpha, "gamma": self.gamma}


class ExpPowerYoung(YoungFunction):
    """A(t) = exp(t**beta) - 1 for beta >= 1; for beta < 1 the non-convex
    piece near zero is replaced by the tangent line through the origin."""

    kind = "exp_power"
    superlinear = True

    def __init__(self, beta: float):
        _finite("exp_power", beta=beta)
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
        hi = max(2.0 * t_c, 2.0)
        while g(hi) < 0:
            hi *= 2.0
        lo, hi = _bisect(lambda t: g(float(t)) < 0, t_c, hi)
        t_s = float(0.5 * lo + 0.5 * hi)
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
        tau, x = self._power(tau)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(x > 700.0, x, np.log(np.expm1(np.minimum(x, 700.0))))
        if self.t_splice > 0:
            out = np.where(tau <= math.log(self.t_splice), math.log(self.slope) + tau, out)
        return out

    def _power(self, tau):
        # t**beta at t = e^tau, +inf beyond float range
        tau = np.asarray(tau, dtype=float)
        return tau, np.where(self.beta * tau > 709.0, np.inf, np.exp(np.minimum(self.beta * tau, 709.0)))

    def log_slope_logt(self, tau):
        # A'(t) = beta t^(beta-1) e^x with x = t**beta
        tau, x = self._power(tau)
        out = math.log(self.beta) + (self.beta - 1.0) * tau + x
        if self.t_splice > 0:
            out = np.where(tau <= math.log(self.t_splice), math.log(self.slope), out)
        return out

    def log_excess_logt(self, tau):
        # (t A' - A)/(t A') = ((beta x - 1) e^x + 1)/(beta x e^x)
        #                   = 1 + expm1(-x)/(beta x),
        # and below x = 1, where that cancels, ((beta - 1) x e^x + h(x)) over
        # the same, with h(x) = x e^x - expm1(x) = sum_{n >= 2} (n - 1) x^n/n!;
        # on the tangent line t A' = A
        tau, x = self._power(tau)
        small = x < 1.0
        xs = x[small]
        h = _series(xs, [(n - 1) / math.factorial(n) for n in range(2, _SERIES_TERMS + 2)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.array(np.log1p(np.expm1(-x) / (self.beta * x)))
            out[small] = (np.log(np.maximum((self.beta - 1.0) * xs * np.exp(xs) + h, 0.0))
                          - np.log(self.beta * xs) - xs)
        if self.t_splice > 0:
            out = np.where(tau <= math.log(self.t_splice), -np.inf, out)
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
        _finite("exp_log_power", a=a, beta=beta)
        if a <= 0 or beta <= 1:
            raise DomainError("exp_log_power kind needs a > 0, beta > 1")
        if a > _LN_MAX:
            raise DomainError(f"exp_log_power kind needs a <= {_LN_MAX:.6g}, so that e^a is a float")
        self.a = float(a)
        self.beta = float(beta)
        self.reduced = bool(reduced)
        _assert_convex(self)

    def _G(self, logept):
        # logept = log(e + t); G(inf) = inf
        if self.reduced:
            with np.errstate(invalid="ignore"):
                return np.where(logept == np.inf, np.inf, logept - (self.beta - 1.0) * np.log(logept))
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
        # ln(e^x - e^a): the direct form where e^x is a float (-inf at t = 0
        # and wherever t is below float resolution against e), else x, less
        # the e^a term where that still shows in the last bit
        big = x > 700.0
        with np.errstate(divide="ignore"):
            out = np.array(np.log(np.maximum(np.exp(np.where(big, 0.0, x)) - math.exp(self.a), 0.0)))
        out[big] = x[big]
        near = big & (x - self.a < 40.0)
        out[near] = log_sub_exp(x[near], self.a)
        return out

    def _parts(self, tau):
        """(tau, ln G, w, ln(t G'(t))) at t = e^tau, where A = e^a expm1(w)."""
        tau = np.asarray(tau, dtype=float)
        l1 = np.where(tau > 40.0, tau - 1.0, np.log1p(np.exp(np.minimum(tau, 700.0) - 1.0)))  # ln(e + t) - 1
        ln_tg1 = -np.logaddexp(0.0, 1.0 - tau)                                            # ln(t / (e + t))
        g1 = l1                                                                           # G - 1
        if self.reduced:
            # G - 1 = (2 - beta) l1 + (beta - 1) (l1 - log1p(l1)), a sum of
            # nonnegative terms for beta <= 2, and (e + t) G' = (l1 + 2 - beta) / (1 + l1)
            g1 = (2.0 - self.beta) * l1 + (self.beta - 1.0) * _x_minus_log1p(l1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ln_tg1 = ln_tg1 + np.log(l1 + (2.0 - self.beta)) - np.log1p(l1)
        ln_g = np.log1p(g1)
        return tau, ln_g, self.a * np.expm1(self.beta * ln_g), ln_tg1

    def log_slope_logt(self, tau):
        # t A'(t) = e^(a + w) a beta G^(beta-1) t G'(t)
        tau, ln_g, w, ln_tg1 = self._parts(tau)
        return self.a + w + math.log(self.a * self.beta) + (self.beta - 1.0) * ln_g + ln_tg1 - tau

    def log_excess_logt(self, tau):
        # t A' = e^(a + w) u and A = e^(a + w) - e^a, u = a beta G^(beta-1) t G'(t),
        # so (t A' - A)/(t A') = 1 + expm1(-w)/u
        tau, ln_g, w, ln_tg1 = self._parts(tau)
        u = self.a * self.beta * np.exp((self.beta - 1.0) * ln_g + ln_tg1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.maximum(1.0 + np.expm1(-w) / u, 0.0))

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
    be +inf, which caps the function (L-infinity-like jump).  A slope that
    lies less than 1e-12 max(1, s) below the slope s before it is raised to
    s, so the densities never fall, and the final slope is positive.

    Slope, excess and conjugate root are read from the knots ``_knots`` (0
    first), the values there ``_knot_values`` and the slopes ``_densities``:
    the i-th rules on (knot i, knot i+1], the last one beyond the last knot.
    Each answer comes from one piece.
    """

    kind = "tabulated"

    def __init__(self, breakpoints, slopes, final_slope):
        bp = np.asarray(breakpoints, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        if bp.ndim != 1 or sl.shape != bp.shape:
            raise DomainError("breakpoints and slopes must be 1-d arrays of equal length")
        if len(bp) == 0 or not np.all((bp > 0) & (bp < math.inf)) or np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be finite, positive and strictly increasing")
        seq = np.append(sl, float(final_slope))
        with np.errstate(invalid="ignore"):       # inf - inf is no fall
            falls = np.diff(seq) < -1e-12 * np.maximum(seq[:-1], 1.0)
        if not np.all(seq >= 0) or np.any(falls | (np.isinf(seq[:-1]) & np.isfinite(seq[1:]))):
            raise DomainError("slopes and final_slope must be nonnegative and nondecreasing")
        self.breakpoints = bp
        self._densities = np.maximum.accumulate(seq)   # slopes, final slope: never falling
        self.slopes = self._densities[:-1]
        self.final_slope = float(self._densities[-1])
        # knots [0, breakpoints] and A at the knots
        self._knots = np.concatenate(([0.0], bp))
        with np.errstate(over="ignore"):   # an infinite value means A = inf there
            self.cum_values = np.cumsum(self.slopes * np.diff(self._knots))
        self._knot_values = np.concatenate(([0.0], self.cum_values))
        if self.final_slope == 0.0:
            raise DomainError("tabulated function is identically zero")
        self.superlinear = math.isinf(self.final_slope)
        self.finite_valued = not self.superlinear

    def value(self, t):
        t = np.asarray(t, dtype=float)
        t_top = self.breakpoints[-1]
        with np.errstate(invalid="ignore", over="ignore"):   # past float range, A = inf
            return np.where(t <= t_top, np.interp(t, self._knots, self._knot_values),
                            self.cum_values[-1] + self.final_slope * (t - t_top))

    def log_value_logt(self, tau):
        tau = np.asarray(tau, dtype=float)
        t_top = self.breakpoints[-1]
        small = tau <= math.log(t_top)
        # e^ln(t_top) may round above t_top, past the table
        with np.errstate(divide="ignore"):
            inside = np.log(self.value(np.minimum(np.exp(np.minimum(tau, math.log(t_top))), t_top)))
        if math.isinf(self.final_slope):
            tail = np.where(np.isnan(tau), np.nan, np.inf)
        else:
            # A(t) = s*t + d beyond the table, d = A(t_top) - s*t_top
            s = self.final_slope
            d = self.cum_values[-1] - s * t_top
            with np.errstate(over="ignore", invalid="ignore"):
                rel = d / s * np.exp(np.clip(-tau, -745.0, 700.0))
            tail = math.log(s) + tau + np.log1p(np.clip(rel, -0.999999999, np.inf))
        return np.where(small, inside, tail)

    def _piece(self, tau):
        with np.errstate(divide="ignore"):
            return np.searchsorted(np.log(self._knots[1:]), np.asarray(tau, dtype=float))

    def log_slope_logt(self, tau):
        # searchsorted puts NaN past the last knot
        tau = np.asarray(tau, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(np.isnan(tau), np.nan, np.log(self._densities[self._piece(tau)]))

    def log_excess_logt(self, tau):
        # t A'(t) - A(t) is constant on a piece, slope * knot - A(knot); the
        # fraction is 1 on an infinite slope and taken as 0 on a zero one
        tau = np.asarray(tau, dtype=float)
        i = self._piece(tau)
        d = self._densities[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.maximum(d * self._knots[i] - self._knot_values[i], 0.0)) - np.log(d) - tau
        return np.select([np.isnan(tau), np.isinf(d), d > 0], [np.nan, 0.0, out], -np.inf)

    def _inverse(self, r):
        # the piece where A first exceeds r: its slope is positive, and the
        # final one may be infinite (a jump); a piece too flat to reach r
        # within float range gives +inf
        i = np.searchsorted(self.cum_values, r, side="right")
        with np.errstate(invalid="ignore", over="ignore"):
            out = self._knots[i] + (r - self._knot_values[i]) / self._densities[i]
        return np.where(np.isinf(r), np.inf, out)

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
        return float(self._knots[np.argmax(np.isinf(self._densities))]) if self.superlinear else None

    def params(self):
        return {"breakpoints": self.breakpoints.tolist(),
                "slopes": self.slopes.tolist(),
                "final_slope": self.final_slope}


def indicator(t1: float = 1.0) -> TabulatedYoung:
    """A(t) = 0 on [0, t1], +inf beyond: the L-infinity Young function, the
    table of one flat piece followed by an infinite slope."""
    if not t1 > 0:
        raise DomainError("indicator kind needs t1 > 0")
    _finite("indicator", t1=t1)
    return TabulatedYoung([t1], [0.0], math.inf)


class ScaledYoung(YoungFunction):
    """A(t) = base(arg_scale * t) / m."""

    kind = "scaled"

    def __init__(self, m: float, base: YoungFunction, arg_scale: float = 1.0):
        _finite("scaled", m=m, arg_scale=arg_scale)
        # a subnormal scale loses bits: base(arg_scale t) / m is no longer A
        for name, scale in (("m", m), ("arg_scale", arg_scale)):
            if scale < _TINY:
                raise DomainError(f"scaled kind needs {name} >= {_TINY:.6g}, not {scale:.6g}")
        self.m = float(m)
        self.base = base
        self.arg_scale = float(arg_scale)
        self.finite_valued = base.finite_valued
        self.superlinear = base.superlinear

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):   # past float range, A = inf
            out = np.asarray(self.base.value(t * self.arg_scale) / self.m)
            # where arg_scale t or the base's value overflows, A need not:
            # read it off the log curve there (a NaN there keeps the +inf)
            far = np.isinf(out) & np.isfinite(t)
            if far.any():
                out[far] = np.fmin(np.inf, np.exp(self.log_value_logt(np.log(t[far]))))
        return out[()]

    def log_value_logt(self, tau):
        return self.base.log_value_logt(np.asarray(tau, dtype=float) + math.log(self.arg_scale)) - math.log(self.m)

    # A'(t) is the base's at arg_scale t, times arg_scale / m; A/(t A') is
    # the base's at arg_scale t
    def log_slope_logt(self, tau):
        tau = np.asarray(tau, dtype=float) + math.log(self.arg_scale)
        return self.base.log_slope_logt(tau) + math.log(self.arg_scale / self.m)

    def log_excess_logt(self, tau):
        return self.base.log_excess_logt(np.asarray(tau, dtype=float) + math.log(self.arg_scale))

    def _inverse(self, r):
        with np.errstate(over="ignore"):   # past float range, the inverse is inf
            rm = r * self.m
            out = np.asarray(self.base._inverse(rm) / self.arg_scale)
        # where r m overflows, the root need not: bisect A itself there
        far = np.isinf(rm) & np.isfinite(r)
        if far.any():
            out[far] = YoungFunction._inverse(self, r[far])
        return out

    def conjugate(self):
        scale = self.m / self.arg_scale
        if not _TINY <= scale < math.inf:
            raise DomainError(f"the conjugate of {self!r} has an arg_scale beyond the normal float range")
        return ScaledYoung(self.m, self.base.conjugate(), scale)

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
    if not (v > 0).any():
        raise DomainError("function is zero on the whole tabulation grid")
    widths = np.diff(np.concatenate(([0.0], bp)))
    with np.errstate(over="ignore"):
        secants = np.diff(np.concatenate(([0.0], v))) / widths
    secants = np.maximum.accumulate(np.maximum(secants, 0.0))
    if math.isinf(secants[0]):
        raise DomainError(f"the secant slopes of {A!r} overflow from the first tabulation node on "
                          f"(A({bp[0]:.3g}) = {v[0]:.3g}), so the numerical conjugate has no finite piece")
    return TabulatedYoung(bp, secants, secants[-1] if finite.all() else math.inf)


class ConjugateYoung(YoungFunction):
    """Numerical Young conjugate, answering through two evaluators.

    ``value``, ``inverse``, ``jump_point`` and ``conjugate()`` read the exact
    conjugate of the secant tabulation of the source on ``LEGENDRE_GRID``
    (equivalently, the linearly interpolated supremand maximized on that
    grid), built on the first such read; the norms use it.  The log readers
    solve the source's slope equation A'(r) = e^tau for sigma = ln r and read
    ln A*(e^tau) = ln r + ln(A'(r) - A(r)/r) from the source's closed forms
    (the Fenchel-Young equality); the growth and balance sweeps use them.
    The two differ by the tabulation error: for expL, against
    A*(s) = s ln s - s + 1, the table is 2.9e-5 (relative) low at s = 1.5 and
    5.8e-4 low at s = 1e8, while ``log_value_logt`` stays within one ulp of
    ln A* on the balance sweep out to tau = 6e5 (2.9e-11; 2.3e-10 for the
    conjugate of t^1.5, where ln A* reaches 1.8e6).  Each tau is evaluated
    on its own, by Illinois regula falsi between two neighbouring ends of the
    fixed bracket ladder ``_ENDS``: its value is +inf exactly where the
    source's slope at the top rung ``_RUNGS[-1]`` stays below e^tau.  A table
    source is its own tabulation; the log readers read its table too.  The
    sweep's mid and tail curves of a closed-form source solve only every 8th
    point from tau = 200 on and fill the rest by Hermite interpolation
    (``_filled_curve``): there the one-ulp bound holds at the solved points,
    and the filled ones were within 2.7e-14 max(1, |ln A*|) of it on the
    11 numerical catalog conjugates.
    """

    kind = "conjugate"

    def __init__(self, source: YoungFunction):
        self.source = source
        # exact, where the truncated table is not
        self.finite_valued = source.superlinear
        self.superlinear = source.finite_valued

    def _table(self):
        memo = _memo(self)
        if "table" not in memo:
            source = self.source
            memo["table"] = (source if isinstance(source, TabulatedYoung) else _tabulate(source)).conjugate()
        return memo["table"]

    def value(self, t):
        return self._table().value(t)

    def _inverse(self, r):
        return self._table()._inverse(r)

    @property
    def jump_point(self):
        return self._table().jump_point

    def _solve(self, tau, part: int):
        """Part 0 or 1 of (ln r, ln sup_r { r e^tau - source(r) }) at each tau,
        r the maximizer, the root of source'(r) = e^tau; for a table source,
        the exact table's log slope or log value.  The output starts as a
        copy of tau (NaN and +-inf keep themselves, the limits of both parts)
        whose finite points are solved in place, one ``_BLOCK`` slice after
        another, each on its own: the result does not depend on the split."""
        if isinstance(self.source, TabulatedYoung):
            table = self._table()
            solve = (table.log_slope_logt, table.log_value_logt)[part]
        else:
            solve = lambda t: _slope_root(self.source, t)[part]
        tau = np.asarray(tau, dtype=float)
        out = tau.ravel().copy()
        for i in range(0, out.size, _BLOCK):
            block = out[i:i + _BLOCK]
            finite = np.isfinite(block)
            block[finite] = solve(block[finite])
        out = out.reshape(tau.shape)
        return out if out.ndim else float(out)

    def log_value_logt(self, tau):
        return self._solve(tau, 1)

    def log_slope_logt(self, tau):
        # (A*)'(s) is the root r of A'(r) = s
        return self._solve(tau, 0)

    def log_excess_logt(self, tau):
        # 1 - A*(s)/(s r) = A(r)/(r s), since A*(s) = r s - A(r); taken as 1
        # where A* = +inf and 0 where A* = 0
        root = np.asarray(self._solve(tau, 0))
        finite = np.isfinite(root)
        out = self.source.log_value_logt(np.where(finite, root, 0.0)) - root - np.asarray(tau, dtype=float)
        return np.select([finite, root > 0, root < 0], [out, 0.0, -np.inf], np.nan)

    def conjugate(self):
        # honest round trip: conjugate the tabulated representation exactly
        return self._table().conjugate()

    def params(self):
        return {"of": to_json(self.source)}


# The bracket ladder of the numerical conjugate.  Rung p is 60 * 2.2^p, by
# repeated multiplication.  Its ends _ENDS are 64 evenly spaced ends on
# [_SIGMA_LO, 60), then 16 geometric sub-ends 60 * 2.2^p * 2.2^(i/16) per
# rung, then the top rung: 433 ends that hold every rung bit for bit.
# A*(e^tau) is +inf exactly where the source's slope at the top rung
# (sigma ~ 4.5e9) stays below e^tau; any other tau is bracketed between two
# neighbouring ends, whose residuals start Illinois a few steps from the root.
_RUNGS = np.array(list(itertools.accumulate([2.2] * 23, operator.mul, initial=60.0)))
_SIGMA_LO = -45.0
_ENDS = np.concatenate((np.linspace(_SIGMA_LO, _RUNGS[0], 64, endpoint=False),
                        (_RUNGS[:-1, None] * 2.2 ** (np.arange(16) / 16)).ravel(),
                        _RUNGS[-1:]))
_ROOT_XTOL = 4.0 * np.finfo(float).eps    # root bracket width, relative to max(1, |ends|)
_ROOT_ITERS = 100


def _slope_root(source: YoungFunction, tau: np.ndarray):
    """(sigma, ln A*(e^tau)) at the root sigma of ln A'(e^sigma) = tau.

    The bracket is read off the slopes at the ends ``_ENDS`` of the ladder,
    from the foot _SIGMA_LO to the top rung: it runs up to the first end
    whose slope reaches e^tau, from the end before.  Sigma and the value are
    +inf exactly where the source's slope at the top rung stays below e^tau,
    and sigma is -inf where the value is (A* = 0).  Illinois regula falsi
    runs on the residual asinh(ln A'(e^sigma)) - asinh(tau), which stays
    within a few hundred where ln A' spans e^60; from two neighbouring ends
    it takes about 5 slope evaluations a point.  A block runs as many passes
    as its slowest point, and the slow points are those whose root lies
    within rounding of an end: their secant lands on that end.  Such a
    landing steps tol/2 inside the end instead of bisecting the bracket, and
    only a second landing in a row (or a NaN secant) takes the midpoint.
    Over the sweep curves of the 11 numerical catalog conjugates this cut
    the passes of a block that has any from 12.7 to 7.0 on average (34 to 14
    at most).  The value r s - A(r) is read through r (A'(r) - A(r)/r) -
    r (A'(r) - s), exact at any sigma, so its error is second order in the
    root's; it is formed only below the top rung.  Without a sign change in
    the bracket the root is its upper end, where the same expression holds,
    or the supremum over it is at the foot: the supremand itself.
    """
    target = np.arcsinh(tau)
    memo = _memo(source)
    if "ladder" not in memo:
        end_slopes = source.log_slope_logt(_ENDS)
        memo["ladder"] = end_slopes, np.arcsinh(end_slopes)
    end_slopes, end_residuals = memo["ladder"]
    up = end_residuals[-1] < target
    j = np.clip(np.searchsorted(end_residuals, target), 1, _ENDS.size - 1)
    a, b = _ENDS[j - 1], _ENDS[j]
    fa, fb = end_residuals[j - 1] - target, end_residuals[j] - target
    foot = np.flatnonzero(fa >= 0)
    sigma = np.where(fa >= 0, a, b)
    lam = np.where(fa >= 0, end_slopes[j - 1], end_slopes[j])
    k = np.flatnonzero((fa < 0) & (fb > 0))
    a, b, fa, fb, target = a[k], b[k], fa[k], fb[k], target[k]
    tol = _ROOT_XTOL * np.maximum(1.0, np.maximum(-a, b))
    moved_a = moved_b = stepped = np.zeros(k.size, dtype=bool)
    # a point is recorded in the iteration it finishes in and then rides
    # along, unread, until fewer than half of the working arrays are live
    live = np.ones(k.size, dtype=bool)
    n_live = k.size
    for it in range(_ROOT_ITERS):
        if not n_live:
            break
        with np.errstate(invalid="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        # a secant that lands on an end steps tol/2 inside it, where the root
        # lies within rounding of that end; NaN, or a landing right after
        # such a step, takes the midpoint
        off = ~((x > a) & (x < b))
        if off.any():
            i = np.flatnonzero(off)
            ai, bi, xi = a[i], b[i], x[i]
            step = ~(np.isnan(xi) | stepped[i])
            half_tol = 0.5 * tol[i]
            x[i] = np.where(step, np.where(xi >= bi, bi - half_tol, ai + half_tol), 0.5 * (ai + bi))
            off[i] = step
        stepped = off
        lx = source.log_slope_logt(x)
        rx = np.arcsinh(lx) - target
        left, right = rx < 0, rx > 0
        # Illinois: halve the residual of an end that is kept twice in a row
        np.multiply(fa, 0.5, out=fa, where=moved_b)
        np.multiply(fb, 0.5, out=fb, where=moved_a)
        np.copyto(fa, rx, where=left)
        np.copyto(fb, rx, where=right)
        np.copyto(a, x, where=left)
        np.copyto(b, x, where=right)
        moved_a, moved_b = left, right
        going = live & (b - a > tol) & (left | right)
        if it == _ROOT_ITERS - 1:      # out of iterations: each point at its last iterate
            going[:] = False
        n_going = np.count_nonzero(going)
        if n_going < n_live:
            done = np.flatnonzero(live ^ going)
            kd = k[done]
            sigma[kd], lam[kd] = x[done], lx[done]
            live, n_live = going, n_going
            if 2 * n_live < k.size:
                i = np.flatnonzero(live)
                k, a, b, fa, fb, tol, moved_a, moved_b, stepped, target, live = (
                    v[i] for v in (k, a, b, fa, fb, tol, moved_a, moved_b, stepped, target, live))
    # r s - A(r) = r s (kappa - (1 - kappa) m), where kappa is the excess
    # fraction 1 - A(r)/(r A'(r)) and m = A'(r)/s - 1 the residual; sigma + tau
    # is summed with its rounding error (Knuth's two-sum), so that the value
    # is rounded once.  It is formed at the points below the top rung only:
    # the rest are +inf
    value = np.full(tau.shape, np.inf)
    below = np.flatnonzero(~up)
    sw, tw = sigma[below], tau[below]
    kappa = np.exp(source.log_excess_logt(sw))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.expm1(lam[below] - tw)
        small = np.log(np.fmax(kappa - (1.0 - kappa) * m, 0.0))
        head = sw + tw
        tau_part = head - sw
        value[below] = head + ((sw - (head - tau_part)) + (tw - tau_part) + small)
    # Where the slope at the foot of the bracket is past e^tau already, the
    # supremum over the bracket is at its foot.  Only where the source's
    # ln A(e^sigma) still leaves the supremand finite at the foot does the
    # golden-section search over [_SIGMA_LO, rung 0] run, and keep the answer
    # it gave before the slope solve: in the catalog that is conj(exp_log2)
    # for s <= 2 (exp_log_power rounds ln(e + t) to 1 and A to 0 below
    # t ~ 1e-16, while A'(0) = 2), whose pinned growth verdicts rest on it.
    # The supremand is ln(e^(sigma + tau) - A(e^sigma)).
    th = log_sub_exp(_SIGMA_LO + tau[foot], source.log_value_logt(_SIGMA_LO))
    value[foot] = th
    g = foot[th > -np.inf]
    if g.size:
        value[g] = maximize_unimodal(lambda x: log_sub_exp(x + tau[g], source.log_value_logt(x)),
                                     np.full(g.size, _SIGMA_LO), np.full(g.size, _RUNGS[0]))
    sigma[up] = np.inf
    sigma[value == -np.inf] = -np.inf
    return sigma, value


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _memo(A: YoungFunction) -> dict:
    """The per-object store of what is derived from A, filled on first read:
    its log-curve on each sweep grid, its conjugate, its slopes at the ladder's
    ends ``_ENDS`` with their arcsinh ("ladder"), and a conjugate's "table"."""
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
    first read and kept in A's memo.  The mid and tail curves of a numerical
    conjugate of a closed-form source are filled in whole strides between
    exact nodes from tau = ``_FILL_FROM`` on, and solved after the last
    stride (``_filled_curve``); every other curve is A's log reader on the
    grid."""
    memo = _memo(A)
    if grid not in memo:
        tau = _GRIDS[grid]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            if grid in ("mid", "tail") and isinstance(A, ConjugateYoung) and _closed_form(A.source):
                memo[grid] = _filled_curve(A, tau)
            else:
                memo[grid] = A.log_value_logt(tau)
        memo[grid].flags.writeable = False   # shared by every reader of A
    return memo[grid]


def _closed_form(A: YoungFunction) -> bool:
    """Whether A is a power, power_log_log, exp_power or exp_log_power kind,
    possibly scaled: a kind whose log readers are closed forms."""
    while isinstance(A, ScaledYoung):
        A = A.base
    return isinstance(A, (PowerYoung, PowerLogLogYoung, ExpPowerYoung, ExpLogPowerYoung))


def _filled_curve(C: ConjugateYoung, tau: np.ndarray) -> np.ndarray:
    """ln A*(e^tau) of the numerical conjugate C on the ascending, finite
    tau, as C's log reader gives it below ``_FILL_FROM``.  From there on the
    points run in whole strides: rows of a node and the ``_FILL_STRIDE`` - 1
    points after it, up to the last node, which ``_slope_root`` solves with
    the fewer than ``_FILL_STRIDE`` points after it.  The rows are solved
    and filled ``_BLOCK`` at a time (``_fill_rows``)."""
    out = np.empty(tau.size)
    start = int(np.searchsorted(tau, _FILL_FROM))
    if start:
        out[:start] = C.log_value_logt(tau[:start])
    rows = (tau.size - 1 - start) // _FILL_STRIDE
    for first in range(0, rows, _BLOCK):
        _fill_rows(C, tau, out, start + _FILL_STRIDE * first, min(_BLOCK, rows - first))
    last = start + _FILL_STRIDE * rows
    out[last:] = _slope_root(C.source, tau[last:])[1]
    return out


def _fill_rows(C: ConjugateYoung, tau, out, first, rows):
    """Fill ``out`` on the rows whose nodes sit at first + ``_FILL_STRIDE`` j,
    j < rows.  One ``_slope_root`` call solves their nodes and the next one
    (solved again as the first node of the rows after), each on its own.  A
    row's other points are
      - filled by the cubic Hermite interpolant of its two nodes' values and
        exact slopes d ln A*/d tau = s r / A*(s) = e^(tau + sigma - ln A*),
        where both nodes have a root inside the ladder (above its foot, where
        the value need not be the supremand at sigma);
      - its node's value where both nodes are the same infinity, since A*
        does not decrease (and is 0 up to where it is positive);
      - solved, where neither holds.
    Over the 11 numerical catalog conjugates the filled points lie within
    2.7e-14 max(1, |ln A*|) of the solved ones.  The rows are filled in
    slices of ``_BLOCK`` points; the node arrays die on return, so none is
    alive while the next rows are solved."""
    nodes = tau[first:first + _FILL_STRIDE * rows + 1:_FILL_STRIDE]
    sigma, value = _slope_root(C.source, nodes)
    slope = np.exp(nodes + sigma - value)
    usable = np.isfinite(slope) & (sigma > _SIGMA_LO)
    per_slice = _BLOCK // _FILL_STRIDE
    for i in range(0, rows, per_slice):
        j = slice(i, min(i + per_slice, rows))
        k = slice(j.start + 1, j.stop + 1)
        span = slice(first + _FILL_STRIDE * j.start, first + _FILL_STRIDE * j.stop)
        t, o = tau[span].reshape(-1, _FILL_STRIDE), out[span].reshape(-1, _FILL_STRIDE)
        v0, v1, s0, s1 = value[j, None], value[k, None], slope[j, None], slope[k, None]
        hermite = usable[j, None] & usable[k, None]
        o[:] = v0
        if hermite.any():
            width = nodes[k, None] - t[:, :1]
            u = (t[:, 1:] - t[:, :1]) / width
            a, b = (1.0 - u) ** 2, u * u
            o[:, 1:] = np.where(hermite, (1.0 + 2.0 * u) * a * v0 + u * a * width * s0
                                + b * (3.0 - 2.0 * u) * v1 + b * (u - 1.0) * width * s1, v0)
        solve = np.flatnonzero(~hermite & ~((v0 == v1) & np.isinf(v0)))
        if solve.size:
            o[solve, 1:] = _slope_root(C.source, t[solve, 1:].ravel())[1].reshape(solve.size, -1)


def _index_shift(grid: str, k: float) -> int:
    """The index offset that multiplies t by 2^k on the named grid."""
    s = _PER_LN2[grid] * k
    if s != int(s):
        raise ValueError(f"2^{k} is not an index shift on the {grid} grid")
    return int(s)


def _shifted(A: YoungFunction, grid: str, k: float, tau_lo: float):
    """Aligned (tau, ln A(e^tau), ln A(2^k e^tau)) on the named grid, at each
    tau >= tau_lo whose 2^k multiple is on the grid too: slices of the sorted
    grid that start at tau_lo, with an exact index shift."""
    s = _index_shift(grid, k)
    tau, v = _GRIDS[grid], _log_curve(A, grid)
    lo, hi = max(-s, 0, int(np.searchsorted(tau, tau_lo))), len(v) - max(s, 0)
    return tau[lo:hi], v[lo:hi], v[lo + s:hi + s]


def _sweep_curves(A: YoungFunction) -> list:
    """A's log-curves on the grids of the balance sweep, filled on first read."""
    return [_log_curve(A, grid) for grid, _, _ in _SWEEP_PARTS]


def _sweep_read(A: YoungFunction, k: float, at: slice = slice(None)) -> np.ndarray:
    """ln A(2^k e^tau) at ``_SWEEP_TAU[at]``, for a slice with a positive
    step, filled part by part into one array: strided slices of the curve on
    the dense and mid parts (after a NaN head where 2^k e^tau is below the
    grid), linear interpolation on the tail."""
    # fill every curve before the output exists.  The traced peak is the
    # same either way (a conjugate's evaluator takes about 1.5 MiB a block);
    # only the allocation order, and so the peak RSS, moves, by 1-4 MiB up or
    # down between runs of the benchmark without this fill
    curves = _sweep_curves(A)
    first, stop, step = at.indices(_SWEEP_TAU.size)
    out = np.empty(len(range(first, stop, step)))
    n = base = 0         # points filled; the sweep index of the part's first point
    for (grid, lo, hi), v in zip(_SWEEP_PARTS, curves):
        m = len(range(first, min(base + hi - lo, stop), step))   # points up to the part's end
        part = out[n:m]
        j = first + n * step - base + lo      # its first point, on its own grid
        n, base = m, base + hi - lo
        if grid != "tail":
            j += _index_shift(grid, k)
            head = min(max(-(j // step), 0), part.size)
            part[:head] = np.nan
            part[head:] = v[j + head * step:j + part.size * step:step]
            continue
        if not part.size:
            continue
        # the shifted tau, read in place; for k <= -5 the first ones fall
        # below the tail grid, into the mid grid's overlap
        np.add(_TAIL_GRID[j:j + part.size * step:step], k * LN2, out=part)
        below = int(np.searchsorted(part, _TAIL_GRID[0]))
        if below:
            part[:below] = _interp(part[:below], _MID_GRID, _log_curve(A, "mid"))
        if below < part.size:
            part[below:] = _interp(part[below:], _TAIL_GRID, v)
    return out


def _interp(tau: np.ndarray, grid: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The curve v on grid interpolated linearly at the ascending, non-empty
    tau, with NaN and +inf read as +inf.  Only a window of the curve is
    read, one that holds the two nodes around each point: np.interp gives
    each point the same bits from it as from the whole curve.  Where the
    curve has more nodes than tau has points, so has the window, since
    np.interp otherwise tabulates a slope per node (memory that tracemalloc
    does not see)."""
    lo = max(int(np.searchsorted(grid, tau[0], "right")) - 1, 0)
    hi = max(int(np.searchsorted(grid, tau[-1])) + 1, lo + tau.size + 1)
    lo = max(min(lo, grid.size - (hi - lo)), 0)
    w = v[lo:hi]
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(w)
        if finite.all():
            out = np.interp(tau, grid[lo:hi], w)
            # past 1e307 reads +inf where v has a node that is not finite,
            # also outside the window; only then is the whole curve scanned
            if out.max() < 1e307 or np.isfinite(v).all():
                return out
        else:
            out = np.interp(tau, grid[lo:hi], np.where(finite, w, 1e308))
        out[out >= 1e307] = np.inf
    return out


def _doubling_ratio(A: YoungFunction, grid: str, tau_lo: float):
    """(tau, ln A(t), ln A(2t), ln A(2t) - ln A(t)) at tau >= tau_lo of the named grid."""
    tau, v, v2 = _shifted(A, grid, 1, tau_lo)
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


def _probe(tau, r, at):
    """r at the point of tau nearest to ``at``."""
    return float(r[np.argmin(np.abs(tau - at))])


def _delta2_at(A, tau_lo, t0):
    td, vd0, vd2, rd = _doubling_ratio(A, "dense", tau_lo)
    tc, _, _, rc = _doubling_ratio(A, "coarse", tau_lo)
    # A jumps from 0 to positive inside the window: no finite constant
    zero_to_pos = np.isneginf(vd0) & ~np.isneginf(vd2)
    if zero_to_pos.any():
        ts = np.exp(td[zero_to_pos][-4:])
        return GrowthVerdict(False, t0, math.inf, ts.tolist(),
                             {"reason": "A(2t) > 0 = A(t): no finite doubling constant"})
    r_all = np.concatenate((rd, rc))
    informative = np.isfinite(r_all)
    if not informative.any():
        # finite-valued functions only reach here by overflowing the whole
        # window, which already implies super-doubling growth
        return GrowthVerdict(False, t0, math.inf,
                             [float(np.exp(min(tau_lo, 690.0)))],
                             {"reason": "values overflow the entire window"})
    sup = float(np.max(r_all[informative]))
    tail = [_probe(tc, rc, f * _TAU_MAX) for f in (0.25, 0.5, 1.0)]
    climbing = (math.isfinite(tail[-1]) and tail[0] > 1e-6
                and tail[-1] > 1.3 * tail[0])
    if climbing or not math.isfinite(tail[-1]) or not informative.all():
        cert = [math.exp(min(f * _TAU_MAX, 690.0)) for f in (0.25, 0.5, 1.0)]
        return GrowthVerdict(False, t0, math.inf, cert,
                             {"reason": "doubling ratio grows without bound",
                              "ratio_log_tail": tail})
    # refinement stability of the certified constant: the dense window
    # against itself 2x finer
    sup_d = float(np.max(rd)) if rd.size else sup
    _, _, _, r2 = _doubling_ratio(A, "refined", tau_lo)
    m2 = np.isfinite(r2)
    sup2 = float(np.max(r2[m2])) if m2.any() else sup_d
    sup_all = max(sup, sup2, tail[-1])
    drift = abs(math.expm1(min(abs(sup2 - sup_d), 1.0)))
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
    td, vd, _, rd = _doubling_ratio(A, "dense", tau_lo)
    tc, _, _, rc = _doubling_ratio(A, "coarse", tau_lo)
    # informative points: 0 < A(t) < inf (zero or infinite A(t) satisfy any C)
    id_ = np.isfinite(rd) & np.isfinite(vd)
    ic = np.isfinite(rc)
    if not (id_.any() or ic.any()):
        return GrowthVerdict(True, t0, 4.0, [], {"reason": "vacuous"})
    r_all = np.concatenate((rd[id_], rc[ic]))
    t_all = np.concatenate((td[id_], tc[ic]))
    inf_log = float(np.min(r_all))
    gap = inf_log - LN2
    g1 = _probe(tc, rc, 0.25 * _TAU_MAX) - LN2
    g2 = _probe(tc, rc, _TAU_MAX) - LN2
    decaying = (math.isfinite(g1) and math.isfinite(g2) and g2 < 0.75 * g1
                ) or (math.isfinite(g2) and g2 < 1e-4)
    if t0 == 0.0:
        # globally, the gap at the low end, tau_lo = -14: the ratio falls to 2
        # as t -> 0 wherever A'(0+) > 0
        h = _probe(td, rd, tau_lo) - LN2
        decaying = decaying or (math.isfinite(h) and h < 1e-4)
    if gap <= 1e-9 or decaying:
        worst = t_all[np.argsort(r_all)[:4]]
        return GrowthVerdict(False, t0, 2.0,
                             [float(np.exp(min(t, 690.0))) for t in worst],
                             {"reason": "doubling ratio not bounded away from 2",
                              "gap_tail": [g1, g2]})
    # refinement stability: the dense window against itself 2x finer
    inf_d = float(np.min(rd[id_])) if id_.any() else inf_log
    _, v2, _, r2 = _doubling_ratio(A, "refined", tau_lo)
    m2 = np.isfinite(r2) & np.isfinite(v2)
    inf2 = float(np.min(r2[m2])) if m2.any() else inf_d
    # a ratio past float range still certifies the largest float constant
    c = math.exp(min(inf_log, inf2, g2 + LN2, _LN_MAX))
    drift = abs(math.exp(min(inf2, 10.0)) - math.exp(min(inf_d, 10.0))) / math.exp(min(inf_d, 10.0))
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
    tau, b, _ = _shifted(B, grid, k, tau_lo)
    _, _, a = _shifted(A, grid, k, tau_lo)
    with np.errstate(invalid="ignore"):
        ok = (b <= a + 1e-9) | np.isneginf(b) | np.isposinf(a)
    return tau[~ok]


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
    rise, run = np.diff(np.concatenate(([0.0], v))), np.diff(np.concatenate(([0.0], g)))
    # like the values, only the secants within float range are compared
    fits = rise / np.finfo(float).max < run
    g, sec = g[fits], rise[fits] / run[fits]
    bad = np.diff(sec) < -1e-9 * np.maximum(sec[:-1], 1e-300)
    if bad.any():
        raise DomainError(f"{A!r} is not convex near t={g[1:][bad][:3]}")


# ---------------------------------------------------------------------------
# JSON catalog
# ---------------------------------------------------------------------------

# catalog kinds that are special cases of power_log_log (gamma = 0)
_POWER_LOG_ALIASES = {"power_log": {}, "linear_log": {"p": 1.0, "alpha": 1.0}}

# each JSON kind: its constructor, its required and its optional parameters
# (the indicator kind builds a one-piece tabulated function)
_KINDS = {cls.kind: (cls, required, optional) for cls, required, optional in (
    (PowerYoung, ("p",), ("coeff",)),
    (PowerLogLogYoung, ("p", "alpha"), ("gamma",)),
    (ExpPowerYoung, ("beta",), ()),
    (ExpLogPowerYoung, ("a", "beta"), ("reduced",)),
    (TabulatedYoung, ("breakpoints", "slopes", "final_slope"), ()),
    (ScaledYoung, ("m", "of"), ("arg_scale",)),
    (ConjugateYoung, ("of",), ()),
)}
_KINDS["indicator"] = (indicator, (), ("t1",))


def _checked_params(obj) -> tuple:
    """(class, params) of a JSON Young function, with every parameter name
    known and every value a number other than NaN (a list of them for the
    tabulated breakpoints and slopes; a JSON boolean for "reduced"; a nested
    JSON object for "of")."""
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
        if k == "of":
            if not isinstance(v, dict):
                raise DomainError(f"parameter {k!r} of kind {kind!r} must be a JSON object")
            continue
        if k == "reduced":
            if not isinstance(v, bool):
                raise DomainError(f"parameter {k!r} of kind {kind!r} must be true or false")
            continue
        values = v if k in ("breakpoints", "slopes") and isinstance(v, list) else [v]
        # a JSON true or false reads as a bool, which Python counts as an int
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values):
            raise DomainError(f"parameter {k!r} of kind {kind!r} must be a number")
        if any(x != x for x in values):
            raise DomainError(f"parameter {k!r} of kind {kind!r} must not be NaN")
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
        raise DomainError(f"unknown Young function {name_or_json!r}; "
                          f"catalog entries: {', '.join(sorted(catalog))}")
    return catalog[s]
