"""Shared numerical kernels: stable log-scale arithmetic, bracketing searches,
quadrature.

Everything here works on plain floats / numpy arrays and knows nothing about
Young functions.  Values of +inf and -inf are legal throughout and follow the
extended-real conventions of the package (inf <= inf is True).
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
_GOLDEN_ITERS = 48            # golden-section steps of maximize_unimodal
# adaptive_simpson: relative tolerance, absolute floor and recursion depth
_SIMPSON_REL_TOL, _SIMPSON_ABS_FLOOR, _SIMPSON_MAX_DEPTH = 1e-8, 1e-12, 48


def log_sub_exp(a, b):
    """log(max(exp(a) - exp(b), 0)), elementwise; -inf wherever b >= a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        diff = np.where(b < a, b - a, 0.0)
        out = a + np.log1p(-np.exp(diff))
        out = np.where(b >= a, -np.inf, out)
        out = np.where(np.isinf(a) & (a > 0) & (b < a), np.inf, out)
    return out


def log_trapezoid_prefix(log_f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running log of the trapezoid integral of exp(log_f) over the grid x.

    Returns P with P[i] = log( integral_{x[0]}^{x[i]} exp(log_f) ), P[0] = -inf.
    Handles log_f values of -inf (zero integrand) and +inf (divergent).
    """
    lf = np.asarray(log_f, dtype=float)
    dx = np.diff(x)
    with np.errstate(invalid="ignore", over="ignore"):
        cell = np.logaddexp(lf[:-1], lf[1:]) + np.log(dx) - LN2
    prefix = np.empty(len(x))
    prefix[0] = -np.inf
    prefix[1:] = np.logaddexp.accumulate(cell)
    return prefix


def maximize_unimodal(f, lo, hi):
    """Batched golden-section maximum of a unimodal function.

    ``f`` maps an array of points to an array of values (may contain -inf,
    never NaN), ``lo``/``hi`` are arrays of bracket endpoints.  Each step
    keeps the surviving interior point and evaluates f once, at the new one.
    Returns the largest value found: at the midpoint or at any step.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = 1.0 - invphi
    best = f(0.5 * (lo + hi))
    x1 = lo + invphi2 * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = np.fmax(best, np.fmax(f1, f2))
    for _ in range(_GOLDEN_ITERS):
        left = f1 >= f2
        # the better interior point survives inside the shrunk bracket; the
        # new point takes the other golden position
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x_keep = np.where(left, x1, x2)
        f_keep = np.where(left, f1, f2)
        x_new = lo + np.where(left, invphi2, invphi) * (hi - lo)
        f_new = f(x_new)
        best = np.fmax(best, f_new)
        x1, x2 = np.where(left, x_new, x_keep), np.where(left, x_keep, x_new)
        f1, f2 = np.where(left, f_new, f_keep), np.where(left, f_keep, f_new)
    return best


def adaptive_simpson(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature with a relative tolerance, an absolute
    floor and a depth limit (the ``_SIMPSON_*`` constants)."""
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, depth):
        xm1 = 0.5 * (x0 + 0.5 * (x0 + x2))
        xm2 = 0.5 * (0.5 * (x0 + x2) + x2)
        fm1 = f(xm1)
        fm2 = f(xm2)
        xm = 0.5 * (x0 + x2)
        left = simpson(x0, xm, f0, fm1, f1)
        right = simpson(xm, x2, f1, fm2, f2)
        if not (math.isfinite(left) and math.isfinite(right)):
            return left + right
        err = left + right - whole
        tol = max(_SIMPSON_ABS_FLOOR, _SIMPSON_REL_TOL * (abs(left) + abs(right)))
        if depth >= _SIMPSON_MAX_DEPTH or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return (recurse(x0, xm, f0, fm1, f1, left, depth + 1)
                + recurse(xm, x2, f1, fm2, f2, right, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 0)
