"""Shared numerical kernels: stable log-scale arithmetic, a log-domain
trapezoid rule and a bracketing search.

Everything here works on plain floats / numpy arrays and knows nothing about
Young functions.  Values of +inf and -inf are legal throughout and follow the
extended-real conventions of the package (inf <= inf is True).
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
_GOLDEN_ITERS = 48            # golden-section steps of maximize_unimodal
_PREFIX_BLOCK = 4096          # cells per linear-scale block of log_trapezoid_prefix
_PREFIX_SPAN = 600.0          # how far below its shift a block's first prefix may lie
_PREFIX_ROW = 128             # cells per row of a steep block, each row under its own shift


def log_sub_exp(a, b):
    """log(max(exp(a) - exp(b), 0)), elementwise; -inf wherever b >= a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    below = b < a
    # one output array, each step in place: b - a where b < a (else 0), then
    # a + log1p(-exp(.)), then the -inf and +inf cases
    out = np.zeros(below.shape)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        np.subtract(b, a, out=out, where=below)
        np.exp(out, out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.add(a, out, out=out)
    np.copyto(out, -np.inf, where=b >= a)
    np.copyto(out, np.inf, where=np.isposinf(a) & below)
    return out


def log_trapezoid_prefix(log_f: np.ndarray, x: np.ndarray, start: float = -np.inf) -> np.ndarray:
    """Running log of the trapezoid integral of exp(log_f) over the grid x.

    Returns P with P[i] = log( exp(start) + integral_{x[0]}^{x[i]} exp(log_f) ),
    P[0] = start: the prefix of a longer grid continued from its value start
    at x[0].  A grid summed in pieces that begin on multiples of
    ``_PREFIX_BLOCK``, each started from the last value of the one before,
    has the blocks and carries, and so the bits, of one call on the whole.
    Handles log_f values of -inf (zero integrand) and +inf (divergent).

    The cells are summed in linear scale, ``_PREFIX_BLOCK`` at a time, under
    the shift top = max(the prefix so far, the block's largest log_f): one
    exp per point, a cumsum, the carry, one log.  A block whose top lies more
    than ``_PREFIX_SPAN`` above the prefix at its first point (its early terms
    would leave the normal range) is summed in rows (``_steep_rows``).  A
    block whose log_f holds NaN or +inf, or one with a row too steep for its
    own shift, sums in log scale from the carry with ``logaddexp.accumulate``.
    """
    lf = np.asarray(log_f, dtype=float)
    x = np.asarray(x, dtype=float)
    prefix = np.empty(len(x))
    prefix[0] = start
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for lo in range(0, len(x) - 1, _PREFIX_BLOCK):
            hi = min(lo + _PREFIX_BLOCK, len(x) - 1)
            f, carry = lf[lo:hi + 1], prefix[lo]
            cell = prefix[lo + 1:hi + 1]     # the block's cells, then summed in place
            dx = np.diff(x[lo:hi + 1])
            top = float(np.maximum(carry, f.max()))
            # a lower bound on the prefix at the block's first point (where
            # top is not finite, top - first is not within the span)
            first = max(carry, f[0] + np.log(0.5 * dx[0]))
            if top - first <= _PREFIX_SPAN:
                w = np.exp(f - top)
                np.add(w[:-1], w[1:], out=cell)
                cell *= dx
                cell *= 0.5
                np.cumsum(cell, out=cell)
                cell += math.exp(carry - top)
                np.log(cell, out=cell)
                cell += top
            elif not (math.isfinite(top) and _steep_rows(f, dx, carry, cell)):
                np.logaddexp(f[:-1], f[1:], out=cell)
                cell += np.log(dx)
                cell -= LN2
                cell[0] = np.logaddexp(carry, cell[0])
                np.logaddexp.accumulate(cell, out=cell)
    return prefix


def _steep_rows(f, dx, carry, cell) -> bool:
    """Sum the cells of one block of ``log_trapezoid_prefix`` (log_f at its
    points f, none NaN or +inf, widths dx, the prefix carry before it) into
    cell, in rows of ``_PREFIX_ROW`` cells.  Each row sums in linear scale
    under its largest log_f, the rows' totals are carried in log scale, and
    each row then takes the shift max(its carry, its largest log_f), as a
    block does.  False, with cell untouched, unless each row's largest log_f
    is finite and lies within ``_PREFIX_SPAN`` above max(carry, its first
    cell's lower bound): a lower bound on the prefix at its first point,
    since the prefix never falls."""
    rows = -(-dx.size // _PREFIX_ROW)
    pad = rows * _PREFIX_ROW - dx.size
    f = np.concatenate((f, np.full(pad, -np.inf)))
    # each row's end: the next row's first point, where its last cell ends
    left, end = f[:-1].reshape(rows, -1), f[_PREFIX_ROW::_PREFIX_ROW]
    width = np.concatenate((dx, np.zeros(pad))).reshape(rows, -1)
    peak = np.maximum(left.max(axis=1), end)
    first = np.maximum(carry, left[:, 0] + np.log(0.5 * width[:, 0]))
    if not np.all((peak - first <= _PREFIX_SPAN) & (peak > -np.inf)):
        return False
    # one exp per point: a cell's right end is the next cell's left end,
    # under the same shift, but for each row's last cell, whose right end
    # (the row's end) is the next row's first point, under another shift:
    # those cells are summed again, with an exp of their own
    e = np.exp(left - peak[:, None])
    w = np.empty_like(e)
    np.add(e.ravel()[:-1], e.ravel()[1:], out=w.ravel()[:-1])
    np.add(e[:, -1], np.exp(end - peak), out=w[:, -1])
    w *= width
    w *= 0.5
    np.cumsum(w, axis=1, out=w)
    carries = np.logaddexp.accumulate(np.concatenate(([carry], peak[:-1] + np.log(w[:-1, -1]))))
    top = np.maximum(carries, peak)
    w *= np.exp(peak - top)[:, None]
    w += np.exp(carries - top)[:, None]
    np.log(w, out=w)
    w += top[:, None]
    cell[:] = w.ravel()[:dx.size]
    return True


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

