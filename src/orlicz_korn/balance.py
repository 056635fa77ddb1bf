"""Integral balance conditions between pairs of Young functions.

For a pair (A, B) the primal condition asks for constants c > 0, t0 >= 0 with

    t * integral_{t0}^{t} B(s)/s^2 ds  <=  A(c t)   for all t >= t0,

and the dual condition asks the same with the conjugates in swapped roles.
Both are semi-decided over the finite search that ``young`` defines for all
growth verdicts: its dyadic constants c, thresholds t0 and the balance sweep
in tau = ln t, read through ``young._sweep_shifted``.  A pass reports the
first stable (c, t0); a fail carries violating t values and a divergence
diagnostic, since a finite search cannot prove nonexistence.

The sweep runs in the log domain, far beyond float range of t, so failures
whose witnesses live there, such as (t log(1+t), t log(1+t)), are still
detected inside the dyadic c grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import young
from ._numerics import LN2, adaptive_simpson, log_sub_exp, log_trapezoid_prefix
from .young import _SWEEP_TAU, DomainError, GrowthVerdict, PowerYoung, YoungFunction

__all__ = ["BalanceReport", "balance_integral", "check_balance",
           "classify_catalog_pairs", "EXAMPLE_PAIRS"]

_PASS_SLACK = math.log(1.10)   # multiplicative slack absorbing quadrature error
# where a failed sweep reports its divergence trend: the first sweep point
# past each fraction of young's asymptotic sweep end, and at most that end
# (all far past the start of every tested suffix)
_TREND_AT = np.minimum(
    np.searchsorted(_SWEEP_TAU, np.array([0.05, 0.25, 0.5, 1.0]) * young._TAU_MAX, "right"),
    np.searchsorted(_SWEEP_TAU, young._TAU_MAX, "right") - 1)
# the first sweep point every searched 2^k multiple of which is on the grid
_FLOOR_AT = int(np.searchsorted(_SWEEP_TAU, young._TAU_FLOOR))


@dataclass
class BalanceReport:
    primal: GrowthVerdict          # the direct gradient-side condition
    dual: GrowthVerdict            # the conjugate-side condition
    witness_c: float               # common constant when both hold
    threshold_t0: float

    @property
    def holds(self) -> bool:
        return self.primal.holds and self.dual.holds


# ---------------------------------------------------------------------------
# moderate-argument integral (float domain)
# ---------------------------------------------------------------------------

def balance_integral(B: YoungFunction, t0: float, t: float) -> float:
    """t * integral_{t0}^{t} B(s)/s^2 ds, adaptive quadrature (rel 1e-8,
    abs floor 1e-12); closed form for power kinds."""
    if t < t0 or t0 < 0:
        raise DomainError("need 0 <= t0 <= t")
    if t == t0:
        return 0.0
    if isinstance(B, PowerYoung):
        p, c = B.p, B.coeff
        if p == 1.0:
            inner = math.inf if t0 == 0.0 else c * math.log(t / t0)
        else:
            inner = c * (t ** (p - 1.0) - t0 ** (p - 1.0)) / (p - 1.0)
        return t * inner

    def integrand_sigma(sig):
        s = math.exp(sig)
        return float(B(np.asarray(s))) / s

    total = 0.0
    if t0 > 0.0:
        total = adaptive_simpson(integrand_sigma, math.log(t0), math.log(t))
    else:
        # geometric panels toward 0; non-decaying contributions => divergent
        top = math.log(t)
        contributions = []
        for k in range(260):
            a, b = top - (k + 1) * LN2, top - k * LN2
            piece = adaptive_simpson(integrand_sigma, a, b)
            contributions.append(piece)
            total += piece
            if piece <= 1e-14 * total + 1e-300:
                break
            if k >= 48 and piece > 0.5 * contributions[k - 8]:
                return math.inf
        else:
            return math.inf
    return t * total


# ---------------------------------------------------------------------------
# log-domain sweep machinery
# ---------------------------------------------------------------------------

def _condition_sweep(A_side: YoungFunction, B_side: YoungFunction) -> GrowthVerdict:
    """Find (c, t0) with t * integral_{t0}^t B_side(s)/s^2 ds <= A_side(c t)
    on the whole sweep grid above t0, else build a failure certificate.

    The points tested for a t0 are one suffix of the sorted sweep: tau >=
    max(ln t0, young._TAU_FLOOR), past the first point at ln t0."""
    xs = _SWEEP_TAU
    # fill A_side's curves before the sweep's own arrays exist, so that the
    # temporaries of its evaluator (a conjugate's slope solve) do not stack
    # on them in peak memory
    young._sweep_curves(A_side)
    ln_b = young._sweep_shifted(B_side, 0)     # ln B(e^s)
    vB0 = ln_b[0]
    with np.errstate(invalid="ignore"):
        # the integrand ln B(e^s) - s, taken as +inf where ln B is NaN
        prefix = log_trapezoid_prefix(
            np.subtract(ln_b, xs, out=np.full(xs.size, np.inf), where=~np.isnan(ln_b)), xs)
    # a self-pair's right-hand side at k = 0 is this same read
    rhs_0 = ln_b if A_side is B_side else None
    del ln_b
    # behavior of the integrand toward 0: slope of (ln B - sigma) over the
    # first half ln 2 of the sweep
    vB_half = young._sweep_first(B_side, 0.5)
    with np.errstate(invalid="ignore"):
        bottom_slope = float(vB_half - vB0) / (0.5 * LN2) - 1.0
    if math.isnan(bottom_slope):
        bottom_slope = math.inf if math.isinf(vB_half) else 0.0
    diverges_at_zero = not (bottom_slope > 1e-9) or math.isinf(vB0)
    tail_ln = -np.inf
    if not diverges_at_zero:
        tail_ln = vB0 - xs[0] - math.log(bottom_slope)

    # ln A(2^k e^tau) grows with k, so passing is monotone in k: if the
    # largest constant fails, so does every smaller one; else bisect for the
    # smallest that passes.  Every t0 tests the largest first, so it is read
    # once.
    ks = young._C_EXPONENTS
    top = young._sweep_shifted(A_side, ks[-1])
    last_fail = None
    for t0 in (0.0,) + young._T0_SCAN:
        if t0 == 0.0 and diverges_at_zero:
            last_fail = GrowthVerdict(
                False, 0.0, math.inf, [0.0],
                {"reason": "integral diverges at the origin; t0 = 0 impossible"})
            continue
        i0 = int(np.searchsorted(xs, math.log(t0))) if t0 > 0 else 0
        start = max(i0 + 1, _FLOOR_AT)
        if t0 > 0 and prefix[i0] == np.inf:
            # B_side is +inf by xs[i0] and does not decrease, so the integral to
            # every tested point is +inf (log_sub_exp(inf, inf) gives -inf)
            lhs = np.full(xs.size - start, np.inf)
        elif t0 > 0:
            lhs = xs[start:] + log_sub_exp(prefix[start:], prefix[i0])
        else:
            lhs = xs[start:] + np.logaddexp(prefix[start:], tail_ln)
        margin, violate = _compare(lhs, top[start:])
        if not violate.any():
            del top   # hold one right-hand side at a time, for peak memory
            fails, passes = -1, len(ks) - 1
            while passes - fails > 1:
                mid = (fails + passes) // 2
                rhs = rhs_0 if ks[mid] == 0 and rhs_0 is not None else young._sweep_shifted(A_side, ks[mid])
                mid_margin, violate = _compare(lhs, rhs[start:])
                del rhs   # not held while the next one is read
                if violate.any():
                    fails = mid
                else:
                    passes, margin = mid, mid_margin
            return GrowthVerdict(True, t0, 2.0 ** ks[passes], [], {"margin_ln": margin})
        worst = [float(np.exp(min(t, 690.0))) for t in xs[start:][violate][-6:]]
        with np.errstate(invalid="ignore"):
            trend = [float(lhs[j - start] - top[j]) for j in _TREND_AT]
        last_fail = GrowthVerdict(
            False, t0, math.inf, worst,
            {"reason": "no (c, t0) on the search grid certifies the bound",
             "worst_margin_ln": margin, "ratio_trend_ln": trend})
    return last_fail


def _compare(lhs, rhs):
    """Pointwise lhs <= rhs + slack on aligned suffixes of the sweep; returns
    (worst margin, -inf if every margin is NaN; the mask of violations)."""
    with np.errstate(invalid="ignore"):
        # lhs - rhs <= slack would round differently from this form
        pointwise = (lhs <= rhs + _PASS_SLACK) | (rhs == np.inf) | (lhs == -np.inf)
        margin = float(np.nanmax(lhs - rhs, initial=-np.inf))
    return margin, ~pointwise


def check_balance(A: YoungFunction, B: YoungFunction) -> BalanceReport:
    """Decide both balance conditions for the pair (A, B).

    The conjugate-side condition is evaluated on conjugates produced by
    ``young.conjugate``, never on hand-entered ones.
    """
    primal = _condition_sweep(A, B)
    dual = _condition_sweep(young.conjugate(B), young.conjugate(A))
    both = primal.holds and dual.holds
    witness_c = max(primal.witness_constant, dual.witness_constant) if both else math.inf
    t0 = max(primal.threshold_t0, dual.threshold_t0) if both else math.inf
    return BalanceReport(primal, dual, witness_c, t0)


# ---------------------------------------------------------------------------
# catalog classification
# ---------------------------------------------------------------------------

# (name_A, name_B, label): the gradient norm lives in L^B, the deviatoric
# symmetric gradient in L^A; every one of these pairs must classify as holding
EXAMPLE_PAIRS = (
    ("L2_log", "L2_log", "p-power with log weight, equal pair"),
    ("LlogL", "L1", "L log L controls the L1 gradient"),
    ("L2_loglog", "L2_loglog", "p-power with loglog weight, equal pair"),
    ("LlogL_loglog", "L_loglog", "L log L loglog controls L loglog"),
    ("expL", "expL_half", "exponential pair with reduced exponent"),
    ("Linf", "expL", "essential sup controls exp integrability"),
    ("exp_log2", "exp_log2_reduced", "exp-squared-log pair with reduced partner"),
)


def classify_catalog_pairs(catalog: dict | None = None):
    """BalanceReport rows for the built-in example pairs."""
    catalog = catalog if catalog is not None else young.load_catalog()
    rows = []
    for name_a, name_b, label in EXAMPLE_PAIRS:
        report = check_balance(catalog[name_a], catalog[name_b])
        rows.append({"name_A": name_a, "name_B": name_b, "label": label,
                     "report": report, "expected_holds": True})
    return rows
