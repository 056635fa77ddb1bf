"""Integral balance conditions between pairs of Young functions.

For a pair (A, B) the primal condition asks for constants c > 0, t0 >= 0 with

    t * integral_{t0}^{t} B(s)/s^2 ds  <=  A(c t)   for all t >= t0,

and the dual condition asks the same with the conjugates in swapped roles.
Both are semi-decided over a documented finite search grid (dyadic c in
2^-10..2^10, t0 in {0, 1, 10, 100, 1000}); a pass reports the first stable
(c, t0), a fail carries violating t values and a divergence diagnostic, since
a finite search cannot prove nonexistence.

The sweep runs in the log domain (tau = ln t up to 2e4) so that failures whose
witnesses live beyond float range, such as (t log(1+t), t log(1+t)), are still
detected inside the dyadic c grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import young
from ._numerics import LN2, adaptive_simpson, log_sub_exp, log_trapezoid_prefix
from .young import (_DENSE_GRID, _MID_GRID, _MID_JOIN, _ND, _TAIL_GRID, DomainError,
                    GrowthVerdict, PowerYoung, YoungFunction)

__all__ = ["BalanceReport", "balance_integral", "check_balance",
           "classify_catalog_pairs", "EXAMPLE_PAIRS"]

_T0_GRID = (0.0, 1.0, 10.0, 100.0, 1000.0)
_C_EXPONENTS = range(-10, 11)
_PASS_SLACK = math.log(1.10)   # multiplicative slack absorbing quadrature error

# the sweep reads the dense, mid and tail grids of young's grid hierarchy;
# their steps divide ln 2, so dyadic c values are integer index shifts
_N_MID_USE = int(np.searchsorted(_MID_GRID, young._TAU_MAX + 1e-9, "right"))
_SWEEP_TAU = np.concatenate((_DENSE_GRID[:_ND], _MID_GRID[_MID_JOIN + 1:_N_MID_USE],
                             _TAIL_GRID[1:]))
_TEST_LO = young._DENSE_LO + 10.0 * LN2   # lowest test point (c-shift headroom)


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

def _sweep_curves(F: YoungFunction):
    return tuple(young._log_curve(F, grid) for grid in ("dense", "mid", "tail"))


def _condition_sweep(A_side: YoungFunction, B_side: YoungFunction) -> GrowthVerdict:
    """Find (c, t0) with t * integral_{t0}^t B_side(s)/s^2 ds <= A_side(c t)
    on the whole sweep grid above t0, else build a failure certificate."""
    vBd, vBm, vBt = _sweep_curves(B_side)
    vAd, vAm, vAt = _sweep_curves(A_side)
    xs = _SWEEP_TAU
    with np.errstate(invalid="ignore"):
        g = np.concatenate((vBd[:_ND], vBm[_MID_JOIN + 1:_N_MID_USE], vBt[1:])) - xs
        prefix = log_trapezoid_prefix(np.where(np.isnan(g), np.inf, g), xs)
    # behavior of the integrand toward 0: slope of (ln B - sigma) at the bottom
    with np.errstate(invalid="ignore"):
        bottom_slope = float(vBd[32] - vBd[0]) / (32 * young._DENSE_STEP) - 1.0
    if math.isnan(bottom_slope):
        bottom_slope = math.inf if math.isinf(vBd[32]) else 0.0
    diverges_at_zero = not (bottom_slope > 1e-9) or math.isinf(vBd[0])
    tail_ln = -np.inf
    if not diverges_at_zero:
        tail_ln = g[0] - math.log(bottom_slope)

    n_dense = _ND
    n_mid = _N_MID_USE - _MID_JOIN - 1
    last_fail = None
    for t0 in _T0_GRID:
        if t0 == 0.0 and diverges_at_zero:
            last_fail = GrowthVerdict(
                False, 0.0, math.inf, [0.0],
                {"reason": "integral diverges at the origin; t0 = 0 impossible"})
            continue
        tau0 = math.log(t0) if t0 > 0 else -np.inf
        i0 = int(np.searchsorted(xs, tau0)) if t0 > 0 else 0
        if t0 > 0:
            log_int = log_sub_exp(prefix, prefix[i0])
        else:
            log_int = np.logaddexp(prefix, tail_ln)
        lhs = xs + log_int
        test = (xs >= max(tau0, _TEST_LO)) & (xs <= young._TAIL_MAX + 1e-9)
        test[:i0 + 1] = False
        found = None
        for k in _C_EXPONENTS:
            ok, margin = _compare(lhs, vAd, vAm, vAt, k, test, n_dense, n_mid)
            if ok:
                ok2, _ = _compare(lhs, vAd, vAm, vAt, k, test, n_dense, n_mid,
                                  stride=2)
                if ok2:
                    found = GrowthVerdict(True, t0, 2.0 ** k, [],
                                          {"margin_ln": margin})
                    break
        if found is not None:
            return found
        ok, margin, worst = _compare(lhs, vAd, vAm, vAt, max(_C_EXPONENTS),
                                     test, n_dense, n_mid, want_witness=True)
        trend = _divergence_trend(lhs, vAm, max(_C_EXPONENTS), n_dense, n_mid)
        last_fail = GrowthVerdict(
            False, t0, math.inf, worst,
            {"reason": "no (c, t0) on the search grid certifies the bound",
             "worst_margin_ln": margin, "ratio_trend_ln": trend})
    return last_fail


def _compare(lhs, vAd, vAm, vAt, k, test, n_dense, n_mid, stride=1,
             want_witness=False):
    """Pointwise lhs <= ln A(2^k t) + slack over the sweep; dense and mid
    parts use exact index shifts, the sparse tail interpolates."""
    rhs = np.empty_like(lhs)
    sd = 64 * k
    dense_idx = np.arange(n_dense) + sd
    valid_d = (dense_idx >= 0) & (dense_idx < len(vAd))
    rhs[:n_dense] = vAd[np.clip(dense_idx, 0, len(vAd) - 1)]
    sm = 8 * k
    mid_idx = np.arange(_MID_JOIN + 1, _MID_JOIN + 1 + n_mid) + sm
    valid_m = (mid_idx >= 0) & (mid_idx < len(vAm))
    rhs[n_dense:n_dense + n_mid] = vAm[np.clip(mid_idx, 0, len(vAm) - 1)]
    tail_tau = _TAIL_GRID[1:] + k * LN2
    with np.errstate(invalid="ignore"):
        finite_t = np.isfinite(vAt)
        if finite_t.all():
            rhs[n_dense + n_mid:] = np.interp(tail_tau, _TAIL_GRID, vAt)
        else:
            vt = np.where(finite_t, vAt, np.inf)
            rhs_tail = np.interp(tail_tau, _TAIL_GRID, np.nan_to_num(vt, posinf=1e308))
            rhs[n_dense + n_mid:] = np.where(rhs_tail >= 1e307, np.inf, rhs_tail)
    sel = test.copy()
    sel[:n_dense] &= valid_d
    sel[n_dense:n_dense + n_mid] &= valid_m
    if stride > 1:
        keep = np.zeros_like(sel)
        keep[::stride] = True
        sel &= keep
    with np.errstate(invalid="ignore"):
        pointwise = (lhs <= rhs + _PASS_SLACK) | np.isposinf(rhs) | np.isneginf(lhs)
        violate = sel & ~pointwise
    ok = not bool(violate.any())
    with np.errstate(invalid="ignore"):
        margins = np.where(sel, lhs - rhs, -np.inf)
    margin = float(np.nanmax(margins)) if sel.any() else -math.inf
    if want_witness:
        worst = [float(np.exp(min(t, 690.0))) for t in _SWEEP_TAU[violate][-6:]]
        return ok, margin, worst
    return ok, margin


def _divergence_trend(lhs, vAm, k, n_dense, n_mid):
    """ln(lhs/rhs) at increasing t for the largest searched constant."""
    sm = 8 * k
    out = []
    for frac in (0.05, 0.25, 0.5, 1.0):
        jm = min(_MID_JOIN + n_mid,
                 _MID_JOIN + 1 + int((frac * young._TAU_MAX - young._DENSE_HI) / young._MID_STEP))
        j = min(n_dense + n_mid - 1, n_dense + (jm - _MID_JOIN - 1))
        rhs = vAm[min(jm + sm, len(vAm) - 1)]
        with np.errstate(invalid="ignore"):
            out.append(float(lhs[j] - rhs))
    return out


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
