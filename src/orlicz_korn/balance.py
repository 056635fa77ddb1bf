"""Integral balance conditions between pairs of Young functions.

For a pair (A, B) the primal condition asks for constants c > 0, t0 >= 0 with

    t * integral_{t0}^{t} B(s)/s^2 ds  <=  A(c t)   for all t >= t0,

and the dual condition asks the same with the conjugates in swapped roles.
Both are semi-decided over the finite search that ``young`` defines for all
growth verdicts: its dyadic constants c = 2^-10 .. 2^10, thresholds
t0 = 0, 1, 10, 100, 1000 and the balance sweep in tau = ln t up to 6e5, read
through ``young._sweep_read``.  A pass reports the first stable (c, t0): the
first t0, with the smallest c, and its worst ``margin_ln``.  A fail carries
violating t values (clamped at e^690), their unclamped ``certificate_tau``
and ``certificate_margin_ln`` (ln lhs - ln rhs there) and a divergence
diagnostic, since a finite search cannot prove nonexistence.

A condition has three parts: the running integral of B (``_integral``), one
reader of the left-hand side (``_lhs_at``; the right-hand side's is
``young._sweep_read``) and the (t0, c) search.  Each test is tried first on
every 64th sweep point, the screen: a constant that fails there is never
read in full.  Verdicts, constants, margins and certificates are those of
testing every point.

The sweep runs in the log domain, far beyond float range of t, so failures
whose witnesses live there, such as (t log(1+t), t log(1+t)), are still
detected inside the dyadic c grid.  Its reach is still finite.  For
A = t^p L^alpha and B = t^p L^beta with L = log(1 + t), the primal ratio of
the two sides grows like (ln t)^g, with the log gap g = beta - alpha for
p > 1 and g = beta + 1 - alpha for p = 1.  Up to constant factors, it shows
on the sweep only where (ln t)^g outgrows c^p for c = 2^10 at ln t = 6e5,
that is, where g ln(6e5) > 10 p ln 2: g > 0.52 p (for p = 1 the integral's
factor 1/(beta + 1) lifts this by ln(beta + 1) / ln(6e5), 0.1 at beta = 3).
A smaller gap passes with some c <= 2^10 over the whole sweep, so a pass
says that the bound holds up to such slowly growing factors.

For A = e^(t^a) - 1 and B = e^(t^b) - 1 (``young.ExpPowerYoung``) the primal
condition holds iff b <= a, and it has a second reach: ``ExpPowerYoung``
reads ln A(e^tau) as +inf once a tau > 709, and a right-hand side of +inf
passes.  So b > a fails only where (b - a) tau outgrows 10 a ln 2 before
tau = 709 / b, roughly where b - a > 0.0098 a b: (a, b) = (1, 1.2) fails the
primal condition, while (1, 1.0001) and (2, 2.001) pass it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import young
from ._numerics import _PREFIX_BLOCK, LN2, log_sub_exp, log_trapezoid_prefix
from .young import GrowthVerdict, YoungFunction

__all__ = ["BalanceReport", "check_balance", "classify_catalog_pairs", "EXAMPLE_PAIRS"]

_PASS_SLACK = math.log(1.10)   # multiplicative slack absorbing quadrature error
# where a failed sweep reports its divergence trend: the first sweep point
# past each fraction of young's asymptotic sweep end, and at most that end
# (all far past the start of every tested suffix)
_TREND_AT = np.minimum(
    young._sweep_index(np.array([0.05, 0.25, 0.5, 1.0]) * young._TAU_MAX, "right"),
    young._sweep_index(young._TAU_MAX, "right") - 1)
# the first sweep point every searched 2^k multiple of which is on the grid
_FLOOR_AT = int(young._sweep_index(young._TAU_FLOOR))
# the screen: every _SCREEN_STRIDE-th sweep point, on which each test is
# tried before the whole suffix
_SCREEN_STRIDE = 64
# the sweep points a pass over the sweep takes at a time: whole blocks of the
# prefix's linear-scale sum, so that its chunks sum as the whole sweep does
_SWEEP_CHUNK = 16 * _PREFIX_BLOCK


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
# log-domain sweep machinery
# ---------------------------------------------------------------------------

def _integral(B_side: YoungFunction):
    """(prefix, tail_ln): ln integral_{tau_0}^{tau_i} B_side(e^s) e^-s ds at
    each sweep point i, summed ``_SWEEP_CHUNK`` points at a time with the bits
    of one sum (ln B_side is kept nowhere), and ln of the integral below
    tau_0 from the slope of ln B_side - s over the first half ln 2 of the
    sweep, +inf where it diverges at 0."""
    n = young._SWEEP_SIZE
    prefix = np.empty(n)
    prefix[0] = -np.inf
    # the integrand ln B(e^s) - s at the points lo..hi of a chunk of the
    # prefix; lo, its first point, is the last one's end, so each chunk after
    # the first reads ln B from lo + 1
    f = np.empty(_SWEEP_CHUNK + 1)
    for lo in range(0, n - 1, _SWEEP_CHUNK):
        hi = min(lo + _SWEEP_CHUNK, n - 1)
        skip = int(lo > 0)
        ln_b = young._sweep_read(B_side, 0, slice(lo + skip, hi + 1))
        x = young._sweep_tau(slice(lo, hi + 1))
        if lo == 0:
            vB0, x0 = ln_b[0], x[0]
        part = f[:hi + 1 - lo]
        with np.errstate(invalid="ignore"):
            np.subtract(ln_b, x[skip:], out=part[skip:])
        part[np.isnan(part)] = np.inf    # where ln B is NaN
        prefix[lo:hi + 1] = log_trapezoid_prefix(part, x, prefix[lo])
        f[0] = part[-1]
    del ln_b, x, f, part
    vB_half = float(young._sweep_read(B_side, 0.5, slice(0, 1))[0])
    with np.errstate(invalid="ignore"):
        bottom_slope = float(vB_half - vB0) / (0.5 * LN2) - 1.0
    if math.isnan(bottom_slope):
        bottom_slope = math.inf if math.isinf(vB_half) else 0.0
    if not (bottom_slope > 1e-9) or math.isinf(vB0):
        return prefix, math.inf
    return prefix, vB0 - x0 - math.log(bottom_slope)


def _lhs_at(prefix, tail_ln, i0, at):
    """ln of t * integral_{t0}^t B_side(s)/s^2 ds at the sweep points at, for
    ``_integral(B_side)`` = (prefix, tail_ln) and t0 the sweep point i0, or
    t0 = 0 for i0 = 0."""
    x = young._sweep_tau(at)
    if i0 == 0:
        return x + np.logaddexp(prefix[at], tail_ln)
    if prefix[i0] == np.inf:
        # B_side is +inf by the sweep point i0 and does not decrease, so the
        # integral to every tested point is +inf (log_sub_exp(inf, inf) gives -inf)
        return np.full(x.size, np.inf)
    return x + log_sub_exp(prefix[at], prefix[i0])


def _condition_sweep(A_side: YoungFunction, B_side: YoungFunction) -> GrowthVerdict:
    """Find (c, t0) with t * integral_{t0}^t B_side(s)/s^2 ds <= A_side(c t)
    on the whole sweep grid above t0, else build a failure certificate.  The
    points tested for a t0 are one suffix of the sweep: tau >= max(ln t0,
    young._TAU_FLOOR), past the first point at ln t0."""
    # fill A_side's curves (the only ones cached: they are read at 21 shifts)
    # before the prefix exists, so that a conjugate's evaluator (about 1.5 MiB
    # a block) does not stack on it
    young._sweep_curves(A_side)
    prefix, tail_ln = _integral(B_side)
    # ln A(2^k e^tau) grows with k, so passing is monotone in k, on the screen
    # and on the suffix: bisect for the smallest constant that passes.  A
    # violation on the screen is one on the suffix, so the suffix is tested
    # from the smallest constant that passes the screen up, and a t0 whose
    # screen fails at the largest constant fails without a full test (but the
    # last t0, whose failure is reported).  Each screen is read once per
    # check, and a full right-hand side is read one chunk at a time.
    ks = young._C_EXPONENTS
    top = len(ks) - 1
    screens = {}     # index into ks -> A_side's read at the screen points
    t0s = (0.0,) + young._T0_SCAN
    for t0 in t0s:
        if t0 == 0.0 and tail_ln == math.inf:
            continue
        i0 = int(young._sweep_index(math.log(t0))) if t0 > 0 else 0
        lhs_at = partial(_lhs_at, prefix, tail_ln, i0)
        start = max(i0 + 1, _FLOOR_AT)
        first = -(-start // _SCREEN_STRIDE)      # the first screen point in the suffix
        screen_lhs = lhs_at(slice(first * _SCREEN_STRIDE, None, _SCREEN_STRIDE))

        def screen_passes(i):
            if i not in screens:
                screens[i] = young._sweep_read(A_side, ks[i], slice(0, None, _SCREEN_STRIDE))
            return not _violations(screen_lhs, screens[i][first:]).any()

        found = _first_pass(screen_passes, -1, top + 1, top)
        if found > top and t0 != t0s[-1]:
            continue
        tests = {}    # index into ks -> its _full_test

        def passes(i):
            tests[i] = _full_test(lhs_at, partial(young._sweep_read, A_side, ks[i]), start)
            return not tests[i][1].size

        # the screen failed below found, so the suffix does; where the screen
        # fails even at the largest constant, that one test gives the witness
        found = _first_pass(passes, min(found, top) - 1, top + 1, min(found, top))
        if found <= top:
            return GrowthVerdict(True, t0, 2.0 ** ks[found], [], {"margin_ln": tests[found][0]})
    # the last t0 failed: its certificate comes from the largest constant
    margin, last, at_last, trend = tests[top]
    tau = [float(young._sweep_tau(slice(i, i + 1))[0]) for i in last]
    return GrowthVerdict(
        False, t0, math.inf, [float(np.exp(min(t, 690.0))) for t in tau],
        {"reason": "no (c, t0) on the search grid certifies the bound",
         "worst_margin_ln": margin, "ratio_trend_ln": list(map(float, trend)),
         "certificate_tau": tau, "certificate_margin_ln": list(map(float, at_last))})


def _full_test(lhs_at, rhs_at, start):
    """Test lhs <= rhs + slack at every sweep point from start on, for lhs_at
    and rhs_at that give either side at a slice of the sweep, read
    ``_SWEEP_CHUNK`` points at a time: (the worst margin lhs - rhs, -inf if
    every margin is NaN; the sweep indices of the last 6 violations; lhs -
    rhs at them; lhs - rhs at ``_TREND_AT``, NaN at those before start)."""
    margin, last, at_last = -math.inf, np.empty(0, dtype=np.intp), np.empty(0)
    trend = np.full(_TREND_AT.size, np.nan)
    for lo in range(start, young._SWEEP_SIZE, _SWEEP_CHUNK):
        at = slice(lo, min(lo + _SWEEP_CHUNK, young._SWEEP_SIZE))
        lhs, rhs = lhs_at(at), rhs_at(at)
        violate = np.flatnonzero(_violations(lhs, rhs))[-6:]
        here = (at.start <= _TREND_AT) & (_TREND_AT < at.stop)
        with np.errstate(invalid="ignore"):
            margin = max(margin, float(np.nanmax(lhs - rhs, initial=-np.inf)))
            trend[here] = lhs[_TREND_AT[here] - lo] - rhs[_TREND_AT[here] - lo]
            at_last = np.concatenate((at_last, lhs[violate] - rhs[violate]))[-6:]
        last = np.concatenate((last, lo + violate))[-6:]
        del lhs, rhs      # no chunk is held across the next one's reads
    return margin, last, at_last, trend


def _first_pass(passes, fails, hi, probe):
    """The smallest i in (fails, hi) with passes(i), else hi, for a test that
    fails at i = fails and is monotone in i: it tries probe first, then
    bisects."""
    while hi - fails > 1:
        if passes(probe):
            hi = probe
        else:
            fails = probe
        probe = (fails + hi) // 2
    return hi


def _violations(lhs, rhs):
    """The mask of points of aligned parts of the sweep where lhs <= rhs +
    slack fails."""
    with np.errstate(invalid="ignore"):
        # lhs - rhs <= slack would round differently from this form
        return ~((lhs <= rhs + _PASS_SLACK) | (rhs == np.inf) | (lhs == -np.inf))


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
