import ast
import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_korn import _numerics, balance, young
from orlicz_korn._numerics import LN2, log_sub_exp, log_trapezoid_prefix
from orlicz_korn.balance import check_balance, classify_catalog_pairs
from orlicz_korn.young import DomainError, PowerLogLogYoung, PowerYoung, ScaledYoung, dominates


# ---------------------------------------------------------------------------
# the integral transform in the float domain: the oracle for the log sweep
# ---------------------------------------------------------------------------

# adaptive_simpson: relative tolerance, absolute floor and recursion depth
_SIMPSON_REL_TOL, _SIMPSON_ABS_FLOOR, _SIMPSON_MAX_DEPTH = 1e-8, 1e-12, 48


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


def balance_integral(B, t0: float, t: float) -> float:
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


def test_integral_square_kind():
    # B = s^2 makes the integrand identically 1
    assert balance_integral(PowerYoung(2), 0.0, 4.0) == pytest.approx(16.0)


def test_integral_linear_kind():
    assert balance_integral(PowerYoung(1), 1.0, math.e) == pytest.approx(math.e)


def test_integral_linear_log_against_midpoint_oracle():
    # frozen midpoint-rule value with 1e6 panels
    val = balance_integral(PowerLogLogYoung(1.0, 1.0), 1.0, 10.0)
    assert val == pytest.approx(33.7581085343339, rel=1e-6)


def test_integral_domain_error():
    with pytest.raises(DomainError):
        balance_integral(PowerYoung(2), 3.0, 1.0)


def test_integral_divergent_at_zero():
    assert balance_integral(PowerYoung(1), 0.0, 1.0) == math.inf


# ---------------------------------------------------------------------------
# pair verdicts
# ---------------------------------------------------------------------------

def test_square_pair_holds(catalog):
    rep = check_balance(catalog["L2"], catalog["L2"])
    assert rep.primal.holds and rep.dual.holds
    assert rep.witness_c <= 2.0
    assert rep.threshold_t0 == 0.0


def test_linear_log_pair_fails_primal(catalog):
    rep = check_balance(catalog["LlogL"], catalog["LlogL"])
    assert not rep.primal.holds
    assert rep.dual.holds
    assert rep.primal.failure_certificate
    assert "ratio_trend_ln" in rep.primal.diagnostics
    # the sweep's numbers as first recorded, so a refactor of the search
    # cannot move them unnoticed
    diag = rep.primal.diagnostics
    assert rep.primal.failure_certificate == pytest.approx([4.60460640478299e+299] * 6, rel=1e-12)
    assert diag["worst_margin_ln"] == pytest.approx(5.680050786817446, rel=1e-12)
    assert diag["ratio_trend_ln"] == pytest.approx(
        [-0.7237807054951872, 0.8911904011729348, 1.5850314405488461, 2.2785210382462537],
        rel=1e-12)


def test_exp_pair_fails_dual(catalog):
    rep = check_balance(catalog["expL"], catalog["expL"])
    assert rep.primal.holds
    assert not rep.dual.holds


def test_linear_pair_fails_primal(catalog):
    rep = check_balance(catalog["L1"], catalog["L1"])
    assert not rep.primal.holds and rep.dual.holds


# each B side is +inf from t = 1 (or 0.5) on, so from every scanned t0 > 0
# the integral to any tested t is +inf, and no A(c t) bounds it
@pytest.mark.parametrize("name_a, name_b, side", [
    ("L2", "Linf", "primal"), ("expL", "Linf", "primal"), ("LlogL", "Linf", "primal"),
    ("L2", "indicator(0.5)", "primal"), ("L1", "L2", "dual"), ("L1", "LlogL", "dual"),
])
def test_an_integral_that_is_infinite_from_t0_fails(catalog, name_a, name_b, side):
    B = young.indicator(0.5) if name_b == "indicator(0.5)" else catalog[name_b]
    verdict = getattr(check_balance(catalog[name_a], B), side)
    assert not verdict.holds and verdict.failure_certificate
    assert verdict.diagnostics["worst_margin_ln"] == math.inf


@pytest.mark.parametrize("name, side", [("L1", "dual"), ("Linf", "primal")])
def test_an_indicator_pair_holds_from_the_constant_one(catalog, name, side):
    # A_side(c t) is +inf past t = 1/c and the integral past t = 1, so c = 1
    # is the smallest dyadic constant that passes from t0 = 1
    verdict = getattr(check_balance(catalog[name], catalog[name]), side)
    assert verdict.holds
    assert (verdict.witness_constant, verdict.threshold_t0) == (1.0, 1.0)


# (witness_c, threshold_t0, primal margin_ln, dual margin_ln) as first
# recorded; the dual margins of the expL and exp_log2 pairs are taken at
# tau = 6e5, where one ulp of ln A* is 1.2e-10, and were recorded again when
# the numerical conjugate's values there became correctly rounded.  The
# primal margin of (expL, expL_half) was recorded again (from
# -1.0965351101155238, 1.7e-12 relative) when the prefix integral came to be
# summed in linear scale: the margin is a difference of two logs, and the
# kernel is within 5.8e-14 of its log-scale sum on the catalog's integrands.
# The dual margin of (exp_log2, exp_log2_reduced) was recorded again (from
# -0.015248203999362886, 1.5e-8 relative) when the conjugate's far mid and
# tail curves came to be filled between exact nodes: the margin sits at
# tau = 6e5, and the filled values there are within 2.7e-14 max(1, |ln A*|)
# of the solved ones
_EXAMPLE_PAIR_NUMBERS = {
    ("L2_log", "L2_log"): (2.0, 0.0, -0.9344986933283508, -0.3465717005916602),
    ("LlogL", "L1"): (1.0, 1.0, -6.402842700481415e-09, -math.inf),
    ("L2_loglog", "L2_loglog"): (2.0, 0.0, -0.9344970884267241, -0.34657217865648704),
    ("LlogL_loglog", "L_loglog"): (1024.0, 1.0, -0.07813429948873818, -0.20942129305696255),
    ("expL", "expL_half"): (2.0, 1.0, -1.0965351101136525, -1.3863433307269588),
    ("Linf", "expL"): (2.0, 1.0, -math.inf, -0.5553031917860984),
    ("exp_log2", "exp_log2_reduced"): (2.0, 1.0, -0.04188421327199121, -0.015248203882947564),
}


def test_classify_catalog_pairs_all_hold(catalog):
    rows = classify_catalog_pairs(catalog)
    assert len(rows) == 7
    for row in rows:
        pair = (row["name_A"], row["name_B"])
        rep = row["report"]
        assert rep.holds, pair
        got = (rep.witness_c, rep.threshold_t0, rep.primal.diagnostics["margin_ln"],
               rep.dual.diagnostics["margin_ln"])
        assert got == pytest.approx(_EXAMPLE_PAIR_NUMBERS[pair], rel=1e-12), pair


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

# the paper states every condition up to equivalence, and the searched
# constants 2^-10 .. 2^10 absorb a scaling A(t) -> A(lambda t) / m with m and
# lambda in [1/4, 4]
_SCALING = st.floats(0.25, 4.0)
# the acceptance verdicts (primal, dual) of the example pairs and controls
_PAIR_VERDICTS = {**{(a, b): (True, True) for a, b, _ in balance.EXAMPLE_PAIRS},
                  ("LlogL", "LlogL"): (False, True), ("expL", "expL"): (True, False),
                  ("L2", "L2"): (True, True)}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(young.load_catalog())), conj=st.booleans(),
       m=_SCALING, lam=_SCALING)
def test_growth_verdicts_are_invariant_under_scaling(catalog, name, conj, m, lam):
    A = young.conjugate(catalog[name]) if conj else catalog[name]
    for check in (young.check_delta2, young.check_nabla2):
        assert check(ScaledYoung(m, A, lam)).holds == check(A).holds, check.__name__


@settings(max_examples=12, deadline=None)
@given(pair=st.sampled_from(sorted(_PAIR_VERDICTS)), scale_a=st.booleans(),
       m=_SCALING, lam=_SCALING)
def test_balance_verdicts_are_invariant_under_scaling(catalog, pair, scale_a, m, lam):
    A, B = catalog[pair[0]], catalog[pair[1]]
    if scale_a:
        A = ScaledYoung(m, A, lam)
    else:
        B = ScaledYoung(m, B, lam)
    rep = check_balance(A, B)
    assert (rep.primal.holds, rep.dual.holds) == _PAIR_VERDICTS[pair]


# For A = t^p L^alpha and B = t^p L^beta, L = log(1 + t), the pair holds iff
# beta <= alpha for p > 1 and iff beta <= alpha - 1 for p = 1.  The search
# sees the log gap g only where g > 0.52 p, and for p = 1 up to 0.1 more
# (balance's docstring; p = 1, alpha = 2.484375, beta = 2.09375 passes at
# c = 1024 with g = 0.61), so "fails" is asserted from 0.52 p + 0.15.
# p in (1, 1.1) is left out: near p = 1+ the integral's factor 1/(p - 1)
# outruns the reach of the constants 2^k <= 2^10.
@settings(max_examples=15, deadline=None)
@given(p=st.one_of(st.just(1.0), st.floats(1.1, 3.0)), alpha=st.floats(0.0, 3.0),
       beta=st.floats(0.0, 3.0))
def test_power_log_pairs_follow_the_analytic_rule(p, alpha, beta):
    rep = check_balance(PowerLogLogYoung(p, alpha), PowerLogLogYoung(p, beta))
    gap = beta - alpha if p > 1.0 else beta + 1.0 - alpha
    if (beta <= alpha) if p > 1.0 else (beta <= alpha - 1.0):
        assert rep.holds, (rep.primal, rep.dual)
    elif gap > 0.52 * p + 0.15:
        assert not rep.holds, (rep.primal, rep.dual)


# For A = e^(t^a) - 1 and B = e^(t^b) - 1 the primal condition holds iff
# b <= a and the dual iff b <= a / (1 + a); the failing pair lies past both
# reaches of the search (balance's docstring).
@pytest.mark.parametrize("a, b, holds", [(1.0, 1.2, False), (1.0, 0.5, True), (2.0, 0.5, True),
                                         (0.5, 0.25, True)])
def test_exp_power_pairs_follow_the_analytic_rule(a, b, holds):
    rep = check_balance(young.ExpPowerYoung(a), young.ExpPowerYoung(b))
    assert (rep.primal.holds, rep.dual.holds) == (holds, holds)


# The same rule on drawn exponents.  "fails" is asserted only past each
# reach by a margin: for the primal condition where b - a > 0.02 a b, twice
# its reach; for the dual where its log gap g = 1/a + 1 - 1/b exceeds
# 0.52 + 0.15, the p = 1 margin of the power-log rule (the conjugates grow
# like t (ln t)^(1/a) and t (ln t)^(1/b)).
@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.3, 3.0), b=st.floats(0.3, 3.0))
def test_exp_power_pairs_follow_the_analytic_rule_on_drawn_exponents(a, b):
    rep = check_balance(young.ExpPowerYoung(a), young.ExpPowerYoung(b))
    if b <= a:
        assert rep.primal.holds, rep.primal
    elif b - a > 0.02 * a * b:
        assert not rep.primal.holds, rep.primal
    if b <= a / (1.0 + a):
        assert rep.dual.holds, rep.dual
    elif 1.0 / a + 1.0 - 1.0 / b > 0.52 + 0.15:
        assert not rep.dual.holds, rep.dual


# ---------------------------------------------------------------------------
# certificates and margins against a whole-sweep oracle
# ---------------------------------------------------------------------------

# the acceptance pairs (the 7 example pairs and 3 controls), (L1, L1) and
# (L2, Linf), which fails both ways, the primal with a margin of +inf
_ORACLE_PAIRS = sorted(_PAIR_VERDICTS) + [("L1", "L1"), ("L2", "Linf")]
# |check - oracle| <= _ORACLE_ABS + _ORACLE_REL |oracle lhs|, plus
# _ORACLE_TAIL from t0 = 0.  The prefix's linear-scale blocks are within
# 6e-14 of a log-scale sum, and its difference near t0 loses some more
# digits (1.9e-12 at the primal margin of (expL, expL_half)).  Below the
# sweep the check takes the integrand as log-linear and the oracle sums it
# on the dense step: on the conjugates of L2, L2_log and LlogL the two tails
# differ by up to 1e-5 in ln, and by 3e-6 from a 16 times finer sum
_ORACLE_ABS, _ORACLE_REL, _ORACLE_TAIL = 1e-11, 1e-13, 1e-5
_BELOW = 6000   # dense steps of the oracle's integral below the sweep


def _oracle_lhs(B, t0, tau, at):
    """ln of t * integral_{t0}^t B(s)/s^2 ds at tau[at], tau the whole sweep:
    one log-scale trapezoid sum (np.logaddexp.accumulate) of ln B(e^s) - s,
    read by ``log_value_logt`` (NaN as +inf, as in the check), from the first
    sweep point at ln t0 on, or for t0 = 0 from _BELOW dense steps below the
    sweep on."""
    if t0 > 0:
        i0 = int(np.searchsorted(tau, math.log(t0)))
        x = tau[i0:]
    else:
        i0 = -_BELOW
        x = np.concatenate((tau[0] - (tau[1] - tau[0]) * np.arange(_BELOW, 0, -1), tau))
    with np.errstate(invalid="ignore", over="ignore"):
        f = B.log_value_logt(x) - x
        f[np.isnan(f)] = np.inf
        cell = np.logaddexp(f[:-1], f[1:]) + np.log(np.diff(x)) - LN2
    prefix = np.concatenate(([-np.inf], np.logaddexp.accumulate(cell)))
    return tau[at] + prefix[np.arange(tau.size)[at] - i0]


@pytest.mark.parametrize("pair", _ORACLE_PAIRS, ids="-".join)
def test_certificates_and_margins_match_a_whole_sweep_oracle(catalog, sweep_tau, pair):
    # each point of a failing condition's certificate, at the largest
    # constant from the last t0, is a violation past the slack by the oracle,
    # with the check's certificate_margin_ln; each pass's margin_ln is the
    # oracle's worst margin over its suffix at its (c, t0).  The right-hand
    # side is ln A_side(2^k e^tau) by ``log_value_logt``, with no grid read
    A, B = catalog[pair[0]], catalog[pair[1]]
    rep = check_balance(A, B)
    sides = ((rep.primal, A, B), (rep.dual, young.conjugate(B), young.conjugate(A)))
    for side, (verdict, A_side, B_side) in zip(("primal", "dual"), sides):
        t0, diag = verdict.threshold_t0, verdict.diagnostics
        if verdict.holds:
            k = math.log2(verdict.witness_constant)
            i0 = int(np.searchsorted(sweep_tau, math.log(t0))) if t0 > 0 else 0
            at = slice(max(i0 + 1, balance._FLOOR_AT), None)
        else:
            k, at = max(young._C_EXPONENTS), np.searchsorted(sweep_tau, diag["certificate_tau"])
            assert sweep_tau[at].tolist() == diag["certificate_tau"] and at.size == 6, side
            assert verdict.failure_certificate == pytest.approx(np.exp(np.minimum(sweep_tau[at], 690.0)),
                                                                rel=1e-15), side
        lhs = _oracle_lhs(B_side, t0, sweep_tau, at)
        with np.errstate(invalid="ignore"):
            gap = lhs - A_side.log_value_logt(sweep_tau[at] + k * LN2)
        tol = _ORACLE_ABS + _ORACLE_REL * np.abs(lhs) + (_ORACLE_TAIL if t0 == 0 else 0.0)
        if verdict.holds:
            got, want = diag["margin_ln"], float(np.nanmax(gap, initial=-np.inf))
            tol = np.max(tol[np.isfinite(tol)], initial=_ORACLE_ABS)
        else:
            got, want = np.array(diag["certificate_margin_ln"]), gap
            assert np.all(gap > balance._PASS_SLACK), (side, gap)
        with np.errstate(invalid="ignore"):
            assert np.all((got == want) | (np.abs(got - want) <= tol)), (side, got, want)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_self_pair_matches_doubling_verdicts(catalog):
    # primal with B=A iff lower doubling; dual with B=A iff upper doubling
    for name in ("L1", "L2", "LlogL", "expL", "L2_log", "exp_log2"):
        A = catalog[name]
        rep = check_balance(A, A)
        assert rep.primal.holds == young.check_nabla2(A).holds, name
        assert rep.dual.holds == young.check_delta2(A).holds, name


def test_monotone_in_second_argument(catalog):
    # (A, B) passing and B' dominated by B near infinity => (A, B') passes
    triples = [("L2_log", "L2_log", "L2"), ("LlogL", "L1", "L1"),
               ("expL", "expL_half", "L2")]
    for a, b, bprime in triples:
        assert dominates(catalog[b], catalog[bprime]).holds, (b, bprime)
        rep = check_balance(catalog[a], catalog[b])
        rep2 = check_balance(catalog[a], catalog[bprime])
        assert rep.holds and rep2.holds, (a, b, bprime)


def test_dominance_consequence(catalog):
    for row in classify_catalog_pairs(catalog):
        A = catalog[row["name_A"]]
        B = catalog[row["name_B"]]
        assert dominates(A, B).holds, row["name_A"]


def test_report_witness_bound(catalog):
    rep = check_balance(catalog["L2_log"], catalog["L2_log"])
    # the reported (c, t0) actually certify the primal bound on a spot grid
    c, t0 = rep.witness_c, rep.threshold_t0
    for t in np.geomspace(max(t0, 1.0) + 1.0, 1e4, 12):
        lhs = balance_integral(catalog["L2_log"], t0, float(t))
        rhs = float(catalog["L2_log"](c * t))
        assert lhs <= rhs * 1.12


def test_check_balance_builds_one_conjugate_and_each_curve_once(monkeypatch):
    # each curve is one fill of the memo (the conjugate's far curves are
    # solved at their nodes, so the sizes of its log reader's calls no
    # longer count its curves)
    A = young.load_catalog()["LlogL"]
    built, fills = [], []
    init = young.ConjugateYoung.__init__
    log_curve = young._log_curve

    def spy_init(self, source):
        built.append(source)
        init(self, source)

    def spy_log_curve(B, grid):
        if grid not in young._memo(B):
            fills.append((B, grid))
        return log_curve(B, grid)

    monkeypatch.setattr(young.ConjugateYoung, "__init__", spy_init)
    monkeypatch.setattr(young, "_log_curve", spy_log_curve)
    check_balance(A, A)
    assert len(built) == 1 and built[0] is A
    C = young.conjugate(A)
    assert Counter(fills) == Counter((B, grid) for B in (A, C) for grid in ("dense", "mid", "tail"))


def test_balance_checks_and_growth_checks_never_tabulate(monkeypatch):
    # the check-balance pairs and the growth checks of A and its conjugate
    # over the catalog read log curves only: no conjugate builds its table
    tabulated = []
    tabulate = young._tabulate
    monkeypatch.setattr(young, "_tabulate", lambda A: tabulated.append(A) or tabulate(A))
    pairs = [(a, b) for a, b, _ in balance.EXAMPLE_PAIRS]
    pairs += [("LlogL", "LlogL"), ("expL", "expL"), ("L2", "L2")]
    for a, b in pairs:
        catalog = young.load_catalog()
        check_balance(catalog[a], catalog[b])
    for A in young.load_catalog().values():
        for check in (young.check_delta2, young.check_nabla2):
            check(A)
            check(young.conjugate(A))
    assert len(pairs) == 10 and tabulated == []


def test_balance_reads_no_grid_layout_of_young():
    # balance reads ln A(2^k t) through young's sweep reader; the grids, their
    # bounds, steps and lengths and the index arithmetic on them stay young's
    layout = {name for name, value in vars(young).items()
              if any(value is grid for grid in young._GRIDS.values())}
    layout |= {name for name in vars(young) if name.endswith(("_STEP", "_JOIN", "_LO", "_HI"))}
    layout |= {"_GRIDS", "_PER_LN2", "_SWEEP_PARTS", "_ND", "_OVERLAP",
               "_TAIL_MAX", "_log_curve", "_shifted", "_index_shift"}
    tree = ast.parse(inspect.getsource(balance))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "young"}
    read |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "young"
             for alias in node.names}
    assert not read & layout, sorted(read & layout)


def _parent_log_sub_exp(a, b):
    """``log_sub_exp`` as three np.where passes: the reference for the
    in-place form."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        diff = np.where(b < a, b - a, 0.0)
        out = a + np.log1p(-np.exp(diff))
        out = np.where(b >= a, -np.inf, out)
        return np.where(np.isinf(a) & (a > 0) & (b < a), np.inf, out)


def _parent_log_trapezoid_prefix(log_f, x):
    """``log_trapezoid_prefix`` summed in log scale over the whole grid: the
    reference for the linear-scale blocks, and bit for bit what their log-scale
    fallback gives."""
    with np.errstate(invalid="ignore", over="ignore"):
        cell = np.logaddexp(log_f[:-1], log_f[1:]) + np.log(np.diff(x)) - LN2
        return np.concatenate([[-np.inf], np.logaddexp.accumulate(cell)])


# |P - P_parent| <= _PREFIX_REL * max(1, |P_parent|) for the linear-scale
# blocks of 4,096 cells (5.75e-14 at most on the k = 0 sweep integrands of
# the catalog functions and their conjugates)
_PREFIX_REL = 1e-12


def _assert_prefix_near_parent(f, x, trial):
    got, want = log_trapezoid_prefix(f, x), _parent_log_trapezoid_prefix(f, x)
    for same_set in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(same_set(got), same_set(want)), trial
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= _PREFIX_REL * np.maximum(1.0, np.abs(want[finite]))), trial
    return got, want


def _kernel_trials():
    """A grid of 3 prefix blocks, and an iterator over (trial, kind, log_f)
    on it, in one seeded sequence; each log_f may be overwritten by the next.
    The last of each trial, of kind "specials", is its plain integrand with
    NaN, +inf and -inf at the -inf points of the others."""
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.random(10_000) + 1e-3)
    return x, _kernel_integrands(rng, x)


def _kernel_integrands(rng, x):
    special = np.array([np.nan, np.inf, -np.inf])
    for trial in range(4):
        f = rng.normal(0.0, 30.0, x.size)
        at = rng.random(x.size) < 0.05 * trial
        f[at] = -np.inf
        yield trial, "plain", f
        # +inf or NaN in the second block: the third sums in log scale from it
        g = f.copy()
        g[rng.integers(4_200, 8_000)] = special[trial % 2]
        yield trial, "special", g
        # climbing by more than 600 inside a block: that block sums in rows
        # of 128 cells, each under its own shift
        g[:] = f
        g[4_500:8_000] += np.linspace(0.0, 3_000.0, 3_500)
        yield trial, "climb", g
        g = 0.5 * np.arange(x.size) + rng.normal(0.0, 1.0, x.size)
        g[at] = -np.inf
        yield trial, "steep", g
        # climbing by more than 600 inside a row: every block sums in log
        # scale, which is the parent's sum bit for bit
        g = 6.0 * np.arange(x.size) + rng.normal(0.0, 1.0, x.size)
        g[at] = -np.inf
        yield trial, "cliff", g
        f[at] = rng.choice(special, at.sum())
        yield trial, "specials", f


def test_the_sweep_kernels_keep_the_parent_values():
    x, trials = _kernel_trials()
    for trial, kind, f in trials:
        if kind != "specials":
            got, want = _assert_prefix_near_parent(f, x, (trial, kind))
            if kind == "cliff":
                assert got.tobytes() == want.tobytes(), trial
            continue
        for a, b in ((f, f[::-1]), (f, f[7]), (f[3], f), (f, np.inf), (np.inf, -np.inf), (2.0, 1.0)):
            got = log_sub_exp(a, b)
            assert type(got) is np.ndarray and got.tobytes() == _parent_log_sub_exp(a, b).tobytes()


@pytest.mark.parametrize("blocks", [1, 2])
def test_the_prefix_summed_in_block_aligned_chunks_is_the_whole_sum(blocks):
    # chunks of the grid's points that begin on multiples of the block, each
    # started from the last one's end, sum in the same blocks from the same
    # carries as one call: the same bits, also across +inf and NaN
    size = blocks * _numerics._PREFIX_BLOCK
    x, trials = _kernel_trials()
    for trial, kind, f in trials:
        whole = log_trapezoid_prefix(f, x)
        chunked = np.empty(x.size)
        chunked[0] = -np.inf
        for lo in range(0, x.size - 1, size):
            hi = min(lo + size, x.size - 1) + 1
            chunked[lo:hi] = log_trapezoid_prefix(f[lo:hi], x[lo:hi], chunked[lo])
        assert chunked.tobytes() == whole.tobytes(), (trial, kind)


def _two_exp_steep_rows(f, dx, carry, cell):
    """``_numerics._steep_rows`` taking the exp of each cell's two ends: the
    reference for its one exp per point."""
    rows = -(-dx.size // _numerics._PREFIX_ROW)
    pad = rows * _numerics._PREFIX_ROW - dx.size
    f = np.concatenate((f, np.full(pad, -np.inf)))
    left, right = f[:-1].reshape(rows, -1), f[1:].reshape(rows, -1)
    width = np.concatenate((dx, np.zeros(pad))).reshape(rows, -1)
    peak = np.maximum(left.max(axis=1), right[:, -1])
    first = np.maximum(carry, left[:, 0] + np.log(0.5 * width[:, 0]))
    if not np.all((peak - first <= _numerics._PREFIX_SPAN) & (peak > -np.inf)):
        return False
    w = np.exp(left - peak[:, None])
    w += np.exp(right - peak[:, None])
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


@pytest.mark.parametrize("name", ["L2", "L2_log", "L2_loglog"])
def test_steep_sweep_integrands_sum_in_rows_near_the_log_scale_sum(catalog, name, monkeypatch):
    # their k = 0 integrands (and their conjugates') climb about 11,000 in a
    # tail block of 4,096 cells: those blocks sum in rows of 128 cells, not
    # in log scale, within 1e-13 max(1, |P|) of the log-scale sum
    rows, steep_rows = [], _numerics._steep_rows

    def both_forms(f, dx, carry, cell):
        # one exp per point gives the bits of an exp per cell end
        two_exp = cell.copy()
        rows.append(steep_rows(f, dx, carry, cell))
        assert _two_exp_steep_rows(f, dx, carry, two_exp) == rows[-1]
        assert cell.tobytes() == two_exp.tobytes()
        return rows[-1]

    monkeypatch.setattr(_numerics, "_steep_rows", both_forms)
    xs = young._sweep_tau()
    for B in (catalog[name], young.conjugate(catalog[name])):
        f = young._sweep_read(B, 0) - xs
        got, want = log_trapezoid_prefix(f, xs), _parent_log_trapezoid_prefix(f, xs)
        assert np.isfinite(want[1:]).all() and rows and all(rows), B
        assert np.all(np.abs(got[1:] - want[1:]) <= 1e-13 * np.maximum(1.0, np.abs(want[1:]))), B
        rows.clear()


def _read_kind(at):
    """What a sweep read covers: the screen, the first point, the whole sweep
    (the integrand's chunks, read from its first point), a suffix (a full
    test's right-hand side, from past the first point) or (never, for a
    whole read) a part that stops short of the sweep's end."""
    if at.step == balance._SCREEN_STRIDE:
        return "screen"
    if at.stop == 1:
        return "point"
    if at.stop not in (None, young._SWEEP_SIZE):
        return "part"
    return "integrand" if at.start in (None, 0) else "suffix"


@pytest.mark.parametrize("name, suffixes, screens, compares", [("LlogL", 2, 6, 2), ("expL", 2, 6, 2)])
def test_each_right_hand_side_is_read_once_per_check(sweep_work, name, suffixes, screens, compares):
    # each constant is screened on one read per condition; a screen that
    # fails at the largest constant needs no full compare, but the last t0's
    # does, for its witness and its trend.  The integrand is ln B at k = 0,
    # read once per condition; a self-pair's right-hand side at k = 0 (full
    # or screened) is read again, off the same cached curve.  Each condition
    # reads ln B at 2^0.5 times the first sweep point for the integrand's
    # slope toward 0
    A = young.load_catalog()[name]
    check_balance(A, A)
    reads = [(a, k, _read_kind(at)) for a, k, at in sweep_work.reads]
    assert not [key for key, n in Counter(reads).items() if n > 1]
    assert Counter(kind for _, _, kind in reads) == {"integrand": 2, "suffix": suffixes, "screen": screens,
                                                     "point": 2}
    assert len(sweep_work.compares) == compares


def test_the_workload_pairs_test_few_full_right_hand_sides(sweep_work, catalog):
    # the 7 example pairs and the 3 controls of the balance benchmark: a test
    # that fails on the screen reads and compares nothing in full (106 full
    # reads and 103 full compares when every test read the whole sweep), and
    # each full compare reads its right-hand side once
    for pair in _PAIR_VERDICTS:
        check_balance(catalog[pair[0]], catalog[pair[1]])
    kinds = Counter(_read_kind(at) for _, _, at in sweep_work.reads)
    assert kinds["integrand"] == 2 * len(_PAIR_VERDICTS)
    assert kinds["suffix"] == len(sweep_work.compares) <= 24


def test_a_check_holds_one_sweep_long_array_per_condition():
    # the prefix is the one array as long as the sweep (3.4 MiB); its other
    # arrays are chunks.  Only the right-hand sides' curves, read at 21
    # shifts, are cached (3.4 MiB a function): the benchmark's 10 pairs peak
    # at 12.3-14.0 MiB, where caching the integrands' curves too took 15.7-20.6
    for a, b in _PAIR_VERDICTS:
        fresh = young.load_catalog()
        tracemalloc.start()
        try:
            check_balance(fresh[a], fresh[b])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * 2**20, (a, b, peak)


def test_a_check_caches_only_the_curves_of_its_right_hand_sides(catalog):
    # the integrands ln B and ln A* are read a chunk at a time and kept nowhere
    fresh = young.load_catalog()
    A, B = fresh["LlogL"], fresh["L1"]
    assert check_balance(A, B).holds
    for f, cached in ((A, True), (B, False), (young.conjugate(A), False), (young.conjugate(B), True)):
        assert (set(young._memo(f)) & set(young._GRIDS) == {"dense", "mid", "tail"}) is cached, (f, cached)


def _whole_full_test(lhs, rhs, start):
    """``balance._full_test`` on the whole arrays at once, its mask of
    violations with isposinf/isneginf: the reference for the chunked walk
    and for the one-comparison form of ``balance._violations``."""
    with np.errstate(invalid="ignore"):
        gap = lhs - rhs
        pointwise = (lhs <= rhs + balance._PASS_SLACK) | np.isposinf(rhs) | np.isneginf(lhs)
    margin = float(np.nanmax(gap[start:], initial=-np.inf))
    trend = np.where(balance._TREND_AT >= start, gap[balance._TREND_AT], np.nan)
    last = start + np.flatnonzero(~pointwise[start:])[-6:]
    return margin, last, gap[last], trend


def test_full_test_is_the_whole_array_test(sweep_tau):
    # NaN and infinities on both sides; violations scattered or only on
    # both sides of the chunks' ends, so that the last 6 straddle the last
    # one; right-hand sides on both sides of the slack and exactly at it;
    # starts on both sides of a chunk's end; every margin NaN.  The readers'
    # arrays are left as they were
    rng = np.random.default_rng(5)
    n, chunk = sweep_tau.size, balance._SWEEP_CHUNK
    special = np.array([np.nan, np.inf, -np.inf])
    starts = (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7, *rng.integers(1, 5 * chunk, 3), n // 2, n - chunk - 3)
    for trial, start in enumerate(starts):
        lhs = rng.normal(0.0, 1.0, n)
        rhs = lhs + 1.0
        if trial >= 8:
            rhs = lhs - balance._PASS_SLACK + rng.choice([-1e-3, 0.0, 1e-3], n)
            for v in (lhs, rhs):
                at = rng.random(n) < 0.05
                v[at] = rng.choice(special, at.sum())
            hit = np.zeros(n, dtype=bool)
        elif trial % 2:
            # no violation: -inf on the left, +inf on the right, NaN margins
            # inf - inf and -inf - NaN
            pick = rng.integers(0, 5, n)
            lhs[pick == 0], rhs[pick == 1] = -np.inf, np.inf
            lhs[pick == 2], rhs[pick == 2] = np.inf, np.inf
            lhs[pick == 3], rhs[pick == 3] = -np.inf, np.nan
            hit = np.zeros(n, dtype=bool)
            ends = np.arange(start + chunk, n, chunk)
            hit[np.concatenate((ends - 1, ends - 3, ends, ends + 2))] = True
        else:
            for v in (lhs, rhs):
                at = rng.random(n) < 0.01
                v[at] = rng.choice(special, at.sum())
            hit = rng.random(n) < 0.001
        lhs[hit], rhs[hit] = 2.0, 0.0
        lhs[balance._TREND_AT[:3]] = (np.nan, np.inf, -np.inf)
        if trial == 6:
            lhs[start:] = np.nan
        kept = lhs.copy(), rhs.copy()
        got = balance._full_test(lhs.__getitem__, rhs.__getitem__, start)
        want = _whole_full_test(lhs, rhs, start)
        assert got[0] == want[0] and got[1].tolist() == want[1].tolist(), (trial, start)
        assert got[2].tobytes() == want[2].tobytes() and got[3].tobytes() == want[3].tobytes(), (trial, start)
        assert want[1].size == 6
        if trial % 2 and trial < 8:
            assert want[1][0] < start + (n - 1 - start) // chunk * chunk <= want[1][-1], (trial, start)
        assert (got[0] == -math.inf) is (trial == 6)
        assert np.array_equal(lhs, kept[0], equal_nan=True) and np.array_equal(rhs, kept[1], equal_nan=True)
