import decimal
import itertools
import json
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orlicz_korn import balance, young
from orlicz_korn._numerics import log_sub_exp, maximize_unimodal
from orlicz_korn.young import (
    ConjugateYoung, DomainError, ExpLogPowerYoung, ExpPowerYoung, PowerLogLogYoung,
    PowerYoung, ScaledYoung, TabulatedYoung, check_delta2, check_nabla2,
    conjugate, dominates, indicator, load_catalog,
)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_power_evaluation():
    assert PowerYoung(2)(3.0) == 9.0


def test_vanishes_at_zero(catalog):
    for A in catalog.values():
        assert A(0.0) == 0.0


def test_linear_log_at_one():
    assert PowerLogLogYoung(1.0, 1.0)(1.0) == pytest.approx(math.log(2.0), rel=1e-14)


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        PowerYoung(2)(-1.0)


def test_secant_convexity_and_monotone(catalog):
    grid = np.geomspace(1e-4, 1e5, 160)
    for name, A in catalog.items():
        with np.errstate(over="ignore"):
            v = A(grid)
        keep = np.isfinite(v)
        sec = np.diff(np.concatenate(([0.0], v[keep]))) / np.diff(
            np.concatenate(([0.0], grid[keep])))
        assert np.all(np.diff(sec) >= -1e-9 * np.maximum(sec[:-1], 1e-300)), name
        assert np.all(np.diff(v[keep]) >= 0), name


def test_lambda_scaling_inequality(catalog):
    ts = np.geomspace(1e-3, 50.0, 40)
    for name, A in catalog.items():
        for lam in (1.0, 2.5, 7.0):
            with np.errstate(over="ignore"):
                lhs = lam * A(ts)
                rhs = A(lam * ts)
            ok = (lhs <= rhs * (1 + 1e-12) + 1e-12) | np.isinf(rhs)
            assert ok.all(), name


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_half_square_self_conjugate():
    A = PowerYoung(2, 0.5)
    At = conjugate(A)
    ts = np.geomspace(1e-3, 1e3, 50)
    assert np.allclose(At(ts), A(ts), rtol=1e-13)


def test_cubic_conjugate_closed_form_matches_brute_force():
    # brute-force sup over a fine grid, frozen: sup {rt - r^3/3}
    A = PowerYoung(3, 1.0 / 3.0)
    At = conjugate(A)
    frozen = {0.5: 0.23570226039489084, 2.0: 1.8856180831268121,
              7.0: 12.346839451625396}
    for t, val in frozen.items():
        assert float(At(t)) == pytest.approx(val, rel=1e-9)
        assert float(At(t)) == pytest.approx((2.0 / 3.0) * t ** 1.5, rel=1e-12)


def test_indicator_conjugate_is_linear():
    At = conjugate(indicator(2.5))
    assert isinstance(At, PowerYoung) and At.p == 1.0
    assert float(At(3.0)) == pytest.approx(7.5)
    back = conjugate(At)
    assert isinstance(back, TabulatedYoung) and back.jump_point == 2.5


def test_involution_closed_form_pairs():
    grid = np.geomspace(1e-3, 1e6, 120)
    for A in (PowerYoung(2), PowerYoung(3, 0.2), PowerYoung(1.5), PowerYoung(1)):
        Att = conjugate(conjugate(A))
        with np.errstate(over="ignore", invalid="ignore"):
            va, vt = A(grid), Att(grid)
            both_inf = np.isinf(va) & np.isinf(vt)
            rel = np.where(both_inf, 0.0, np.abs(vt - va) / np.maximum(va, 1.0))
        assert np.nanmax(rel) < 1e-9


def test_involution_tabulated_round_trips(catalog):
    grid = young.LEGENDRE_GRID
    sel = (grid >= 1e-3) & (grid <= 1e6)
    for name in ("expL", "LlogL", "exp_log2", "expL_half", "L_loglog", "L2_log"):
        A = catalog[name]
        Att = conjugate(conjugate(A))
        with np.errstate(over="ignore", invalid="ignore"):
            va, vt = A(grid[sel]), Att(grid[sel])
            both_inf = np.isinf(va) & np.isinf(vt)
            rel = np.where(both_inf, 0.0, np.abs(vt - va) / np.maximum(va, 1.0))
        assert np.nanmax(rel) < 1e-3, name


def test_scaled_conjugation_follows_legendre_calculus():
    # brute-force values frozen for conj of (t log(1+t))/3
    A = ScaledYoung(3.0, PowerLogLogYoung(1.0, 1.0))
    At = conjugate(A)
    assert float(At(0.7)) == pytest.approx(0.7144001034776992, rel=1e-4)
    assert float(At(2.0)) == pytest.approx(49.13883768531875, rel=1e-4)


def test_scaled_remains_young():
    A = ScaledYoung(4.0, PowerYoung(2))
    assert A(0.0) == 0.0
    ts = np.geomspace(1e-2, 1e2, 30)
    sec = np.diff(np.concatenate(([0.0], A(ts)))) / np.diff(np.concatenate(([0.0], ts)))
    assert np.all(np.diff(sec) >= -1e-12)


# ---------------------------------------------------------------------------
# inverse and the sandwich
# ---------------------------------------------------------------------------

def test_power_inverse():
    assert float(PowerYoung(2).inverse(9.0)) == pytest.approx(3.0)


def test_inverse_contract(catalog):
    rs = np.geomspace(1e-2, 1e4, 25)
    for name, A in catalog.items():
        ts = A.inverse(rs)
        with np.errstate(over="ignore"):
            vals = A(ts)
        assert np.all(vals <= rs * (1 + 1e-8) + 1e-10), name


def test_inverse_right_continuity_at_plateau():
    A = indicator(2.0)
    assert float(A.inverse(0.0)) == pytest.approx(2.0)
    assert float(A.inverse(5.0)) == pytest.approx(2.0)


def test_sandwich_inequality(catalog):
    # r <= A^-1(r) conj(A)^-1(r) <= 2r on the whole grid, tested on the
    # numerically represented conjugate pair
    rs = np.geomspace(1e-3, 1e6, 120)
    for name, A in catalog.items():
        At = conjugate(A)
        Aeff = conjugate(At) if At.kind == "conjugate" else A
        prod = Aeff.inverse(rs) * At.inverse(rs)
        assert np.all(prod >= rs * (1 - 1e-9) - 1e-12), name
        assert np.all(prod <= 2 * rs * (1 + 1e-9) + 1e-12), name


def test_inverse_scaling_inequality(catalog):
    # A^-1(lam r) <= lam A^-1(r) for lam >= 1
    rs = np.geomspace(1e-2, 1e5, 20)
    lam = 5.0
    for name, A in catalog.items():
        lhs = A.inverse(lam * rs)
        rhs = lam * A.inverse(rs)
        assert np.all(lhs <= rhs * (1 + 1e-8)), name


# ---------------------------------------------------------------------------
# growth conditions
# ---------------------------------------------------------------------------

def test_delta2_power_global():
    v = check_delta2(PowerYoung(2), near_infinity=False)
    assert v.holds and v.witness_constant == pytest.approx(4.0, rel=1e-6)


def test_delta2_exp_fails(catalog):
    v = check_delta2(catalog["expL"])
    assert not v.holds
    assert v.failure_certificate


def test_delta2_linear_log_holds(catalog):
    assert check_delta2(catalog["LlogL"]).holds


def test_nabla2_linear_fails():
    v = check_nabla2(PowerYoung(1))
    assert not v.holds and v.failure_certificate


def test_nabla2_linear_log_fails(catalog):
    assert not check_nabla2(catalog["LlogL"]).holds


def test_nabla2_power2():
    v = check_nabla2(PowerYoung(2))
    assert v.holds and v.witness_constant == pytest.approx(4.0, rel=1e-6)


def test_nabla2_reports_the_largest_float_for_a_ratio_past_float_range(catalog):
    # at t >= 1, ln A(2t) - ln A(t) of this doubly exponential function
    # exceeds the log of the largest float everywhere
    v = check_nabla2(ScaledYoung(4.0, conjugate(catalog["L_loglog"]), 4.0))
    assert v.holds and v.witness_constant == math.exp(young._LN_MAX)


@pytest.mark.parametrize("name", ["expL", "exp_log2"])
def test_global_nabla2_fails_where_the_doubling_ratio_falls_to_2_at_0(catalog, name):
    # A'(0+) > 0, so A(2t) / A(t) -> 2 as t -> 0 and no C > 2 holds globally;
    # near infinity the ratio grows, and there it holds
    v = check_nabla2(catalog[name], near_infinity=False)
    assert not v.holds and v.witness_constant == 2.0 and v.failure_certificate
    assert max(v.failure_certificate) < 1e-5
    assert check_nabla2(catalog[name]).holds
    # the dual verdict: conj(expL) fails global Delta2 (conj(exp_log2) still
    # passes it, an artifact of its conjugate's curve near t = 0)
    if name == "expL":
        assert not check_delta2(conjugate(catalog[name]), near_infinity=False).holds


def test_global_nabla2_still_holds_for_a_power_above_1(catalog):
    # exp(1e6 t^2) - 1: its doubling ratio rises from 4 near 0, which is no fall to 2
    for A in (catalog["L2"], catalog["L3"], conjugate(catalog["L2"]),
              ScaledYoung(1, ExpPowerYoung(2), 1000)):
        v = check_nabla2(A, near_infinity=False)
        assert v.holds and v.threshold_t0 == 0.0 and v.witness_constant > 3.999


def test_indicator_growth_conventions(catalog):
    assert not check_delta2(catalog["Linf"]).holds
    assert check_nabla2(catalog["Linf"]).holds


def test_nabla2_holds_vacuously_where_every_doubling_ratio_leaves_float_range():
    # A(t) = exp(t^10000) - 1: from t0 = 1 on, ln A(2t) = (2t)^10000 is +inf
    # at every grid point, so no doubling ratio is finite
    v = check_nabla2(ExpPowerYoung(1e4))
    assert v.holds and v.threshold_t0 == 1.0
    assert v.diagnostics == {"reason": "vacuous"}


@pytest.mark.parametrize("alpha", [4.0, 6.0])
@pytest.mark.parametrize("near_infinity", [True, False])
def test_refinement_compares_the_dense_window_with_itself_refined(alpha, near_infinity):
    # A = t^2 log^alpha(1 + t) has A(2t) >= 4 A(t).  Its doubling ratio
    # creeps down towards 4 past the dense window (tau ~ 44), so the extreme
    # ratio of dense and coarse together lies on the coarse grid, which the
    # refined window does not cover; that gap is no drift
    A = PowerLogLogYoung(2.0, alpha)
    for v, c in ((check_nabla2(A, near_infinity), 4.0), (check_delta2(conjugate(A), near_infinity), 4.0)):
        assert v.holds and v.failure_certificate == [], v
        assert v.witness_constant == pytest.approx(c, rel=1e-3)
        assert v.diagnostics["refinement_drift"] < 1e-4
    # a jump in slope from 1 to 1000 at t = e^100: A(2t) <= 2000 A(t)
    v = check_delta2(TabulatedYoung([math.exp(100), 2 * math.exp(100)], [1.0, 1e3], 1e3), near_infinity)
    assert v.holds and v.witness_constant <= 2000.0, v


# (witness_constant, threshold_t0) of delta2 and nabla2 near infinity, for
# each catalog function and then for its conjugate, as first recorded
_GROWTH_NUMBERS = {
    "L1": (2.0000000000039826, 1.0, 2.0, 1000.0, math.inf, 0.0, 4.0, 0.0),
    "L2": (4.000000000015931, 1.0, 3.9999999999868274, 1.0,
           4.000000000015931, 1.0, 3.9999999999868274, 1.0),
    "L3": (8.000000000076897, 1.0, 7.999999999960481, 1.0,
           2.828427124759784, 1.0, 2.8284271247392043, 1.0),
    "L2_log": (6.337015132993218, 1.0, 4.000138580916359, 1.0,
               3.999861357358349, 1.0, 2.9737727455608836, 1.0),
    "LlogL": (3.168507566496783, 1.0, 2.0, 1000.0, math.inf, 1000.0, 5.669375461771132, 1.0),
    "LlogL2": (5.019720099473958, 1.0, 2.0, 1000.0, math.inf, 1000.0, 3.291726789137137, 1.0),
    "L_loglog": (2.81393524621121, 1.0, 2.0, 1000.0, math.inf, 1000.0, 62.56081087396641, 1.0),
    "L2_loglog": (5.627870492422111, 1.0, 4.000013991619582, 1.0,
                  3.9999860061620263, 1.0, 3.1249117599029455, 1.0),
    "LlogL_loglog": (4.457987559626348, 1.0, 2.0, 1000.0,
                     math.inf, 1000.0, 3.7818621614332346, 1.0),
    "expL": (math.inf, 1000.0, 3.7289382435535066, 1.0, 51245.18512097743, 1.0, 2.0, 1000.0),
    "expL2": (math.inf, 1000.0, 31.809096924303134, 1.0, 3.40738827594183, 1.0, 2.0, 1000.0),
    "expL_half": (math.inf, 1000.0, 3.831757834364524, 10.0,
                  3.195885717419473, 10.0, 2.0, 1000.0),
    "Linf": (math.inf, 0.0, 4.0, 0.0, 2.0000000000039826, 1.0, 2.0, 1000.0),
    "exp_log2": (math.inf, 1000.0, 2.9022842255288994, 1.0,
                 828290003544144.6, 1.0, 2.0, 1000.0),
    "exp_log2_reduced": (math.inf, 1000.0, 2.994238283336766, 1.0,
                         4.9960648870530004, 1.0, 2.0, 1000.0),
}


def test_delta2_nabla2_duality(catalog):
    assert catalog.keys() == _GROWTH_NUMBERS.keys()
    for name, A in catalog.items():
        (dA, nA), (dC, nC) = [(check_delta2(F), check_nabla2(F)) for F in (A, conjugate(A))]
        assert dA.holds == nC.holds, name
        assert nA.holds == dC.holds, name
        got = tuple(x for v in (dA, nA, dC, nC) for x in (v.witness_constant, v.threshold_t0))
        assert got == pytest.approx(_GROWTH_NUMBERS[name], rel=1e-12), name


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def test_dominates_power_pairs():
    assert dominates(PowerYoung(2), PowerYoung(1)).holds
    assert not dominates(PowerYoung(1), PowerYoung(2)).holds


def test_dominates_linear_log_over_linear(catalog):
    v = dominates(catalog["LlogL"], catalog["L1"], near_infinity=True)
    assert v.holds
    assert v.witness_constant <= 1.0 + 1e-12


def test_dominance_failure_certificate(catalog):
    v = dominates(catalog["L1"], catalog["L2"], near_infinity=True)
    assert not v.holds and len(v.failure_certificate) > 0


def test_global_dominance_with_scaling():
    A = PowerYoung(2)
    B = ScaledYoung(2.0, PowerYoung(2))
    v = dominates(A, B, near_infinity=False)
    assert v.holds and v.threshold_t0 == 0.0


# ---------------------------------------------------------------------------
# tabulated kind and the catalog JSON interface
# ---------------------------------------------------------------------------

def test_tabulated_swap_involution_exact():
    T = TabulatedYoung([1.0, 2.0, 5.0], [0.5, 2.0, 3.0], 4.0)
    back = T.conjugate().conjugate()
    ts = np.linspace(0.0, 8.0, 60)
    assert np.allclose(back(ts), T(ts), rtol=1e-13, atol=1e-13)


def test_tabulated_inverse_with_leading_zero_slopes():
    # the first segment whose cumulative value exceeds r has a positive slope,
    # so the zero-density stretch (0, 2] maps to its right end
    T = TabulatedYoung([1, 2, 3], [0, 0, 2], 4)
    assert T.inverse(np.array([0.0, 1.0, 6.0, np.inf])).tolist() == [2.0, 2.5, 4.0, math.inf]


@pytest.mark.parametrize("slopes, final, raised", [([1e-13], 0.0, 1e-13), ([1.0, 5.0], 5.0 - 1e-12, 5.0),
                                                    ([0.0, 2.0], 2.0, 2.0), ([1.0, 3.0], 3.0, 3.0)])
def test_tabulated_densities_never_fall_and_end_positive(slopes, final, raised):
    # a final slope within the tolerance below the last slope is raised to
    # it, as the slopes are raised to their running maximum
    T = TabulatedYoung(np.arange(1.0, len(slopes) + 1.0), slopes, final)
    assert T.final_slope == raised > 0.0
    assert np.all(np.diff(T._densities) >= 0.0)
    assert T.inverse(T.value(2.5)) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize("slopes, final", [([0.0], 0.0), ([np.nan], 1.0), ([1.0], np.nan),
                                           ([2.0], 1.0), ([np.inf], 1.0)])
def test_tabulated_rejects_zero_nan_and_falling_slopes(slopes, final):
    with pytest.raises(DomainError):
        TabulatedYoung([1.0], slopes, final)


def test_tabulated_value_of_nan_is_nan():
    T = TabulatedYoung([1.0, 2.0], [1.0, 3.0], 5.0)
    assert np.isnan(T.value(np.nan)) and np.isnan(indicator(1.0).value(np.nan))


def test_tabulated_log_readers_of_nan_are_nan():
    # searchsorted puts NaN past the last knot, where the slope is finite or
    # infinite; the other points keep their values
    tau = np.array([np.nan, -np.inf, -0.5, np.inf])
    for T in (TabulatedYoung([1.0, 2.0], [1.0, 3.0], 5.0), indicator(1.0)):
        for read in (T.log_value_logt, T.log_slope_logt, T.log_excess_logt):
            assert np.isnan(read(np.nan)), (T, read)
            got = read(tau)
            assert np.isnan(got[0]) and got[2:].tolist() == [read(-0.5), read(np.inf)], (T, read)
    assert indicator(1.0).log_value_logt(tau)[1:].tolist() == [-math.inf, -math.inf, math.inf]


@pytest.mark.parametrize("A", [PowerLogLogYoung(1.0, 0.0), PowerLogLogYoung(2.0, 0.0),
                               PowerYoung(1.0), PowerYoung(2.0, 3.0)], ids=repr)
def test_power_readers_without_log_factors_give_nan_at_nan(A):
    # the slope of t (0.0) and the excess of t^p (ln(1 - 1/p), -inf for
    # p = 1) do not depend on tau; at NaN they are NaN, and elsewhere they
    # keep their values
    tau = np.array([np.nan, -np.inf, -3.0, 0.0, 40.0, np.inf])
    ln_excess = math.log1p(-1.0 / A.p) if A.p > 1.0 else -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (A.log_value_logt, A.log_slope_logt, A.log_excess_logt):
            assert np.isnan(read(np.nan)), read
            got = read(tau)
            assert np.isnan(got[0]) and got[1:].tolist() == [float(read(t)) for t in tau[1:]], read
        assert A.log_excess_logt(tau)[1:].tolist() == [ln_excess] * 5
        if A.p == 1.0:
            assert A.log_slope_logt(tau)[1:].tolist() == [math.log(getattr(A, "coeff", 1.0))] * 5


def test_linear_power_slope_is_its_coefficient_everywhere():
    A = PowerYoung(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = A.log_slope_logt(np.array([-math.inf, -3.0, 0.0, 40.0, math.inf]))
        assert got.tolist() == [math.log(2.0)] * 5
        assert A.log_slope_logt(math.inf) == math.log(2.0) and np.isnan(A.log_slope_logt(np.nan))


def test_tabulated_and_scaled_value_and_inverse_overflow_to_inf_silently():
    # a steep tail passes the float range; a flat piece reaches r only beyond
    # it; a scale factor carries a value or an argument past it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert TabulatedYoung([1.0], [1.0], 1e300).value(1e10) == math.inf
        assert TabulatedYoung([1.0], [1e-310], 1e-310).inverse(1.0) == math.inf
        assert ScaledYoung(1e-300, PowerYoung(2.0)).value(1e10) == math.inf
        assert ScaledYoung(1e300, PowerYoung(2.0)).inverse(1e10) == pytest.approx(1e155, rel=1e-13)
        assert ScaledYoung(1.0, PowerYoung(2.0), 1e-300).inverse(1e300) == math.inf


def test_power_and_scaled_values_and_roots_in_float_range_are_finite(catalog):
    # coeff t^p, base(arg_scale t) and r m overflow where A or its root is a
    # float; elsewhere the plain forms keep their bits
    t_max = 2.6076809620810593e154    # conj(L2) = t^2 / 4 reaches the largest float here
    C = conjugate(catalog["L2"])
    S = ScaledYoung(1e300, PowerYoung(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert C.value(t_max) == pytest.approx(1.7e308, rel=1e-15)
        assert C.value(np.array([3.0, t_max, 1e155, np.inf])).tolist() == [2.25, C.value(t_max), math.inf, math.inf]
        assert C.inverse(C.value(t_max)) == pytest.approx(t_max, rel=1e-15)
        assert S.value(1e155) == pytest.approx(1e10, rel=1e-13)
        assert S.value(np.array([3.0, 1e155, 1e305, np.inf]))[[0, 2, 3]].tolist() == [9e-300, math.inf, math.inf]
        assert S.inverse(np.array([1e10, 1.0, np.inf]))[1:].tolist() == [1e150, math.inf]
        t = S.inverse(1e10)
        assert S.value(t) <= 1e10 < S.value(np.nextafter(t, math.inf))
    assert type(C.value(t_max)) is type(C.value(3.0)) is type(S.value(3.0)) is np.float64


def test_indicator_is_the_one_flat_piece_table_of_the_json_kind():
    I = young.from_json('{"kind": "indicator", "params": {"t1": 2.5}}')
    assert young.to_json(I) == young.to_json(TabulatedYoung([2.5], [0.0], math.inf))
    assert young.to_json(young.from_json('{"kind": "indicator"}')) == young.to_json(indicator(1.0))
    assert type(I.jump_point) is float and I.jump_point == 2.5
    assert check_delta2(I).failure_certificate == [1.875]


def test_tabulated_jump_starts_at_the_first_infinite_slope():
    # A = t on (0, 1] and +inf beyond, so A*(s) = max(s - 1, 0)
    T = young.from_json('{"kind": "tabulated", "params": {"breakpoints": [1, 2], '
                        '"slopes": [1, Infinity], "final_slope": Infinity}}')
    assert T.jump_point == 1.0
    assert T.conjugate().params() == {"breakpoints": [1.0], "slopes": [0.0], "final_slope": 1.0}
    flat = TabulatedYoung([1.0, 2.0], [0.0, np.inf], np.inf)
    assert young.to_json(flat.conjugate()) == young.to_json(PowerYoung(1.0, 1.0))


def test_json_round_trip(catalog):
    for name, A in catalog.items():
        B = young.from_json(young.to_json(A))
        ts = np.geomspace(1e-2, 1e2, 17)
        with np.errstate(over="ignore"):
            assert np.allclose(B(ts), A(ts), rtol=1e-12), name


def test_resolve_inline_json():
    A = young.resolve('{"kind": "power", "params": {"p": 2}}')
    assert float(A(3.0)) == 9.0


def test_resolve_names_the_catalog_for_an_unknown_name(catalog):
    with pytest.raises(DomainError) as err:
        young.resolve("nosuch", catalog)
    assert str(err.value) == f"unknown Young function 'nosuch'; catalog entries: {', '.join(sorted(catalog))}"


def test_conjugate_kind_reports_source():
    A = ConjugateYoung(PowerLogLogYoung(1.0, 1.0))
    assert A.kind == "conjugate"
    assert A.finite_valued


@pytest.mark.parametrize("spec, p, alpha", [
    ({"kind": "linear_log", "params": {}}, 1.0, 1.0),
    ({"kind": "power_log", "params": {"p": 2, "alpha": 1}}, 2.0, 1.0),
    ({"kind": "power_log", "params": {"p": 1, "alpha": 2}}, 1.0, 2.0),
])
def test_power_log_kinds_are_power_log_log_with_gamma_zero(spec, p, alpha):
    A = young.from_json(spec)
    assert isinstance(A, PowerLogLogYoung) and A.gamma == 0.0
    # the closed forms of the retired power_log kind, bit for bit
    t = np.concatenate(([0.0], np.geomspace(1e-12, 1e300, 4001)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.where(t == 0.0, 0.0, np.power(t, p) * np.power(np.log1p(t), alpha))
    assert np.array_equal(A.value(t), want)
    tau = np.concatenate((young._DENSE_GRID, young._MID_GRID, young._TAIL_GRID))
    L = np.where(tau > 35.0, tau, np.log1p(np.exp(np.minimum(tau, 700.0))))
    assert np.array_equal(A.log_value_logt(tau), p * tau + alpha * np.log(L))


# ---------------------------------------------------------------------------
# the sweep grids and the per-object curve store
# ---------------------------------------------------------------------------

def test_sweep_grids_are_pinned():
    ln2 = math.log(2.0)
    hi = 64.0 * ln2
    want = {
        "dense": np.arange(-32.0, hi + 12.0 * ln2, ln2 / 64.0),
        "refined": np.arange(-32.0, hi + 12.0 * ln2, ln2 / 64.0 / 2.0),
        "coarse": np.arange(hi, 2.0e4 + 12.0 * ln2, ln2),
        "mid": np.arange(hi - 12 * ln2, 2.0e4 + 12 * ln2, ln2 / 8.0),
        "tail": np.arange(2.0e4, 6.0e5 + 12 * ln2, 4.0 * ln2),
    }
    assert young._GRIDS.keys() == want.keys()
    for name, grid in want.items():
        assert np.array_equal(young._GRIDS[name], grid), name
    assert young._DENSE_GRID[young._ND - 1] <= hi < young._DENSE_GRID[young._ND]
    assert young._MID_GRID[young._MID_JOIN] == pytest.approx(hi, abs=1e-9)


def test_growth_checks_read_only_the_growth_grids(monkeypatch):
    C = conjugate(load_catalog()["LlogL"])
    seen = []
    evaluate = young.ConjugateYoung.log_value_logt

    def spy(self, tau):
        seen.append(np.asarray(tau))
        return evaluate(self, tau)

    monkeypatch.setattr(young.ConjugateYoung, "log_value_logt", spy)
    check_delta2(C)
    check_nabla2(C)
    growth = (young._DENSE_GRID, young._GRIDS["coarse"], young._GRIDS["refined"])
    assert seen
    assert sum(tau.size for tau in seen) <= sum(g.size for g in growth)
    for tau in seen:
        assert any(np.array_equal(tau, g) for g in growth)


def test_conjugate_is_built_once_per_object():
    A = load_catalog()["LlogL"]
    assert conjugate(A) is conjugate(A)


# ---------------------------------------------------------------------------
# oracles: the log-domain conjugate against closed forms, JSON round trips
# ---------------------------------------------------------------------------

# every 8th tau > 0 of the balance sweep, out to 6e5
_ORACLE_TAU = young._SWEEP_TAU[young._SWEEP_TAU > 0][::8]


def test_conjugate_log_value_of_expL_matches_closed_form(catalog):
    # A*(s) = s ln s - s + 1, so ln A*(e^tau) = tau + ln(tau - 1 + e^-tau);
    # the differences are within one ulp of ln A* (2.9e-11 at most), and
    # within 4e-13 at tau ~ 0, where the closed form cancels
    tau = _ORACLE_TAU
    got = ConjugateYoung(catalog["expL"]).log_value_logt(tau)
    want = tau + np.log(tau - 1.0 + np.exp(-tau))
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)) + 1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_conjugate_log_value_of_powers_matches_closed_form(p):
    # every difference is at most one ulp of ln A*, which reaches 1.8e6
    # (an ulp of 2.3e-10) for t^1.5
    A = PowerYoung(p)
    got = ConjugateYoung(A).log_value_logt(_ORACLE_TAU)
    want = A.conjugate().log_value_logt(_ORACLE_TAU)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)) + 1e-12)


def _decimal_conjugate_log(p, alpha, gamma, tau):
    """ln A*(e^tau) of A(t) = t^p L^alpha M^gamma, L = ln(1 + t), M = ln(1 + L),
    in 60-digit decimal arithmetic: bisect A'(t) = e^tau in sigma = ln t,
    then ln(t e^tau - A(t))."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, 10 ** 9, -10 ** 9
        D = decimal.Decimal
        s = D(tau).exp()

        def parts(sigma):
            t = sigma.exp()
            L = (1 + t).ln()
            M = (1 + L).ln()
            q = t / (1 + t)
            A = t ** p * L ** alpha * M ** gamma
            return t, A, A / t * (p + alpha * q / L + gamma * q / ((1 + L) * M))

        lo, hi = D(-60), D(10) ** 7
        while hi - lo > D(10) ** -30 * max(1, abs(lo)):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if parts(mid)[2] < s else (lo, mid)
        t, A, _ = parts(lo)
        return float((t * s - A).ln())


@pytest.mark.parametrize("name, pag, tau", [
    ("L_loglog", (1, 0, 1), 0.5), ("L_loglog", (1, 0, 1), 1.5),
    ("L_loglog", (1, 0, 1), 2.2), ("L_loglog", (1, 0, 1), 2.5),
    ("L2_log", (2, 1, 0), 0.5), ("L2_log", (2, 1, 0), 40.0)])
def test_conjugate_log_value_matches_decimal_oracle(catalog, name, pag, tau):
    # for L_loglog (p = 1) at tau = 2.2 and 2.5 the root lies near
    # sigma = 8e3 and 2e5, where A* is a small fraction of r e^tau; the
    # differences are at most 9 ulp
    got = ConjugateYoung(catalog[name]).log_value_logt(tau)
    want = _decimal_conjugate_log(*pag, tau)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("T", [TabulatedYoung([1.0, 2.0, 5.0], [0.5, 2.0, 3.0], 4.0),
                               TabulatedYoung([1.0, 2.0], [1.0, 3.0], math.inf)])
def test_numerical_conjugate_of_a_table_is_the_exact_conjugate(T):
    # conjugate(T) is the exact table T.conjugate(); a ConjugateYoung of a
    # table reads that table's own log readers instead of the slope solve
    tau = np.concatenate((np.linspace(-30.0, 700.0, 7301), np.log([0.5, 1.0, 2.0, 3.0, 4.0])))
    C, exact = ConjugateYoung(T), T.conjugate()
    want = exact.log_value_logt(tau)
    # A* = 0 below the first slope, and +inf past a finite final slope
    assert (want == -np.inf).any()
    assert (want == np.inf).any() == math.isfinite(T.final_slope)
    limits = np.array([math.nan, -math.inf, math.inf])
    for reader in ("log_value_logt", "log_slope_logt"):
        assert np.array_equal(getattr(C, reader)(tau), getattr(exact, reader)(tau), equal_nan=True)
        # NaN and +-inf keep themselves, as for a smooth source
        assert np.array_equal(getattr(C, reader)(limits), limits, equal_nan=True)


def test_nested_conjugate_returns_the_source(catalog):
    # A** = A: the outer solve reads the inner conjugate's slope, its root
    A = catalog["L2_log"]
    N = ConjugateYoung(ConjugateYoung(A))
    tau = young._DENSE_GRID[(young._DENSE_GRID > -15.0)][::500]
    for got, want in ((N.log_value_logt(tau), A.log_value_logt(tau)),
                      (N.log_slope_logt(tau), A.log_slope_logt(tau))):
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    assert np.all(np.abs(N.log_excess_logt(tau) - A.log_excess_logt(tau)) <= 1e-12)


def test_slope_and_excess_of_every_kind_match_central_differences(catalog):
    # ln A'(e^sigma) against the secant over sigma +- 1e-6, and the excess
    # fraction against 1 - A(t)/(t A'(t)), away from any kink
    kinds = [catalog[n] for n in ("L2", "L2_log", "LlogL", "L2_loglog", "expL", "expL_half",
                                  "exp_log2", "exp_log2_reduced")] + [
        TabulatedYoung([1.0, 2.0], [1.0, 3.0], 5.0), ScaledYoung(2.0, PowerYoung(2.0), 3.0),
        ConjugateYoung(catalog["LlogL"])]
    assert {A.kind for A in kinds} | {"indicator"} == set(young._KINDS)
    sigma, h = np.array([-0.4, 1.3, 2.7, 4.2]), 1e-6
    for A in kinds:
        v, up, down = (A.log_value_logt(sigma + d) for d in (0.0, h, -h))
        secant = v + np.log((np.exp(up - v) - np.exp(down - v)) / (np.exp(sigma + h) - np.exp(sigma - h)))
        slope = A.log_slope_logt(sigma)
        assert np.allclose(slope, secant, rtol=0, atol=1e-8), A
        assert np.allclose(np.exp(A.log_excess_logt(sigma)), -np.expm1(v - sigma - slope),
                           rtol=1e-9, atol=1e-12), A
    I = indicator(2.0)
    assert I.log_slope_logt(np.log([1.0, 3.0])).tolist() == [-math.inf, math.inf]
    assert I.log_excess_logt(np.log([1.0, 3.0])).tolist() == [-math.inf, 0.0]


def test_exp_log_power_beyond_float_e_to_the_a_has_agreeing_evaluators_and_no_warnings():
    # ln A(e^tau) keeps the -e^a term where a G^beta > 700: at tau = -10
    # it is ln value(e^-10) = 701.26, not a G^beta = 705.02
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = ExpLogPowerYoung(705.0, 2.0)
        tau = np.linspace(-20.0, 6.5, 1061)
        got = A.log_value_logt(tau)
        value = A.value(np.exp(tau))
        A.log_slope_logt(tau)
        A.log_excess_logt(tau)
    normal = (value >= np.finfo(float).tiny) & np.isfinite(value)
    assert normal.sum() > 500
    assert np.all(np.abs(got[normal] - np.log(value[normal]))
                  <= 1e-12 * np.maximum(1.0, np.abs(got[normal])))
    assert A.log_value_logt(-10.0) == pytest.approx(701.2631427895207, rel=1e-12)


def test_conjugate_whose_secants_all_overflow_names_the_overflow():
    # A(1e-6) is about 7.8e302 for a = 705, so every secant slope of the
    # tabulation is +inf; this used to surface as an error about a power kind.
    # The table is built on the first read of a value, not with the conjugate
    C = conjugate(ExpLogPowerYoung(705.0, 2.0))
    with pytest.raises(DomainError, match="secant slopes .* overflow"):
        C.value(1.0)


# the kinds whose inverse is the generic bisection
_BISECTED = (PowerLogLogYoung, ExpPowerYoung, ExpLogPowerYoung)


def _inverse_one_at_a_time(A, r):
    # sup { t : A(t) <= r } by the scalar rule the array inverse follows
    # element by element: the first of 1, 2, 4, ..., 2^1023, the largest
    # float where A passes r, then halving from the end before it (or 0)
    # until the midpoint rounds to an end
    lo = 0.0
    for hi in [2.0 ** k for k in range(1024)] + [np.finfo(float).max]:
        if A.value(np.asarray(hi)) > r:
            break
        lo = hi
    else:
        return math.inf
    while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
        if A.value(np.asarray(mid)) <= r:
            lo = mid
        else:
            hi = mid
    return lo


def test_bisected_inverse_of_an_array_matches_one_element_at_a_time(catalog):
    rng = np.random.default_rng(12)
    r = np.concatenate([10.0 ** rng.uniform(-12.0, 15.0, 40), [0.0, 1.0, 5e-324, 1e300, math.inf]])
    for name, A in catalog.items():
        if not isinstance(A, _BISECTED):
            continue
        got = A.inverse(r.reshape(5, 9))
        assert got.shape == (5, 9)
        want = [_inverse_one_at_a_time(A, x) for x in r]
        assert got.ravel().tolist() == want, name
        assert A.inverse(2.5) == _inverse_one_at_a_time(A, 2.5) and type(A.inverse(2.5)) is float


@pytest.mark.parametrize("A", [A for A in load_catalog().values() if isinstance(A, _BISECTED)]
                         + [PowerLogLogYoung(1, 0, 0), PowerLogLogYoung(1, 0.01)], ids=repr)
def test_bisected_inverse_is_the_last_float_at_or_below_r_at_extreme_scales(A):
    # roots far below the bracket [0, 1] and above 2^1023 are exact too
    r = np.array([1e-300, 1e-80, 1e-60, 1e-20, 1.0, 1e300, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = A.inverse(r)
        assert np.all(A.value(t) <= r) and np.all(r < A.value(np.nextafter(t, math.inf))), t


def test_power_inverse_past_the_coefficient_overflow_is_the_float_root(catalog):
    # conj(L2) = t^2 / 4: 1.7e308 / 0.25 overflows, the root 2.6e154 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("L2", "L3"):
            C = conjugate(catalog[name])
            root = math.exp((math.log(1.7e308) - math.log(C.coeff)) / C.p)
            assert C.inverse(1.7e308) == pytest.approx(root, rel=1e-13), name


@pytest.mark.parametrize("name", list(load_catalog()))
def test_closed_forms_give_the_limits_at_infinite_arguments(catalog, name):
    # A(inf) = inf, and ln A(e^tau) is -inf at tau = -inf and +inf at +inf
    A = catalog[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert A.value(np.asarray(math.inf)) == math.inf
        assert A.log_value_logt(np.array([-math.inf, math.inf])).tolist() == [-math.inf, math.inf]


@pytest.mark.parametrize("name", [n for n, A in load_catalog().items() if A.kind == "power_log_log"])
def test_power_log_log_readers_give_their_limits_at_zero_and_at_infinite_tau(catalog, name):
    # as t -> 0, with s = p + alpha + gamma: ln A -> s tau, ln A' -> ln s +
    # (s - 1) tau and the excess -> ln((s - 1)/s), which the readers give
    # where t = e^tau is below rounding against 1; as t -> inf, ln A and ln A'
    # -> inf and the excess -> ln((p - 1)/p)
    A = catalog[name]
    s = A.p + A.alpha + A.gamma
    tau = np.array([-720.0, -740.0, -800.0, -1e5, -math.inf, math.inf, math.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [read(tau) for read in (A.log_value_logt, A.log_slope_logt, A.log_excess_logt)]
        edge = [read(np.array([-700.0, np.nextafter(-700.0, -math.inf)]))
                for read in (A.log_value_logt, A.log_slope_logt, A.log_excess_logt)]
    at_inf = math.log((A.p - 1.0) / A.p) if A.p > 1.0 else -math.inf
    want = [np.append(s * tau[:5], [math.inf, math.nan]),
            np.append(math.log(s) + (s - 1.0) * tau[:5], [math.inf, math.nan]),
            np.append(np.full(5, math.log((s - 1.0) / s)), [at_inf, math.nan])]
    for g, w in zip(got, want):
        assert g[4:].tolist() == pytest.approx(w[4:].tolist(), nan_ok=True)
        assert g[:4] == pytest.approx(w[:4], rel=1e-15)
    # the readers meet their limits where they switch to them
    for pair in edge:
        assert pair[1] == pytest.approx(pair[0], rel=1e-12)


# ---------------------------------------------------------------------------
# the numerical conjugate evaluates each point on its own
# ---------------------------------------------------------------------------

def test_conjugate_point_does_not_depend_on_its_batch(catalog):
    # the supremand at tau = 15 turns beyond sigma = 1e6; it used to be
    # reported as +inf unless a smaller tau in the same call kept the
    # bracket search going
    C = conjugate(catalog["LlogL"])
    alone = C.log_value_logt([15.0])
    assert np.isfinite(alone[0])
    assert alone[0] == C.log_value_logt([0.0, 15.0])[1]
    # the mid curve is finite exactly where the dense curve is, on the
    # stretch of tau the two grids share
    C = conjugate(catalog["LlogL2"])
    dense, mid = young._log_curve(C, "dense"), young._log_curve(C, "mid")
    shared = young._MID_GRID <= young._DENSE_GRID[-1]
    below = np.searchsorted(young._DENSE_GRID, young._MID_GRID[shared], "right") - 1
    assert np.isinf(mid[shared]).any()
    assert np.array_equal(np.isinf(mid[shared]), np.isinf(dense[below]))


_NUMERICAL = [n for n, A in load_catalog().items() if isinstance(conjugate(A), ConjugateYoung)]


@pytest.mark.parametrize("name", _NUMERICAL)
@pytest.mark.parametrize("tau, want", [
    (math.nan, (math.nan, math.nan, math.nan)),
    (math.inf, (math.inf, math.inf, 0.0)),
    (-math.inf, (-math.inf, -math.inf, -math.inf)),
])
def test_conjugate_readers_give_the_limits_at_non_finite_tau(catalog, name, tau, want):
    # (ln slope, ln value, ln excess); a finite point beside it keeps its value
    C = conjugate(catalog[name])
    readers = (C.log_slope_logt, C.log_value_logt, C.log_excess_logt)
    got = [float(read(tau)) for read in readers]
    assert np.array_equal(got, want, equal_nan=True)
    for read, w in zip(readers, want):
        pair = read(np.array([tau, 1.5]))
        assert np.array_equal(pair, [w, float(read(1.5))], equal_nan=True)


def _solved(grid: str) -> np.ndarray:
    """The points of the named grid that the conjugate of a closed-form
    source solves on their own: all but those of the whole strides of the
    mid and tail grids from tau = ``_FILL_FROM`` on that follow a node
    (which are filled, unless their row is solved too)."""
    tau = young._GRIDS[grid]
    solved = np.ones(tau.size, dtype=bool)
    if grid in ("mid", "tail"):
        start = int(np.searchsorted(tau, young._FILL_FROM))
        last = start + young._FILL_STRIDE * _rows(grid)
        solved[start:last] = False
        solved[start:last:young._FILL_STRIDE] = True
    return solved


def _rows(grid: str) -> int:
    """The whole strides of a filled curve on the named grid."""
    tau = young._GRIDS[grid]
    return (tau.size - 1 - int(np.searchsorted(tau, young._FILL_FROM))) // young._FILL_STRIDE


def _assert_filled_near(got, want, where):
    """The same NaN, +inf and -inf sets, and the finite values within
    1e-13 max(1, |want|)."""
    for same_set in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(same_set(got), same_set(want)), where
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.maximum(1.0, np.abs(want[finite]))), where


@pytest.mark.parametrize("name", _NUMERICAL)
def test_conjugate_curves_match_per_point_calls(catalog, name):
    # blocks leave every value that is solved as a call on its own gives; the
    # far mid and tail points between two nodes are filled, within 1e-13
    # max(1, |v|) of it
    C = conjugate(catalog[name])
    rng = np.random.default_rng(5)
    for grid, tau in young._GRIDS.items():
        curve = young._log_curve(C, grid)
        idx = rng.choice(tau.size, 64, replace=False)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            alone = np.array([C.log_value_logt(tau[i]) for i in idx])
        solved = _solved(grid)[idx]
        assert np.array_equal(curve[idx][solved], alone[solved], equal_nan=True), grid
        _assert_filled_near(curve[idx], alone, grid)


@pytest.mark.parametrize("name", _NUMERICAL)
@pytest.mark.parametrize("grid", ["mid", "tail"])
def test_filled_far_curves_keep_the_nodes_and_the_infinities_of_the_per_point_solve(name, grid):
    # the oracle is the conjugate's log reader on the whole grid, each point
    # solved on its own.  Filled points were within 2.7e-14 max(1, |ln A*|)
    # of it when the fill was built
    C = ConjugateYoung(load_catalog()[name])
    tau = young._GRIDS[grid]
    curve = young._log_curve(C, grid)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        want = C.log_value_logt(tau)
    solved = _solved(grid)
    assert curve[solved].tobytes() == want[solved].tobytes()
    _assert_filled_near(curve, want, (name, grid))


def test_a_conjugate_of_a_scaled_table_is_solved_at_every_point():
    # a table is no closed form: its far curves stay the per-point solve
    C = young.from_json({"kind": "conjugate", "params": {"of": {"kind": "scaled", "params": {
        "m": 2.0, "arg_scale": 3.0, "of": {"kind": "tabulated", "params": {
            "breakpoints": [1.0, 2.0], "slopes": [1.0, 3.0], "final_slope": math.inf}}}}}})
    for grid in ("mid", "tail"):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            want = C.log_value_logt(young._GRIDS[grid])
        assert np.isfinite(want).all()
        assert young._log_curve(C, grid).tobytes() == want.tobytes(), grid


def _bracket_loop_and_golden_search(source, tau):
    """ln A*(e^tau) as the numerical conjugate once computed it: up to 24
    bracket passes hi <- 2.2 hi from 60 while the supremand still rises
    (+inf if it rises at the last), then a 48-step golden-section search on
    [-45, hi]: the reference for the +inf and -inf sets."""

    def theta(sigma, tau):
        a = sigma + tau
        v = source.log_value_logt(sigma)
        with np.errstate(divide="ignore"):
            return a + np.log1p(-np.exp(np.fmin(v - a, 0.0)))

    hi = np.full_like(tau, 60.0)
    rising = np.arange(tau.size)
    for _ in range(24):
        h, t = hi[rising], tau[rising]
        th1 = theta(h, t)
        rising = rising[(th1 >= theta(h - 0.25, t)) & (th1 > -np.inf)]
        if not rising.size:
            break
        hi[rising] *= 2.2
    out = np.full_like(tau, np.inf)
    done = np.ones(tau.size, dtype=bool)
    done[rising] = False
    t = tau[done]
    out[done] = maximize_unimodal(lambda sigma: theta(sigma, t), np.full_like(t, -45.0), hi[done])
    return out


@pytest.mark.parametrize("name", _NUMERICAL)
def test_conjugate_infinite_sets_match_the_bracket_loop(catalog, name):
    # the rung ladder finds the loop's first falling rung; sampled at 200
    # points of each grid and at every point next to a change of the +inf
    # or -inf set.  From tau = -6 on the finite values moved by at most
    # 7.4e-6 relative (the p = 1 kinds near the top rung, where the golden
    # search was off); below, those of exp_log2_reduced moved by up to 31%,
    # where the old supremand read its ln A(e^sigma) with G - 1 cancelled
    C = conjugate(catalog[name])
    rng = np.random.default_rng(11)
    for grid, tau in young._GRIDS.items():
        curve = young._log_curve(C, grid)
        edges = np.flatnonzero((np.diff(np.isposinf(curve)) != 0) | (np.diff(np.isneginf(curve)) != 0))
        idx = np.unique(np.concatenate((rng.choice(tau.size, 200, replace=False), edges, edges + 1)))
        want = _bracket_loop_and_golden_search(C.source, tau[idx])
        assert np.array_equal(np.isposinf(curve[idx]), np.isposinf(want)), grid
        assert np.array_equal(np.isneginf(curve[idx]), np.isneginf(want)), grid
        finite = np.isfinite(want) & (tau[idx] >= -6.0)
        assert np.all(np.abs(curve[idx][finite] - want[finite])
                      <= 7.4e-6 * np.maximum(1.0, np.abs(want[finite]))), grid


def test_balance_sweep_takes_at_most_6_slope_points_per_finite_point():
    # the sweep grids of every catalog conjugate that is numerical, each
    # source counting the points of its own slope calls (4.81 per finite
    # point when the bound was set) and the calls themselves: one per
    # Illinois pass of a block, and one ladder read per source.  A block runs
    # as many passes as its slowest point; 5,042 calls when a secant landing
    # on an end took the midpoint, 2,768 since it steps inside that end, and
    # 575 (2,328,874 points, 0.74 per finite point) since the far mid and
    # tail curves are solved at every 8th point only
    catalog = load_catalog()
    slope_calls = slope_points = finite_points = 0
    for name in _NUMERICAL:
        A = catalog[name]
        evaluate = A.log_slope_logt

        def counting(tau, evaluate=evaluate):
            nonlocal slope_calls, slope_points
            slope_calls += 1
            slope_points += np.size(tau)
            return evaluate(tau)

        A.log_slope_logt = counting
        finite_points += sum(int(np.sum(~np.isposinf(v))) for v in young._sweep_curves(conjugate(A)))
    assert slope_points <= 6 * finite_points
    assert slope_calls <= 3_000


def test_bracket_ladder_holds_the_rungs_and_its_residuals_are_sorted(catalog):
    ends = young._ENDS
    assert ends[0] == young._SIGMA_LO and np.all(np.diff(ends) > 0)
    assert np.isin(young._RUNGS, ends).all() and ends[-1] == young._RUNGS[-1]
    # searchsorted reads each bracket off the end residuals (+inf where an
    # exponential kind's slope overflows)
    for name in _NUMERICAL:
        residuals = np.arcsinh(catalog[name].log_slope_logt(ends))
        assert np.all(residuals[1:] >= residuals[:-1]), name


def test_conjugate_runs_the_golden_search_only_where_the_foot_is_finite(monkeypatch):
    # every grid of every numerical catalog conjugate; the golden search runs
    # only on its non-empty bracket arrays, and the rest of a block evaluates
    # the source once, at the foot: +inf is read off the ladder's end slopes
    golden = []
    search = young.maximize_unimodal

    def counting_search(f, lo, hi):
        golden.append((name, grid, np.size(lo)))
        return search(f, lo, hi)

    monkeypatch.setattr(young, "maximize_unimodal", counting_search)
    catalog = load_catalog()
    source_points = {}
    for name in _NUMERICAL:
        A = catalog[name]
        evaluate = A.log_value_logt

        def counting(tau, evaluate=evaluate, name=name):
            source_points[name] += np.size(tau)
            return evaluate(tau)

        source_points[name] = 0
        A.log_value_logt = counting
        for grid in young._GRIDS:
            young._log_curve(conjugate(A), grid)
    assert all(size for _, _, size in golden), golden
    assert golden == [("exp_log2", "dense", 3019), ("exp_log2", "refined", 6038)]
    # exactly 1 per block of the points solved, at the foot.  LlogL's
    # conjugate is +inf on the mid and tail grids from tau = _FILL_FROM on,
    # so there only the nodes are solved, a block of rows at a time, and the
    # points after the last whole stride, in one more call; no row between
    blocks = 0
    for grid, tau in young._GRIDS.items():
        solved = _solved(grid)
        below = int(np.searchsorted(tau, young._FILL_FROM)) if not solved.all() else tau.size
        blocks += -(-below // young._BLOCK) + (-(-_rows(grid) // young._BLOCK) + 1 if below < tau.size else 0)
        assert solved.all() or np.isposinf(young._log_curve(conjugate(catalog["LlogL"]), grid)[below:]).all()
    assert source_points["LlogL"] == blocks


def test_conjugate_sweep_curves_read_the_ladder_once():
    # the slopes at the ladder's ends are a fixed function of the source, so
    # the three sweep curves (56 blocks between them) read them once
    source = load_catalog()["LlogL"]
    slope, ladder_reads = source.log_slope_logt, []

    def counting(tau):
        if np.array_equal(tau, young._ENDS):
            ladder_reads.append(np.size(tau))
        return slope(tau)

    source.log_slope_logt = counting
    C = ConjugateYoung(source)
    for grid in ("dense", "mid", "tail"):
        young._log_curve(C, grid)
    assert ladder_reads == [young._ENDS.size]


def _traced_peak(evaluate, tau):
    """(evaluate(tau), the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            out = evaluate(tau)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", _NUMERICAL)
def test_conjugate_curve_holds_its_output_and_one_block(name):
    # each block is solved into the output in place, so beyond the output a
    # whole curve peaks where one block's call does; so does a filled curve,
    # whose nodes are solved a block at a time and filled in slices of about
    # a block
    C = ConjugateYoung(load_catalog()[name])
    for grid in ("mid", "tail"):
        tau = young._GRIDS[grid]
        _, block_peak = _traced_peak(C.log_value_logt, tau[:young._BLOCK])
        curve, peak = _traced_peak(C.log_value_logt, tau)
        assert tau.size > 16 * young._BLOCK
        assert peak - curve.nbytes <= 1.1 * block_peak, (grid, peak - curve.nbytes, block_peak)
        curve, peak = _traced_peak(lambda g: young._log_curve(C, g), grid)
        assert peak - curve.nbytes <= 1.1 * block_peak, (grid, "filled", peak - curve.nbytes, block_peak)


def _rise_test_pre_pass(source, tau):
    """(ln r, ln A*(e^tau)) with +inf decided as the conjugate once did,
    before the slope solve: where the supremand still rises from sigma - 0.25
    to sigma at rung 0 and at the top rung.  The slope solve runs on the
    rest: the reference for reading +inf off the ladder's end slopes."""

    def rises(h, t):
        th = log_sub_exp(h + t, source.log_value_logt(h))
        return (th >= log_sub_exp(h - 0.25 + t, source.log_value_logt(h - 0.25))) & (th > -np.inf)

    up = np.flatnonzero(rises(young._RUNGS[:1], tau))
    up = up[rises(young._RUNGS[-1:], tau[up])]
    rest = np.ones(tau.size, dtype=bool)
    rest[up] = False
    root, value = np.full(tau.size, np.inf), np.full(tau.size, np.inf)
    root[rest], value[rest] = young._slope_root(source, tau[rest])
    root[value == -np.inf] = -np.inf
    return root, value


@pytest.mark.parametrize("name", ["LlogL", "L_loglog", "expL", "t"])
def test_conjugate_reads_inf_off_the_ladder_as_the_rise_test_did(catalog, name):
    C = (young.from_json({"kind": "conjugate", "params": {"of": {"kind": "power", "params": {"p": 1}}}})
         if name == "t" else conjugate(catalog[name]))
    for grid in ("dense", "coarse", "tail"):
        tau = young._GRIDS[grid]
        root, value = _rise_test_pre_pass(C.source, tau)
        assert np.array_equal(C.log_value_logt(tau), value, equal_nan=True), grid
        assert np.array_equal(C.log_slope_logt(tau), root, equal_nan=True), grid


@pytest.mark.parametrize("name", ["LlogL", "L_loglog", "LlogL2", "LlogL_loglog"])
def test_conjugate_is_inf_just_past_the_top_rung_slope(catalog, name):
    # the +inf set starts at the top rung's slope, to the rounding of asinh;
    # a finite difference of the supremand at sigma ~ 4.5e9 is noise there
    A = catalog[name]
    edge = float(A.log_slope_logt(young._RUNGS[-1]))
    C = conjugate(A)
    below, above = C.log_value_logt(np.array([edge - 1e-13, edge + 1e-13]))
    assert np.isfinite(below) and above == np.inf
    assert C.log_slope_logt(edge + 1e-13) == np.inf


def test_conjugate_of_an_empty_tau_is_empty(catalog):
    C = conjugate(catalog["LlogL"])
    for read in (C.log_value_logt, C.log_slope_logt, C.log_excess_logt):
        out = read(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)


def _parent_interp(tau, grid, v):
    """v on grid interpolated at tau, NaN and +inf read as +inf."""
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(v)
        if finite.all():
            return np.interp(tau, grid, v)
        v = np.nan_to_num(np.where(finite, v, np.inf), posinf=1e308)
        out = np.interp(tau, grid, v)
        return np.where(out >= 1e307, np.inf, out)


def _parent_sweep_shifted(A, k):
    """The sweep reader as an index array, a gather, a where and a
    concatenate, with every shifted tail point interpolated on both the mid
    and the tail grid: the reference for the one-array fill."""
    curves = young._sweep_curves(A)
    parts = []
    for (grid, lo, hi), v in zip(young._SWEEP_PARTS, curves):
        if grid != "tail":
            idx = np.arange(lo, hi) + young._index_shift(grid, k)
            parts.append(np.where(idx >= 0, v[np.maximum(idx, 0)], np.nan))
            continue
        tail_tau = young._TAIL_GRID[lo:hi] + k * young.LN2
        parts.append(np.where(tail_tau < young._TAIL_GRID[0],
                              _parent_interp(tail_tau, young._MID_GRID, curves[1]),
                              _parent_interp(tail_tau, young._TAIL_GRID, v)))
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def sweep_functions(catalog):
    # conj(LlogL2)'s curves hold +inf; conj(exp_log2)'s hold its golden points
    return {"L2": catalog["L2"], "conj(LlogL2)": conjugate(catalog["LlogL2"]),
            "conj(exp_log2)": conjugate(catalog["exp_log2"])}


def test_sweep_reader_fills_what_the_gather_gave(sweep_functions):
    assert np.isposinf(young._log_curve(sweep_functions["conj(LlogL2)"], "mid")).any()
    for label, A in sweep_functions.items():
        for k in [*young._C_EXPONENTS, 0.5]:
            got = young._sweep_read(A, k)
            assert got.shape == young._SWEEP_TAU.shape
            assert np.array_equal(got, _parent_sweep_shifted(A, k), equal_nan=True), (label, k)
    # the first point's 2^-10 multiple is below the grid
    assert math.isnan(young._sweep_read(sweep_functions["L2"], -10, slice(0, 1))[0])


_N_DENSE, _N_MID = (hi - lo for _, lo, hi in young._SWEEP_PARTS[:2])


@pytest.mark.parametrize("k", [-10, -5])
@pytest.mark.parametrize("p, coeff", [(2.0, 1.0), (1.5, 0.25)])
def test_the_first_tail_points_of_the_sweep_are_the_closed_form(k, p, coeff):
    # for k <= -5 the first shifted tail points fall below the tail grid;
    # np.interp on it would clamp them to ln A(e^2e4)
    at = slice(_N_DENSE + _N_MID, _N_DENSE + _N_MID + 3)
    tau = young._SWEEP_TAU[at] + k * young.LN2
    assert young._sweep_read(PowerYoung(p, coeff), k, at) == pytest.approx(math.log(coeff) + p * tau, rel=1e-14)


# slice ends: any sweep index or none, with the points on both sides of the
# dense/mid and mid/tail joins and the first and last points drawn often
_SWEEP_END = st.one_of(
    st.none(), st.integers(-young._SWEEP_TAU.size - 2, young._SWEEP_TAU.size + 2),
    st.sampled_from([0, 1, _N_DENSE - 1, _N_DENSE, _N_DENSE + 1, _N_DENSE + _N_MID - 1,
                     _N_DENSE + _N_MID, _N_DENSE + _N_MID + 1, young._SWEEP_TAU.size - 1]))


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(["L2", "conj(LlogL2)", "conj(exp_log2)"]),
       k=st.sampled_from([*young._C_EXPONENTS, 0.5]), start=_SWEEP_END, stop=_SWEEP_END,
       step=st.one_of(st.none(), st.integers(1, 3), st.sampled_from([balance._SCREEN_STRIDE, 10 ** 6])))
@example(label="L2", k=-10, start=0, stop=None, step=balance._SCREEN_STRIDE)    # the screen
@example(label="conj(LlogL2)", k=10, start=_N_DENSE + _N_MID - 2, stop=None, step=None)
@example(label="conj(exp_log2)", k=-3, start=5, stop=5, step=None)           # no point
# one tail point, below the tail grid: read on the mid grid alone
@example(label="L2", k=-10, start=_N_DENSE + _N_MID, stop=_N_DENSE + _N_MID + 1, step=None)
def test_sweep_reads_of_a_slice_are_the_full_reads_there_bit_for_bit(sweep_functions, label, k,
                                                                     start, stop, step):
    at = slice(start, stop, step)
    full = _parent_sweep_shifted(sweep_functions[label], k)[at]
    got = young._sweep_read(sweep_functions[label], k, at)
    assert got.dtype == full.dtype and got.shape == full.shape
    assert got.tobytes() == full.tobytes()


def test_interp_reads_a_window_as_the_whole_curve():
    grid = np.arange(6.0)
    curves = {"finite": np.array([0.0, 1.0, 2e307, 3e307, 4e307, 5e307]),
              # past 1e307 reads +inf once the curve has a node that is not
              # finite, also where the window of the points does not hold it
              "inf at the end": np.array([0.0, 1.0, 2e307, 3e307, 4e307, np.inf]),
              "nan at the start": np.array([np.nan, 1.0, 2.0, 3e307, 4.0, 5.0])}
    taus = [[-1.0], [0.0], [0.5], [2.5], [2.0, 3.0], [1.5, 2.5, 3.5], [4.5], [5.0], [7.0],
            [-1.0, 7.0], np.linspace(2.1, 2.9, 9), np.linspace(4.2, 8.0, 5)]
    for label, v in curves.items():
        for tau in taus:
            tau = np.array(tau)
            assert young._interp(tau, grid, v).tobytes() == _parent_interp(tau, grid, v).tobytes(), \
                (label, tau)
    assert young._interp(np.array([2.5]), grid, curves["inf at the end"])[0] == np.inf
    assert young._interp(np.array([2.5]), grid, curves["finite"])[0] == 2.5e307


def test_sweep_reads_interpolate_on_more_nodes_than_points(sweep_functions, monkeypatch):
    # np.interp tabulates a slope per node, untraced, on a curve of no more
    # nodes than points; the whole-curve reads never did on the sweep grids
    sizes, interp = [], np.interp
    def spy(x, xp, fp):
        sizes.append((len(xp), len(x)))
        return interp(x, xp, fp)
    monkeypatch.setattr(np, "interp", spy)
    for A in sweep_functions.values():
        for k in [*young._C_EXPONENTS, 0.5]:
            for at in (slice(None), slice(-1, None)):
                young._sweep_read(A, k, at)
    assert sizes and all(nodes > points for nodes, points in sizes)


@pytest.mark.parametrize("name", ["L2_log", "expL2"])
@pytest.mark.parametrize("iters", range(3, 9))
def test_slope_root_out_of_iterations_gives_its_last_iterates(monkeypatch, catalog, name, iters):
    # out of iterations, each point still live ends at its last iterate,
    # also where the last iteration compacted the working arrays
    tau = young._GRIDS["mid"][:8192]
    want = ConjugateYoung(catalog[name]).log_value_logt(tau)
    monkeypatch.setattr(young, "_ROOT_ITERS", iters)
    got = ConjugateYoung(catalog[name]).log_value_logt(tau)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite] == pytest.approx(want[finite], rel=1e-6)


def _parent_shifted(A, grid, k, tau_lo):
    """The growth reader over every shiftable point, then masked by tau >=
    tau_lo: the reference for the reader that starts its slices there."""
    s = young._index_shift(grid, k)
    tau, v = young._GRIDS[grid], young._log_curve(A, grid)
    lo, n = max(-s, 0), len(v) - abs(s)
    tau, v, v2 = tau[lo:lo + n], v[lo:lo + n], v[lo + s:lo + s + n]
    keep = tau >= tau_lo
    return tau[keep], v[keep], v2[keep]


def test_growth_reader_slices_what_the_mask_kept(catalog):
    functions = {"L2": catalog["L2"], "conj(LlogL2)": conjugate(catalog["LlogL2"]),
                 "conj(exp_log2)": conjugate(catalog["exp_log2"])}
    # the tail grid has no exact shift by these 2^k
    grids = [grid for grid in young._GRIDS if grid != "tail"]
    for label, A in functions.items():
        for grid, k, tau_lo in itertools.product(
                grids, (-10, 1, 10), (-14.0, young._TAU_FLOOR, 0.0, math.log(1000.0))):
            got, want = young._shifted(A, grid, k, tau_lo), _parent_shifted(A, grid, k, tau_lo)
            assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want)), \
                (label, grid, k, tau_lo)
    assert np.isposinf(young._log_curve(functions["conj(LlogL2)"], "coarse")).any()


def test_conjugate_curves_start_no_thread(catalog):
    before = threading.enumerate()
    curve = young._log_curve(ConjugateYoung(catalog["LlogL"]), "mid")
    assert curve.size > 2 * young._BLOCK
    assert threading.enumerate() == before


def test_log_value_logt_of_a_scalar_is_a_scalar(catalog):
    kinds = list(catalog.values()) + [
        TabulatedYoung([1.0, 2.0], [1.0, 3.0], 5.0), ScaledYoung(2.0, PowerYoung(2.0), 3.0),
        ConjugateYoung(catalog["LlogL"])]
    assert {A.kind for A in kinds} | {"indicator"} == set(young._KINDS)
    for A in kinds:
        assert np.ndim(A.log_value_logt(3.0)) == 0, A
    assert isinstance(ConjugateYoung(catalog["LlogL"]).log_value_logt(3.0), float)


def test_inverse_of_every_kind_checks_r_and_gives_a_float_for_a_scalar(catalog):
    kinds = list(catalog.values()) + [
        TabulatedYoung([1.0, 2.0], [1.0, 3.0], 5.0), ScaledYoung(2.0, indicator(0.5), 3.0),
        ConjugateYoung(catalog["LlogL"])]
    for A in kinds:
        assert type(A.inverse(3.0)) is float and type(A.inverse(np.float64(0.0))) is float, A
        assert A.inverse([3.0]).shape == (1,), A
        with pytest.raises(DomainError, match=r"inverse needs r >= 0"):
            A.inverse([1.0, -1.0])
    for t1 in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="indicator kind needs t1 > 0"):
            indicator(t1)
    with pytest.raises(DomainError, match="indicator kind needs a finite t1"):
        indicator(math.inf)
    with pytest.raises(DomainError, match="breakpoints must be finite"):
        TabulatedYoung([1.0, math.inf], [1.0, 2.0], 3.0)


@st.composite
def _tabulated_spec(draw):
    n = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    rises = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    slopes = np.cumsum(rises)
    final = draw(st.one_of(st.floats(slopes[-1], slopes[-1] + 5.0), st.just(math.inf)))
    assume(slopes[-1] > 0 or final > 0)
    return {"kind": "tabulated", "params": {"breakpoints": np.cumsum(gaps).tolist(),
                                            "slopes": slopes.tolist(), "final_slope": final}}


def _spec(kind, **params):
    return {"kind": kind, "params": params}


_LEAF_SPECS = st.one_of(
    st.builds(lambda p, c: _spec("power", p=p, coeff=c), st.floats(1.0, 4.0), st.floats(0.1, 10.0)),
    st.builds(lambda p, a, g: _spec("power_log_log", p=p, alpha=a, gamma=g),
              st.floats(1.0, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    st.builds(lambda p, a: _spec("power_log", p=p, alpha=a), st.floats(1.0, 3.0), st.floats(0.0, 2.0)),
    st.just(_spec("linear_log")),
    st.builds(lambda b: _spec("exp_power", beta=b), st.floats(0.5, 3.0)),
    st.builds(lambda a, b, r: _spec("exp_log_power", a=a, beta=b, reduced=r),
              st.floats(0.5, 2.0), st.floats(1.1, 3.0), st.booleans()),
    st.builds(lambda t1: _spec("indicator", t1=t1), st.floats(0.01, 100.0)),
    _tabulated_spec(),
)


def _scaled(inner):
    return st.builds(lambda m, s, of: _spec("scaled", m=m, arg_scale=s, of=of),
                     st.floats(0.1, 10.0), st.floats(0.1, 10.0), inner)


def _wrapped(inner):
    return st.one_of(_scaled(inner), st.builds(lambda of: _spec("conjugate", of=of), inner))


@pytest.mark.parametrize("kind, params, name", [
    ("power", {"p": math.inf}, "p"), ("power", {"p": 2.0, "coeff": math.inf}, "coeff"),
    ("power_log_log", {"p": math.inf, "alpha": 1.0}, "p"),
    ("power_log_log", {"p": 1.0, "alpha": math.inf}, "alpha"),
    ("power_log_log", {"p": 1.0, "alpha": 1.0, "gamma": math.inf}, "gamma"),
    ("exp_power", {"beta": math.inf}, "beta"),
    ("exp_log_power", {"a": 2.0, "beta": math.inf}, "beta"),
    ("scaled", {"m": math.inf, "of": _spec("power", p=2.0)}, "m"),
    ("scaled", {"m": 2.0, "arg_scale": math.inf, "of": _spec("power", p=2.0)}, "arg_scale"),
])
def test_an_infinite_parameter_is_named(kind, params, name):
    # JSON's 1e400 reads as inf; a tabulated slope of inf is a jump instead
    with pytest.raises(DomainError, match=f"^{kind} kind needs a finite {name}$"):
        young.from_json(_spec(kind, **params))


@pytest.mark.parametrize("spec", [_spec("scaled", m=2, of="L2"),
                                  _spec("scaled", m=2, of='{"kind": "power", "params": {"p": 2}}'),
                                  _spec("conjugate", of=[2])])
def test_a_nested_of_that_is_not_an_object_is_named(spec):
    with pytest.raises(DomainError) as err:
        young.from_json(spec)
    assert str(err.value) == f"parameter 'of' of kind {spec['kind']!r} must be a JSON object"


_POWER2 = _spec("power", p=2)


@pytest.mark.parametrize("spec, message", [
    # a JSON true reads as a Python int
    (_spec("power", p=True), "parameter 'p' of kind 'power' must be a number"),
    (_spec("power", p=2, coeff=False), "parameter 'coeff' of kind 'power' must be a number"),
    (_spec("scaled", m={}, of=_POWER2), "parameter 'm' of kind 'scaled' must be a number"),
    (_spec("scaled", m="1", of=_POWER2), "parameter 'm' of kind 'scaled' must be a number"),
    (_spec("scaled", m=None, of=_POWER2), "parameter 'm' of kind 'scaled' must be a number"),
    (_spec("scaled", m=[1], of=_POWER2), "parameter 'm' of kind 'scaled' must be a number"),
    (_spec("tabulated", breakpoints=[1, True], slopes=[1, 2], final_slope=3),
     "parameter 'breakpoints' of kind 'tabulated' must be a number"),
    (_spec("scaled", m=math.nan, of=_POWER2), "parameter 'm' of kind 'scaled' must not be NaN"),
    (_spec("tabulated", breakpoints=[1, 2], slopes=[1, math.nan], final_slope=3),
     "parameter 'slopes' of kind 'tabulated' must not be NaN"),
    (_spec("exp_log_power", a=1, beta=2, reduced=1),
     "parameter 'reduced' of kind 'exp_log_power' must be true or false"),
    (_spec("exp_log_power", a=1, beta=2, reduced="false"),
     "parameter 'reduced' of kind 'exp_log_power' must be true or false"),
    (_spec("exp_log_power", a=1, beta=2, reduced=None),
     "parameter 'reduced' of kind 'exp_log_power' must be true or false"),
])
def test_a_parameter_of_the_wrong_type_or_nan_is_named(spec, message):
    with pytest.raises(DomainError) as err:
        young.from_json(spec)
    assert str(err.value) == message


def test_reduced_is_a_json_boolean():
    for reduced in (False, True):
        A = young.from_json(json.dumps(_spec("exp_log_power", a=1, beta=2, reduced=reduced)))
        assert A.reduced is reduced
    assert young.load_catalog()["exp_log2_reduced"].reduced is True


@pytest.mark.parametrize("m, arg_scale, name", [(5e-324, 1.0, "m"), (1.0, 1e-310, "arg_scale"),
                                                (-4.0, 1.0, "m"), (1.0, 0.0, "arg_scale")])
def test_scaled_rejects_a_subnormal_scale_by_name(m, arg_scale, name):
    # e^(5e-324 t) - 1 rounds to whole multiples of 5e-324: a staircase, not convex
    with pytest.raises(DomainError, match=f"^scaled kind needs {name} >= 2.22507e-308, not "):
        ScaledYoung(m, ExpPowerYoung(1.0), arg_scale)
    # the conjugate's scale is m / arg_scale = 1e-310
    with pytest.raises(DomainError, match="has an arg_scale beyond the normal float range"):
        ScaledYoung(1e-300, ExpPowerYoung(1.0), 1e10).conjugate()


@settings(max_examples=60, deadline=None)
@given(st.one_of(_LEAF_SPECS, _wrapped(_LEAF_SPECS), _wrapped(_wrapped(_LEAF_SPECS))))
# builds, but is zero on the whole tabulation grid: raises at the first value
@example(spec=_spec("conjugate", of=_spec("scaled", m=1.0, arg_scale=1.0, of=_spec("indicator", t1=1.0))))
def test_from_json_inverts_to_json_for_every_kind(spec):
    try:
        A = young.from_json(spec)
    except DomainError:
        assume(False)   # a non-convex parameter choice or an empty tabulation
    B = young.from_json(json.dumps(young.to_json(A)))
    assert young.to_json(B) == young.to_json(A)
    t = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 61)))

    def values(F):
        # a numerical conjugate tabulates on its first read, and raises there
        # if its source cannot be tabulated: the copy must raise the same
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return F.value(t)
        except DomainError as err:
            return str(err)

    a, b = values(A), values(B)
    if isinstance(a, str):
        assert b == a
    else:
        assert np.array_equal(b, a, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_LEAF_SPECS, _scaled(_LEAF_SPECS)))
def test_conjugate_swaps_finite_valued_and_superlinear(spec):
    # A* is finite-valued iff A(t)/t is unbounded, and A*(s)/s is unbounded
    # iff A is finite-valued: the closed-form and the numerical conjugates
    # state both facts exactly
    try:
        A = young.from_json(spec)
        C = conjugate(A)
    except DomainError:
        assume(False)   # a non-convex parameter choice
    assert C.finite_valued == A.superlinear
    assert C.superlinear == A.finite_valued


@settings(max_examples=400, deadline=None)
@given(st.one_of(_LEAF_SPECS, _scaled(_LEAF_SPECS)),
       st.lists(st.floats(-20.0, 6.5), min_size=1, max_size=64))
def test_log_value_logt_agrees_with_value_and_nothing_warns(spec, tau):
    # ln A(e^tau) against ln value(e^tau) wherever the value is a positive
    # normal float; building and evaluating raise no numpy warning
    tau = np.array(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            A = young.from_json(spec)
        except DomainError:
            assume(False)   # a non-convex parameter choice or an empty tabulation
        got = A.log_value_logt(tau)
        value = A.value(np.exp(tau))
    normal = (value >= np.finfo(float).tiny) & np.isfinite(value)
    want = np.log(value[normal])
    assert np.all(np.abs(got[normal] - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), A


@pytest.mark.parametrize("leaf", ['{"kind": "linear_log"}',
                                  '{"kind": "exp_power", "params": {"beta": 1}}'])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_nested_conjugates_of_finite_superlinear_functions_are_finite_valued(leaf, depth):
    # each level swaps the two facts, and both hold for the leaf; a density
    # probe read the truncated table of the inner level and called the
    # triple conjugate of linear_log not finite-valued
    spec = leaf
    for _ in range(depth):
        spec = f'{{"kind": "conjugate", "params": {{"of": {spec}}}}}'
    A = young.from_json(spec)
    assert A.finite_valued and A.superlinear


def _loop_inverse(T, r):
    """TabulatedYoung.inverse, one point at a time."""
    out = []
    for rv in np.ravel(r):
        i = int(np.searchsorted(T.cum_values, rv, side="right"))
        if math.isinf(rv):
            out.append(math.inf)
        elif i >= len(T.slopes):
            if math.isinf(T.final_slope):
                out.append(T.breakpoints[-1])
            elif T.final_slope == 0.0:
                out.append(math.inf)
            else:
                out.append(float(T.breakpoints[-1])
                           + (float(rv) - float(T.cum_values[-1])) / T.final_slope)
        else:
            out.append(float(T._knots[i]) + (float(rv) - float(T._knot_values[i])) / float(T.slopes[i]))
    return np.array(out)


def _loop_conjugate(T):
    """TabulatedYoung.conjugate, one slope at a time."""
    dual_bp, dual_sl, prev = [], [], 0.0
    for i, s in enumerate(T._densities):
        if math.isinf(s):
            break
        if s > prev:
            dual_bp.append(s)
            dual_sl.append(T._knots[i])
            prev = s
    dual_final = T.breakpoints[-1] if math.isinf(T.final_slope) else math.inf
    if not dual_bp:
        return PowerYoung(1.0, dual_final) if not math.isinf(dual_final) else indicator(1.0)
    return TabulatedYoung(np.array(dual_bp), np.array(dual_sl), dual_final)


@settings(max_examples=60, deadline=None)
@given(_tabulated_spec(), st.lists(st.floats(0.0, 200.0), max_size=16))
def test_tabulated_inverse_and_conjugate_equal_their_loop_forms(spec, extra):
    T = young.from_json(spec)
    cv = T.cum_values
    r = np.concatenate(([0.0, np.inf], cv, np.nextafter(cv, 0.0), np.nextafter(cv, np.inf),
                        np.linspace(0.0, 2.0 * cv[-1], 17), extra))
    assert np.array_equal(T.inverse(r), _loop_inverse(T, r))
    assert all(T.inverse(x) == y for x, y in zip(r, _loop_inverse(T, r)))
    assert young.to_json(T.conjugate()) == young.to_json(_loop_conjugate(T))
