import math

import numpy as np
import pytest

from orlicz_korn import young
from orlicz_korn.young import (
    ConjugateYoung, DomainError, ExpPowerYoung, IndicatorYoung, PowerLogLogYoung,
    PowerYoung, ScaledYoung, TabulatedYoung, check_delta2, check_nabla2,
    conjugate, dominates, inverse, load_catalog,
)


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


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


def test_density_integrates_to_value(catalog):
    # A(t) = integral of the density, checked by fine midpoint quadrature
    for name in ("L2", "LlogL", "expL", "L2_log", "expL_half", "exp_log2"):
        A = catalog[name]
        t = 3.7
        s = np.linspace(0, t, 200001)
        mid = 0.5 * (s[:-1] + s[1:])
        quad = float(np.sum(A.density(mid) * np.diff(s)))
        assert quad == pytest.approx(float(A(t)), rel=5e-6), name


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
    At = conjugate(IndicatorYoung(2.5))
    assert isinstance(At, PowerYoung) and At.p == 1.0
    assert float(At(3.0)) == pytest.approx(7.5)
    back = conjugate(At)
    assert isinstance(back, IndicatorYoung)
    assert back.t1 == pytest.approx(2.5)


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
    assert float(inverse(PowerYoung(2), 9.0)) == pytest.approx(3.0)


def test_inverse_contract(catalog):
    rs = np.geomspace(1e-2, 1e4, 25)
    for name, A in catalog.items():
        ts = A.inverse(rs)
        with np.errstate(over="ignore"):
            vals = A(ts)
        assert np.all(vals <= rs * (1 + 1e-8) + 1e-10), name


def test_inverse_right_continuity_at_plateau():
    A = IndicatorYoung(2.0)
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


def test_indicator_growth_conventions(catalog):
    assert not check_delta2(catalog["Linf"]).holds
    assert check_nabla2(catalog["Linf"]).holds


def test_delta2_nabla2_duality(catalog):
    for name, A in catalog.items():
        At = conjugate(A)
        assert check_delta2(A).holds == check_nabla2(At).holds, name
        assert check_nabla2(A).holds == check_delta2(At).holds, name


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


def test_tabulated_slope_cap_recorded():
    T = TabulatedYoung([1.0, 2.0], [1.0, 50.0], 80.0, slope_cap=10.0)
    assert T.cap_applied
    assert float(T.density(3.0)) == 10.0


def test_json_round_trip(catalog):
    for name, A in catalog.items():
        B = young.from_json(young.to_json(A))
        ts = np.geomspace(1e-2, 1e2, 17)
        with np.errstate(over="ignore"):
            assert np.allclose(B(ts), A(ts), rtol=1e-12), name


def test_resolve_inline_json():
    A = young.resolve('{"kind": "power", "params": {"p": 2}}')
    assert float(A(3.0)) == 9.0


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
    growth = (young._DENSE_GRID, young._COARSE_GRID, young._REFINED_GRID)
    assert seen
    assert sum(tau.size for tau in seen) <= sum(g.size for g in growth)
    for tau in seen:
        assert any(np.array_equal(tau, g) for g in growth)


def test_conjugate_is_built_once_per_object():
    A = load_catalog()["LlogL"]
    assert conjugate(A) is conjugate(A)
