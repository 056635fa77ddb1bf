import functools
import math
import os
import resource
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_korn import hardy
from orlicz_korn import rearrange as ra
from orlicz_korn import young
from orlicz_korn.rearrange import DegenerateInputError, SampledFunction
from orlicz_korn.young import DomainError, PowerYoung, indicator


@pytest.fixture(scope="module")
def catalog():
    return young.load_catalog()


def _sf(values, weights=None):
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.shape, 1.0 / len(values))
    return SampledFunction(values, np.asarray(weights, dtype=float))


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------

def test_rearrangement_sorts():
    u = _sf([1.0, 3.0, 2.0], [1.0, 1.0, 1.0])
    r = ra.rearrangement(u)
    assert list(r.values) == [3.0, 2.0, 1.0]
    assert list(r.weights) == [1.0, 1.0, 1.0]


def test_rearrangement_constant_fixed_point():
    u = _sf([2.0] * 5)
    r = ra.rearrangement(u)
    assert np.array_equal(r.values, u.values)


def test_rearrangement_matches_distribution_function():
    # brute-force comparison of distribution functions at 50 thresholds
    rng = np.random.default_rng(42)
    u = _sf(rng.standard_normal(10_000), rng.uniform(0.5, 1.5, 10_000))
    r = ra.rearrangement(u)
    cuts = np.quantile(np.abs(u.values), np.linspace(0.01, 0.99, 50))
    for t in cuts:
        mu_u = np.sum(u.weights[np.abs(u.values) > t])
        mu_r = np.sum(r.weights[r.values > t])
        assert mu_u == pytest.approx(mu_r, rel=1e-12)


def test_rearrangement_carries_weights():
    u = _sf([5.0, -1.0], [0.25, 2.0])
    r = ra.rearrangement(u)
    assert list(r.values) == [5.0, 1.0]
    assert list(r.weights) == [0.25, 2.0]


# ---------------------------------------------------------------------------
# Luxemburg norms
# ---------------------------------------------------------------------------

def test_constant_on_unit_measure():
    u = _sf([3.0, 3.0], [0.5, 0.5])
    assert ra.norm(PowerYoung(2), u) == pytest.approx(3.0, rel=1e-9)


def test_indicator_is_essential_sup():
    u = _sf([1.0, -7.0, 4.0], [0.2, 0.5, 0.3])
    assert ra.norm(indicator(1.0), u) == pytest.approx(7.0, rel=1e-10)


def test_modular_at_the_norm(catalog):
    rng = np.random.default_rng(0)
    for name in ("L1", "L2", "LlogL", "expL"):
        A = catalog[name]
        u = _sf(rng.standard_normal(64) * 3, rng.uniform(0.05, 0.4, 64))
        lx = ra.luxemburg(A, u)
        mod = float(np.sum(u.weights * A.value(np.abs(u.values) / lx)))
        assert mod <= 1.0 + 1e-9
        assert mod >= 1.0 - 1e-6


@pytest.mark.parametrize("name", ["L1", "L2", "LlogL", "expL", "Linf"])
def test_luxemburg_evaluates_each_lambda_once(catalog, name, monkeypatch):
    lams = []
    modular = ra._modular

    def spy(A, u_abs, w, lam):
        lams.append(lam)
        return modular(A, u_abs, w, lam)

    monkeypatch.setattr(ra, "_modular", spy)
    rng = np.random.default_rng(3)
    for n in (1, 5, 64):
        lams.clear()
        ra.luxemburg(catalog[name], _sf(rng.standard_normal(n) * 3, rng.uniform(0.05, 0.4, n)))
        assert lams and len(set(lams)) == len(lams), (n, lams)


def _bisection_reference(A, u):
    """The Luxemburg norm by the plain bisection, evaluating the modular at
    every lambda it tests (once each): (lambda, evaluations)."""
    u_abs = np.abs(u.values)
    w = u.weights
    peak = float(np.max(u_abs)) if len(u_abs) else 0.0
    if peak == 0.0:
        return 0.0, 0
    omega = u.total_measure
    wmin = float(np.min(w))
    inv_small = float(A.inverse(1.0 / wmin))
    inv_large = float(A.inverse(1.0 / omega))
    lo = peak / inv_small if inv_small > 0 and math.isfinite(inv_small) else 0.0
    hi = peak / inv_large if inv_large > 0 else peak * 2.0
    if not math.isfinite(hi) or hi <= 0:
        hi = peak
    verdicts = {}

    def fits(lam):
        if lam not in verdicts:
            verdicts[lam] = ra._modular(A, u_abs, w, lam) <= 1.0
        return verdicts[lam]

    for _ in range(200):
        if fits(hi):
            break
        hi *= 2.0
    lo = min(lo, hi)
    for _ in range(200):
        if lo <= 0 or not fits(lo):
            break
        lo *= 0.5
    if lo <= 0:
        lo = hi * 1e-18
    while fits(lo) and lo > hi * 1e-30:
        lo *= 0.5
    if fits(lo):
        return lo, len(verdicts)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= ra._LAMBDA_RTOL * hi:
            break
    return hi, len(verdicts)


def _norm_counting(A, u):
    """(luxemburg(A, u), the modular evaluations it made)."""
    calls = []
    modular = ra._modular

    def spy(*args):
        calls.append(args[-1])
        return modular(*args)

    with mock.patch.object(ra, "_modular", spy):
        return ra.luxemburg(A, u), len(calls)


@functools.cache
def _functions():
    # every catalog function, its conjugate, an indicator and a scaled copy
    catalog = young.load_catalog()
    return tuple([F for A in catalog.values() for F in (A, young.conjugate(A))] + [
        indicator(0.3), young.ScaledYoung(2.5, catalog["LlogL"], 0.4)])


@st.composite
def _sampled(draw):
    n = draw(st.integers(1, 400))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(1e-10, 10.0), min_size=n, max_size=n))
    return _sf(values, weights)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 31), _sampled())            # 32 functions
def test_luxemburg_is_the_bisection_to_the_bit_and_evaluates_no_more(which, u):
    A = _functions()[which]
    want, evaluations = _bisection_reference(A, u)
    got, spent = _norm_counting(A, u)
    assert got == want or (math.isnan(got) and math.isnan(want)), (A, got, want)
    assert spent <= evaluations, (A, spent, evaluations)


_SUBNORMAL_SAMPLES = [[1e-320], [1e-322, 5e-323], [1e-312, 3e-312], [5e-324]]


def test_luxemburg_of_subnormal_samples_is_the_bisection_and_ends(catalog):
    # below lambda ~ 1e-312 the midpoint of a bisection interval rounds to
    # one of its ends; the probe once followed such a path forever, adding
    # to it until memory ran out, so the norms run in a child process whose
    # address space is capped at 2 GiB
    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(ra.__file__))
    code = ("import numpy as np; from orlicz_korn import rearrange as ra, young; "
            "cat = young.load_catalog(); "
            f"print([ra.luxemburg(cat[n], ra.SampledFunction(np.array(v), np.full(len(v), 0.5))) "
            f"for n in ('L2', 'LlogL', 'expL') for v in {_SUBNORMAL_SAMPLES}])")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, preexec_fn=capped, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [_bisection_reference(catalog[n], _sf(v, np.full(len(v), 0.5)))[0]
            for n in ("L2", "LlogL", "expL") for v in _SUBNORMAL_SAMPLES]
    assert proc.stdout.strip() == repr(want)


@pytest.mark.parametrize("pair", [("L2", "L2"), ("L1", "L1")])
def test_hardy_family_norms_take_at_most_8_evaluations(catalog, pair):
    # the trial family and the spike sweep of verify_hardy; the plain
    # bisection takes 39.5 (L2) and 42.1 (L1) evaluations per norm here
    A, B = (catalog[name] for name in pair)
    per_norm = []

    def counted(C, u):
        lam, spent = _norm_counting(C, u)
        per_norm.append(spent)
        return lam

    with mock.patch.object(ra, "norm", counted):
        hardy.verify_hardy(A, B)
    assert len(per_norm) > 250 and max(per_norm) <= 8, (len(per_norm), max(per_norm))


def test_zero_function():
    u = _sf([0.0, 0.0])
    assert ra.norm(PowerYoung(2), u) == 0.0


def test_equimeasurability_preserves_norm(catalog):
    rng = np.random.default_rng(7)
    names = ("L1", "L2", "LlogL", "expL", "Linf")
    for name in names:
        A = catalog[name]
        for _ in range(20):
            n = int(rng.integers(4, 300))
            u = _sf(rng.standard_normal(n) * rng.uniform(0.1, 8),
                    rng.uniform(0.01, 1.0, n))
            n1 = ra.norm(A, u)
            n2 = ra.norm(A, ra.rearrangement(u))
            assert n2 == pytest.approx(n1, rel=1e-8), name


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
       st.floats(0.1, 20.0))
def test_homogeneity(vals, c):
    A = PowerYoung(1.5)
    u = _sf(vals)
    assert ra.norm(A, _sf(np.asarray(vals) * c)) == pytest.approx(
        c * ra.norm(A, u), rel=1e-8, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
                min_size=2, max_size=30))
def test_triangle_inequality(pairs):
    A = young.PowerLogLogYoung(1.0, 1.0)
    a = _sf([p[0] for p in pairs])
    b = _sf([p[1] for p in pairs])
    s = _sf([p[0] + p[1] for p in pairs])
    assert ra.norm(A, s) <= ra.norm(A, a) + ra.norm(A, b) + 1e-8


def test_pointwise_monotonicity(catalog):
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, 50)
    v = rng.standard_normal(50) * 4
    u = v * rng.uniform(0.0, 1.0, 50)
    for name in ("L2", "LlogL", "expL"):
        A = catalog[name]
        assert ra.norm(A, _sf(u, w)) <= ra.norm(A, _sf(v, w)) + 1e-10, name


def test_global_domination_gives_embedding_constant():
    # B(t) <= A(C t) globally => ||u||_B <= C ||u||_A
    A = PowerYoung(2)
    B = young.ScaledYoung(2.0, PowerYoung(2))
    v = young.dominates(A, B, near_infinity=False)
    assert v.holds
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = _sf(rng.standard_normal(40), rng.uniform(0.1, 1.0, 40))
        assert ra.norm(B, u) <= v.witness_constant * ra.norm(A, u) * (1 + 1e-9)


def test_near_infinity_embedding_bounded(catalog):
    # A dominates B near infinity and |Omega| < inf: the norm ratio stays
    # bounded over a random suite (constant depends on t0 and the measure)
    A, B = catalog["LlogL"], catalog["L1"]
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        u = _sf(rng.standard_normal(60) * rng.uniform(0.1, 30),
                rng.uniform(0.01, 0.5, 60))
        na, nb = ra.norm(A, u), ra.norm(B, u)
        if na > 0:
            worst = max(worst, nb / na)
    assert worst < 50.0


# ---------------------------------------------------------------------------
# Hoelder duality
# ---------------------------------------------------------------------------

def test_holder_square_pair_attains_two():
    u = _sf(np.linspace(0.5, 3.0, 20))
    r = ra.holder_check(PowerYoung(2), u, u)
    assert r == pytest.approx(2.0, rel=1e-8)
    assert r <= 2.0 + 1e-6


def test_holder_bounded_by_two(catalog):
    rng = np.random.default_rng(11)
    for name in ("L2", "LlogL", "expL", "L1", "L2_log"):
        A = catalog[name]
        for _ in range(15):
            n = int(rng.integers(3, 120))
            w = rng.uniform(0.02, 0.7, n)
            u = _sf(rng.standard_normal(n) * 2, w)
            v = _sf(rng.standard_normal(n) * 3, w)
            try:
                r = ra.holder_check(A, u, v)
            except DegenerateInputError:
                continue
            assert r <= 2.0 + 1e-6, name


def test_holder_zero_input_signals():
    u = _sf([1.0, 2.0])
    z = _sf([0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        ra.holder_check(PowerYoung(2), u, z)


def test_mismatched_weights_rejected():
    u = _sf([1.0, 2.0], [0.5, 0.5])
    v = _sf([1.0, 2.0], [0.3, 0.7])
    with pytest.raises(DomainError):
        ra.holder_check(PowerYoung(2), u, v)


@pytest.mark.parametrize("w", [0.0, -0.5, math.nan])
def test_weights_that_are_not_positive_are_rejected(w):
    with pytest.raises(DomainError):
        _sf([1.0, 2.0], [0.5, w])


@pytest.mark.parametrize("p, c", [(1.0, 1.0), (1.5, 0.5), (2.0, 1.0), (3.0, 4.0)])
def test_power_norms_of_step_functions_match_closed_form(p, c):
    # for A = c t^p the Luxemburg norm is (c sum w |u|^p)^(1/p)
    rng = np.random.default_rng(11)
    A = PowerYoung(p, c)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        u = _sf(rng.standard_normal(n) * rng.uniform(0.1, 10.0), rng.uniform(0.01, 2.0, n))
        want = (c * np.sum(u.weights * np.abs(u.values) ** p)) ** (1.0 / p)
        assert ra.norm(A, u) == pytest.approx(want, rel=1e-9)
