import math
import sys
import tracemalloc

import numpy as np
import pytest

from orlicz_korn import hardy, rearrange
from orlicz_korn.hardy import (
    StepFunction, averaging_operator, dual_operator, spike, step_on_interval,
    verify_hardy,
)
from orlicz_korn.young import DomainError, load_catalog


def test_average_of_constant_is_constant():
    f = step_on_interval(2.0, np.full(32, 3.5))
    out = averaging_operator(f)
    assert np.allclose(out.values, 3.5, rtol=1e-14)


def test_average_of_half_indicator():
    # f = 1 on (0, L/2): average is 1 up to L/2, then L/(2s)
    L = 1.0
    f = step_on_interval(L, np.concatenate((np.ones(32), np.zeros(32))))
    out = averaging_operator(f)
    mids = f.midpoints
    expect = np.where(mids <= 0.5, 1.0, 0.5 / mids)
    assert np.allclose(out.values, expect, rtol=1e-12)


def test_average_dominates_decreasing_input():
    rng = np.random.default_rng(1)
    vals = np.sort(rng.uniform(0.1, 5.0, 64))[::-1]
    f = step_on_interval(1.0, vals)
    out = averaging_operator(f)
    assert np.all(out.values >= f.values - 1e-12)


def test_dual_of_constant_is_log():
    f = step_on_interval(1.0, np.ones(64))
    out = dual_operator(f)
    assert np.allclose(out.values, np.log(1.0 / f.midpoints), rtol=1e-12)


def test_dual_constant_below_support():
    # f supported in (L/2, L): the dual operator is constant below L/2
    L = 1.0
    f = step_on_interval(L, np.concatenate((np.zeros(32), np.ones(32))))
    out = dual_operator(f)
    low = out.values[f.midpoints < 0.5]
    assert np.allclose(low, low[0], rtol=1e-12)


def test_dual_vanishes_at_top():
    rng = np.random.default_rng(2)
    f = step_on_interval(1.0, rng.uniform(0, 1, 64))
    out = dual_operator(f)
    # value at the last midpoint only integrates the final half cell
    assert out.values[-1] <= f.values[-1] * (f.widths[-1] / f.midpoints[-1])


def test_linearity_and_positivity():
    rng = np.random.default_rng(3)
    e = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 1.0, 40))))
    f1 = StepFunction(e, rng.uniform(0, 2, 40))
    f2 = StepFunction(e, rng.uniform(0, 2, 40))
    a, b = 2.5, -1.25
    comb = StepFunction(e, a * f1.values + b * f2.values)
    h = averaging_operator(comb).values
    h12 = a * averaging_operator(f1).values + b * averaging_operator(f2).values
    assert np.allclose(h, h12, rtol=1e-12)
    assert np.all(averaging_operator(f1).values >= 0)


def test_spike_family_closed_form(catalog):
    for delta in (1e-2, 1e-4, 1e-5):
        f = spike(1.0, delta)
        r = (rearrange.norm(catalog["L1"], averaging_operator(f))
             / rearrange.norm(catalog["L1"], f.sampled()))
        assert r == pytest.approx(1.0 + math.log(1.0 / delta), rel=1e-3)


def test_verify_hardy_square_pair(catalog):
    rep = verify_hardy(catalog["L2"], catalog["L2"], 1.0, trials=64)
    assert rep.worst_avg.ratio_avg <= 2.05
    assert rep.worst_dual.ratio_dual <= 2.05
    assert rep.balance_holds
    assert not rep.sweep_growing


def test_verify_hardy_holds_no_balance_curve_through_its_trials():
    # the balance check's right-hand-side curves die when each of its
    # conditions returns, so the trial family runs without them: (L2, L2)
    # peaks at 9.2 MiB under tracemalloc, where keeping the curves of L2 and
    # conj(L2) (3.4 MiB each) through the whole family took 12.6
    A = load_catalog()["L2"]
    tracemalloc.start()
    try:
        verify_hardy(A, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20, peak


def test_verify_hardy_balanced_log_pair(catalog):
    rep = verify_hardy(catalog["LlogL"], catalog["L1"], 1.0, trials=32)
    assert math.isfinite(rep.worst_avg.ratio_avg)
    assert not rep.sweep_growing


def test_verify_hardy_linear_pair_diverges(catalog):
    rep = verify_hardy(catalog["L1"], catalog["L1"], 1.0, trials=32)
    assert rep.sweep_growing
    assert not rep.balance_holds
    ratios = [r for _, r in rep.spike_sweep]
    assert ratios[-1] > 10.0


def test_length_rescaling_invariance(catalog):
    # for a pair passing with t0 = 0 the worst ratio is stable under L -> 2L
    r1 = verify_hardy(catalog["L2"], catalog["L2"], 1.0, trials=48)
    r2 = verify_hardy(catalog["L2"], catalog["L2"], 2.0, trials=48)
    assert r2.worst_avg.ratio_avg == pytest.approx(r1.worst_avg.ratio_avg, rel=0.05)


def test_verify_hardy_takes_L_up_to_where_the_trial_integrals_leave_float_range(catalog):
    # the log spike ln(L/s)^8 integrates to 8! L; at the bound no trial
    # overflows (a RuntimeWarning fails the test), just past it L is refused
    L2 = catalog["L2"]
    assert hardy._MAX_L == sys.float_info.max / math.factorial(8)
    rep = verify_hardy(L2, L2, hardy._MAX_L, trials=1)
    ratios = [r for t in rep.trials for r in (t.ratio_avg, t.ratio_dual)]
    assert all(math.isfinite(r) for r in ratios + [r for _, r in rep.spike_sweep])
    with pytest.raises(DomainError):
        verify_hardy(L2, L2, float(np.nextafter(hardy._MAX_L, math.inf)), trials=1)


def test_verify_hardy_takes_L_down_to_where_the_trial_edges_stay_normal(catalog):
    # L1 fails its primal condition, so its family holds certificate spikes
    # of width L * 1e-9 with inner edges at L * 1e-12, and cells after them
    # 0.024 times as wide; at the bound no edge and no cell width is
    # subnormal (a RuntimeWarning fails the test, and a subnormal weight is
    # refused), just below it L is refused
    L1 = catalog["L1"]
    assert hardy._MIN_L == sys.float_info.min * 1e14
    rep = verify_hardy(L1, L1, hardy._MIN_L, trials=1)
    assert any(t.label.startswith("certificate_") for t in rep.trials)
    ratios = [r for t in rep.trials for r in (t.ratio_avg, t.ratio_dual)]
    assert all(math.isfinite(r) for r in ratios + [r for _, r in rep.spike_sweep])
    with pytest.raises(DomainError):
        verify_hardy(L1, L1, float(np.nextafter(hardy._MIN_L, 0.0)), trials=1)


def test_trials_validation(catalog):
    with pytest.raises(DomainError):
        verify_hardy(catalog["L2"], catalog["L2"], 1.0, trials=0)


# ---------------------------------------------------------------------------
# the rearrangement reduction: the gradient estimate reduced to H + H*
# ---------------------------------------------------------------------------

_GROWTH_TOL = 0.25            # allowed ratio growth per unit ln(sharpening)


def _averaging_plus_dual(f: StepFunction) -> rearrange.SampledFunction:
    """s -> (H f + H* f)(s), the majorant of the rearrangement reduction."""
    return rearrange.SampledFunction(averaging_operator(f).values + dual_operator(f).values,
                                     f.widths)


def rearrangement_reduction_check(A, B, psi: StepFunction) -> bool:
    """Check that the averaging-plus-dual majorant of a decreasing profile has
    a finite norm ratio against the profile, stable under sharpening.

    This operationalizes the reduction of the gradient estimate to the two
    one-dimensional operators: for a pair satisfying the balance conditions
    the constant depends only on the balance constant, so the ratio
    ||H psi + H* psi||_B / ||psi||_A stays put when psi is replaced by its
    measure-rescaled sharpening lam * psi(lam s).  A ratio that keeps growing
    along the sharpening sweep returns False.
    """
    if np.any(np.diff(psi.values) > 1e-12):
        raise DomainError("psi must be nonincreasing")
    if np.any(psi.values < 0):
        raise DomainError("psi must be nonnegative")

    def ratio(f: StepFunction) -> float:
        return hardy._ratios(A, B, f, (_averaging_plus_dual,))[0]

    def sharpened(lam: float) -> StepFunction:
        # concentrate the profile toward 0 on the same interval (0, L)
        edges = np.concatenate((psi.edges / lam, [psi.length]))
        values = np.concatenate((psi.values * lam, [0.0]))
        return StepFunction(edges, values)

    r1 = ratio(psi)
    if r1 == 0.0:
        return True
    r4 = ratio(sharpened(4.0))
    r16 = ratio(sharpened(16.0))
    if not (math.isfinite(r4) and math.isfinite(r16)):
        return False
    slope = (r16 - r4) / math.log(4.0)
    return slope <= max(_GROWTH_TOL, 0.02 * r1)


def test_reduction_check_constant(catalog):
    psi = step_on_interval(1.0, np.ones(32))
    assert rearrangement_reduction_check(catalog["L2"], catalog["L2"], psi)


def test_reduction_check_balanced_spike(catalog):
    psi = spike(1.0, 1e-4)
    assert rearrangement_reduction_check(catalog["LlogL"], catalog["L1"], psi)


def test_reduction_check_rejects_increasing(catalog):
    psi = step_on_interval(1.0, np.linspace(0.0, 1.0, 16))
    with pytest.raises(DomainError):
        rearrangement_reduction_check(catalog["L2"], catalog["L2"], psi)


def test_reduction_check_divergent_pair(catalog):
    # the averaging majorant of a sharp spike blows up for the linear pair
    psi = spike(1.0, 1e-4)
    assert not rearrangement_reduction_check(catalog["L1"], catalog["L1"], psi)
