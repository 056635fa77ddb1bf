import math

import numpy as np
import pytest

from orlicz_korn import bogovskii as bog
from orlicz_korn import fields, young
from orlicz_korn.young import DomainError


@pytest.fixture(scope="module")
def catalog():
    return young.load_catalog()


@pytest.fixture(scope="module")
def cfg32():
    return bog.make_config(32)


@pytest.fixture(scope="module")
def smooth32(cfg32):
    return bog.smooth_suite(cfg32)


def test_bump_normalized(cfg32):
    # strict tolerance at the acceptance resolution, sanity at the small one
    assert bog.bump_integral_check(bog.make_config(64)) == pytest.approx(1.0, abs=1e-6)
    assert bog.bump_integral_check(cfg32) == pytest.approx(1.0, abs=1e-4)


def test_bump_ball_must_fit():
    g = fields.Grid.box((16, 16), lengths=1.0)
    with pytest.raises(DomainError):
        bog.BogovskiiConfig(g, (0.05, 0.5), 0.2)


def test_zero_input_gives_zero(cfg32):
    f = np.zeros(cfg32.grid.extents)
    bf = bog.apply(cfg32, f)
    assert max(abs(c).max() for c in bf.components) == 0.0


def test_mean_zero_required(cfg32):
    f = np.ones(cfg32.grid.extents)
    with pytest.raises(DomainError):
        bog.apply(cfg32, f)


def test_linearity(cfg32, smooth32):
    f1, f2 = smooth32[0], smooth32[3]
    a, b = 1.7, -0.6
    lhs = bog.apply(cfg32, a * f1 + b * f2)
    r1 = bog.apply(cfg32, f1)
    r2 = bog.apply(cfg32, f2)
    for k in range(2):
        rhs = a * r1.components[k] + b * r2.components[k]
        assert np.allclose(lhs.components[k], rhs, rtol=1e-10, atol=1e-12)


def test_divergence_residual_and_refinement(smooth32, cfg32):
    # second-order decay of the divergence residual under grid refinement
    res32 = bog.div_residual(cfg32, smooth32[0])
    cfg64 = bog.make_config(64)
    f64 = bog.smooth_suite(cfg64)[0]
    res64 = bog.div_residual(cfg64, f64)
    assert res64 <= 0.05
    assert res64 <= 0.55 * res32


def test_output_supported_inside(cfg32, smooth32):
    bf = bog.apply(cfg32, smooth32[0])
    mag = np.sqrt(bf.components[0] ** 2 + bf.components[1] ** 2)
    edge = max(mag[0, :].max(), mag[-1, :].max(), mag[:, 0].max(), mag[:, -1].max())
    assert edge <= 1e-3 * mag.max()


def test_norm_ratio_bounded_square_pair(cfg32, smooth32, catalog):
    rs = [bog.norm_bound_ratio(cfg32, catalog["L2"], catalog["L2"], f)
          for f in smooth32[:3]]
    assert all(math.isfinite(r) and r < 50 for r in rs)


def test_norm_ratio_spike_behavior(cfg32, catalog):
    spikes = bog.spike_suite(cfg32)
    linear = [bog.norm_bound_ratio(cfg32, catalog["L1"], catalog["L1"], f)
              for f in spikes]
    balanced = [bog.norm_bound_ratio(cfg32, catalog["LlogL"], catalog["L1"], f)
                for f in spikes]
    # the linear pair grows along the sweep, the balanced pair stays put
    assert linear[-1] > linear[0] * 1.2
    assert balanced[-1] <= balanced[0] * 1.2


def test_ratio_suite_matches_per_source_calls(catalog):
    cfg = bog.make_config(16)
    A, B = catalog["LlogL"], catalog["L1"]
    expected = [(f"spike_{i}", bog.div_residual(cfg, f), bog.norm_bound_ratio(cfg, A, B, f))
                for i, f in enumerate(bog.spike_suite(cfg))]
    assert expected
    assert bog.ratio_suite(cfg, A, B, "spike") == expected
