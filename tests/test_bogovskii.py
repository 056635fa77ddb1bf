import math

import numpy as np
import pytest

from orlicz_korn import bogovskii as bog
from orlicz_korn import fields
from orlicz_korn.young import DomainError


def _reference_ray_integral(cfg, y, ex, ey, rmin):
    cx, cy = cfg.center
    dx = cx - y[..., 0]
    dy = cy - y[..., 1]
    b = ex * dx + ey * dy
    d2 = dx * dx + dy * dy
    disc = b * b - (d2 - cfg.radius ** 2)
    has = disc > 0.0
    sq = np.sqrt(np.clip(disc, 0.0, None))
    r1 = np.maximum(b - sq, rmin)
    r2 = np.maximum(b + sq, rmin)
    mid = 0.5 * (r1 + r2)
    half = 0.5 * (r2 - r1)
    out = np.zeros(np.broadcast(ex, b).shape)
    for xg, wg in zip(bog._GAUSS6_X, bog._GAUSS6_W):
        r = mid + half * xg
        px = y[..., 0] + r * ex
        py = y[..., 1] + r * ey
        rho2 = ((px - cx) ** 2 + (py - cy) ** 2) / cfg.radius ** 2
        om = cfg.bump_norm * np.clip(1.0 - rho2, 0.0, None) ** 4
        out = out + wg * om * r
    return np.where(has, out * half, 0.0)


def _reference_apply(cfg, f_cells):
    """The solver as one quadrature per node and zone: the reference that
    bogovskii.apply's row kernel is checked against."""
    g = cfg.grid
    hx, hy = g.spacing
    h = hx
    Yc = g.cell_coords()
    cx = Yc[0].ravel()
    cy = Yc[1].ravel()
    fv = np.asarray(f_cells, dtype=float).ravel()
    vol = g.cell_volume
    nx, ny = g.node_shape

    def sub_offsets(s):
        o = (np.arange(s) + 0.5) / s - 0.5
        ox, oy = np.meshgrid(o, o, indexing="ij")
        return ox.ravel() * hx, oy.ravel() * hy

    zones = [(s * s, *sub_offsets(s)) for s in (1, bog._N_BAND, bog._N_INNER)]
    inner_r = bog._INNER_CELLS * h
    band_r = bog._BAND_CELLS * h
    out = np.zeros((2, nx, ny))
    for i in range(nx):
        x0 = g.origin[0] + i * hx
        for j in range(ny):
            x1 = g.origin[1] + j * hy
            dist_c = np.hypot(x0 - cx, x1 - cy)
            masks = (dist_c >= band_r, (dist_c < band_r) & (dist_c >= inner_r),
                     dist_c < inner_r)
            a0 = a1 = 0.0
            for mask, (k, ox, oy) in zip(masks, zones):
                if not mask.any():
                    continue
                px = (cx[mask][:, None] + ox[None, :]).ravel()
                py = (cy[mask][:, None] + oy[None, :]).ravel()
                dx = x0 - px
                dy = x1 - py
                dist = np.hypot(dx, dy)
                keep = dist > 1e-3 * h
                dx, dy, dist = dx[keep], dy[keep], dist[keep]
                ex = dx / dist
                ey = dy / dist
                ypts = np.stack([px[keep], py[keep]], axis=-1)
                inner = _reference_ray_integral(cfg, ypts, ex, ey, dist)
                contrib = np.repeat(fv[mask], k)[keep] * (vol / k) * inner / dist
                a0 += float(np.sum(contrib * ex))
                a1 += float(np.sum(contrib * ey))
            out[:, i, j] = a0, a1
    return out


@pytest.fixture(scope="module")
def cfg32():
    return bog.make_config(32)


@pytest.fixture(scope="module")
def smooth32(cfg32):
    return bog.smooth_suite(cfg32)


def _bump_integral(cfg):
    """Cell quadrature of the bump."""
    Xc = cfg.grid.cell_coords()
    rho2 = sum((x - c) ** 2 for x, c in zip(Xc, cfg.center)) / cfg.radius ** 2
    w = cfg.bump_norm * np.clip(1.0 - rho2, 0.0, None) ** 4
    return float(np.sum(w) * cfg.grid.cell_volume)


def test_bump_normalized(cfg32):
    # strict tolerance at the acceptance resolution, sanity at the small one
    assert _bump_integral(bog.make_config(64)) == pytest.approx(1.0, abs=1e-6)
    assert _bump_integral(cfg32) == pytest.approx(1.0, abs=1e-4)


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


def test_mean_zero_required_of_every_source_of_a_stack(cfg32, smooth32):
    stack = np.array([smooth32[0], np.ones(cfg32.grid.extents), smooth32[1]])
    with pytest.raises(DomainError):
        bog.apply(cfg32, stack)


# make_config's grids have the 8 symmetries of the square, for even and odd
# cell counts; an off-centre ball keeps one mirror, a non-square box its two
# mirrors
_CONFIGS = {
    "square12": lambda: bog.make_config(12),
    "square13": lambda: bog.make_config(13),
    "off_centre_ball": lambda: bog.BogovskiiConfig(fields.Grid.box((12, 12)), (0.45, 0.5), 0.22),
    "non_square_box": lambda: bog.BogovskiiConfig(
        fields.Grid.box((12, 10), lengths=(1.2, 1.0)), (0.6, 0.5), 0.22),
}


@pytest.mark.parametrize("name", _CONFIGS)
def test_stacked_sources_match_the_per_node_reference(name):
    cfg = _CONFIGS[name]()
    sources = bog.smooth_suite(cfg) + bog.spike_suite(cfg)
    bfs = bog.apply(cfg, np.array(sources))
    assert len(bfs) == len(sources)
    for f, bf in zip(sources, bfs):
        ref = _reference_apply(cfg, f)
        assert np.max(np.abs(bf.components - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("suite", ["smooth", "spike"])
def test_stacked_solve_is_independent_of_the_stack(suite):
    cfg = bog.make_config(16)
    sources = bog.smooth_suite(cfg) if suite == "smooth" else bog.spike_suite(cfg)
    bfs = bog.apply(cfg, np.array(sources))
    for f, bf in zip(sources, bfs):
        assert np.array_equal(bf.components, bog.apply(cfg, f).components)


# the symmetries of the square as (swap, sx, sy): a node or cell array a
# over the centred grid becomes a o R = a[::sx, ::sy], transposed if swap,
# and R maps the vector (v0, v1) to (sx w0, sy w1), w = (v1, v0) if swap
_SQUARE = [(swap, sx, sy) for swap in (False, True) for sx in (1, -1) for sy in (1, -1)]


def _compose(a, swap, sx, sy):
    a = a[::sx, ::sy]
    return a.T if swap else a


def _inverse_turn(v, swap, sx, sy):
    # R^-1 v: undo the signs, then the swap
    w = (sx * v[0], sy * v[1])
    return np.array(w[::-1] if swap else w)


@pytest.mark.parametrize("swap, sx, sy", _SQUARE)
def test_field_is_equivariant_under_the_symmetries_of_the_square(swap, sx, sy):
    # T(f o R) = R^-1 (T f) o R, since K(R x, R y) = R K(x, y)
    cfg = bog.make_config(16)
    f = bog.smooth_suite(cfg)[3] + 0.5 * bog.spike_suite(cfg)[1]
    tf = bog.apply(cfg, f).components
    want = _inverse_turn([_compose(c, swap, sx, sy) for c in tf], swap, sx, sy)
    got = bog.apply(cfg, _compose(f, swap, sx, sy)).components
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(tf))


@pytest.mark.parametrize("make, nodes", [
    (lambda: bog.make_config(32), 153),
    (lambda: bog.make_config(33), 153),
    (lambda: bog.make_config(64), 561),
    (_CONFIGS["off_centre_ball"], 13 * 7),
    (_CONFIGS["non_square_box"], 7 * 6),
], ids=["square32", "square33", "square64", "off_centre_ball", "non_square_box"])
def test_kernel_rows_are_built_for_one_node_per_orbit(monkeypatch, make, nodes):
    built = []
    row_kernel = bog._row_kernel

    def counting(cfg, x0, x1):
        built.append(len(x1))
        return row_kernel(cfg, x0, x1)

    monkeypatch.setattr(bog, "_row_kernel", counting)
    cfg = make()
    bog.apply(cfg, np.zeros(cfg.grid.extents))
    assert sum(built) == nodes


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
    res32 = bog.div_residual(cfg32, smooth32[0], bog.apply(cfg32, smooth32[0]))
    cfg64 = bog.make_config(64)
    f64 = bog.smooth_suite(cfg64)[0]
    res64 = bog.div_residual(cfg64, f64, bog.apply(cfg64, f64))
    assert res64 <= 0.05
    assert res64 <= 0.55 * res32


def test_output_supported_inside(cfg32, smooth32):
    bf = bog.apply(cfg32, smooth32[0])
    mag = np.sqrt(bf.components[0] ** 2 + bf.components[1] ** 2)
    edge = max(mag[0, :].max(), mag[-1, :].max(), mag[:, 0].max(), mag[:, -1].max())
    assert edge <= 1e-3 * mag.max()


def test_norm_ratio_bounded_square_pair(cfg32, smooth32, catalog):
    rs = [bog.norm_bound_ratio(cfg32, catalog["L2"], catalog["L2"], f, bog.apply(cfg32, f))
          for f in smooth32[:3]]
    assert all(math.isfinite(r) and r < 50 for r in rs)


def test_norm_ratio_spike_behavior(cfg32, catalog):
    spikes = bog.spike_suite(cfg32)
    bfs = bog.apply(cfg32, np.array(spikes))
    linear = [bog.norm_bound_ratio(cfg32, catalog["L1"], catalog["L1"], f, bf)
              for f, bf in zip(spikes, bfs)]
    balanced = [bog.norm_bound_ratio(cfg32, catalog["LlogL"], catalog["L1"], f, bf)
                for f, bf in zip(spikes, bfs)]
    # the linear pair grows along the sweep, the balanced pair stays put
    assert linear[-1] > linear[0] * 1.2
    assert balanced[-1] <= balanced[0] * 1.2


def test_ratio_suite_matches_per_source_calls(catalog):
    cfg = bog.make_config(16)
    A, B = catalog["LlogL"], catalog["L1"]
    # each source solved on its own, against ratio_suite's stacked solve
    sources = bog.spike_suite(cfg)
    solved = [bog.apply(cfg, f) for f in sources]
    expected = [(f"spike_{i}", bog.div_residual(cfg, f, bf), bog.norm_bound_ratio(cfg, A, B, f, bf))
                for i, (f, bf) in enumerate(zip(sources, solved))]
    assert expected
    assert bog.ratio_suite(cfg, A, B, "spike") == expected
