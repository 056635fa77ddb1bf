import json
import math
import tracemalloc

import numpy as np
import pytest

from orlicz_korn import fields, hardy
from orlicz_korn.fields import (
    ConfigurationError, Grid, GridField, KernelBasis, KernelMembership,
    dev_sym_gradient, gradient, korn_ratio, negative_norm_lower_bound,
    poincare_ratio, project_kernel, radial_test_field, sym_gradient,
)
from orlicz_korn.young import DomainError


@pytest.fixture(scope="module")
def grid3():
    return Grid.box(8, lengths=2.0, origin=(-1.0, -1.0, -1.0), dim=3)


def test_grid_lengths_are_the_box_lengths():
    g = Grid.box((3, 7), lengths=(1.0, 2.2), origin=(0.5, -1.0))
    assert g.lengths == (g.spacing[0] * 3, g.spacing[1] * 7)
    assert g.lengths == pytest.approx((1.0, 2.2), rel=1e-15)
    assert g.node_coords()[1][0, -1] == -1.0 + g.lengths[1]


def _affine_field(grid, M, b=None):
    X = grid.node_coords()
    n = grid.dim
    b = b if b is not None else np.zeros(n)
    comps = [sum(M[i][j] * X[j] for j in range(n)) + b[i] for i in range(n)]
    return GridField(grid, comps)


# ---------------------------------------------------------------------------
# derivative operators
# ---------------------------------------------------------------------------

def test_gradient_exact_on_affine(grid3):
    M = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [0.5, 0.0, 1.0]])
    G = gradient(_affine_field(grid3, M, np.array([1.0, -2.0, 0.3])))
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(G.entries[i][j] - M[i, j])) < 1e-13


def test_gradient_single_shear(grid3):
    X = grid3.node_coords()
    u = GridField(grid3, [X[1], np.zeros(grid3.node_shape), np.zeros(grid3.node_shape)])
    G = gradient(u)
    assert np.max(np.abs(G.entries[0][1] - 1.0)) < 1e-13
    others = [abs(G.entries[i][j]).max() for i in range(3) for j in range(3)
              if (i, j) != (0, 1)]
    assert max(others) < 1e-13


def test_gradient_second_order_convergence():
    errs = []
    for cells in (8, 16, 32):
        g = Grid.box(cells, dim=3)
        X = g.node_coords()
        u = GridField(g, [np.sin(X[0]) * np.cos(X[1]), np.cos(X[2]),
                          np.sin(X[1] + X[2])])
        Xc = g.cell_coords()
        exact = np.cos(Xc[0]) * np.cos(Xc[1])
        errs.append(float(np.abs(gradient(u).entries[0][0] - exact).max()))
    order = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
    assert min(order) > 1.8


def test_sym_gradient_kills_rotations(grid3):
    Q = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])
    u = _affine_field(grid3, Q)
    assert sym_gradient(u).magnitude().max() < 1e-13


def test_dev_sym_gradient_kills_dilation(grid3):
    u = _affine_field(grid3, 0.7 * np.eye(3))
    E = sym_gradient(u)
    assert np.max(np.abs(E.trace() / 3.0 - 0.7)) < 1e-13
    assert dev_sym_gradient(u).magnitude().max() < 1e-13


def test_dev_sym_gradient_kills_quadratic_generators():
    # the special quadratic kernel fields are exact for the averaged stencil,
    # so the residual sits at machine precision on every grid
    for cells in (8, 16, 32):
        g = Grid.box(cells, lengths=2.0, origin=(-1.0, -1.0, -1.0), dim=3)
        basis = KernelBasis(g, "sigma")
        for gen in basis.generators[-3:]:
            u = GridField(g, [c.copy() for c in gen])
            scale = max(abs(c).max() for c in gen)
            assert dev_sym_gradient(u).magnitude().max() < 1e-12 * max(scale, 1.0)


def test_dev_sym_gradient_rejects_2d():
    g = Grid.box((8, 8), lengths=1.0)
    u = GridField(g, [np.zeros(g.node_shape), np.zeros(g.node_shape)])
    with pytest.raises(DomainError):
        dev_sym_gradient(u)


def test_pointwise_norm_chain(grid3, catalog):
    # |dev sym| <= 2 |sym| <= 2 |grad| pointwise
    rng = np.random.default_rng(8)
    u = GridField(grid3, [rng.standard_normal(grid3.node_shape) for _ in range(3)])
    G = gradient(u).magnitude()
    E = sym_gradient(u).magnitude()
    D = dev_sym_gradient(u).magnitude()
    assert np.all(D <= 2 * E + 1e-12)
    assert np.all(E <= G + 1e-12)


# ---------------------------------------------------------------------------
# kernel basis and projection
# ---------------------------------------------------------------------------

def test_kernel_basis_dimensions(grid3):
    assert len(KernelBasis(grid3, "R")) == 6
    assert len(KernelBasis(grid3, "sigma")) == 10


def test_kernel_basis_independent(grid3):
    basis = KernelBasis(grid3, "sigma")
    w = fields._node_weights(grid3).ravel()
    rows = np.stack([np.concatenate([c.ravel() for c in gen])
                     for gen in basis.generators])
    gram = (rows * np.tile(w, 3)) @ rows.T
    assert np.linalg.cond(gram) < 1e8


def test_projection_fixes_range(grid3):
    rng = np.random.default_rng(3)
    basis = KernelBasis(grid3, "sigma")
    coef = rng.standard_normal(len(basis))
    comps = [sum(coef[k] * basis.generators[k][i] for k in range(len(basis)))
             for i in range(3)]
    u = GridField(grid3, comps)
    p = project_kernel(u)
    err = max(np.abs(p.components[i] - u.components[i]).max() for i in range(3))
    scale = max(np.abs(u.components[i]).max() for i in range(3))
    assert err < 1e-10 * scale


def test_projection_idempotent_linear(grid3):
    rng = np.random.default_rng(4)
    u = GridField(grid3, [rng.standard_normal(grid3.node_shape) for _ in range(3)])
    v = GridField(grid3, [rng.standard_normal(grid3.node_shape) for _ in range(3)])
    p1 = project_kernel(u)
    p2 = project_kernel(p1)
    assert max(np.abs(p1.components[i] - p2.components[i]).max()
               for i in range(3)) < 1e-10
    lin = project_kernel(u + v)
    both = p1 + project_kernel(v)
    assert max(np.abs(lin.components[i] - both.components[i]).max()
               for i in range(3)) < 1e-10


def test_projection_annihilates_odd_high_frequency(grid3):
    X = grid3.node_coords()
    comps = [np.sin(4 * math.pi * X[0]) * np.sin(4 * math.pi * X[1])
             * np.sin(4 * math.pi * X[2]) for _ in range(3)]
    u = GridField(grid3, comps)
    p = project_kernel(u)
    assert max(np.abs(c).max() for c in p.components) < 5e-3


def test_projection_needs_enough_cells():
    g = Grid.box(2, dim=2)
    u = GridField(g, [np.zeros(g.node_shape), np.zeros(g.node_shape)])
    with pytest.raises((ConfigurationError, DomainError)):
        fields.project_kernel(u, "sigma")


# ---------------------------------------------------------------------------
# Korn and Poincare ratios
# ---------------------------------------------------------------------------

def test_korn_ratio_kernel_membership_signal(grid3, catalog):
    basis = KernelBasis(grid3, "sigma")
    u = GridField(grid3, [c.copy() for c in basis.generators[7]])
    with pytest.raises(KernelMembership):
        korn_ratio(catalog["L2"], catalog["L2"], u, "full_domain", "ED")


def test_korn_ratio_random_square_suite(catalog):
    g = Grid.box(16, dim=3)
    rs = [korn_ratio(catalog["L2"], catalog["L2"], u, "zero_bc", "ED")
          for u in fields.random_suite(g, 20, seed=2)]
    assert all(math.isfinite(r) for r in rs)
    assert max(rs) <= 10.0


def test_korn_ratio_refinement_stability(catalog):
    vals = []
    for cells in (8, 16, 32):
        g = Grid.box(cells, dim=3)
        u = fields.smooth_suite(g, 1)[0]
        vals.append(korn_ratio(catalog["L2"], catalog["L2"], u, "zero_bc", "ED"))
    assert abs(vals[2] - vals[1]) <= 0.1 * vals[1]


def test_korn_ratio_full_domain_shift_invariant(grid3, catalog):
    # adding a kernel field must not change the full-domain ratio
    rng = np.random.default_rng(12)
    u = GridField(grid3, [rng.standard_normal(grid3.node_shape) for _ in range(3)])
    basis = KernelBasis(grid3, "sigma")
    shifted = GridField(grid3, [u.components[i] + 0.8 * basis.generators[8][i]
                                for i in range(3)])
    r1 = korn_ratio(catalog["L2"], catalog["L2"], u, "full_domain", "ED")
    r2 = korn_ratio(catalog["L2"], catalog["L2"], shifted, "full_domain", "ED")
    assert r2 == pytest.approx(r1, rel=1e-6)


def test_korn_zero_bc_requires_boundary(grid3, catalog):
    rng = np.random.default_rng(1)
    u = GridField(grid3, [rng.standard_normal(grid3.node_shape) for _ in range(3)])
    with pytest.raises(DomainError):
        korn_ratio(catalog["L2"], catalog["L2"], u, "zero_bc", "ED")


def test_poincare_ratio_across_growth_regimes(catalog):
    g = Grid.box(10, dim=3)
    suite = fields.random_suite(g, 4, seed=3)
    for name in ("L1", "L2", "LlogL", "expL", "Linf"):
        rs = [poincare_ratio(catalog[name], u, "zero_bc") for u in suite]
        assert all(math.isfinite(r) and r > 0 for r in rs), name


def test_ratios_reject_unknown_mode(grid3, catalog):
    u = fields.smooth_suite(grid3, 1)[0]
    with pytest.raises(DomainError):
        poincare_ratio(catalog["L2"], u, "bogus")
    with pytest.raises(DomainError):
        korn_ratio(catalog["L2"], catalog["L2"], u, "bogus", "ED")


def test_poincare_kernel_signal(grid3, catalog):
    basis = KernelBasis(grid3, "sigma")
    u = GridField(grid3, [c.copy() for c in basis.generators[9]])
    with pytest.raises(KernelMembership):
        poincare_ratio(catalog["L2"], u, "full_domain")


# ---------------------------------------------------------------------------
# radial test fields
# ---------------------------------------------------------------------------

def test_radial_zero_profile():
    g = Grid.box(12, lengths=2.2, origin=(-1.1, -1.1, -1.1), dim=3)
    h = hardy.step_on_interval(4.0 * math.pi / 3.0, np.zeros(8))
    u = radial_test_field(h, g)
    assert max(abs(c).max() for c in u.components) == 0.0


def test_radial_field_needs_the_unit_ball_inside_the_box():
    h = hardy.step_on_interval(4.0 * math.pi / 3.0, np.ones(8))
    with pytest.raises(DomainError):
        radial_test_field(h, Grid.box(12, dim=3))


def test_radial_symmetric_gradient_bound():
    g = Grid.box(24, lengths=2.2, origin=(-1.1, -1.1, -1.1), dim=3)
    omega = 4.0 * math.pi / 3.0
    h = hardy.step_on_interval(omega, np.linspace(2.0, 0.1, 16))
    u = radial_test_field(h, g)
    E = sym_gradient(u)
    Xc = g.cell_coords()
    r = np.sqrt(sum(x * x for x in Xc))
    tau = omega * r ** 3
    idx = np.clip(np.searchsorted(h.edges, tau.ravel(), side="right") - 1, 0, 15)
    hx = np.where(tau.ravel() >= omega, 0.0, h.values[idx]).reshape(r.shape)
    interior = r < 0.9
    ratio = E.magnitude()[interior] / (hx[interior] + 1e-12)
    assert ratio.max() <= 1.0 + 0.1


def test_radial_spike_drives_linear_korn(catalog):
    g = Grid.box(32, lengths=2.2, origin=(-1.1, -1.1, -1.1), dim=3)
    omega = 4.0 * math.pi / 3.0
    ratios = []
    for delta in (0.3, 0.03, 0.003):
        u = radial_test_field(hardy.spike(omega, delta * omega), g)
        ratios.append(korn_ratio(catalog["L1"], catalog["L1"], u, "zero_bc", "E"))
    assert ratios[2] > ratios[0]


# ---------------------------------------------------------------------------
# negative norm
# ---------------------------------------------------------------------------

def test_negative_norm_constant_is_zero(catalog):
    g = Grid.box(12, dim=3)
    assert negative_norm_lower_bound(catalog["L2"], [np.ones(g.extents)], g) == [0.0]


def test_negative_norm_bump_window(catalog):
    g = Grid.box(16, dim=3)
    Xc = g.cell_coords()
    u = np.exp(-25 * sum((x - 0.5) ** 2 for x in Xc))
    lb, = negative_norm_lower_bound(catalog["L2"], [u], g)
    from orlicz_korn import rearrange as ra
    centered = np.abs(u - u.mean()).ravel()
    nrm = ra.norm(catalog["L2"], ra.SampledFunction(
        centered, np.full(centered.shape, g.cell_volume)))
    C = 2.0 * math.sqrt(3.0)
    assert 0.01 * C <= lb / nrm <= C


def test_negative_norm_trivial_upper_bound_all_catalog(catalog):
    g = Grid.box(10, dim=3)
    rng = np.random.default_rng(6)
    Xc = g.cell_coords()
    from orlicz_korn import rearrange as ra
    C = 2.0 * math.sqrt(3.0)
    for name, A in catalog.items():
        u = np.exp(-rng.uniform(10, 40) * sum((x - rng.uniform(0.35, 0.65)) ** 2
                                              for x in Xc))
        lb, = negative_norm_lower_bound(A, [u], g)
        centered = np.abs(u - u.mean()).ravel()
        ub = C * ra.norm(A, ra.SampledFunction(
            centered, np.full(centered.shape, g.cell_volume)))
        assert lb <= ub * (1 + 1e-9), name


@pytest.mark.parametrize("dim", [2, 3])
def test_negative_norm_suite_matches_per_trial_calls(catalog, dim):
    # the suite shares one bump dictionary across its trials
    A = catalog["LlogL"]
    g = Grid.box(6, dim=dim)
    rng = np.random.default_rng(11)
    Xc = g.cell_coords()
    expected = []
    for i in range(3):
        c = [rng.uniform(0.3, 0.7) for _ in range(dim)]
        s = rng.uniform(0.1, 0.3)
        u = np.exp(-sum((x - ci) ** 2 for x, ci in zip(Xc, c)) / s ** 2)
        lb, = negative_norm_lower_bound(A, [u], g)
        ub = fields.negative_norm_upper_bound(A, u, g)
        expected.append((f"bump_{i}", lb, ub, lb <= ub * (1.0 + 1e-9)))
    assert fields.negative_norm_suite(A, g, 3, 11) == expected


@pytest.mark.parametrize("dim", [2, 3])
def test_negative_norm_stack_matches_single_sources(catalog, dim):
    A = catalog["expL"]
    g = Grid.box(6, dim=dim)
    Xc = g.cell_coords()
    sources = [np.ones(g.extents), np.exp(-20 * sum((x - 0.4) ** 2 for x in Xc)),
               Xc[0] * Xc[-1] - 0.3 * Xc[0] ** 2]
    stacked = negative_norm_lower_bound(A, np.stack(sources), g)
    assert isinstance(stacked, list)
    assert stacked == [negative_norm_lower_bound(A, [u], g)[0] for u in sources]
    assert all(isinstance(lb, float) for lb in stacked)


def test_negative_norm_holds_one_bump_at_a_time(catalog):
    # each bump's gradient is paired with every source and dropped before
    # the next one is built: at the default grid, 16^3 cells, the 80 bumps'
    # gradients take 7.5 MiB together, and 4 sources peak at 0.7 MiB under
    # tracemalloc, where building the whole dictionary first took 8.0
    g = Grid.box(16, dim=3)
    Xc = g.cell_coords()
    sources = np.stack([np.exp(-sum((x - c) ** 2 for x in Xc) / 0.04) for c in (0.35, 0.45, 0.55, 0.65)])
    tracemalloc.start()
    try:
        negative_norm_lower_bound(catalog["L2"], sources, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


@pytest.mark.parametrize("shape", [(2, 6, 6, 5), (2, 6, 6), (6, 6), (2, 2, 6, 6, 6), (6, 6, 6)])
def test_negative_norm_rejects_a_stack_of_the_wrong_shape(catalog, shape):
    with pytest.raises(DomainError):
        negative_norm_lower_bound(catalog["L2"], np.ones(shape), Grid.box(6, dim=3))


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def test_field_io_round_trip(tmp_path, grid3):
    rng = np.random.default_rng(5)
    u = GridField(grid3, [rng.standard_normal(grid3.node_shape) for _ in range(3)])
    base = str(tmp_path / "field")
    fields.save_field(u, base)
    v = fields.load_field(base)
    assert v.grid == u.grid
    for a, b in zip(u.components, v.components):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_load_field_ignores_the_boundary_flag_of_an_old_header(tmp_path, grid3):
    # headers once carried "boundary_flag"; the field itself says whether it
    # vanishes on the boundary
    base = str(tmp_path / "field")
    fields.save_field(GridField(grid3, np.zeros((3, *grid3.node_shape))), base)
    with open(base + ".json") as fh:
        meta = json.load(fh)
    assert "boundary_flag" not in meta
    with open(base + ".json", "w") as fh:
        json.dump({**meta, "boundary_flag": True}, fh)
    assert fields.load_field(base).boundary_is_zero()


def test_load_field_rejects_a_format_other_than_bin(tmp_path, grid3):
    base = str(tmp_path / "field")
    fields.save_field(GridField(grid3, np.zeros((3, *grid3.node_shape))), base)
    meta = json.loads((tmp_path / "field.json").read_text())
    (tmp_path / "field.json").write_text(json.dumps({**meta, "format": "csv"}))
    with pytest.raises(DomainError, match="'csv'"):
        fields.load_field(base)


def test_fields_are_single_float_arrays(grid3, catalog):
    n = grid3.dim
    u = GridField(grid3, [np.full(grid3.node_shape, i) for i in range(n)])
    assert isinstance(u.components, np.ndarray) and u.components.dtype == float
    assert u.components.shape == (n, *grid3.node_shape)
    for wrong in ([np.zeros(grid3.node_shape)] * (n - 1),
                  np.zeros((n, *grid3.extents)),
                  [np.zeros(grid3.node_shape)] * (n - 1) + [np.zeros(grid3.extents)]):
        with pytest.raises(DomainError):
            GridField(grid3, wrong)
    assert gradient(u).entries.shape == (n, n, *grid3.extents)
    basis = KernelBasis(grid3)
    assert basis.generators.shape == (len(basis), n, *grid3.node_shape)
    # the cell norm takes |values| and weighs each cell by its volume
    from orlicz_korn import rearrange as ra
    v = np.random.default_rng(9).standard_normal(grid3.extents)
    for name in ("LlogL", "L2", "Linf"):
        expected = ra.norm(catalog[name], ra.SampledFunction(
            np.abs(v).ravel(), np.full(v.size, grid3.cell_volume)))
        assert fields.norm_of_cells(catalog[name], v, grid3) == expected
