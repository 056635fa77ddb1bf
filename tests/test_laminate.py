import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orlicz_korn import balance, fields, laminate, young
from orlicz_korn.laminate import (
    blowup_curve, build_laminate, exact_korn_l1_ratio, moment, realize_field,
)
from orlicz_korn.young import DomainError, PowerYoung

from laminate_oracle import build_laminate_recursive


def _frob(M):
    return np.linalg.norm(M, axis=(-2, -1))


def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


# ---------------------------------------------------------------------------
# exact measure bookkeeping
# ---------------------------------------------------------------------------

def test_matrices_are_one_float_array():
    M = build_laminate(1, 2.0).matrices()
    assert M.shape == (3, 2, 2) and M.dtype == np.float64
    assert M.tolist() == [[[0.0, 2.0], [2.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]],
                          [[0.0, -2.0], [2.0, 0.0]]]


def test_order_zero_is_dirac():
    L = build_laminate(0, 2.0)
    assert len(L.atoms) == 1
    w, a, b = L.atoms[0]
    assert w == 1 and a == 1 and b == 1


def test_order_one_atoms():
    L = build_laminate(1, 1.0)
    atoms = {(a, b): w for w, a, b in L.atoms}
    assert atoms[(Fraction(1), Fraction(1))] == Fraction(1, 2)
    assert atoms[(Fraction(1, 2), Fraction(-1, 2))] == Fraction(1, 3)
    assert atoms[(Fraction(-1), Fraction(1))] == Fraction(1, 6)


def test_exact_mass_barycenter_atom_count():
    for m in range(13):
        L = build_laminate(m, 3.0)
        assert sum((w for w, _, _ in L.atoms), Fraction(0)) == 1
        a, b = L.barycenter_coeffs()
        assert a == Fraction(1, 2 ** m) and b == Fraction(1, 2 ** m)
        assert len(L.atoms) == 2 * m + 1


def test_recursion_matches_closed_form():
    for m in range(13):
        A = sorted(build_laminate(m, 1.0).atoms)
        B = sorted(build_laminate_recursive(m, 1.0).atoms)
        assert A == B


def test_skew_concentration():
    for m in (1, 4, 9):
        L = build_laminate(m, 1.5)
        sym_atoms = [(w, a, b) for w, a, b in L.atoms if a != -b]
        assert len(sym_atoms) == 1
        assert sym_atoms[0][1] == 1 and sym_atoms[0][2] == 1


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_total_mass_moment():
    L = build_laminate(5, 0.7)
    assert moment(L, lambda M: 1.0) == pytest.approx(1.0, abs=1e-15)


def test_symmetric_part_moment_chain():
    # the symmetric-part first moment is controlled by 2^-m * 2 |G(t,t)|
    t = 1.0
    for m in range(1, 11):
        L = build_laminate(m, t)
        val = moment(L, lambda M: _frob(_sym(M)))
        bound = 2.0 ** (-m) * 2.0 * _frob(np.array([[0.0, t], [t, 0.0]]))
        assert val <= bound + 1e-14


def test_centered_first_moment_lower_bound():
    # the full first moment around the average grows like m 2^-m
    t = 1.0
    for m in range(2, 13):
        L = build_laminate(m, t)
        abar, bbar = L.barycenter_coeffs()
        val = moment(L, lambda M: _frob(
            M - np.array([[0.0, float(abar)], [float(bbar), 0.0]])))
        assert val >= 0.2 * m * 2.0 ** (-m)


# ---------------------------------------------------------------------------
# blow-up diagnostics
# ---------------------------------------------------------------------------

def test_blowup_linear_pair_grows(catalog):
    rows = blowup_curve(catalog["L1"], catalog["L1"], 10, 1.0)
    ratios = [r["ratio"] for r in rows]
    assert all(ratios[m + 1] > ratios[m] for m in range(2, 8))
    ms = np.arange(1, 11)
    ys = np.array(ratios[1:])
    A = np.vstack([ms, np.ones_like(ms)]).T
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    r2 = 1.0 - float(res[0]) / float(np.sum((ys - ys.mean()) ** 2))
    assert coef[0] > 0.1
    assert r2 > 0.95


def test_blowup_square_pair_bounded(catalog):
    rows = blowup_curve(catalog["L2"], catalog["L2"], 10, 1.0)
    ratios = [r["ratio"] for r in rows[1:]]
    assert max(ratios) <= min(ratios) * 1.05


# The laminate table beside the primal balance verdict: the growth
# r(200) / r(100) of its ratio column.  The 5 primal passes that grow are
# the sweep's false passes (a log gap at p = 2 or a loglog factor).
# the finite-valued example pairs (Linf jumps to infinity) and two controls
_TREND_BOUNDED = [(a, b) for a, b, _ in balance.EXAMPLE_PAIRS if a != "Linf"]
_TREND_BOUNDED += [("L2", "L2"), ("expL", "expL")]
_TREND_FALSE_PASSES = [("L2", "L2_log"), ("L2_loglog", "L2_log"), ("L2", "L2_loglog"),
                       ("LlogL", "L_loglog"), ("LlogL2", "LlogL_loglog")]
_TREND_FAILS = [("LlogL", "LlogL"), ("L1", "L1")]


def test_laminate_trend_stays_bounded_on_primal_passes_and_grows_on_failures(catalog):
    growth = {}
    for a, b in _TREND_BOUNDED + _TREND_FALSE_PASSES + _TREND_FAILS:
        rows = blowup_curve(catalog[a], catalog[b], 200, 1.0)
        assert [r["m"] for r in rows] == list(range(201))
        growth[a, b] = rows[200]["ratio"] / rows[100]["ratio"]
    # measured: at most 1.0207, 1.18 to 2.05, and 2.04 and 1.98
    assert all(growth[pair] <= 1.05 for pair in _TREND_BOUNDED), growth
    assert all(growth[pair] >= 1.15 for pair in _TREND_FALSE_PASSES), growth
    assert all(growth[pair] >= 1.7 for pair in _TREND_FAILS), growth


def test_blowup_scale_doubling_control(catalog):
    rows = blowup_curve(catalog["L1"], catalog["L1"], 12, 1.0)
    for a, b in zip(rows[4:], rows[5:]):
        assert b["t_m"] <= 2.0 * a["t_m"] * (1 + 1e-12)


@functools.lru_cache(maxsize=None)
def _exact_atoms(m):
    """(w, alpha - abar, beta - abar, skew) of build_laminate(m)'s atoms, and
    abar, each rounded once from its exact Fraction."""
    L = build_laminate(m, 1.0)
    abar, _ = L.barycenter_coeffs()
    return [(float(w), float(al - abar), float(be - abar), al == -be)
            for w, al, be in L.atoms], float(abar)


@functools.lru_cache(maxsize=None)
def _oracle_scale(A, m, r):
    return float(A.inverse(2.0 ** (m - 1) / r ** 2)) / (2.0 * math.sqrt(2.0))


def _oracle_row(A, B, m, r):
    """Row m of blowup_curve as it was computed atom by atom: the scale from
    a scalar inverse, the atoms as exact Fractions, and A and B evaluated at
    one 0-d array per atom (A at a skew atom once, as every skew atom has
    the same symmetric distance; ``value`` without the sign check of
    ``__call__``, as every distance is >= 0)."""
    t_m = _oracle_scale(A, m, r)
    atoms, abar = _exact_atoms(m)
    a_skew = float(A.value(np.asarray(math.hypot(abar, abar) * t_m)))
    sym, full = [], []
    for w, dal, dbe, skew in atoms:
        dfull = math.hypot(dal, dbe) * t_m
        sym.append(w * (a_skew if skew else float(A.value(np.asarray(dfull)))))
        full.append(w * float(B.value(np.asarray(dfull))))
    sym_m, full_m = math.fsum(sym), math.fsum(full)
    if sym_m > 0:
        ratio = full_m / sym_m
    else:
        ratio = 0.0 if full_m == 0.0 else math.inf
    return {"m": m, "t_m": t_m, "sym_moment": sym_m, "full_moment": full_m, "ratio": ratio}


_FINITE_VALUED = [name for name, A in young.load_catalog().items() if A.finite_valued]


@pytest.mark.parametrize("name_A", _FINITE_VALUED)
def test_blowup_rows_are_the_per_atom_fraction_rows(catalog, name_A):
    # every catalog B, at four r and two m_max: the same rows, bit for bit;
    # row m does not depend on m_max, so the oracle runs once to 40
    A = catalog[name_A]
    for B in catalog.values():
        for r in (0.3, 1.0, 7.0, 1e10):
            want = [_oracle_row(A, B, m, r) for m in range(41)]
            assert blowup_curve(A, B, 10, r) == want[:11], (B, r)
            assert blowup_curve(A, B, 40, r) == want, (B, r)


def test_blowup_last_row_at_the_largest_order(catalog):
    # m_max = 1024 is the last order whose target 2^(m-1) is a float
    rows = blowup_curve(catalog["L1"], catalog["L1"], 1024, 1.0)
    assert len(rows) == 1025
    assert rows[-1] == _oracle_row(catalog["L1"], catalog["L1"], 1024, 1.0)


def test_blowup_evaluates_each_side_once_per_order(monkeypatch):
    # one inverse for all the scales, and one value call per order on each side
    A, B = PowerYoung(1.0), PowerYoung(2.0)
    calls = {"inverse": 0, "A": 0, "B": 0}

    def counted(key, f):
        def g(*args):
            calls[key] += 1
            return f(*args)
        return g
    monkeypatch.setattr(A, "inverse", counted("inverse", A.inverse))
    monkeypatch.setattr(A, "value", counted("A", A.value))
    monkeypatch.setattr(B, "value", counted("B", B.value))
    assert len(blowup_curve(A, B, 12, 1.0)) == 13
    assert calls == {"inverse": 1, "A": 13, "B": 13}


def test_blowup_order_zero_defined(catalog):
    rows = blowup_curve(catalog["L1"], catalog["L1"], 0, 1.0)
    assert len(rows) == 1
    assert rows[0]["ratio"] == 0.0


def test_blowup_rejects_indicator(catalog):
    with pytest.raises(DomainError):
        blowup_curve(catalog["Linf"], catalog["L1"], 3, 1.0)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_blowup_and_realization_reject_nonpositive_r(catalog, r):
    with pytest.raises(DomainError):
        blowup_curve(catalog["L1"], catalog["L1"], 2, r)
    with pytest.raises(DomainError):
        realize_field(build_laminate(1, 1.0), r, 8)


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_realization_order_zero_affine():
    real = realize_field(build_laminate(0, 1.0), 1.0, 8)
    u = real.as_grid_field(32)
    assert max(abs(c).max() for c in u.components) < 1e-12


def test_realization_moment_convergence_depth64():
    phis = {
        "full": lambda M: _frob(M),
        "square": lambda M: _frob(M) ** 2,
        "sym": lambda M: _frob(_sym(M)),
    }
    for m in (1, 2, 3):
        L = build_laminate(m, 1.0)
        real = realize_field(L, 1.0, 64)
        for name, phi in phis.items():
            exact = moment(L, phi)
            realized = real.moment(phi)
            assert realized == pytest.approx(exact, rel=0.05), (m, name)


def test_realization_moment_improves_with_depth():
    L = build_laminate(1, 1.0)
    phi = lambda M: _frob(M)
    exact = moment(L, phi)
    gaps = [abs(realize_field(L, 1.0, d).moment(phi) - exact) for d in (8, 64)]
    assert gaps[1] < gaps[0]


def _gradient_region_fractions(real):
    """The area fractions of a realization's clean atom regions and ramp
    layers, stage by stage."""
    out = {"ramp": 0.0}
    weight = 1.0
    for k, st in enumerate(real.stages):
        kappa = 2.0 * st.ramp / st.trans_len
        out["ramp"] += weight * kappa
        out[f"atom_{k}"] = weight * (1.0 - kappa) * st.lam
        weight *= (1.0 - kappa) * (1.0 - st.lam)
    out["final"] = weight
    return out


def test_realization_ramp_layer_small():
    real = realize_field(build_laminate(3, 1.0), 1.0, 64)
    fracs = _gradient_region_fractions(real)
    assert fracs["ramp"] <= 6.0 / 64.0


def test_realization_gradient_histogram():
    # sampled finite differences land near the atom values outside the ramps
    m = 1
    L = build_laminate(m, 1.0)
    real = realize_field(L, 1.0, 8)
    u = real.as_grid_field(1024)
    G = fields.gradient(u)
    avg = real.average
    vals = np.stack([np.stack([G.entries[i][j] for j in range(2)], -1)
                     for i in range(2)], -2) + avg
    atom_mats = L.matrices()
    d = np.min(np.stack([_frob(vals - am) for am in atom_mats]), axis=0)
    near = float(np.mean(d < 0.05 * _frob(atom_mats[0])))
    assert near > 0.8


def test_realization_boundary_zero():
    real = realize_field(build_laminate(2, 1.0), 1.0, 16)
    u = real.as_grid_field(256)
    assert u.boundary_is_zero()


def test_realization_suite_matches_the_per_level_loop():
    # the per-level loop laminate-demo --realize ran before the suite existed
    m_max, r, depth, cells = 3, 1.0, 8, 16
    rows, grids = [], []
    for m in range(1, min(m_max, 3) + 1):
        L = build_laminate(m, 1.0)
        real = realize_field(L, r, depth)
        exact = moment(L, _frob) * r ** 2
        realized = real.moment(_frob)
        rows.append([m, exact, realized, abs(realized - exact) / max(abs(exact), 1e-300)])
        grids.append(real.as_grid_field(cells))
    # the suite is a generator: read it once, into a list
    suite = list(laminate.realization_suite(m_max, r, depth, cells))
    assert [row for row, _ in suite] == rows
    assert len(suite) == len(grids)
    for (_, u), v in zip(suite, grids):
        assert u.grid == v.grid and u.boundary_is_zero() and v.boundary_is_zero()
        assert np.array_equal(u.components, v.components)
    assert [row[0] for row, _ in laminate.realization_suite(10, 1.0, 8, 4)] == [1, 2, 3]
    assert list(laminate.realization_suite(0, 1.0, 8, 4)) == []


def _whole_grid_field(real, cells):
    """The displacement evaluated on the whole node grid at once, boundary
    zeroed: the reference for the field filled in row blocks."""
    grid = fields.Grid.box((cells, cells), lengths=real.r, origin=(0.0, 0.0))
    v = np.stack(real.displacement(*grid.node_coords()))
    fields._zero_boundary(v)
    return grid, v


@pytest.mark.parametrize("cells, block_nodes", [
    (2, None), (16, None), (33, None),
    # 513 node rows, in blocks of 31 rows: the last block holds 17
    (512, None),
    # 17 node rows in blocks of 5 and of 1
    (16, 100), (16, 1)])
def test_grid_field_in_row_blocks_is_the_whole_grid_evaluation(monkeypatch, cells, block_nodes):
    if block_nodes is not None:
        monkeypatch.setattr(laminate, "_BLOCK_NODES", block_nodes)
    real = realize_field(build_laminate(3, 1.0), 1.0, 8)
    grid, v = _whole_grid_field(real, cells)
    u = real.as_grid_field(cells)
    assert u.grid == grid and u.boundary_is_zero()
    assert u.components.dtype == v.dtype and u.components.shape == v.shape
    assert u.components.tobytes() == v.tobytes()


def test_grid_field_peaks_below_two_fields():
    real = realize_field(build_laminate(3, 1.0), 1.0, 8)
    field_bytes = 2 * 513 ** 2 * 8
    tracemalloc.start()
    try:
        u = real.as_grid_field(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.components.nbytes == field_bytes
    assert peak <= 2 * field_bytes


def test_sampled_korn_ratio_grows_then_exact_tracks(catalog):
    sampled = []
    for m in (1, 2):
        real = realize_field(build_laminate(m, 1.0), 1.0, 5)
        u = real.as_grid_field(1024)
        sampled.append(fields.korn_ratio(catalog["L1"], catalog["L1"], u,
                                         "zero_bc", "E"))
    assert sampled[1] > sampled[0]
    exact = [exact_korn_l1_ratio(m) for m in range(1, 9)]
    assert all(b > a for a, b in zip(exact, exact[1:]))
    assert sampled[0] == pytest.approx(exact[0], rel=0.15)
