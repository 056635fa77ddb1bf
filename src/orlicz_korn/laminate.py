"""Exact laminates on 2x2 matrices, their blow-up diagnostics, and a
piecewise-affine field realization.

The measure family lives on off-diagonal matrices G(a, b) = [[0, a], [b, 0]].
Starting from a Dirac at G(t, t), each construction level splits off one
skew-leaning atom by a rank-one move in the b-coordinate (weight 1/3) and one
by a rank-one move in the a-coordinate (weight 1/4 of the remainder), leaving
half the mass on the previous-level measure; after m levels the average is
exactly G(t/2^m, t/2^m) and the atom count is 2m + 1.  ``Laminate`` keeps
weights and atom coordinates as exact rationals (dyadic over 3 * 2^m), and so
its mass and barycentre are exact.  ``blowup_curve`` reads the same atoms as
floats, with the same bits: for m <= 1024 a power of two is exact and a
difference, third or sixth rounds once, as float() of the Fraction does, and
fsum does not depend on the order of its terms.

The realization builds the classical nested sawtooth with transverse cutoff
ramps; every oscillation count exact-fits its interval, so the only
deviations from the ideal gradient distribution are the ramp layers of
measure O(1/depth), and the field's moments are computed by a recursion that
integrates those layers explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import Grid, GridField, _zero_boundary
from .young import DomainError, YoungFunction

__all__ = ["Laminate", "build_laminate", "moment", "blowup_curve", "realize_field",
           "LaminateRealization", "korn_suite_fields", "realization_suite",
           "exact_korn_l1_ratio"]

SQRT2 = math.sqrt(2.0)
_RAMP_QUAD = 48           # midpoint nodes per ramp-layer side in moment()
# the Korn harness realizes the laminate of scale _T on (0, _R)^2: sampled on
# _SUITE_CELLS^2 cells at depth _SUITE_DEPTH, integrated exactly at _EXACT_DEPTH
_T, _R = 1.0, 1.0
_SUITE_CELLS, _SUITE_DEPTH, _EXACT_DEPTH = 1024, 5, 64
# realization_suite realizes the laminates of scale _T up to this level
_REALIZE_LEVELS = 3
# as_grid_field evaluates the displacement on blocks of whole node rows, about
# this many nodes a block, so that its temporaries stay a small part of a field
_BLOCK_NODES = 2 ** 14


@dataclass(frozen=True)
class Laminate:
    """Finitely supported probability measure on off-diagonal matrices.

    atoms are (weight, alpha, beta), all exact Fractions; the matrix of an
    atom is G(alpha * scale, beta * scale).
    """

    atoms: tuple
    order: int
    scale: float

    def matrices(self) -> np.ndarray:
        """(k, 2, 2) array of the atom matrices, in atom order."""
        out = np.zeros((len(self.atoms), 2, 2))
        out[:, 0, 1] = [float(al) * self.scale for _, al, _ in self.atoms]
        out[:, 1, 0] = [float(be) * self.scale for _, _, be in self.atoms]
        return out

    def barycenter_coeffs(self) -> tuple:
        a = sum((w * al for w, al, _ in self.atoms), Fraction(0))
        b = sum((w * be for w, _, be in self.atoms), Fraction(0))
        return a, b


def build_laminate(m: int, t: float) -> Laminate:
    """Closed-form atom list: weight 2^-m at G(t, t) plus, for k = 1..m,
    weight (1/3) 2^(k-m) at G(2^-k t, -2^-k t) and (1/6) 2^(k-m) at
    G(-2^(1-k) t, 2^(1-k) t)."""
    if m < 0 or t <= 0:
        raise DomainError("need m >= 0 and t > 0")
    atoms = [(Fraction(1, 2 ** m), Fraction(1), Fraction(1))]
    for k in range(1, m + 1):
        wk = Fraction(2 ** k, 2 ** m)
        atoms.append((wk / 3, Fraction(1, 2 ** k), -Fraction(1, 2 ** k)))
        atoms.append((wk / 6, -Fraction(2, 2 ** k), Fraction(2, 2 ** k)))
    return Laminate(tuple(atoms), m, float(t))


def moment(L: Laminate, Phi) -> float:
    """sum of w * Phi(atom matrix) over the 2x2 atom arrays; weights exact,
    summed with fsum in atom order."""
    return math.fsum(float(w) * float(Phi(M))
                     for (w, _, _), M in zip(L.atoms, L.matrices()))


def blowup_curve(A: YoungFunction, B: YoungFunction, m_max: int,
                 r: float) -> list:
    """Rows (m, t_m, sym_moment, full_moment, ratio) with t_m normalizing the
    symmetric-part moment: r^2 2^-m A(2 |G(t_m, t_m)|) = 1/2.

    For pairs violating the primal balance condition the ratio column grows
    without bound in m; for admissible pairs it stays bounded.  A target
    2^(m-1) / r^2 past the float range is rejected before any row is built.
    """
    if not A.finite_valued:
        raise DomainError("the scale choice needs a finite-valued, invertible "
                          "function on the deviatoric side")
    if not (r > 0 and 0 < r * r < math.inf):
        raise DomainError("need r > 0 with r^2 a positive finite float")
    if m_max < 0:
        raise DomainError("need m_max >= 0")
    # 2^(m-1) leaves the float range past m = 1024
    if m_max > 1024 or not math.isfinite(2.0 ** (m_max - 1) / r ** 2):
        raise DomainError(f"no finite scale solves the normalization at m={m_max}")
    scales = A.inverse(np.array([2.0 ** (m - 1) / r ** 2 for m in range(m_max + 1)])) / (2.0 * SQRT2)
    bad = ~((scales > 0) & np.isfinite(scales))
    if bad.any():
        raise DomainError(f"no finite scale solves the normalization at m={int(np.argmax(bad))}")
    rows = []
    for m, t_m in enumerate(scales.tolist()):
        # the atoms of build_laminate(m, t_m) and its barycentre abar, as floats
        abar, p = 2.0 ** -m, np.ldexp(1.0, -np.arange(1, m + 1))
        w = np.concatenate(([abar], abar / p / 3, abar / p / 6))
        dfull = np.hypot(np.concatenate(([1.0], p, -2 * p)) - abar,
                         np.concatenate(([1.0], -p, 2 * p)) - abar) * t_m
        # the symmetric part of G(t, t) is itself; that of a skew atom is 0
        dsym = np.concatenate((dfull[:1], np.full(2 * m, math.hypot(abar, abar) * t_m)))
        sym_m, full_m = math.fsum(w * A(dsym)), math.fsum(w * B(dfull))
        ratio = full_m / sym_m if sym_m > 0 else (0.0 if full_m == 0.0 else math.inf)
        rows.append({"m": m, "t_m": t_m, "sym_moment": sym_m,
                     "full_moment": full_m, "ratio": ratio})
    return rows


# ---------------------------------------------------------------------------
# realization as piecewise-affine fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Stage:
    axis: int          # oscillation axis (0 or 1)
    comp: int          # displacement component receiving the correction
    lam: float         # measure fraction of the split-off atom
    delta: float       # gradient jump entry (atom = parent + (1-lam)*delta*E)
    parent: np.ndarray # 2x2 average before this split
    atom: np.ndarray   # 2x2 split-off atom value
    period: float
    ramp: float        # transverse cutoff width
    trans_len: float   # transverse interval length


def _plan_stages(m: int, t: float, r: float, depth: int) -> list:
    """Alternating-direction split plan; every period exact-fits its
    interval and each stage refines the transverse scale by ``depth``."""
    stages = []
    lengths = [r, r]          # the current interval length along each axis
    for level in range(m, 0, -1):
        s = t * 2.0 ** (-level)
        # (axis, comp, lam, delta, parent, atom) of the level's two splits:
        # average G(s, s) -> atom G(s, -s) (w 1/3) + G(s, 2s), then
        # average G(s, 2s) -> atom G(-2s, 2s) (w 1/4) + G(2s, 2s)
        splits = ((0, 1, 1.0 / 3.0, -3.0 * s, [[0.0, s], [s, 0.0]], [[0.0, s], [-s, 0.0]]),
                  (1, 0, 1.0 / 4.0, -4.0 * s, [[0.0, s], [2.0 * s, 0.0]],
                   [[0.0, -2.0 * s], [2.0 * s, 0.0]]))
        for axis, comp, lam, delta, parent, atom in splits:
            osc, trans = lengths[axis], lengths[1 - axis]
            n = max(1, round(osc / min(trans / depth, osc)))
            p = osc / n
            w = min(p / 4.0, trans / 8.0)
            stages.append(_Stage(axis, comp, lam, delta, np.array(parent), np.array(atom),
                                 p, w, trans))
            lengths[axis], lengths[1 - axis] = (1.0 - lam) * p, trans - 2.0 * w
    return stages


def _profile(eta: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Sawtooth with slopes (1-lam) on the atom part and -lam on the rest."""
    split = lam * p
    return np.where(eta < split, (1.0 - lam) * eta, lam * (p - eta))


class LaminateRealization:
    """Nested-sawtooth displacement whose gradients realize the laminate.

    ``displacement`` evaluates v = u - average x (vanishing on the boundary);
    ``moment`` integrates Phi(grad u) over the square exactly up to the
    quadrature of the ramp layers; ``as_grid_field`` samples v on a grid.
    """

    def __init__(self, L: Laminate, r: float, depth: int):
        if L.order < 0 or depth < 4 or not (r > 0 and 0 < r * r < math.inf):
            raise DomainError("need order >= 0, depth >= 4 and r > 0 with r^2 a "
                              "positive finite float")
        self.r = float(r)
        self.depth = int(depth)
        self.stages = _plan_stages(L.order, L.scale, r, depth)
        abar, bbar = L.barycenter_coeffs()
        self.average = np.array([[0.0, float(abar) * L.scale],
                                 [float(bbar) * L.scale, 0.0]])
        self.final = np.array([[0.0, L.scale], [L.scale, 0.0]])

    # -- pointwise displacement -------------------------------------------
    def displacement(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """v at the points (x, y), one array of shape (2, *x.shape)."""
        xi = [np.array(x, dtype=float), np.array(y, dtype=float)]
        scale = np.ones(xi[0].shape)
        active = np.ones(scale.shape, dtype=bool)
        v = np.zeros((2, *scale.shape))
        for st in self.stages:
            d, tax = st.axis, 1 - st.axis
            eta = np.mod(xi[d], st.period)
            chi = np.clip(np.minimum(xi[tax], st.trans_len - xi[tax]) / st.ramp,
                          0.0, 1.0)
            phi = _profile(eta, st.lam, st.period)
            v[st.comp] += np.where(active, scale * chi * phi * st.delta, 0.0)
            legacy = eta >= st.lam * st.period
            core = (xi[tax] >= st.ramp) & (xi[tax] <= st.trans_len - st.ramp)
            active = active & legacy & core
            scale = np.where(active, scale * chi, scale)
            xi[d] = eta - st.lam * st.period
            xi[tax] = xi[tax] - st.ramp
        return v

    # -- moments of the realized gradient ----------------------------------
    def moment(self, Phi) -> float:
        """integral over (0, r)^2 of Phi(grad u), by exact region accounting
        plus midpoint quadrature over the ramp layers."""
        return self.r ** 2 * self._stage_moment(0, Phi)

    def _stage_moment(self, j: int, Phi) -> float:
        if j >= len(self.stages):
            return float(Phi(self.final))
        st = self.stages[j]
        kappa = 2.0 * st.ramp / st.trans_len
        atom_val = float(Phi(st.atom))
        legacy_val = self._stage_moment(j + 1, Phi)
        core = (1.0 - kappa) * (st.lam * atom_val + (1.0 - st.lam) * legacy_val)
        # ramp layer: grad = parent + chi phi' R + chi' phi C over one period
        etas = (np.arange(_RAMP_QUAD) + 0.5) * (st.period / _RAMP_QUAD)
        xis = (np.arange(_RAMP_QUAD) + 0.5) * (st.ramp / _RAMP_QUAD)
        E, X = np.meshgrid(etas, xis, indexing="ij")
        chi = X / st.ramp
        dchi = 1.0 / st.ramp
        phi = _profile(E, st.lam, st.period)
        dphi = np.where(E < st.lam * st.period, 1.0 - st.lam, -st.lam)
        G = np.zeros(E.shape + (2, 2))
        G[..., :, :] = st.parent
        G[..., st.comp, st.axis] += chi * dphi * st.delta
        G[..., st.comp, 1 - st.axis] += dchi * phi * st.delta
        ramp_avg = float(np.mean(Phi(G)))
        return core + kappa * ramp_avg

    # -- sampling ------------------------------------------------------------
    def as_grid_field(self, cells: int) -> GridField:
        """v at the nodes of cells^2 cells on (0, r)^2, zero on the boundary.
        ``displacement`` is elementwise, so filling the field a block of
        rows at a time gives each node the bits of a whole-grid call."""
        grid = Grid.box((cells, cells), lengths=self.r, origin=(0.0, 0.0))
        x, y = grid.node_axes()
        v = np.empty((2, x.size, y.size))
        rows = max(1, _BLOCK_NODES // y.size)
        for i in range(0, x.size, rows):
            v[:, i:i + rows] = self.displacement(*np.meshgrid(x[i:i + rows], y, indexing="ij"))
        _zero_boundary(v)
        return GridField(grid, v)


def realize_field(L: Laminate, r: float, depth: int) -> LaminateRealization:
    """Realize the laminate as a Lipschitz displacement on (0, r)^2."""
    return LaminateRealization(L, r, depth)


def korn_suite_fields(m_max: int):
    """Yield the sampled laminate displacements for the Korn harness, m =
    1..m_max, one at a time, so that a caller who drops each field keeps one
    alive."""
    for m in range(1, m_max + 1):
        yield realize_field(build_laminate(m, _T), _R, _SUITE_DEPTH).as_grid_field(_SUITE_CELLS)


def realization_suite(m_max: int, r: float, depth: int, cells: int):
    """Yield pairs (row, field) for m = 1..min(m_max, _REALIZE_LEVELS), one
    at a time, so that a caller who drops each field keeps one alive: the
    laminate of scale _T realized on (0, r)^2 at the given depth, with row
    (m, exact, realized, rel_gap) comparing the exact moment of |G| (times
    r^2) with the realized one, and the field sampled on cells^2 cells."""
    phi = lambda M: np.linalg.norm(M, axis=(-2, -1))
    for m in range(1, min(m_max, _REALIZE_LEVELS) + 1):
        L = build_laminate(m, _T)
        real = realize_field(L, r, depth)
        exact = moment(L, phi) * r ** 2
        realized = real.moment(phi)
        yield ([m, exact, realized, abs(realized - exact) / max(abs(exact), 1e-300)],
               real.as_grid_field(cells))


def exact_korn_l1_ratio(m: int) -> float:
    """||grad v||_1 / ||E v||_1 of the realized displacement, by the exact
    gradient-region quadrature (resolution-independent, so it tracks the
    blow-up to orders the sampled fields cannot resolve)."""
    real = realize_field(build_laminate(m, _T), _R, _EXACT_DEPTH)
    avg = real.average
    full = real.moment(lambda M: np.linalg.norm(M - avg, axis=(-2, -1)))
    sym = real.moment(lambda M: np.linalg.norm(
        0.5 * (M + np.swapaxes(M, -1, -2)) - avg, axis=(-2, -1)))
    return full / sym
