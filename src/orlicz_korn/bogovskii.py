"""Integral right inverse of the divergence on star-shaped box domains.

The operator maps a mean-zero scalar f to the vector field

    (T f)(x) = integral_Omega f(y) (x-y)/|x-y|^n
               * integral_{|x-y|}^inf omega(y + r (x-y)/|x-y|) r^(n-1) dr dy,

where omega is a fixed normalized polynomial bump supported in the ball of
star-shapedness.  The inner ray integral truncates to the bump support and is
a polynomial of degree <= n+7 in r, so 6-node Gauss-Legendre evaluates it
exactly; the outer integral uses midpoint cell quadrature away from x and a
polar rule over the node-aligned square patch around the |x-y|^(1-n)
singularity.  div(T f) = f is never assumed: the residual is measured.

The kernel K(x, y) of T is equivariant under every symmetry R of the square
that maps the node grid and the bump ball onto themselves:
K(R x, R y) = R K(x, y).  ``apply`` builds it for one node per orbit of that
group only (about one eighth of the nodes of ``make_config``'s grids) and reads
every other node off the permuted source: (T f)(R x) = R [K_x . (f o R)].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import Grid, GridField
from .young import DomainError, YoungFunction

__all__ = ["BogovskiiConfig", "make_config", "apply", "div_residual",
           "norm_bound_ratio", "ratio_suite", "smooth_suite", "spike_suite"]

_GAUSS6_X, _GAUSS6_W = np.polynomial.legendre.leggauss(6)
# graded subdivision toward the singularity: cells whose centres lie within
# _INNER_CELLS (_BAND_CELLS) cell widths of a node are split _N_INNER x
# _N_INNER (_N_BAND x _N_BAND)
_INNER_CELLS, _BAND_CELLS = 2.0, 5.0
_N_INNER, _N_BAND = 8, 3
# the solver's domain is the square (0, _LENGTH)^2 with the bump ball of
# radius _RADIUS * _LENGTH at its centre
_LENGTH, _RADIUS = 1.0, 0.22
# core radii of the spike suite, as fractions of the side length
_SPIKE_SHARPNESS = (0.2, 0.1, 0.05, 0.025)
# The 8 symmetries of the square about its midpoint, the identity first: the
# symmetry (axes, signs) maps the point u to (signs[0] u[axes[0]],
# signs[1] u[axes[1]]), and a vector the same way.
_SQUARE = tuple((axes, np.array(signs)) for axes in ((0, 1), (1, 0))
                for signs in itertools.product((1, -1), repeat=2))
# a ball centre within this many cell widths of a symmetry axis lies on it:
# the slack covers the rounding of the centre's cell coordinates
_CENTRE_TOL = 1e-12


@dataclass(frozen=True)
class BogovskiiConfig:
    grid: Grid
    center: tuple          # center of the ball of star-shapedness
    radius: float          # bump support radius

    def __post_init__(self):
        if self.grid.dim != 2:
            raise DomainError("the divergence solver is implemented for planar grids")
        lo = [self.grid.origin[j] for j in range(2)]
        hi = [o + L for o, L in zip(self.grid.origin, self.grid.lengths)]
        for j in range(2):
            if not (lo[j] + self.radius <= self.center[j] <= hi[j] - self.radius):
                raise DomainError("bump ball must sit inside the domain")

    @property
    def bump_norm(self) -> float:
        # integral over the unit disk of (1 - rho^2)^4 is pi/5
        return 5.0 / (math.pi * self.radius ** 2)


def make_config(cells: int) -> BogovskiiConfig:
    grid = Grid.box((cells, cells), lengths=_LENGTH, origin=(0.0, 0.0))
    return BogovskiiConfig(grid, (0.5 * _LENGTH, 0.5 * _LENGTH),
                           _RADIUS * _LENGTH)


def _ray_integral(cfg: BogovskiiConfig, px: np.ndarray, py: np.ndarray,
                  ex: np.ndarray, ey: np.ndarray, rmin: np.ndarray) -> np.ndarray:
    """integral_rmin^inf omega(y + r e) r^(n-1) dr along unit rays e from the
    points y = (px, py).

    The integrand is supported where the ray crosses the bump ball beyond
    rmin, a polynomial in r there, and 6-node Gauss is exact; the other rays
    give 0 and are not evaluated.
    """
    cx, cy = cfg.center
    dx = cx - px
    dy = cy - py
    b = ex * dx + ey * dy                 # ray parameter of closest approach
    d2 = dx * dx + dy * dy
    disc = b * b - (d2 - cfg.radius ** 2)
    sq = np.sqrt(np.clip(disc, 0.0, None))
    r1 = np.maximum(b - sq, rmin)
    r2 = np.maximum(b + sq, rmin)
    hit = (disc > 0.0) & (r2 > r1)
    px, py, ex, ey, r1, r2 = (a[hit] for a in (px, py, ex, ey, r1, r2))
    mid = 0.5 * (r1 + r2)
    half = 0.5 * (r2 - r1)
    acc = 0.0
    for xg, wg in zip(_GAUSS6_X, _GAUSS6_W):
        r = mid + half * xg
        rho2 = ((px + r * ex - cx) ** 2 + (py + r * ey - cy) ** 2) / cfg.radius ** 2
        om = cfg.bump_norm * np.clip(1.0 - rho2, 0.0, None) ** 4
        acc = acc + wg * om * r
    out = np.zeros(hit.shape)
    out[hit] = acc * half
    return out


def _row_kernel(cfg: BogovskiiConfig, x0: float, x1: np.ndarray) -> np.ndarray:
    """Quadrature weights (2, len(x1), cells) of the nodes (x0, x1[j]) of one
    node row: row (c, j) contracted with cell values of f gives component c
    of T f at node j."""
    g = cfg.grid
    hx, hy = g.spacing
    Yc = g.cell_coords()
    cx = Yc[0].ravel()
    cy = Yc[1].ravel()
    dist_c = np.hypot(x0 - cx[None, :], x1[:, None] - cy[None, :])
    band_r = _BAND_CELLS * hx
    inner_r = _INNER_CELLS * hx
    masks = (dist_c >= band_r, (dist_c < band_r) & (dist_c >= inner_r),
             dist_c < inner_r)
    out = np.zeros((2, len(x1), len(cx)))
    # cells split s x s per zone: far cells (s = 1, a zero offset) keep their
    # centre, band and near cells are refined toward the node
    for mask, s in zip(masks, (1, _N_BAND, _N_INNER)):
        nodes, cells = np.nonzero(mask)
        o = (np.arange(s) + 0.5) / s - 0.5
        ox, oy = np.meshgrid(o, o, indexing="ij")
        px = cx[cells][:, None] + ox.ravel() * hx
        py = cy[cells][:, None] + oy.ravel() * hy
        dx = x0 - px
        dy = x1[nodes][:, None] - py
        dist = np.hypot(dx, dy)
        # subcell points at the node itself are left out
        keep = dist > 1e-3 * hx
        dist = np.where(keep, dist, 1.0)
        ex = dx / dist
        ey = dy / dist
        w = np.where(keep, _ray_integral(cfg, px, py, ex, ey, dist)
                     * (g.cell_volume / (s * s)) / dist, 0.0)
        out[0, nodes, cells] = np.sum(w * ex, axis=1)
        out[1, nodes, cells] = np.sum(w * ey, axis=1)
    return out


def _symmetries(cfg: BogovskiiConfig) -> list:
    """The symmetries of the square (``_SQUARE``) that map the node grid and
    the bump ball onto themselves: the kernel is equivariant under each,
    K(Rx, Ry) = R K(x, y)."""
    g = cfg.grid
    h = g.spacing[0]
    # the ball centre about the box midpoint, in cell widths
    off = np.array([(c - o) / h - 0.5 * e for c, o, e in zip(cfg.center, g.origin, g.extents)])
    return [(axes, signs) for axes, signs in _SQUARE
            if (axes == (0, 1) or g.extents[0] == g.extents[1])
            and np.all(np.abs(signs * off[list(axes)] - off) <= _CENTRE_TOL)]


def _image(symmetry, shape: tuple) -> np.ndarray:
    """Flat index of the image of each point of an index grid of the given
    shape (cells: extents, nodes: extents + 1), centred on the box midpoint."""
    axes, signs = symmetry
    # doubled coordinates about the midpoint, which are integers
    u = np.stack(np.meshgrid(*(2 * np.arange(s) - (s - 1) for s in shape), indexing="ij"))
    v = signs[:, None, None] * u[list(axes)]
    return np.ravel_multi_index(tuple((v[c] + shape[c] - 1) // 2 for c in range(2)),
                                shape).ravel()


def apply(cfg: BogovskiiConfig, f_cells: np.ndarray) -> list:
    """Evaluate the divergence right-inverse of f at the grid nodes.

    f_cells is a stack of m sources, of shape (m, *grid.extents), and the
    result the list of their m GridFields.  Each source must be mean-zero
    (relative tolerance 1e-8 against its L1 mass).
    f is treated as piecewise constant on cells; quadrature refines the
    cells by graded subdivision toward the kernel singularity.

    The kernel does not depend on f.  It is built for one node per orbit of
    the configuration's symmetry group (the symmetries of the square that
    map the node grid and the bump ball onto themselves), one node row at a
    time, and each row is contracted with every source in turn, once per
    symmetry R: (T f)(R x) = R [K_x . (f o R)].  Each node takes its value
    from the first symmetry that reaches it.  One matrix-vector product per
    source keeps a source's field independent of the other sources of its
    stack.
    """
    g = cfg.grid
    f = np.asarray(f_cells, dtype=float)
    if f.shape[1:] != tuple(g.extents):
        raise DomainError("f must be a stack of cell-centered scalar data")
    stack = f.reshape(-1, math.prod(g.extents))
    for fv in stack:
        mass = abs(float(np.sum(fv))) * g.cell_volume
        l1 = float(np.sum(np.abs(fv))) * g.cell_volume
        if l1 > 0 and mass > 1e-8 * l1:
            raise DomainError(f"f must have zero mean (|mean| = {mass:.3g} vs 1e-8 * ||f||_1)")
    hx, hy = g.spacing
    if abs(hx - hy) > 1e-12 * hx:
        raise DomainError("graded subdivision assumes square cells")
    if len(stack) == 0:
        return []
    nx, ny = g.node_shape
    group = _symmetries(cfg)
    images = [_image(R, g.node_shape) for R in group]
    # the fundamental nodes: the first node of each orbit in flat order
    fundamental = np.flatnonzero(np.min(images, axis=0) == np.arange(nx * ny))
    written = np.zeros(nx * ny, dtype=bool)
    firsts = []
    for image in images:
        reached = image[fundamental]
        firsts.append(~written[reached])
        written[reached] = True
    permuted = [stack[:, _image(R, g.extents)] for R in group]     # f o R
    x1 = g.origin[1] + np.arange(ny) * hy
    out = np.zeros((len(stack), 2, nx * ny))
    for i in np.unique(fundamental // ny):
        row = np.flatnonzero(fundamental // ny == i)
        nodes = fundamental[row]
        kernel = _row_kernel(cfg, g.origin[0] + i * hx, x1[nodes % ny]).reshape(2 * row.size, -1)
        for (axes, signs), image, first, sources in zip(group, images, firsts, permuted):
            keep = first[row]
            targets = image[nodes[keep]]
            for k, fv in enumerate(sources):
                v = (kernel @ fv).reshape(2, row.size)[:, keep]
                out[k][:, targets] = signs[:, None] * v[list(axes)]
    return [GridField(g, c.reshape(2, nx, ny)) for c in out]


def div_residual(cfg: BogovskiiConfig, f_cells: np.ndarray, bf: GridField) -> float:
    """||div(T f) - f||_inf / ||f||_inf (discrete cell-centered divergence),
    with bf = T f the solved field (``apply``)."""
    div = fields.divergence(bf)
    denom = float(np.max(np.abs(f_cells)))
    return float(np.max(np.abs(div - f_cells))) / denom


def norm_bound_ratio(cfg: BogovskiiConfig, A: YoungFunction, B: YoungFunction,
                     f_cells: np.ndarray, bf: GridField) -> float:
    """||grad(T f)||_{L^B} / ||f||_{L^A}, with bf = T f the solved field
    (``apply``)."""
    num = fields.norm_of_tensor(B, fields.gradient(bf))
    den = fields.norm_of_cells(A, f_cells, cfg.grid)
    if den == 0.0:
        raise DomainError("zero input")
    return num / den


def ratio_suite(cfg: BogovskiiConfig, A: YoungFunction, B: YoungFunction,
                suite: str = "smooth") -> list:
    """Rows (label, div_residual, norm_ratio) over a named source suite,
    solved in one stacked call."""
    if suite not in ("smooth", "spike"):
        raise DomainError(f"unknown suite {suite!r}")
    sources = smooth_suite(cfg) if suite == "smooth" else spike_suite(cfg)
    bfs = apply(cfg, np.reshape(sources, (len(sources), *cfg.grid.extents)))
    return [(f"{suite}_{i}", div_residual(cfg, f, bf), norm_bound_ratio(cfg, A, B, f, bf))
            for i, (f, bf) in enumerate(zip(sources, bfs))]


def _unit_cell_coords(cfg: BogovskiiConfig) -> np.ndarray:
    """The cell centres (x, y) in units of the side length."""
    return np.stack(cfg.grid.cell_coords()) / cfg.grid.lengths[0]


def _mean_one_bump(cfg: BogovskiiConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    g0 = np.clip(1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.33 ** 2, 0.0, None) ** 2
    if not g0.sum() > 0:
        raise DomainError("no cell centre lies inside the compensating bump; "
                          "the grid is too coarse for the smooth suite")
    return g0 / (g0.sum() * cfg.grid.cell_volume)


def smooth_suite(cfg: BogovskiiConfig) -> list:
    """Five fixed smooth sources, compactly supported and exactly mean-zero
    (mean compensated by a fixed interior bump, not by a global shift)."""
    x, y = _unit_cell_coords(cfg)
    window = (np.sin(math.pi * x) * np.sin(math.pi * y)) ** 2
    g0 = _mean_one_bump(cfg, x, y)
    raw = [
        np.sin(2 * math.pi * x) * np.sin(2 * math.pi * y),
        window * np.sin(4 * math.pi * x),
        window * np.cos(2 * math.pi * y) * np.sin(2 * math.pi * x),
        window * np.exp(-18 * ((x - 0.4) ** 2 + (y - 0.55) ** 2)),
        window * (x - 0.5) * np.sin(3 * math.pi * y),
    ]
    vol = cfg.grid.cell_volume
    return [r - (r.sum() * vol) * g0 for r in raw]


def spike_suite(cfg: BogovskiiConfig) -> list:
    """Mean-zero dipoles with shrinking positive cores and one fixed sink."""
    x, y = _unit_cell_coords(cfg)
    vol = cfg.grid.cell_volume
    sink = np.clip(1.0 - ((x - 0.7) ** 2 + (y - 0.5) ** 2) / 0.2 ** 2, 0.0, None) ** 2
    sink_mass = sink.sum()
    out = []
    for d in _SPIKE_SHARPNESS:
        core = np.clip(1.0 - ((x - 0.35) ** 2 + (y - 0.5) ** 2) / d ** 2, 0.0, None) ** 2
        core_mass = core.sum()
        if core_mass > 0 and sink_mass > 0:
            out.append(core / (core_mass * vol) - sink / (sink_mass * vol))
    return out
