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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields, rearrange
from .fields import Grid, GridField
from .rearrange import SampledFunction
from .young import DomainError, YoungFunction

__all__ = ["BogovskiiConfig", "make_config", "apply", "div_residual",
           "norm_bound_ratio", "ratio_suite", "smooth_suite", "spike_suite"]

_GAUSS6_X, _GAUSS6_W = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class BogovskiiConfig:
    grid: Grid
    center: tuple          # center of the ball of star-shapedness
    radius: float          # bump support radius
    inner_cells: float = 2.0   # graded-subdivision radii, in cell units
    band_cells: float = 5.0
    n_inner: int = 8           # subdivision factors per cell side
    n_band: int = 3

    def __post_init__(self):
        if self.grid.dim != 2:
            raise DomainError("the divergence solver is implemented for planar grids")
        lo = [self.grid.origin[j] for j in range(2)]
        hi = [self.grid.origin[j] + self.grid.spacing[j] * self.grid.extents[j]
              for j in range(2)]
        for j in range(2):
            if not (lo[j] + self.radius <= self.center[j] <= hi[j] - self.radius):
                raise DomainError("bump ball must sit inside the domain")

    @property
    def bump_norm(self) -> float:
        # integral over the unit disk of (1 - rho^2)^4 is pi/5
        return 5.0 / (math.pi * self.radius ** 2)


def make_config(cells: int = 64, length: float = 1.0, center=None,
                radius=None) -> BogovskiiConfig:
    grid = Grid.box((cells, cells), lengths=length, origin=(0.0, 0.0))
    center = center if center is not None else (0.5 * length, 0.5 * length)
    radius = radius if radius is not None else 0.22 * length
    return BogovskiiConfig(grid, tuple(center), float(radius))


def bump_integral_check(cfg: BogovskiiConfig) -> float:
    """Cell quadrature of the bump; should equal 1 to ~1e-6 on usable grids."""
    Xc = cfg.grid.cell_coords()
    rho2 = sum((x - c) ** 2 for x, c in zip(Xc, cfg.center)) / cfg.radius ** 2
    w = cfg.bump_norm * np.clip(1.0 - rho2, 0.0, None) ** 4
    return float(np.sum(w) * cfg.grid.cell_volume)


def _ray_integral(cfg: BogovskiiConfig, y: np.ndarray, ex: np.ndarray,
                  ey: np.ndarray, rmin: np.ndarray) -> np.ndarray:
    """integral_rmin^inf omega(y + r e) r^(n-1) dr along unit rays e from y.

    y has shape (..., 2); the integrand is supported where the ray crosses
    the bump ball, a polynomial in r there, and 6-node Gauss is exact.
    """
    cx, cy = cfg.center
    dx = cx - y[..., 0]
    dy = cy - y[..., 1]
    b = ex * dx + ey * dy                 # ray parameter of closest approach
    d2 = dx * dx + dy * dy
    disc = b * b - (d2 - cfg.radius ** 2)
    has = disc > 0.0
    sq = np.sqrt(np.clip(disc, 0.0, None))
    r1 = np.maximum(b - sq, rmin)
    r2 = np.maximum(b + sq, rmin)
    mid = 0.5 * (r1 + r2)
    half = 0.5 * (r2 - r1)
    out = np.zeros(np.broadcast(ex, b).shape)
    for xg, wg in zip(_GAUSS6_X, _GAUSS6_W):
        r = mid + half * xg
        px = y[..., 0] + r * ex
        py = y[..., 1] + r * ey
        rho2 = ((px - cx) ** 2 + (py - cy) ** 2) / cfg.radius ** 2
        om = cfg.bump_norm * np.clip(1.0 - rho2, 0.0, None) ** 4
        out = out + wg * om * r
    return np.where(has, out * half, 0.0)


def apply(cfg: BogovskiiConfig, f_cells: np.ndarray) -> GridField:
    """Evaluate the divergence right-inverse of f at the grid nodes.

    Requires a mean-zero f (relative tolerance 1e-8 against its L1 mass).
    f is treated as piecewise constant on cells; quadrature refines the
    cells by graded subdivision toward the kernel singularity.
    """
    g = cfg.grid
    f_cells = np.asarray(f_cells, dtype=float)
    if f_cells.shape != tuple(g.extents):
        raise DomainError("f must be cell-centered scalar data")
    mass = abs(float(np.sum(f_cells))) * g.cell_volume
    l1 = float(np.sum(np.abs(f_cells))) * g.cell_volume
    if l1 > 0 and mass > 1e-8 * l1:
        raise DomainError(f"f must have zero mean (|mean| = {mass:.3g} vs 1e-8 * ||f||_1)")
    hx, hy = g.spacing
    if abs(hx - hy) > 1e-12 * hx:
        raise DomainError("graded subdivision assumes square cells")
    h = hx
    Yc = g.cell_coords()
    cx = Yc[0].ravel()
    cy = Yc[1].ravel()
    fv = f_cells.ravel()
    vol = g.cell_volume
    nx, ny = g.node_shape

    def sub_offsets(s):
        o = (np.arange(s) + 0.5) / s - 0.5
        ox, oy = np.meshgrid(o, o, indexing="ij")
        return ox.ravel() * hx, oy.ravel() * hy

    ox_in, oy_in = sub_offsets(cfg.n_inner)
    ox_bd, oy_bd = sub_offsets(cfg.n_band)
    inner_r = cfg.inner_cells * h
    band_r = cfg.band_cells * h
    out0 = np.zeros((nx, ny))
    out1 = np.zeros((nx, ny))

    def accumulate(xp, yp, px, py, fval, weight):
        dx = xp - px
        dy = yp - py
        dist = np.hypot(dx, dy)
        keep = dist > 1e-3 * h
        dx, dy, dist = dx[keep], dy[keep], dist[keep]
        ex = dx / dist
        ey = dy / dist
        ypts = np.stack([px[keep], py[keep]], axis=-1)
        inner = _ray_integral(cfg, ypts, ex, ey, dist)
        contrib = fval[keep] * weight * inner / dist
        return float(np.sum(contrib * ex)), float(np.sum(contrib * ey))

    for i in range(nx):
        x0 = g.origin[0] + i * hx
        for j in range(ny):
            x1 = g.origin[1] + j * hy
            dist_c = np.hypot(x0 - cx, x1 - cy)
            far = dist_c >= band_r
            band = (~far) & (dist_c >= inner_r)
            near = (~far) & (~band)
            a0, a1 = accumulate(x0, x1, cx[far], cy[far], fv[far], vol)
            if band.any():
                px = (cx[band][:, None] + ox_bd[None, :]).ravel()
                py = (cy[band][:, None] + oy_bd[None, :]).ravel()
                fb = np.repeat(fv[band], len(ox_bd))
                b0, b1 = accumulate(x0, x1, px, py, fb, vol / len(ox_bd))
                a0 += b0
                a1 += b1
            if near.any():
                px = (cx[near][:, None] + ox_in[None, :]).ravel()
                py = (cy[near][:, None] + oy_in[None, :]).ravel()
                fn = np.repeat(fv[near], len(ox_in))
                c0, c1 = accumulate(x0, x1, px, py, fn, vol / len(ox_in))
                a0 += c0
                a1 += c1
            out0[i, j] = a0
            out1[i, j] = a1
    return GridField(g, [out0, out1])


def div_residual(cfg: BogovskiiConfig, f_cells: np.ndarray,
                 bf: GridField | None = None) -> float:
    """||div(T f) - f||_inf / ||f||_inf (discrete cell-centered divergence)."""
    bf = bf if bf is not None else apply(cfg, f_cells)
    div = fields.divergence(bf)
    denom = float(np.max(np.abs(f_cells)))
    return float(np.max(np.abs(div - f_cells))) / denom


def norm_bound_ratio(cfg: BogovskiiConfig, A: YoungFunction, B: YoungFunction,
                     f_cells: np.ndarray, bf: GridField | None = None) -> float:
    """||grad(T f)||_{L^B} / ||f||_{L^A}."""
    bf = bf if bf is not None else apply(cfg, f_cells)
    num = fields.norm_of_tensor(B, fields.gradient(bf))
    w = np.full(f_cells.size, cfg.grid.cell_volume)
    den = rearrange.norm(A, SampledFunction(np.abs(np.asarray(f_cells, dtype=float)).ravel(), w))
    if den == 0.0:
        raise DomainError("zero input")
    return num / den


def ratio_suite(cfg: BogovskiiConfig, A: YoungFunction, B: YoungFunction,
                suite: str = "smooth") -> list:
    """Rows (label, div_residual, norm_ratio) over a named source suite,
    solving once per source."""
    if suite not in ("smooth", "spike"):
        raise DomainError(f"unknown suite {suite!r}")
    sources = smooth_suite(cfg) if suite == "smooth" else spike_suite(cfg)
    rows = []
    for i, f in enumerate(sources):
        bf = apply(cfg, f)
        rows.append((f"{suite}_{i}", div_residual(cfg, f, bf),
                     norm_bound_ratio(cfg, A, B, f, bf)))
    return rows


def _mean_one_bump(cfg: BogovskiiConfig) -> np.ndarray:
    Xc = cfg.grid.cell_coords()
    L = cfg.grid.spacing[0] * cfg.grid.extents[0]
    x, y = Xc[0] / L, Xc[1] / L
    g0 = np.clip(1.0 - ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.33 ** 2, 0.0, None) ** 2
    return g0 / (g0.sum() * cfg.grid.cell_volume)


def smooth_suite(cfg: BogovskiiConfig) -> list:
    """Five fixed smooth sources, compactly supported and exactly mean-zero
    (mean compensated by a fixed interior bump, not by a global shift)."""
    Xc = cfg.grid.cell_coords()
    L = cfg.grid.spacing[0] * cfg.grid.extents[0]
    x, y = Xc[0] / L, Xc[1] / L
    window = (np.sin(math.pi * x) * np.sin(math.pi * y)) ** 2
    g0 = _mean_one_bump(cfg)
    raw = [
        np.sin(2 * math.pi * x) * np.sin(2 * math.pi * y),
        window * np.sin(4 * math.pi * x),
        window * np.cos(2 * math.pi * y) * np.sin(2 * math.pi * x),
        window * np.exp(-18 * ((x - 0.4) ** 2 + (y - 0.55) ** 2)),
        window * (x - 0.5) * np.sin(3 * math.pi * y),
    ]
    vol = cfg.grid.cell_volume
    return [r - (r.sum() * vol) * g0 for r in raw]


def spike_suite(cfg: BogovskiiConfig, sharpness=(0.2, 0.1, 0.05, 0.025)) -> list:
    """Mean-zero dipoles with shrinking positive cores."""
    Xc = cfg.grid.cell_coords()
    L = cfg.grid.spacing[0] * cfg.grid.extents[0]
    x, y = Xc[0] / L, Xc[1] / L
    out = []
    for d in sharpness:
        core = np.clip(1.0 - ((x - 0.35) ** 2 + (y - 0.5) ** 2) / d ** 2, 0.0, None) ** 2
        sink = np.clip(1.0 - ((x - 0.7) ** 2 + (y - 0.5) ** 2) / 0.2 ** 2, 0.0, None) ** 2
        core_mass = core.sum()
        sink_mass = sink.sum()
        if core_mass == 0 or sink_mass == 0:
            continue
        f = core / (core_mass * cfg.grid.cell_volume) - sink / (sink_mass * cfg.grid.cell_volume)
        out.append(f)
    return out
