"""Discrete vector-field calculus on uniform box grids.

Fields are node-valued; derivatives are cell-centered averaged differences,
which are exact on affine (and quadratic) fields and second-order accurate on
smooth ones.  On top of the calculus sit the kernel bases of the symmetric
and deviatoric-symmetric gradient, least-squares projections onto them, the
Korn-ratio and Poincare-ratio harnesses, radial test fields, and a
dictionary lower bound for the negative-norm functional.

The trace-free kernel theory requires dimension >= 3; deviatoric modes on
2-d grids are rejected with a diagnostic, while plain symmetric-gradient
modes allow n = 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rearrange
from .rearrange import SampledFunction
from .young import DomainError, YoungFunction, conjugate

__all__ = [
    "Grid", "GridField", "TensorField", "KernelBasis", "KernelMembership",
    "ConfigurationError", "gradient", "sym_gradient", "dev_sym_gradient",
    "divergence", "project_kernel", "project_sigma", "korn_ratio",
    "poincare_ratio", "radial_test_field", "negative_norm_lower_bound",
    "negative_norm_upper_bound", "norm_of_tensor", "norm_of_field",
    "smooth_suite", "random_suite", "radial_suite", "korn_suite",
    "poincare_suite", "negative_norm_suite", "save_field", "load_field",
]


class KernelMembership(Exception):
    """The trial field lies in the kernel of the measured operator."""


class ConfigurationError(RuntimeError):
    """Grid too coarse or otherwise unusable for the requested operation."""


@dataclass(frozen=True)
class Grid:
    extents: tuple            # cells per axis
    spacing: tuple            # h per axis
    origin: tuple

    def __post_init__(self):
        n = len(self.extents)
        if n not in (2, 3):
            raise DomainError("only 2-d and 3-d grids are supported")
        if len(self.spacing) != n or len(self.origin) != n:
            raise DomainError("extents, spacing, origin must share length")
        if any(e < 2 for e in self.extents) or any(h <= 0 for h in self.spacing):
            raise DomainError("need >= 2 cells per axis and positive spacing")

    @classmethod
    def box(cls, cells, lengths=None, origin=None, dim=None):
        if np.isscalar(cells):
            dim = 3 if dim is None else dim
            cells = (cells,) * dim
        if any(c < 2 for c in cells):
            raise DomainError("need >= 2 cells per axis")
        n = len(cells)
        lengths = lengths if lengths is not None else (1.0,) * n
        if np.isscalar(lengths):
            lengths = (lengths,) * n
        origin = origin if origin is not None else (0.0,) * n
        spacing = tuple(L / c for L, c in zip(lengths, cells))
        return cls(tuple(cells), spacing, tuple(origin))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def node_shape(self) -> tuple:
        return tuple(e + 1 for e in self.extents)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return self.cell_volume * float(np.prod(self.extents))

    def node_coords(self):
        axes = [self.origin[j] + self.spacing[j] * np.arange(self.extents[j] + 1)
                for j in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def cell_coords(self):
        axes = [self.origin[j] + self.spacing[j] * (np.arange(self.extents[j]) + 0.5)
                for j in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")


@dataclass
class GridField:
    """Vector field sampled at grid nodes."""

    grid: Grid
    components: list            # dim arrays of node values
    boundary_flag: bool = False

    def __post_init__(self):
        shape = self.grid.node_shape
        if len(self.components) != self.grid.dim:
            raise DomainError("one component per dimension required")
        comps = []
        for c in self.components:
            c = np.asarray(c, dtype=float)
            if c.shape != shape:
                raise DomainError(f"component shape {c.shape} != node shape {shape}")
            comps.append(c)
        self.components = comps
        if self.boundary_flag and not self.boundary_is_zero():
            raise DomainError("boundary_flag requires exact zeros on the boundary")

    def boundary_is_zero(self) -> bool:
        for c in self.components:
            for ax in range(c.ndim):
                first = np.take(c, 0, axis=ax)
                last = np.take(c, -1, axis=ax)
                if np.any(first != 0.0) or np.any(last != 0.0):
                    return False
        return True

    def __add__(self, other):
        return GridField(self.grid, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return GridField(self.grid, [a - b for a, b in zip(self.components, other.components)])


@dataclass
class TensorField:
    """dim x dim tensor sampled at cell centers."""

    grid: Grid
    entries: list               # nested [i][j] arrays of cell values

    def magnitude(self) -> np.ndarray:
        sq = sum(e * e for row in self.entries for e in row)
        return np.sqrt(sq)

    def trace(self) -> np.ndarray:
        return sum(self.entries[i][i] for i in range(self.grid.dim))

    def samples(self) -> SampledFunction:
        mag = self.magnitude().ravel()
        w = np.full(mag.shape, self.grid.cell_volume)
        return SampledFunction(mag, w)


def _avg_axis(a: np.ndarray, ax: int) -> np.ndarray:
    sl0 = [slice(None)] * a.ndim
    sl1 = [slice(None)] * a.ndim
    sl0[ax] = slice(None, -1)
    sl1[ax] = slice(1, None)
    return 0.5 * (a[tuple(sl0)] + a[tuple(sl1)])


def _cell_partial(comp: np.ndarray, ax: int, h: float) -> np.ndarray:
    d = np.diff(comp, axis=ax) / h
    for other in range(comp.ndim):
        if other != ax:
            d = _avg_axis(d, other)
    return d


def _node_to_cell(comp: np.ndarray) -> np.ndarray:
    out = comp
    for ax in range(comp.ndim):
        out = _avg_axis(out, ax)
    return out


def gradient(u: GridField) -> TensorField:
    """Cell-centered gradient, entries [i][j] = d u_i / d x_j."""
    g = u.grid
    entries = [[_cell_partial(u.components[i], j, g.spacing[j])
                for j in range(g.dim)] for i in range(g.dim)]
    return TensorField(g, entries)


def sym_gradient(u: GridField) -> TensorField:
    G = gradient(u)
    n = u.grid.dim
    entries = [[0.5 * (G.entries[i][j] + G.entries[j][i]) for j in range(n)]
               for i in range(n)]
    return TensorField(u.grid, entries)


def dev_sym_gradient(u: GridField) -> TensorField:
    if u.grid.dim < 3:
        raise DomainError(
            "the trace-free symmetric gradient kernel theory needs dimension >= 3; "
            "use the plain symmetric gradient on 2-d grids")
    E = sym_gradient(u)
    n = u.grid.dim
    tr = E.trace() / n
    entries = [[E.entries[i][j] - (tr if i == j else 0.0) for j in range(n)]
               for i in range(n)]
    return TensorField(u.grid, entries)


def divergence(u: GridField) -> np.ndarray:
    g = u.grid
    return sum(_cell_partial(u.components[i], i, g.spacing[i]) for i in range(g.dim))


# ---------------------------------------------------------------------------
# kernel bases and projections
# ---------------------------------------------------------------------------

class KernelBasis:
    """Closed-form generators of the rigid motions (mode "R") or of the full
    trace-free kernel (mode "sigma": dilations + rigid motions + the special
    quadratic fields 2(a.x)x - |x|^2 a)."""

    def __init__(self, grid: Grid, mode: str = "sigma"):
        if mode not in ("R", "sigma"):
            raise DomainError("mode must be 'R' or 'sigma'")
        if mode == "sigma" and grid.dim < 3:
            raise DomainError("the trace-free kernel requires dimension >= 3")
        self.grid = grid
        self.mode = mode
        self.generators = self._build()

    def _build(self):
        g = self.grid
        n = g.dim
        X = g.node_coords()
        gens = []
        zero = np.zeros(g.node_shape)
        for i in range(n):                        # translations
            comp = [zero.copy() for _ in range(n)]
            comp[i] = np.ones(g.node_shape)
            gens.append(comp)
        for a in range(n):                        # rotations (skew Q x)
            for b in range(a + 1, n):
                comp = [zero.copy() for _ in range(n)]
                comp[a] = X[b].copy()
                comp[b] = -X[a].copy()
                gens.append(comp)
        if self.mode == "sigma":
            gens.append([X[i].copy() for i in range(n)])   # dilation
            norm2 = sum(x * x for x in X)
            for k in range(n):                    # 2(a.x)x - |x|^2 a, a = e_k
                comp = [2.0 * X[k] * X[i] for i in range(n)]
                comp[k] = comp[k] - norm2
                gens.append(comp)
        return gens

    def __len__(self):
        return len(self.generators)


def _node_weights(grid: Grid) -> np.ndarray:
    w = np.ones(grid.node_shape)
    for ax in range(grid.dim):
        edge = np.ones(grid.node_shape[ax])
        edge[0] = edge[-1] = 0.5
        shape = [1] * grid.dim
        shape[ax] = -1
        w = w * edge.reshape(shape)
    return w * grid.cell_volume


def project_kernel(u: GridField, mode: str = "sigma") -> GridField:
    """Least-squares projection of u onto the sampled kernel basis in the
    discrete (trapezoidal) L2 inner product; idempotent and linear."""
    basis = KernelBasis(u.grid, mode)
    w = _node_weights(u.grid).ravel()
    rows = np.stack([np.concatenate([c.ravel() for c in gen])
                     for gen in basis.generators])
    wfull = np.tile(w, u.grid.dim)
    uvec = np.concatenate([c.ravel() for c in u.components])
    gram = (rows * wfull) @ rows.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConfigurationError(f"kernel basis Gram matrix ill-conditioned (cond={cond:.3g}); refine the grid")
    coef = np.linalg.solve(gram, (rows * wfull) @ uvec)
    proj = coef @ rows
    shape = u.grid.node_shape
    npts = int(np.prod(shape))
    comps = [proj[k * npts:(k + 1) * npts].reshape(shape) for k in range(u.grid.dim)]
    return GridField(u.grid, comps)


def project_sigma(u: GridField) -> GridField:
    return project_kernel(u, "sigma")


# ---------------------------------------------------------------------------
# norms and ratios
# ---------------------------------------------------------------------------

def norm_of_tensor(A: YoungFunction, T: TensorField) -> float:
    return rearrange.norm(A, T.samples())


def norm_of_field(A: YoungFunction, u: GridField) -> float:
    cells = [_node_to_cell(c) for c in u.components]
    mag = np.sqrt(sum(c * c for c in cells)).ravel()
    w = np.full(mag.shape, u.grid.cell_volume)
    return rearrange.norm(A, SampledFunction(mag, w))


def _zero_pad(u: GridField) -> GridField:
    """Mirror of continuation-by-zero: one extra zero node layer per side."""
    g = u.grid
    newg = Grid(tuple(e + 2 for e in g.extents), g.spacing,
                tuple(o - h for o, h in zip(g.origin, g.spacing)))
    comps = [np.pad(c, 1) for c in u.components]
    return GridField(newg, comps)


_KERNEL_TOL = 1e-10


def _reduce(u: GridField, mode: str, kernel: str) -> GridField:
    """The field whose ratio is taken: mode "zero_bc" requires exact boundary
    zeros and zero-pads u (mirroring continuation by zero); mode
    "full_domain" subtracts the projection onto the ``kernel`` basis."""
    if mode == "zero_bc":
        if not u.boundary_flag and not u.boundary_is_zero():
            raise DomainError("zero_bc mode requires a field vanishing on the boundary")
        return _zero_pad(u)
    if mode == "full_domain":
        return u - project_kernel(u, kernel)
    raise DomainError("mode must be 'zero_bc' or 'full_domain'")


def _kernel_quotient(num: float, den: float, kernel: str) -> float:
    if den <= _KERNEL_TOL * max(num, 1.0) or den == 0.0:
        raise KernelMembership(
            f"field lies in the {kernel} kernel (denominator {den:.3g})")
    return num / den


def korn_ratio(A: YoungFunction, B: YoungFunction, u: GridField,
               mode: str = "zero_bc", operator: str = "ED") -> float:
    """||grad(u - Pu)||_{L^B} / ||Eu or EDu||_{L^A}.

    mode "zero_bc" takes P = 0 and requires exact boundary zeros (the field is
    zero-padded before differentiation, mirroring continuation by zero); mode
    "full_domain" subtracts the projection onto the operator kernel first.
    Raises KernelMembership when the denominator vanishes.
    """
    if operator not in ("E", "ED"):
        raise DomainError("operator must be 'E' or 'ED'")
    if operator == "ED" and u.grid.dim < 3:
        raise DomainError("deviatoric mode needs a 3-d grid; "
                          "the 2-d trace-free theory is out of scope")
    w = _reduce(u, mode, "sigma" if operator == "ED" else "R")
    denom_tensor = dev_sym_gradient(w) if operator == "ED" else sym_gradient(w)
    num = norm_of_tensor(B, gradient(w))
    return _kernel_quotient(num, norm_of_tensor(A, denom_tensor), operator)


def poincare_ratio(A: YoungFunction, u: GridField, mode: str = "zero_bc") -> float:
    """||u - Pu||_{L^A} / ||EDu||_{L^A} (P as in korn_ratio)."""
    if u.grid.dim < 3:
        raise DomainError("the deviatoric Poincare ratio needs a 3-d grid")
    w = _reduce(u, mode, "sigma")
    num = norm_of_field(A, w)
    return _kernel_quotient(num, norm_of_tensor(A, dev_sym_gradient(w)), "trace-free")


# ---------------------------------------------------------------------------
# radial test fields
# ---------------------------------------------------------------------------

def _suffix_log_integral(edges: np.ndarray, values: np.ndarray, s: np.ndarray,
                         upper: float) -> np.ndarray:
    """integral_s^upper f(tau)/tau dtau for a step function f (exact)."""
    e = np.minimum(edges, upper)
    with np.errstate(divide="ignore"):
        logw = np.log(np.maximum(e[1:], 1e-320)) - np.log(np.maximum(e[:-1], 1e-320))
    cell = values * np.maximum(logw, 0.0)
    suffix = np.concatenate((np.cumsum(cell[::-1])[::-1], [0.0]))
    s = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, len(values) - 1)
    top = np.minimum(e[idx + 1], upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        part = values[idx] * np.maximum(np.log(top) - np.log(np.maximum(s, 1e-320)), 0.0)
    out = part + suffix[idx + 1]
    return np.where(s >= upper, 0.0, out)


def radial_test_field(h, grid: Grid) -> tuple:
    """Field u(x) = Q x rho(|x|) built from a nonnegative step profile h on
    (0, omega_n), with rho(r) = integral_r^1 h(omega_n t^n)/t dt and a fixed
    unit-norm skew Q; also returns the companion field
    v(x) = (integral_{|x|}^1 h(omega_n r^n) dr, 0, ...).

    The unit ball must fit inside the grid box.
    """
    from .hardy import StepFunction
    if not isinstance(h, StepFunction):
        raise DomainError("h must be a StepFunction on (0, omega_n)")
    if np.any(h.values < 0):
        raise DomainError("h must be nonnegative")
    n = grid.dim
    omega_n = math.pi if n == 2 else 4.0 * math.pi / 3.0
    X = grid.node_coords()
    r = np.sqrt(sum(x * x for x in X))
    # rho(r) = (1/n) integral_{omega_n r^n}^{omega_n} h(tau)/tau dtau
    tau = omega_n * np.power(np.maximum(r, 1e-300), n)
    rho = _suffix_log_integral(h.edges, h.values, tau.ravel(), omega_n).reshape(r.shape) / n
    rho = np.where(r >= 1.0, 0.0, rho)
    q = 1.0 / math.sqrt(2.0)
    comps = [q * X[1] * rho, -q * X[0] * rho]
    if n == 3:
        comps.append(np.zeros(grid.node_shape))
    u = GridField(grid, comps)
    # companion: radial cell-exact integral of h(omega_n r^n) dr
    r_edges = np.power(np.minimum(h.edges, omega_n) / omega_n, 1.0 / n)
    dr = np.diff(r_edges)
    suffix = np.concatenate((np.cumsum((h.values * dr)[::-1])[::-1], [0.0]))
    idx = np.clip(np.searchsorted(r_edges, r.ravel(), side="right") - 1, 0, len(dr) - 1)
    part = h.values[idx] * np.maximum(r_edges[idx + 1] - r.ravel(), 0.0)
    v1 = np.where(r.ravel() >= 1.0, 0.0, part + suffix[idx + 1]).reshape(r.shape)
    vcomps = [v1] + [np.zeros(grid.node_shape) for _ in range(n - 1)]
    v = GridField(grid, vcomps)
    return u, v


# ---------------------------------------------------------------------------
# negative-norm lower bound
# ---------------------------------------------------------------------------

def _bump_and_gradient(grid: Grid, center, halfwidth):
    Xc = grid.cell_coords()
    ys = [(x - c) / s for x, c, s in zip(Xc, center, halfwidth)]
    etas = [np.clip(1.0 - y * y, 0.0, None) ** 3 for y in ys]
    detas = [np.where(np.abs(y) < 1.0, -6.0 * y * np.clip(1.0 - y * y, 0.0, None) ** 2, 0.0)
             for y in ys]
    psi = np.ones_like(etas[0])
    for e in etas:
        psi = psi * e
    grads = []
    for j in range(grid.dim):
        gj = detas[j] / halfwidth[j]
        for k in range(grid.dim):
            if k != j:
                gj = gj * etas[k]
        grads.append(gj)
    return psi, grads


def negative_norm_lower_bound(A: YoungFunction, u_cells: np.ndarray,
                              grid: Grid) -> float:
    """max over a fixed bump dictionary of integral(u div phi) / ||grad
    phi||_{L^conj(A)}: a certified lower bound for the negative-norm
    functional of the distributional gradient of u."""
    u_cells = np.asarray(u_cells, dtype=float)
    if u_cells.shape != tuple(grid.extents):
        raise DomainError("u must be cell-centered scalar data")
    # pairing with u - mean(u) equals the continuum pairing (div phi has
    # zero integral) and kills the quadrature residue for constants
    u_cells = u_cells - u_cells.mean()
    At = conjugate(A)
    vol = grid.cell_volume
    lengths = [grid.spacing[j] * grid.extents[j] for j in range(grid.dim)]
    best = 0.0
    for scale in (0.45, 0.24, 0.12):
        half = [scale * L for L in lengths]
        steps = [max(1, int(round((L - 2 * hw) / (2 * hw)))) for L, hw in zip(lengths, half)]
        for idx in np.ndindex(*[s + 1 for s in steps]):
            center = [grid.origin[j] + half[j] + idx[j] *
                      ((lengths[j] - 2 * half[j]) / max(steps[j], 1))
                      for j in range(grid.dim)]
            psi, grads = _bump_and_gradient(grid, center, half)
            gmag = np.sqrt(sum(g * g for g in grads)).ravel()
            total = float(np.sum(gmag))
            if total == 0.0:
                continue
            gn = rearrange.norm(At, SampledFunction(gmag, np.full(gmag.shape, vol)))
            if gn == 0.0:
                continue
            for k in range(grid.dim):
                pairing = abs(float(np.sum(u_cells * grads[k]) * vol))
                best = max(best, pairing / gn)
    return best


def negative_norm_upper_bound(A: YoungFunction, u_cells: np.ndarray,
                              grid: Grid) -> float:
    """The trivial upper bound 2 sqrt(n) ||u - mean(u)||_{L^A} for the
    negative-norm functional of the distributional gradient of u."""
    centered = np.abs(u_cells - u_cells.mean()).ravel()
    w = np.full(centered.shape, grid.cell_volume)
    return 2.0 * math.sqrt(grid.dim) * rearrange.norm(A, SampledFunction(centered, w))


# ---------------------------------------------------------------------------
# trial suites
# ---------------------------------------------------------------------------

# spike widths of the radial suite, as fractions of omega_n
_RADIAL_SHARPNESS = (0.3, 0.1, 0.03, 0.01)


def _bubble(grid: Grid):
    X = grid.node_coords()
    out = np.ones(grid.node_shape)
    for j, x in enumerate(X):
        span = grid.spacing[j] * grid.extents[j]
        xhat = (x - grid.origin[j]) / span
        out = out * np.sin(math.pi * np.clip(xhat, 0.0, 1.0))
    return out


def smooth_suite(grid: Grid, count: int = 3) -> list:
    """Fixed smooth zero-boundary fields (deterministic)."""
    X = grid.node_coords()
    bub = _bubble(grid)
    n = grid.dim
    fields = []
    recipes = [
        lambda X: [np.sin(math.pi * X[0]) * np.cos(2 * X[1]) for _ in range(n)],
        lambda X: [np.cos(3 * X[(i + 1) % n]) + 0.5 * X[i] ** 2 for i in range(n)],
        lambda X: [np.sin(2 * X[i]) * np.cos(X[(i + 2) % n]) + X[(i + 1) % n] for i in range(n)],
        lambda X: [np.exp(-2 * sum(x * x for x in X)) * (1.0 + X[i]) for i in range(n)],
    ]
    for rec in recipes[:count]:
        comps = [bub * c for c in rec(X)]
        for c in comps:
            _zero_boundary(c)
        fields.append(GridField(grid, comps, boundary_flag=True))
    return fields


def _zero_boundary(c: np.ndarray):
    for ax in range(c.ndim):
        sl = [slice(None)] * c.ndim
        sl[ax] = 0
        c[tuple(sl)] = 0.0
        sl[ax] = -1
        c[tuple(sl)] = 0.0


def random_suite(grid: Grid, count: int, seed: int) -> list:
    """Random low-frequency sine fields vanishing on the boundary."""
    rng = np.random.default_rng(seed)
    n = grid.dim
    X = grid.node_coords()
    span = [grid.spacing[j] * grid.extents[j] for j in range(n)]
    xhat = [(X[j] - grid.origin[j]) / span[j] for j in range(n)]
    out = []
    for _ in range(count):
        comps = []
        for _i in range(n):
            c = np.zeros(grid.node_shape)
            for _k in range(3):
                ks = rng.integers(1, 4, size=n)
                amp = rng.standard_normal()
                term = np.ones(grid.node_shape) * amp
                for j in range(n):
                    term = term * np.sin(math.pi * ks[j] * xhat[j])
                c += term
            _zero_boundary(c)
            comps.append(c)
        out.append(GridField(grid, comps, boundary_flag=True))
    return out


def radial_suite(grid: Grid) -> list:
    """Radial fields from spike profiles of increasing sharpness."""
    from .hardy import spike
    n = grid.dim
    omega_n = math.pi if n == 2 else 4.0 * math.pi / 3.0
    out = []
    for delta in _RADIAL_SHARPNESS:
        u, _ = radial_test_field(spike(omega_n, delta * omega_n), grid)
        out.append(u)
    return out


def _suite_rows(suite: str, grid: Grid, trials: int, seed: int, ratio) -> list:
    """Rows (label, ratio(u)) over the trial fields of a named suite, NaN
    for a field in the kernel."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    if suite == "smooth":
        trial_fields = smooth_suite(grid, min(trials, 4))
    elif suite == "random":
        trial_fields = random_suite(grid, trials, seed)
    elif suite == "radial":
        trial_fields = radial_suite(grid)
    elif suite == "laminate":
        from . import laminate
        trial_fields = laminate.korn_suite_fields(min(trials, 3))
    else:
        raise DomainError(f"unknown suite {suite!r}")
    rows = []
    for i, u in enumerate(trial_fields):
        try:
            r = ratio(u)
        except KernelMembership:
            r = float("nan")
        rows.append((f"{suite}_{i}", r))
    return rows


def korn_suite(A: YoungFunction, B: YoungFunction, suite: str, grid: Grid,
               mode: str, operator: str, trials: int, seed: int) -> list:
    """Per-trial Korn ratios for a named suite; rows (label, ratio)."""
    return _suite_rows(suite, grid, trials, seed,
                       lambda u: korn_ratio(A, B, u, mode, operator))


def poincare_suite(A: YoungFunction, suite: str, grid: Grid, mode: str,
                   trials: int, seed: int) -> list:
    """Per-trial Poincare ratios for a named suite; rows (label, ratio)."""
    return _suite_rows(suite, grid, trials, seed,
                       lambda u: poincare_ratio(A, u, mode))


def negative_norm_suite(A: YoungFunction, grid: Grid, trials: int, seed: int) -> list:
    """Rows (label, lower, upper, ok) comparing the dictionary lower bound
    with the trivial upper bound on random Gaussian bumps."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    rng = np.random.default_rng(seed)
    Xc = grid.cell_coords()
    rows = []
    for i in range(trials):
        c = [rng.uniform(0.3, 0.7) for _ in range(grid.dim)]
        s = rng.uniform(0.1, 0.3)
        u = np.exp(-sum((x - ci) ** 2 for x, ci in zip(Xc, c)) / s ** 2)
        lb = negative_norm_lower_bound(A, u, grid)
        ub = negative_norm_upper_bound(A, u, grid)
        rows.append((f"bump_{i}", lb, ub, lb <= ub * (1.0 + 1e-9)))
    return rows


# ---------------------------------------------------------------------------
# field I/O: flat binary or CSV node values + JSON header
# ---------------------------------------------------------------------------

def save_field(u: GridField, basepath: str, fmt: str = "bin") -> None:
    meta = {"extents": list(u.grid.extents), "spacing": list(u.grid.spacing),
            "origin": list(u.grid.origin), "boundary_flag": u.boundary_flag,
            "format": fmt, "dtype": "float64"}
    with open(basepath + ".json", "w") as fh:
        json.dump(meta, fh, indent=1)
    flat = np.stack([c.ravel() for c in u.components])
    if fmt == "bin":
        flat.astype("<f8").tofile(basepath + ".bin")
    elif fmt == "csv":
        np.savetxt(basepath + ".csv", flat.T, delimiter=",",
                   header=",".join(f"u{i}" for i in range(u.grid.dim)), comments="")
    else:
        raise DomainError("fmt must be 'bin' or 'csv'")


def load_field(basepath: str) -> GridField:
    with open(basepath + ".json") as fh:
        meta = json.load(fh)
    grid = Grid(tuple(meta["extents"]), tuple(meta["spacing"]), tuple(meta["origin"]))
    shape = grid.node_shape
    npts = int(np.prod(shape))
    if meta["format"] == "bin":
        flat = np.fromfile(basepath + ".bin", dtype="<f8").reshape(grid.dim, npts)
    else:
        flat = np.loadtxt(basepath + ".csv", delimiter=",", skiprows=1).T
    comps = [flat[i].reshape(shape) for i in range(grid.dim)]
    return GridField(grid, comps, boundary_flag=bool(meta.get("boundary_flag")))
