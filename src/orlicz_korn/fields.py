"""Discrete vector-field calculus on uniform box grids.

Fields are node-valued; derivatives are cell-centered averaged differences,
which are exact on affine (and quadratic) fields and second-order accurate on
smooth ones.  On top of the calculus sit the kernel bases of the symmetric
and deviatoric-symmetric gradient, least-squares projections onto them, the
Korn-ratio and Poincare-ratio harnesses, radial test fields, and a
dictionary lower bound for the negative-norm functional.

Each field is one float array, component axes first: GridField.components
has shape (dim, *node_shape), TensorField.entries (dim, dim, *cell_shape) and
KernelBasis.generators (len(basis), dim, *node_shape).  Every Luxemburg norm
of cell data goes through ``norm_of_cells``.

The trace-free kernel theory requires dimension >= 3; deviatoric modes on
2-d grids are rejected with a diagnostic, while plain symmetric-gradient
modes allow n = 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import hardy, rearrange
from .rearrange import SampledFunction
from .young import ConfigurationError, DomainError, YoungFunction, conjugate

__all__ = [
    "Grid", "GridField", "TensorField", "KernelBasis", "KernelMembership",
    "ConfigurationError", "gradient", "sym_gradient", "dev_sym_gradient",
    "divergence", "project_kernel", "korn_ratio", "poincare_ratio",
    "radial_test_field", "negative_norm_lower_bound",
    "negative_norm_upper_bound", "norm_of_cells", "norm_of_tensor", "norm_of_field",
    "smooth_suite", "random_suite", "radial_suite", "korn_suite",
    "poincare_suite", "negative_norm_suite", "save_field", "load_field",
]


class KernelMembership(Exception):
    """The trial field lies in the kernel of the measured operator."""


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
    def lengths(self) -> tuple:
        """The box's side lengths: spacing times cells, per axis."""
        return tuple(h * e for h, e in zip(self.spacing, self.extents))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def node_axes(self) -> list:
        """The node coordinates along each axis, one 1-d array per axis."""
        return [self.origin[j] + self.spacing[j] * np.arange(self.extents[j] + 1)
                for j in range(self.dim)]

    def node_coords(self):
        return np.meshgrid(*self.node_axes(), indexing="ij")

    def cell_coords(self):
        axes = [self.origin[j] + self.spacing[j] * (np.arange(self.extents[j]) + 0.5)
                for j in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")


def _stacked(values, shape: tuple, what: str) -> np.ndarray:
    """values (an array or nested lists of arrays) as one float array of the
    given shape."""
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError:                    # ragged: parts of unequal shapes
        arr = None
    if arr is None or arr.shape != shape:
        raise DomainError(f"{what} must form one array of shape {shape}")
    return arr


@dataclass
class GridField:
    """Vector field sampled at grid nodes: ``components`` is one float array
    of shape (dim, *node_shape), component i at ``components[i]``."""

    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        self.components = _stacked(self.components,
                                   (self.grid.dim, *self.grid.node_shape), "components")

    def boundary_is_zero(self) -> bool:
        c = self.components
        return not any(np.any(np.take(c, end, axis=ax) != 0.0)
                       for ax in range(1, c.ndim) for end in (0, -1))

    def __add__(self, other):
        return GridField(self.grid, self.components + other.components)

    def __sub__(self, other):
        return GridField(self.grid, self.components - other.components)


@dataclass
class TensorField:
    """dim x dim tensor sampled at cell centers: ``entries`` is one float
    array of shape (dim, dim, *cell_shape), entry (i, j) at ``entries[i][j]``."""

    grid: Grid
    entries: np.ndarray

    def __post_init__(self):
        n = self.grid.dim
        self.entries = _stacked(self.entries, (n, n, *self.grid.extents), "entries")

    def magnitude(self) -> np.ndarray:
        # a sum over the leading axis adds the n^2 squares one after another
        # in row-major order
        sq = self.entries * self.entries
        return np.sqrt(np.sum(sq.reshape(-1, *sq.shape[2:]), axis=0))

    def trace(self) -> np.ndarray:
        diag = np.arange(self.grid.dim)
        return np.sum(self.entries[diag, diag], axis=0)


def _avg_axis(a: np.ndarray, ax: int) -> np.ndarray:
    sl0 = [slice(None)] * a.ndim
    sl1 = [slice(None)] * a.ndim
    sl0[ax] = slice(None, -1)
    sl1[ax] = slice(1, None)
    return 0.5 * (a[tuple(sl0)] + a[tuple(sl1)])


def _cell_partial(nodes: np.ndarray, ax: int, dim: int, h: float) -> np.ndarray:
    """d/dx_ax of node values whose last ``dim`` axes are the grid axes,
    averaged onto the cell centres."""
    d = np.diff(nodes, axis=ax - dim) / h
    for other in range(dim):
        if other != ax:
            d = _avg_axis(d, other - dim)
    return d


def _node_to_cell(nodes: np.ndarray, dim: int) -> np.ndarray:
    out = nodes
    for ax in range(dim):
        out = _avg_axis(out, ax - dim)
    return out


def gradient(u: GridField) -> TensorField:
    """Cell-centered gradient, entries[i][j] = d u_i / d x_j."""
    g = u.grid
    return TensorField(g, np.stack([_cell_partial(u.components, j, g.dim, g.spacing[j])
                                    for j in range(g.dim)], axis=1))


def _sym_part(G: TensorField) -> TensorField:
    """(G + G^T) / 2, a new tensor field."""
    return TensorField(G.grid, 0.5 * (G.entries + G.entries.swapaxes(0, 1)))


def _trace_free(E: TensorField) -> TensorField:
    """E - (tr E / dim) I, in place."""
    E.entries[np.diag_indices(E.grid.dim)] -= E.trace() / E.grid.dim
    return E


def sym_gradient(u: GridField) -> TensorField:
    return _sym_part(gradient(u))


def dev_sym_gradient(u: GridField) -> TensorField:
    if u.grid.dim < 3:
        raise DomainError(
            "the trace-free symmetric gradient kernel theory needs dimension >= 3; "
            "use the plain symmetric gradient on 2-d grids")
    return _trace_free(_sym_part(gradient(u)))


def divergence(u: GridField) -> np.ndarray:
    g = u.grid
    return sum(_cell_partial(u.components[i], i, g.dim, g.spacing[i]) for i in range(g.dim))


# ---------------------------------------------------------------------------
# kernel bases and projections
# ---------------------------------------------------------------------------

class KernelBasis:
    """Closed-form generators of the rigid motions (mode "R") or of the full
    trace-free kernel (mode "sigma": dilations + rigid motions + the special
    quadratic fields 2(a.x)x - |x|^2 a).  ``generators`` is one float array
    of shape (len(basis), dim, *node_shape)."""

    def __init__(self, grid: Grid, mode: str = "sigma"):
        if mode not in ("R", "sigma"):
            raise DomainError("mode must be 'R' or 'sigma'")
        if mode == "sigma" and grid.dim < 3:
            raise DomainError("the trace-free kernel requires dimension >= 3")
        self.grid = grid
        self.mode = mode
        self.generators = self._build()

    def _build(self) -> np.ndarray:
        n = self.grid.dim
        X = np.stack(self.grid.node_coords())
        gens = []
        for i in range(n):                        # translations
            gens.append(np.zeros_like(X))
            gens[-1][i] = 1.0
        for a in range(n):                        # rotations (skew Q x)
            for b in range(a + 1, n):
                gens.append(np.zeros_like(X))
                gens[-1][a] = X[b]
                gens[-1][b] = -X[a]
        if self.mode == "sigma":
            gens.append(X)                        # dilation
            norm2 = sum(x * x for x in X)
            for k in range(n):                    # 2(a.x)x - |x|^2 a, a = e_k
                gens.append(2.0 * X[k] * X)
                gens[-1][k] -= norm2
        return np.stack(gens)

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
    rows = basis.generators.reshape(len(basis), -1)
    weighted = rows * np.tile(_node_weights(u.grid).ravel(), u.grid.dim)
    gram = weighted @ rows.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConfigurationError(f"kernel basis Gram matrix ill-conditioned (cond={cond:.3g}); refine the grid")
    coef = np.linalg.solve(gram, weighted @ u.components.ravel())
    return GridField(u.grid, (coef @ rows).reshape(u.components.shape))


# ---------------------------------------------------------------------------
# norms and ratios
# ---------------------------------------------------------------------------

def norm_of_cells(A: YoungFunction, values: np.ndarray, grid: Grid) -> float:
    """Luxemburg norm of |values|, one value per cell of the grid, each
    weighted by the cell volume."""
    values = np.ravel(values)
    return rearrange.norm(A, SampledFunction(values, np.full(values.shape, grid.cell_volume)))


def norm_of_tensor(A: YoungFunction, T: TensorField) -> float:
    return norm_of_cells(A, T.magnitude(), T.grid)


def norm_of_field(A: YoungFunction, u: GridField) -> float:
    cells = _node_to_cell(u.components, u.grid.dim)
    return norm_of_cells(A, np.sqrt(np.sum(cells * cells, axis=0)), u.grid)


def _zero_pad(u: GridField) -> GridField:
    """Mirror of continuation-by-zero: one extra zero node layer per side."""
    g = u.grid
    newg = Grid(tuple(e + 2 for e in g.extents), g.spacing,
                tuple(o - h for o, h in zip(g.origin, g.spacing)))
    return GridField(newg, np.pad(u.components, [(0, 0)] + [(1, 1)] * g.dim))


_KERNEL_TOL = 1e-10


def _reduce(u: GridField, mode: str, kernel: str) -> GridField:
    """The field whose ratio is taken: mode "zero_bc" requires exact boundary
    zeros and zero-pads u (mirroring continuation by zero); mode
    "full_domain" subtracts the projection onto the ``kernel`` basis."""
    if mode == "zero_bc":
        if not u.boundary_is_zero():
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


def _check_operator(operator: str, dim: int) -> None:
    """Raise DomainError unless the Korn operator is measurable in dim."""
    if operator not in ("E", "ED"):
        raise DomainError("operator must be 'E' or 'ED'")
    if operator == "ED" and dim < 3:
        raise DomainError("deviatoric mode needs a 3-d grid; "
                          "the 2-d trace-free theory is out of scope")


def korn_ratio(A: YoungFunction, B: YoungFunction, u: GridField,
               mode: str = "zero_bc", operator: str = "ED") -> float:
    """||grad(u - Pu)||_{L^B} / ||Eu or EDu||_{L^A}.

    mode "zero_bc" takes P = 0 and requires exact boundary zeros (the field is
    zero-padded before differentiation, mirroring continuation by zero); mode
    "full_domain" subtracts the projection onto the operator kernel first.
    Raises KernelMembership when the denominator vanishes.  Both tensors
    are read off one gradient of the reduced field.
    """
    _check_operator(operator, u.grid.dim)
    w = _reduce(u, mode, "sigma" if operator == "ED" else "R")
    G = gradient(w)
    E = _trace_free(_sym_part(G)) if operator == "ED" else _sym_part(G)
    return _kernel_quotient(norm_of_tensor(B, G), norm_of_tensor(A, E), operator)


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

def radial_test_field(h, grid: Grid) -> GridField:
    """Field u(x) = Q x rho(|x|) built from a nonnegative step profile h on
    (0, omega_n), with rho(r) = integral_r^1 h(omega_n t^n)/t dt and a fixed
    unit-norm skew Q.

    The unit ball must fit inside the grid box.
    """
    if not isinstance(h, hardy.StepFunction):
        raise DomainError("h must be a StepFunction on (0, omega_n)")
    if np.any(h.values < 0):
        raise DomainError("h must be nonnegative")
    if any(o > -1.0 or o + L < 1.0 for o, L in zip(grid.origin, grid.lengths)):
        raise DomainError("the unit ball must fit inside the grid box")
    n = grid.dim
    omega_n = math.pi if n == 2 else 4.0 * math.pi / 3.0
    X = grid.node_coords()
    r = np.sqrt(sum(x * x for x in X))
    # rho(r) = (1/n) integral_{omega_n r^n}^{omega_n} h(tau)/tau dtau
    tau = omega_n * np.power(np.maximum(r, 1e-300), n)
    rho = hardy.suffix_log_integral(h, tau.ravel(), omega_n).reshape(r.shape) / n
    rho = np.where(r >= 1.0, 0.0, rho)
    q = 1.0 / math.sqrt(2.0)
    comps = [q * X[1] * rho, -q * X[0] * rho]
    if n == 3:
        comps.append(np.zeros(grid.node_shape))
    return GridField(grid, comps)


# ---------------------------------------------------------------------------
# negative-norm lower bound
# ---------------------------------------------------------------------------

def _bump_gradient(grid: Grid, center, halfwidth) -> list:
    """Cell values of grad prod_j (1 - y_j^2)_+^3, y_j = (x_j - center_j) / halfwidth_j."""
    Xc = grid.cell_coords()
    ys = [(x - c) / s for x, c, s in zip(Xc, center, halfwidth)]
    etas = [np.clip(1.0 - y * y, 0.0, None) ** 3 for y in ys]
    detas = [np.where(np.abs(y) < 1.0, -6.0 * y * np.clip(1.0 - y * y, 0.0, None) ** 2, 0.0)
             for y in ys]
    grads = []
    for j in range(grid.dim):
        gj = detas[j] / halfwidth[j]
        for k in range(grid.dim):
            if k != j:
                gj = gj * etas[k]
        grads.append(gj)
    return grads


def _bumps(A: YoungFunction, grid: Grid):
    """The fixed bump dictionary of the negative-norm lower bound, one bump
    at a time, in a fixed order: the cell gradient of a bump, a list of dim
    arrays of the cell shape, and its norm ||grad phi||_{L^conj(A)}; bumps
    whose norm is zero are left out."""
    At = conjugate(A)
    lengths = grid.lengths
    for scale in (0.45, 0.24, 0.12):
        half = [scale * L for L in lengths]
        steps = [max(1, int(round((L - 2 * hw) / (2 * hw)))) for L, hw in zip(lengths, half)]
        for idx in np.ndindex(*[s + 1 for s in steps]):
            center = [grid.origin[j] + half[j] + idx[j] *
                      ((lengths[j] - 2 * half[j]) / max(steps[j], 1))
                      for j in range(grid.dim)]
            g = _bump_gradient(grid, center, half)
            gn = norm_of_cells(At, np.sqrt(sum(gj * gj for gj in g)), grid)
            if gn != 0.0:
                yield g, gn


def negative_norm_lower_bound(A: YoungFunction, u_cells: np.ndarray, grid: Grid) -> list:
    """max over a fixed bump dictionary of integral(u div phi) / ||grad
    phi||_{L^conj(A)}: a certified lower bound for the negative-norm
    functional of the distributional gradient of u.

    u_cells is a stack of m sources, of shape (m, *grid.extents); the result
    is the list of their m bounds.  Each bump is built once per call, paired
    with every source and dropped before the next one is built; each
    source's bound does not depend on the rest of the stack."""
    u_cells = np.asarray(u_cells, dtype=float)
    if u_cells.shape[1:] != tuple(grid.extents):
        raise DomainError("u must be a stack of cell-centered scalar data")
    # pairing with u - mean(u) equals the continuum pairing (div phi has
    # zero integral) and kills the quadrature residue for constants
    centered = [u - u.mean() for u in u_cells]
    bounds = [0.0] * len(centered)
    for grads, gn in _bumps(A, grid):
        for m, u in enumerate(centered):
            for gk in grads:
                bounds[m] = max(bounds[m], abs(float(np.sum(u * gk) * grid.cell_volume)) / gn)
    return bounds


def negative_norm_upper_bound(A: YoungFunction, u_cells: np.ndarray,
                              grid: Grid) -> float:
    """The trivial upper bound 2 sqrt(n) ||u - mean(u)||_{L^A} for the
    negative-norm functional of the distributional gradient of u."""
    return 2.0 * math.sqrt(grid.dim) * norm_of_cells(A, u_cells - u_cells.mean(), grid)


# ---------------------------------------------------------------------------
# trial suites
# ---------------------------------------------------------------------------

# spike widths of the radial suite, as fractions of omega_n
_RADIAL_SHARPNESS = (0.3, 0.1, 0.03, 0.01)


def _bubble(grid: Grid):
    X = grid.node_coords()
    out = np.ones(grid.node_shape)
    for j, x in enumerate(X):
        xhat = (x - grid.origin[j]) / grid.lengths[j]
        out = out * np.sin(math.pi * np.clip(xhat, 0.0, 1.0))
    return out


def smooth_suite(grid: Grid, count: int) -> list:
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
        comps = bub * np.stack(rec(X))
        _zero_boundary(comps)
        fields.append(GridField(grid, comps))
    return fields


def _zero_boundary(components: np.ndarray):
    """Zero the boundary nodes of a (dim, *node_shape) array in place, along
    the node axes only."""
    for ax in range(1, components.ndim):
        components[(slice(None),) * ax + (0,)] = 0.0
        components[(slice(None),) * ax + (-1,)] = 0.0


def random_suite(grid: Grid, count: int, seed: int) -> list:
    """Random low-frequency sine fields vanishing on the boundary."""
    rng = np.random.default_rng(seed)
    n = grid.dim
    X = grid.node_coords()
    span = grid.lengths
    xhat = [(X[j] - grid.origin[j]) / span[j] for j in range(n)]
    out = []
    for _ in range(count):
        comps = np.zeros((n, *grid.node_shape))
        for c in comps:
            for _k in range(3):
                ks = rng.integers(1, 4, size=n)
                amp = rng.standard_normal()
                term = np.ones(grid.node_shape) * amp
                for j in range(n):
                    term = term * np.sin(math.pi * ks[j] * xhat[j])
                c += term
        _zero_boundary(comps)
        out.append(GridField(grid, comps))
    return out


def radial_suite(grid: Grid) -> list:
    """Radial fields from spike profiles of increasing sharpness."""
    n = grid.dim
    omega_n = math.pi if n == 2 else 4.0 * math.pi / 3.0
    return [radial_test_field(hardy.spike(omega_n, delta * omega_n), grid)
            for delta in _RADIAL_SHARPNESS]


def _suite_rows(suite: str, cells: int, dim: int, trials: int, seed: int, ratio) -> list:
    """Rows (label, ratio(u)) over the trial fields of a named suite on
    (0, 1)^dim, or on (-1.1, 1.1)^dim for the radial suite, whose fields are
    supported on the unit ball; NaN for a field in the kernel."""
    radial = suite == "radial"
    grid = Grid.box(cells, lengths=2.2 if radial else None,
                    origin=(-1.1,) * dim if radial else None, dim=dim)
    if trials < 1:
        raise DomainError("need trials >= 1")
    if suite == "smooth":
        trial_fields = smooth_suite(grid, min(trials, 4))
    elif suite == "random":
        trial_fields = random_suite(grid, trials, seed)
    elif radial:
        trial_fields = radial_suite(grid)
    elif suite == "laminate":
        from . import laminate
        trial_fields = laminate.korn_suite_fields(min(trials, 3))
    else:
        raise DomainError(f"unknown suite {suite!r}")
    rows = []
    # no enumerate: its reused pair would hold a streamed field while the
    # suite builds the next one
    for u in trial_fields:
        try:
            r = ratio(u)
        except KernelMembership:
            r = float("nan")
        rows.append((f"{suite}_{len(rows)}", r))
        del u            # before a streamed suite builds the next field
    return rows


def korn_suite(A: YoungFunction, B: YoungFunction, suite: str, cells: int, dim: int,
               mode: str, operator: str, trials: int, seed: int) -> list:
    """Per-trial Korn ratios for a named suite on its box of cells^dim
    cells; rows (label, ratio)."""
    # the laminate fields are 2-d whatever dim is: reject before building any
    _check_operator(operator, 2 if suite == "laminate" else dim)
    return _suite_rows(suite, cells, dim, trials, seed,
                       lambda u: korn_ratio(A, B, u, mode, operator))


def poincare_suite(A: YoungFunction, suite: str, cells: int, mode: str,
                   trials: int, seed: int) -> list:
    """Per-trial Poincare ratios for a named suite on its box of cells^3
    cells; rows (label, ratio)."""
    return _suite_rows(suite, cells, 3, trials, seed,
                       lambda u: poincare_ratio(A, u, mode))


def negative_norm_suite(A: YoungFunction, grid: Grid, trials: int, seed: int) -> list:
    """Rows (label, lower, upper, ok) comparing the dictionary lower bound
    with the trivial upper bound on random Gaussian bumps; one stacked call
    bounds all trials."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    rng = np.random.default_rng(seed)
    Xc = grid.cell_coords()
    sources = []
    for _ in range(trials):
        c = [rng.uniform(0.3, 0.7) for _ in range(grid.dim)]
        s = rng.uniform(0.1, 0.3)
        sources.append(np.exp(-sum((x - ci) ** 2 for x, ci in zip(Xc, c)) / s ** 2))
    rows = []
    for i, (u, lb) in enumerate(zip(sources, negative_norm_lower_bound(A, sources, grid))):
        ub = negative_norm_upper_bound(A, u, grid)
        rows.append((f"bump_{i}", lb, ub, lb <= ub * (1.0 + 1e-9)))
    return rows


# ---------------------------------------------------------------------------
# field I/O: flat binary node values + JSON header
# ---------------------------------------------------------------------------

def save_field(u: GridField, basepath: str) -> None:
    meta = {"extents": list(u.grid.extents), "spacing": list(u.grid.spacing),
            "origin": list(u.grid.origin), "format": "bin", "dtype": "float64"}
    with open(basepath + ".json", "w") as fh:
        json.dump(meta, fh, indent=1)
    np.asarray(u.components.reshape(u.grid.dim, -1), dtype="<f8").tofile(basepath + ".bin")


def load_field(basepath: str) -> GridField:
    with open(basepath + ".json") as fh:
        meta = json.load(fh)
    if meta.get("format") != "bin":
        raise DomainError(f"field format must be 'bin', not {meta.get('format')!r}")
    grid = Grid(tuple(meta["extents"]), tuple(meta["spacing"]), tuple(meta["origin"]))
    flat = np.fromfile(basepath + ".bin", dtype="<f8")
    return GridField(grid, flat.reshape(grid.dim, *grid.node_shape))
