"""Uniform grid with two ghost layers, difference operators and discrete norms.

Grid functions live on J+2 nodes x_j = j*h, j = 0..J+1, h = L/(J+1), and
vanish at the two outermost nodes on each side (indices 0, 1, J, J+1).
This two-layer homogeneous Dirichlet condition lets the five-point third
difference use one uniform stencil on the active range j = 2..J-1.

Inner products and p-norms sum over the active range only.  Norms of
forward differences are the exception: every difference of active entries
has to be counted once, so they sum over j = 1..J-1 (see ``dplus_norm_p``).
"""

import numpy as np

__all__ = [
    "Grid", "GridFn", "RealGridFn", "ComplexGridFn",
    "d_plus", "d_minus", "d_zero", "laplacian_h", "d_cubed",
    "inner", "norm_p", "dplus_norm_p", "sample",
    "PiecewiseLinear", "PiecewiseConstant", "interp_p1", "interp_p0",
]


class Grid:
    """Uniform mesh on (0, L): nodes x_j = j*h, j = 0..J+1, h = L/(J+1)."""

    __slots__ = ("J", "L", "h", "x")

    def __init__(self, J, L):
        J = int(J)
        if J < 6:
            raise ValueError(f"J must be >= 6 so the active range j=2..J-1 "
                             f"supports the third-difference stencil, got {J}")
        if not (L > 0):
            raise ValueError(f"domain length must be positive, got {L}")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "L", float(L))
        object.__setattr__(self, "h", float(L) / (J + 1))
        x = self.h * np.arange(J + 2)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    def __setattr__(self, name, value):
        raise AttributeError("Grid is immutable")

    @property
    def active(self):
        """Slice selecting the active indices j = 2..J-1."""
        return slice(2, self.J)

    def __eq__(self, other):
        return (isinstance(other, Grid)
                and self.J == other.J and self.L == other.L)

    def __hash__(self):
        return hash((self.J, self.L))

    def __repr__(self):
        return f"Grid(J={self.J}, L={self.L})"


class GridFn:
    """A grid function: J+2 values with the ghost layers forced to zero.

    Construction copies the input, zeroes indices 0, 1, J, J+1 and freezes
    the array, so the two-layer Dirichlet invariant cannot be broken after
    the fact.
    """

    __slots__ = ("grid", "values")
    dtype = None  # fixed by the Real/Complex subclasses

    def __init__(self, grid, values):
        v = np.array(values, dtype=self.dtype)
        if v.shape != (grid.J + 2,):
            raise ValueError(f"expected {grid.J + 2} values, got shape {v.shape}")
        v[0] = v[1] = v[grid.J] = v[grid.J + 1] = 0
        v.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.J + 2, dtype=cls.dtype))

    def __repr__(self):
        return f"{type(self).__name__}(J={self.grid.J}, L={self.grid.L})"


class RealGridFn(GridFn):
    dtype = np.float64


class ComplexGridFn(GridFn):
    dtype = np.complex128


def _unpack(z, grid):
    """Accept a GridFn or a raw array paired with an explicit grid."""
    if isinstance(z, GridFn):
        g = z.grid
        if grid is not None and grid != g:
            raise ValueError("grid mismatch")
        return z.values, g
    if grid is None:
        raise ValueError("a raw array needs an explicit grid")
    v = np.asarray(z)
    if v.shape != (grid.J + 2,):
        raise ValueError(f"expected {grid.J + 2} values, got shape {v.shape}")
    return v, grid


def d_plus(z, grid=None):
    """Forward difference (z_{j+1} - z_j)/h for j = 0..J; index J+1 is 0."""
    v, g = _unpack(z, grid)
    out = np.zeros_like(v)
    out[:-1] = (v[1:] - v[:-1]) / g.h
    return out


def d_minus(z, grid=None):
    """Backward difference (z_j - z_{j-1})/h for j = 1..J+1; index 0 is 0."""
    v, g = _unpack(z, grid)
    out = np.zeros_like(v)
    out[1:] = (v[1:] - v[:-1]) / g.h
    return out


def d_zero(z, grid=None):
    """Centered difference (z_{j+1} - z_{j-1})/(2h) for j = 1..J; ends 0."""
    v, g = _unpack(z, grid)
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * g.h)
    return out


def laplacian_h(z, grid=None):
    """Three-point second difference (z_{j+1} - 2z_j + z_{j-1})/h^2, j = 1..J."""
    v, g = _unpack(z, grid)
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / g.h**2
    return out


def d_cubed(z, grid=None):
    """Five-point third difference for j = 2..J-1; zero elsewhere.

    (z_{j+2} - 2 z_{j+1} + 2 z_{j-1} - z_{j-2}) / (2 h^3); equals the
    composition of the centered, backward and forward differences on the
    active range, and is skew-symmetric on ghost-zeroed grid functions.
    """
    v, g = _unpack(z, grid)
    out = np.zeros_like(v)
    out[2:-2] = (v[4:] - 2.0 * v[3:-1] + 2.0 * v[1:-3] - v[:-4]) / (2.0 * g.h**3)
    return out


def inner(z, w, grid=None):
    """Sesquilinear product sum_{j=2}^{J-1} h z_j conj(w_j)."""
    zv, g = _unpack(z, grid)
    wv, g2 = _unpack(w, grid if grid is not None else g)
    if g != g2:
        raise ValueError("grid mismatch")
    a = g.active
    return g.h * np.sum(zv[a] * np.conj(wv[a]))


def norm_p(z, p, grid=None):
    """Discrete p-norm over the active range j = 2..J-1.

    ||z||_p = (sum h |z_j|^p)^(1/p) for finite p >= 1; the max of |z_j|
    for p = inf.
    """
    v, g = _unpack(z, grid)
    a = np.abs(v[g.active])
    if p == np.inf:
        return float(a.max(initial=0.0))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((g.h * np.sum(a**p)) ** (1.0 / p))


def dplus_norm_p(z, p, grid=None):
    """p-norm of the forward difference, summed over j = 1..J-1.

    That range counts each difference of active entries exactly once
    (both boundary ramps included), which is what the discrete
    Gagliardo-Nirenberg and energy estimates require.
    """
    v, g = _unpack(z, grid)
    d = np.abs((v[2:g.J + 1] - v[1:g.J]) / g.h)  # D+ at j = 1..J-1
    if p == np.inf:
        return float(d.max(initial=0.0))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((g.h * np.sum(d**p)) ** (1.0 / p))


def sample(f, grid, cls=RealGridFn):
    """Sample a scalar function at the interior nodes, ghosts forced to 0.

    ``f`` is called once per active node with a scalar x, so it need not
    accept arrays; an array-ready closed form is faster evaluated directly
    on ``grid.x`` (as ``TravelingWave.state`` does).
    """
    vals = np.zeros(grid.J + 2, dtype=cls.dtype)
    xs = grid.x[grid.active]
    fv = np.asarray([f(x) for x in xs], dtype=cls.dtype)
    bad = ~np.isfinite(fv) if cls is RealGridFn else ~(
        np.isfinite(fv.real) & np.isfinite(fv.imag))
    if np.any(bad):
        j = 2 + int(np.argmax(bad))
        raise ValueError(f"non-finite sample at node j={j}, x={grid.x[j]}")
    vals[grid.active] = fv
    return cls(grid, vals)


class PiecewiseLinear:
    """Continuous piecewise-linear reconstruction with the node values.

    The L2 quantities use exact per-cell closed forms (the integrands are
    polynomials of degree <= 2), no quadrature.
    """

    def __init__(self, grid, values):
        self.grid = grid
        self.values = np.asarray(values)

    def __call__(self, x):
        g = self.grid
        return np.interp(x, g.x, self.values.real) + (
            1j * np.interp(x, g.x, self.values.imag)
            if np.iscomplexobj(self.values) else 0.0)

    def l2_norm(self):
        # per cell: int |a + (b-a)t|^2 h dt = h (|a|^2 + Re(a conj(b)) + |b|^2)/3
        a, b = self.values[:-1], self.values[1:]
        cell = (np.abs(a)**2 + (a * np.conj(b)).real + np.abs(b)**2) / 3.0
        return float(np.sqrt(self.grid.h * np.sum(cell)))


class PiecewiseConstant:
    """Piecewise-constant reconstruction: value z_j on (x_j, x_{j+1})."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = np.asarray(values)

    def __call__(self, x):
        g = self.grid
        j = np.clip(np.floor(np.asarray(x) / g.h).astype(int), 0, g.J)
        return self.values[j]

    def l2_norm(self):
        return float(np.sqrt(self.grid.h * np.sum(np.abs(self.values[:-1])**2)))


def interp_p1(z, grid=None):
    v, g = _unpack(z, grid)
    return PiecewiseLinear(g, v)


def interp_p0(z, grid=None):
    v, g = _unpack(z, grid)
    return PiecewiseConstant(g, v)


def l2_diff_p1_p0(z, grid=None):
    """Exact ||P1 z - P0 z||_2; per cell the integrand is a pure ramp."""
    v, g = _unpack(z, grid)
    dz = v[1:] - v[:-1]
    return float(np.sqrt(g.h * np.sum(np.abs(dz)**2) / 3.0))
