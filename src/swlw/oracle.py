"""Exact sech/sech^2 traveling waves of the quasilinear coupled system.

The waves solve

    i u_t + u_xx = alpha v u - |u|^2 u
    v_t + v_xxx + v v_x = (alpha/2) (|u|^2)_x

(beta = -1, gamma = alpha/2, quasilinear weight 1/2) and read

    u(x, t) = exp(i w t) exp(i X c / 2) phi(X - c t),   X = x - x0,
    v(x, t) = psi(X - c t),

    phi(y) = sqrt(2 c* (1 + 6 alpha)) / cosh(sqrt(c*) y),
    psi(y) = 12 c* / cosh(sqrt(c*) y)^2,

with 2c = 1 + sqrt(1 + (alpha/3)(1 + 6 alpha)) and c* = c^2/4 + w^2,
for alpha in [-1/6, 0].  x0 is the crest location at t = 0; coordinates
are physical, and ``x_left`` maps the solver's (0, L) grid onto the
physical window [x_left, x_left + L].
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, State
from .grid import ComplexGridFn, RealGridFn, norm_p
# unused here, kept bound: the benchmark tracer patches swlw.oracle.sample
from .grid import sample  # noqa: F401
from .truncation import TruncationFamily

__all__ = ["wave_speed", "TravelingWave", "DECAY_THRESHOLD"]

#: tail amplitude below which the Dirichlet truncation at the window edges
#: is insignificant for double-precision error norms
DECAY_THRESHOLD = 1e-12


def wave_speed(alpha):
    """Wave speed c from 2c = 1 + sqrt(1 + (alpha/3)(1 + 6 alpha))."""
    rad = 1.0 + (alpha / 3.0) * (1.0 + 6.0 * alpha)
    if rad < 0:
        raise ValueError(f"negative radicand {rad} at alpha={alpha}")
    return 0.5 * (1.0 + math.sqrt(rad))


@dataclass(frozen=True)
class TravelingWave:
    """Exact traveling-wave solution, crest at x0 (physical) when t = 0."""
    alpha: float
    omega: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if not (-1.0 / 6.0 <= self.alpha <= 0.0):
            raise ValueError(f"alpha must lie in [-1/6, 0], got {self.alpha}")

    @property
    def c(self):
        return wave_speed(self.alpha)

    @property
    def c_star(self):
        return self.c**2 / 4.0 + self.omega**2

    @property
    def amplitude_u(self):
        """Crest modulus of the short-wave field."""
        return math.sqrt(2.0 * self.c_star * (1.0 + 6.0 * self.alpha))

    @property
    def amplitude_v(self):
        """Crest value 12 c* of the long-wave field."""
        return 12.0 * self.c_star

    def model_params(self, trunc=None):
        """Coefficients of the system these waves solve."""
        return ModelParams(alpha=self.alpha, beta=-1.0, gamma=self.alpha / 2.0,
                           lam=0.5,
                           trunc=trunc if trunc is not None
                           else TruncationFamily.off())

    def evaluate(self, x, t):
        """Exact (u, v) at physical coordinate x and time t."""
        x = np.asarray(x, dtype=np.float64)
        X = x - self.x0
        y = X - self.c * t
        sech = 1.0 / np.cosh(math.sqrt(self.c_star) * y)
        u = np.exp(1j * (self.omega * t + 0.5 * self.c * X)) \
            * self.amplitude_u * sech
        v = self.amplitude_v * sech**2
        return u, v

    def time_derivative(self, x, t):
        """Analytic (du/dt, dv/dt) at physical x and time t."""
        x = np.asarray(x, dtype=np.float64)
        X = x - self.x0
        y = X - self.c * t
        r = math.sqrt(self.c_star)
        sech = 1.0 / np.cosh(r * y)
        tanh = np.tanh(r * y)
        phase = np.exp(1j * (self.omega * t + 0.5 * self.c * X))
        phi = self.amplitude_u * sech
        dphi = -self.amplitude_u * r * sech * tanh
        dpsi = -2.0 * self.amplitude_v * r * sech**2 * tanh
        dudt = phase * (1j * self.omega * phi - self.c * dphi)
        dvdt = -self.c * dpsi
        return dudt, dvdt

    def state(self, grid, t, x_left=0.0):
        """Exact solution at the grid's nodes, ghosts zeroed: one
        closed-form evaluation on the node array for both fields.  Raises
        ValueError naming the first active node with a non-finite value."""
        u, v = self.evaluate(grid.x + x_left, t)
        bad = ~(np.isfinite(u) & np.isfinite(v))[grid.active]
        if bad.any():
            j = 2 + int(np.argmax(bad))
            raise ValueError(f"non-finite sample at node j={j}, x={grid.x[j]}")
        return State(t, ComplexGridFn(grid, u), RealGridFn(grid, v))

    def initial_state(self, grid, x_left=0.0):
        """State at t = 0; warns when the tails have not decayed at the
        window edges (the run proceeds, errors just pick up the Dirichlet
        truncation)."""
        for xb in (x_left, x_left + grid.L):
            ub, vb = self.evaluate(xb, 0.0)
            if max(abs(ub), abs(vb)) > DECAY_THRESHOLD:
                warnings.warn(
                    f"traveling wave not decayed at boundary x={xb}: "
                    f"|u|={abs(ub):.2e}, |v|={abs(vb):.2e}", stacklevel=2)
        return self.state(grid, 0.0, x_left)

    def relative_l2_error(self, state, x_left=0.0):
        """Per-field relative discrete L2 errors at the state's time."""
        exact = self.state(state.grid, state.t, x_left)
        nu = norm_p(exact.u, 2)
        nv = norm_p(exact.v, 2)
        if nu == 0.0 or nv == 0.0:
            raise ZeroDivisionError("exact solution vanishes on this grid")
        du = RealGridFn(state.grid, np.abs(state.u.values - exact.u.values))
        dv = RealGridFn(state.grid, np.abs(state.v.values - exact.v.values))
        return {"err_u": norm_p(du, 2) / nu, "err_v": norm_p(dv, 2) / nv}
