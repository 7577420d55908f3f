"""Semi-discrete coupled Schrodinger-KdV system and its diagnostics.

The method-of-lines system on a ghost-padded uniform grid:

    du/dt = i (Lap_h u - beta |u|^2 u - alpha g(v) u)
    dv/dt = -D3 v - lam D0 f(v) + gamma D0 (g'(v) |u|^2)

where f, g are the (possibly truncated) quadratic flux and coupling
potential, Lap_h the three-point second difference, D0 the centered first
difference and D3 the five-point third difference.  lam = 1 recovers the
plain quadratic flux d_x(v^2); lam = 1/2 the quasilinear form v d_x v.

The exact semi-discrete flow conserves the mass ||u||_2 and the discrete
energy below; the reference RK4 integrator inherits both up to O(dt^4)
drift.  The cross-invariant Q is conserved only at the continuous level
and is monitored, not conserved, here.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import (ComplexGridFn, RealGridFn, d_zero, d_cubed, laplacian_h,
                   inner, norm_p, dplus_norm_p)
from .truncation import TruncationFamily

__all__ = ["ModelParams", "State", "RunDiagnostics", "SolverFailure",
           "BlowUpError", "rhs", "rk4_step", "stability_budget",
           "integrate_semidiscrete", "mass", "q_invariant", "energy"]

#: dt <= RK4_STABILITY_FACTOR * h^3 keeps the explicit reference integrator
#: inside the RK4 imaginary-axis stability interval for the third-difference
#: operator (spectral radius ~ 3/h^3, interval ~ 2.8; 0.4 is conservative).
RK4_STABILITY_FACTOR = 0.4


class SolverFailure(RuntimeError):
    """A time step failed.  Raised out of the time loop, it carries
    ``step_index`` (the failing step, from 1), ``time`` (that of the last
    good state) and ``diagnostics`` (the samples taken so far)."""


class BlowUpError(SolverFailure):
    """NaN/Inf detected while time stepping; ``t`` is ``time``, which the
    time loop fills in when the raiser does not know it."""

    def __init__(self, t, dt, diagnostics=None):
        super().__init__()
        self.time, self.dt, self.diagnostics = t, dt, diagnostics

    t = property(lambda self: self.time)

    def __str__(self):
        return f"non-finite state at t={self.time} (dt={self.dt})"


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients and the truncation family.

    alpha couples both equations, beta weighs the cubic Schrodinger term,
    gamma the long-wave forcing, lam the quasilinear flux (1 for the plain
    system, 1/2 for the quasilinear variant the exact waves solve).
    """
    alpha: float
    beta: float
    gamma: float
    lam: float = 1.0
    trunc: TruncationFamily = field(default_factory=TruncationFamily.off)


@dataclass(frozen=True)
class State:
    t: float
    u: ComplexGridFn
    v: RealGridFn

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v live on different grids")

    @property
    def grid(self):
        return self.u.grid


@dataclass
class RunDiagnostics:
    """Time series sampled along a run; all lists share one length."""
    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    q_invariant: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    v_sup: list = field(default_factory=list)
    inner_iters_u: list = field(default_factory=list)
    inner_iters_v: list = field(default_factory=list)

    def record(self, state, params, iters_u=0, iters_v=0):
        self.times.append(state.t)
        self.mass.append(mass(state))
        self.q_invariant.append(q_invariant(state, params))
        self.energy.append(energy(state, params))
        self.v_sup.append(norm_p(state.v, np.inf))
        self.inner_iters_u.append(iters_u)
        self.inner_iters_v.append(iters_v)


def rhs(state, params):
    """Time derivatives of the semi-discrete system, ghost layers zeroed."""
    g = state.grid
    u = state.u.values
    v = state.v.values
    tr = params.trunc

    pot = params.trunc.coupling(v)
    dudt = 1j * (laplacian_h(u, g)
                 - params.beta * np.abs(u)**2 * u
                 - params.alpha * pot * u)

    forcing = tr.coupling_prime(v) * np.abs(u)**2
    dvdt = (-d_cubed(v, g)
            - params.lam * d_zero(tr.flux(v), g)
            + params.gamma * d_zero(forcing, g))
    return ComplexGridFn(g, dudt), RealGridFn(g, dvdt)


def stability_budget(grid):
    """Largest dt the explicit RK4 integrator should use on this grid."""
    return RK4_STABILITY_FACTOR * grid.h**3


def rk4_step(state, params, dt):
    """One classical fourth-order Runge-Kutta step of the coupled system."""
    g = state.grid

    def f(uv, vv):
        s = State(state.t, ComplexGridFn(g, uv), RealGridFn(g, vv))
        du, dv = rhs(s, params)
        return du.values, dv.values

    u0, v0 = state.u.values, state.v.values
    k1u, k1v = f(u0, v0)
    k2u, k2v = f(u0 + dt / 2 * k1u, v0 + dt / 2 * k1v)
    k3u, k3v = f(u0 + dt / 2 * k2u, v0 + dt / 2 * k2v)
    k4u, k4v = f(u0 + dt * k3u, v0 + dt * k3v)
    u1 = u0 + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
    v1 = v0 + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    if not (np.all(np.isfinite(u1.view(np.float64))) and np.all(np.isfinite(v1))):
        raise BlowUpError(state.t, dt)
    return State(state.t + dt, ComplexGridFn(g, u1), RealGridFn(g, v1))


def mass(state):
    """Conserved discrete L2 norm of the short-wave field."""
    return norm_p(state.u, 2)


def q_invariant(state, params):
    """Discrete cross-invariant alpha ||v||_2^2 + 2 gamma Im (u, D0 u).

    The centered difference stands in for d_x; it is the skew-symmetric
    choice matching the cancellation that conserves Q at the continuous
    level.  Discretely Q drifts, at a rate vanishing with h.
    """
    q = params.alpha * norm_p(state.v, 2)**2
    q += 2.0 * params.gamma * inner(state.u, d_zero(state.u)).imag
    return float(q)


def energy(state, params):
    """Discrete energy conserved by the exact semi-discrete flow.

    E = gamma ||D+ u||^2 + (alpha/2) ||D+ v||^2 + (beta gamma / 2) ||u||_4^4
        + alpha gamma sum h g(v) |u|^2 - alpha lam sum h F(v)

    The flux-potential term carries the quasilinear weight lam: the
    cancellation against the D0 f(v) flux in dE/dt requires the F
    coefficient to equal lam (lam = 1 gives the plain-system energy).
    """
    g = state.grid
    u = state.u.values
    v = state.v.values
    tr = params.trunc
    a = g.active
    e = params.gamma * dplus_norm_p(state.u, 2)**2
    e += 0.5 * params.alpha * dplus_norm_p(state.v, 2)**2
    e += 0.5 * params.beta * params.gamma * norm_p(state.u, 4)**4
    e += params.alpha * params.gamma * g.h * np.sum(
        tr.coupling(v[a]) * np.abs(u[a])**2)
    e -= params.alpha * params.lam * g.h * np.sum(
        tr.flux_antiderivative(v[a]))
    return float(e)


def integrate_semidiscrete(initial, params, dt, T, sample_every=1):
    """Drive rk4_step to the first time >= T, sampling as ``_march`` does.

    Raises BlowUpError if the state goes non-finite, and ValueError when dt
    exceeds the stability budget of the grid.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("dt, T must be positive")
    budget = stability_budget(initial.grid)
    if dt > budget:
        raise ValueError(
            f"dt={dt} exceeds the RK4 stability budget {budget:.3g} "
            f"(= {RK4_STABILITY_FACTOR} h^3); shrink dt or coarsen the grid")
    return _march(initial, params, lambda s: (rk4_step(s, params, dt), 0, 0),
                  dt, T, sample_every)


def _march(initial, params, advance, dt, T, sample_every=1, observe=None):
    """The time loop of every driver: ``advance(state)`` returns
    ``(state, iters_u, iters_v)``, from ``initial`` to the first time >= T.

    Step n is re-stamped to ``initial.t + n * dt``.  Diagnostics are
    recorded, and then ``observe(state)`` called, at step 0 (the initial
    state), every ``sample_every`` steps and at the last step.  A
    SolverFailure leaves with its step, time and diagnostics attached.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    diags = RunDiagnostics()
    state, iu, iv = initial, 0, 0
    n_steps = int(np.ceil(T / dt - 1e-12))
    for n in range(n_steps + 1):
        if n > 0:
            try:
                state, iu, iv = advance(state)
            except SolverFailure as exc:
                exc.step_index, exc.time, exc.diagnostics = n, state.t, diags
                raise
            state = State(initial.t + n * dt, state.u, state.v)
        if n % sample_every == 0 or n == n_steps:
            diags.record(state, params, iters_u=iu, iters_v=iv)
            if observe is not None:
                observe(state)
    return state, diags
