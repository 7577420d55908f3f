"""Fully discrete time stepper: semi-implicit Crank-Nicolson for the
short-wave equation, fully implicit Euler with Newton iteration for the
long-wave equation.

Per time step tau, with the active unknowns j = 2..J-1:

  short wave   i (w - u^n)/tau + Lap_h m = beta |m|^2 m + alpha g(v^n) m,
               m = (w + u^n)/2.  The modulus |m|^2 is frozen from the
               previous inner iterate, so each inner solve is one linear
               complex tridiagonal system (cyclic reduction).  At the
               fixed point the scheme conserves ||u||_2 exactly; in
               practice the per-step change is bounded by a small multiple
               of the stopping tolerance.

  long wave    (w - v^n)/tau + D3 w + lam D0 f(w) = gamma D0 (g'(w) |u^n|^2)
               solved by Newton's method with the analytic pentadiagonal
               Jacobian, regrouped into 2 x 2 blocks and solved by block
               cyclic reduction without pivoting (the 1/tau shift keeps
               the symmetric part positive definite).

Both inner iterations warm-start from the previous time level and stop
when the discrete L2 norm of the update increment drops below the
configured tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BlowUpError, SolverFailure, State, _march
from .grid import ComplexGridFn, RealGridFn, d_cubed, d_zero

__all__ = ["SolverConfig", "Tridiag", "Pentadiag", "solve_tridiag",
           "SingularSystemError", "NonConvergenceError",
           "schrodinger_update", "kdv_update", "step", "run"]

_PIVOT_FLOOR = 1e-14


class SingularSystemError(SolverFailure):
    """Zero or near-zero pivot during banded elimination."""

    def __init__(self, row):
        super().__init__(f"zero pivot at row {row}")
        self.row = row


class NonConvergenceError(SolverFailure):
    """Inner iteration failed to meet the tolerance within max_iter."""

    def __init__(self, what, residuals):
        super().__init__(f"{what} did not converge: last increment "
                         f"{residuals[-1]:.3e} after {len(residuals)} iterations")
        self.residuals = list(residuals)


@dataclass(frozen=True)
class SolverConfig:
    tau: float
    T: float
    tol: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        if self.tau <= 0 or self.T <= 0:
            raise ValueError("tau and T must be positive")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@dataclass
class Tridiag:
    """Tridiagonal system for the active unknowns; lower/upper have one
    entry fewer than the main diagonal."""
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if len(self.lower) != n - 1 or len(self.upper) != n - 1:
            raise ValueError("inconsistent band lengths")


def _mul(P, Q):
    """Blockwise products of two stacks of blocks stored as (k, ., m)."""
    return P * Q if len(P) == 1 else np.einsum("ijm,jlm->ilm", P, Q)


class _CyclicReduction:
    """Odd-even cyclic reduction of the matrix with diagonals ``bands``
    (offsets -k..k, k = 1, 2) as block-tridiagonal k x k blocks, topped with
    decoupled diagonal rows to 2**L - 1 block rows.  Each level eliminates
    its even rows with the pivots inverted in closed form: Gaussian
    elimination on a red-black symmetric permutation, which keeps a
    positive definite symmetric part and row diagonal dominance, so no
    pivoting is needed.  A pivot with |det| < floor**k, floor relative to
    max |A_ij|, raises."""

    def __init__(self, bands):
        k = len(bands) // 2
        n = len(bands[k])
        rows = k * (2 ** (-(-n // k)).bit_length() - 1)
        self.k, self.pad = k, rows - n
        scale = max(np.abs(np.concatenate(bands)).max(), 1.0)
        floor = _PIVOT_FLOOR * scale
        padded = np.zeros((2 * k + 1, rows), np.result_type(*bands))
        # the padding diagonal, a power of two in (scale/2, scale], clears
        # the floor; A's rows meet it only through exact zeros, and scaling
        # by a power of two is exact, so A's solution does not depend on it
        padded[k, :self.pad] = (2.0 ** (math.frexp(scale)[1] - 1)
                                if scale < np.inf else 1.0)
        blocks = np.zeros((3, k, k, rows // k), padded.dtype)
        for o, band in enumerate(bands, -k):
            # padded[o + k, r] = A[r, r + o]; for r = k*b + i that entry is
            # (i, j) of block (b, b + t - 1), t - 1 = (o + i) // k
            padded[o + k, self.pad + max(-o, 0):rows - max(o, 0)] = band
            for i in range(k):
                blocks[(o + i) // k + 1, i, (o + i) % k] = padded[o + k, i::k]
        lower, diag, upper = blocks
        self.levels = []
        while diag.shape[-1]:
            piv = diag[..., ::2]
            if k == 1:
                det, nadj = piv[0], -1.0
            else:
                det = piv[0, 0] * piv[1, 1] - piv[0, 1] * piv[1, 0]
                nadj = np.array([[-piv[1, 1], piv[0, 1]],
                                 [piv[1, 0], -piv[0, 0]]])
            # a non-finite matrix is not singular: the caller sees its
            # non-finite solution and reports a blow-up
            if floor < np.inf and np.abs(det).min() < floor**k:
                # pivot q of level l is block row 2**l * (2q + 1) - 1; a
                # 2 x 2 pivot names its second row if its first is clear
                q = np.flatnonzero(np.abs(det) < floor**k)[0]
                row = k * (2**len(self.levels) * (2 * q + 1) - 1) - self.pad
                second = k > 1 and abs(piv[0, 0, q]) >= floor
                raise SingularSystemError(int(row + second))
            ninv = nadj / det  # minus the inverse pivots
            lo, up = lower[..., ::2], upper[..., ::2]
            alpha = _mul(lower[..., 1::2], ninv[..., :-1])
            beta = _mul(upper[..., 1::2], ninv[..., 1:])
            self.levels.append((ninv, lo, up, alpha, beta))
            lower = _mul(alpha, lo[..., :-1])
            diag = (diag[..., 1::2] + _mul(alpha, up[..., :-1])
                    + _mul(beta, lo[..., 1:]))
            upper = _mul(beta, up[..., 1:])

    def solve(self, b):
        f = np.concatenate((np.zeros(self.pad, b.dtype), b))
        x = _cr_solve(self.levels, f.reshape(-1, self.k).T[:, None])
        return x[:, 0].T.ravel()[self.pad:]


def _cr_solve(levels, f):
    """Solve for f stored as (k, 1, m), with the remaining ``levels``."""
    if not levels:
        return f
    ninv, lo, up, alpha, beta = levels[0]
    x = _cr_solve(levels[1:], f[..., 1::2] + _mul(alpha, f[..., :-1:2])
                  + _mul(beta, f[..., 2::2]))
    # x fills the odd slots inside a zero border, so that the left and
    # right neighbours of the pivot rows are plain slices
    xn = np.zeros(f.shape[:-1] + (f.shape[-1] + 2,), np.result_type(ninv, f))
    xn[..., 2:-1:2] = x
    xn[..., 1::2] = _mul(ninv, _mul(lo, xn[..., :-1:2])
                         + _mul(up, xn[..., 2::2]) - f[..., ::2])
    return xn[..., 1:-1]


def solve_tridiag(system, rhs):
    """Cyclic-reduction solve without pivoting; raises on a vanishing pivot."""
    b = np.asarray(rhs)
    if len(b) != len(system.diag):
        raise ValueError("rhs length mismatch")
    bands = (system.lower, system.diag, system.upper)
    return _CyclicReduction([np.asarray(a) for a in bands]).solve(b)


class Pentadiag:
    """Real pentadiagonal system (offsets -2..+2), solved as 2 x 2 blocks.

    Diagonals are stored by offset: ``dm2[i] = A[i+2, i]``,
    ``dm1[i] = A[i+1, i]``, ``d0[i] = A[i, i]``, ``dp1[i] = A[i, i+1]``,
    ``dp2[i] = A[i, i+2]``.  ``factor`` reduces without pivoting (callers
    guarantee the diagonal shift makes this safe) and caches the result.
    """

    def __init__(self, dm2, dm1, d0, dp1, dp2):
        self.bands = [np.asarray(b, dtype=np.float64)
                      for b in (dm2, dm1, d0, dp1, dp2)]
        self.dm2, self.dm1, self.d0, self.dp1, self.dp2 = self.bands
        self.n = n = len(self.d0)
        if [len(b) for b in self.bands] != [n - 2, n - 1, n, n - 1, n - 2]:
            raise ValueError("inconsistent band lengths")
        self.factored = False

    def factor(self):
        """Cyclic-reduction factorization, cached; idempotent."""
        if not self.factored:
            self._cr = _CyclicReduction(self.bands)
            self.factored = True
        return self

    def solve(self, rhs):
        b = np.asarray(rhs, dtype=np.float64)
        if len(b) != self.n:
            raise ValueError("rhs length mismatch")
        return self.factor()._cr.solve(b)


def schrodinger_update(u_n, v_n, params, cfg):
    """Crank-Nicolson step of the short-wave equation with frozen modulus.

    Returns the new field and the number of inner iterations used.
    """
    g = u_n.grid
    a = g.active
    n = g.J - 2
    u = u_n.values
    if not np.any(u[a]):
        return ComplexGridFn.zeros(g), 1
    h2 = g.h**2
    tau = cfg.tau
    gv = params.trunc.coupling(v_n.values[a])
    off = np.full(n - 1, 0.5 / h2, dtype=np.complex128)

    lap_u = (u[3:g.J + 1] - 2.0 * u[2:g.J] + u[1:g.J - 1]) / h2

    w = u[a].copy()  # warm start: previous time level
    residuals = []
    for it in range(1, cfg.max_iter + 1):
        mid = 0.5 * (w + u[a])
        q = params.beta * np.abs(mid)**2 + params.alpha * gv
        diag = 1j / tau - 1.0 / h2 - 0.5 * q
        rhs_vec = 1j / tau * u[a] - 0.5 * lap_u + 0.5 * q * u[a]
        w_new = solve_tridiag(Tridiag(off, diag, off), rhs_vec)
        incr = float(np.sqrt(g.h * np.sum(np.abs(w_new - w)**2)))
        residuals.append(incr)
        w = w_new
        if incr <= cfg.tol:
            out = np.zeros(g.J + 2, dtype=np.complex128)
            out[a] = w
            return ComplexGridFn(g, out), it
        if not np.isfinite(incr):  # the iterate blew up
            raise BlowUpError(None, cfg.tau)
    raise NonConvergenceError("Crank-Nicolson inner iteration", residuals)


def _kdv_residual(w, v_n, usq, params, tau, g):
    """Implicit-Euler residual on the active range; w is a full array."""
    tr = params.trunc
    r = ((w - v_n) / tau + d_cubed(w, g)
         + params.lam * d_zero(tr.flux(w), g)
         - params.gamma * d_zero(tr.coupling_prime(w) * usq, g))
    return r[g.active]


def kdv_jacobian(w, usq, params, tau, g):
    """Analytic pentadiagonal Jacobian of the implicit-Euler residual."""
    tr = params.trunc
    a = g.active
    n = g.J - 2
    h = g.h
    inv2h3 = 1.0 / (2.0 * h**3)
    # dD0-term/dw_{i+-1}: +-[lam f'(w) - gamma g''(w) |u|^2]/(2h) at i+-1
    nl = (params.lam * tr.flux_prime(w)
          - params.gamma * tr.coupling_second(w) * usq) / (2.0 * h)
    d0 = np.full(n, 1.0 / tau)
    dp1 = np.full(n - 1, -2.0 * inv2h3) + nl[a][1:]
    dm1 = np.full(n - 1, 2.0 * inv2h3) - nl[a][:-1]
    dp2 = np.full(n - 2, inv2h3)
    dm2 = np.full(n - 2, -inv2h3)
    return Pentadiag(dm2, dm1, d0, dp1, dp2)


def kdv_update(v_n, u_n, params, cfg):
    """Newton iteration for the implicit-Euler long-wave step."""
    g = v_n.grid
    a = g.active
    tau = cfg.tau
    usq = np.abs(u_n.values)**2
    vn = v_n.values
    w = vn.copy()
    residuals = []
    for it in range(1, cfg.max_iter + 1):
        r = _kdv_residual(w, vn, usq, params, tau, g)
        jac = kdv_jacobian(w, usq, params, tau, g)
        delta = jac.solve(-r)
        w = w.copy()
        w[a] += delta
        incr = float(np.sqrt(g.h * np.sum(delta**2)))
        residuals.append(incr)
        if incr <= cfg.tol:
            return RealGridFn(g, w), it
        if not np.isfinite(incr):  # the iterate blew up
            raise BlowUpError(None, cfg.tau)
    raise NonConvergenceError("KdV Newton iteration", residuals)


def step(state, params, cfg):
    """One full time step; both updates read the old state's coupling
    fields (the short wave sees v^n, the long wave sees |u^n|^2)."""
    u_next, iu = schrodinger_update(state.u, state.v, params, cfg)
    v_next, iv = kdv_update(state.v, state.u, params, cfg)
    return State(state.t + cfg.tau, u_next, v_next), iu, iv


def run(initial, params, cfg, sample_every=1, observe=None):
    """Step to the horizon T, sampling diagnostics and iteration counts.

    Returns the final state and a RunDiagnostics whose inner_iters_u /
    inner_iters_v columns carry the per-step counts at the sampled steps.
    ``observe(state)`` is called at each sample; a SolverFailure carries
    the step index, time and diagnostics (see ``dynamics._march``).
    """
    # step is looked up at call time, so a patched solver.step is seen
    return _march(initial, params, lambda s: step(s, params, cfg), cfg.tau,
                  cfg.T, sample_every, observe)
