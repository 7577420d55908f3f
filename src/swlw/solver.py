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


# entry (i, j) of block (b, b + t - 1) is A[2b + i, 2b + 2t - 2 + j], kept in
# row 2t + j - i (its offset + 2) of the padded bands; row -1 is zero
_T, _I, _J = np.ogrid[:3, :2, :2]
_BLOCK_ROWS = 2 * _T + _J - _I
# minus the adjugate of a 2 x 2 block is its reversed transpose times _SIGN
_SIGN = np.array([[-1.0, 1.0], [1.0, -1.0]])[..., None]


class _CyclicReduction:
    """Odd-even cyclic reduction of the matrix with diagonals ``bands``
    (offsets -k..k) as block-tridiagonal k x k blocks (k = 1: 1-D bands,
    k = 2: (2, 2, m) stacks), topped with identity rows to 2**L - 1 block
    rows.  Each level eliminates its even rows with the pivots inverted in
    closed form: Gaussian elimination on a red-black symmetric permutation,
    which keeps a positive definite symmetric part and row diagonal
    dominance, so no pivoting is needed.  A and b are scaled by 1/p, p the
    power of two in (scale/2, scale], scale = max(max |A_ij|, 1): exact,
    and 2 x 2 determinants stay finite.  One test after the reduction finds
    the pivots with |det| < floor**k, floor relative to scale; the first
    level with one raises unless it has a NaN too.  A non-finite A passes."""

    def __init__(self, bands):
        k = len(bands) // 2
        n = len(bands[k])
        rows = k * (2 ** (-(-n // k)).bit_length() - 1)
        self.pad = rows - n
        padded = np.zeros((2 * k + 2, rows), np.result_type(1.0, *bands))
        for o, band in enumerate(bands, -k):
            # padded[o + k, r] = A[r, r + o]
            padded[o + k, self.pad + max(-o, 0):rows - max(o, 0)] = band
        scale = max(np.abs(padded).max(), 1.0)
        self.inv_p = 2.0 ** (1 - math.frexp(scale)[1])
        padded *= self.inv_p
        padded[k, :self.pad] = 1.0
        floor = _PIVOT_FLOOR * scale * self.inv_p
        if k == 1:
            lower, diag, upper = padded[:3]
            self.mul, self.rhs_shape = np.multiply, (-1,)
        else:
            lower, diag, upper = padded.reshape(6, -1, 2)[_BLOCK_ROWS, :, _I]
            self.rhs_shape = (-1, 1, 2)
            self.mul = lambda P, Q: np.einsum("ijm,jlm->ilm", P, Q)
        mul = self.mul
        self.levels, pivs, dets = [], [], []
        with np.errstate(all="ignore"):  # zero pivots: tested below
            while diag.shape[-1]:
                pivs.append(piv := diag[..., ::2])
                if k == 1:
                    det, ninv = piv, -1.0 / piv  # minus the inverse pivots
                else:
                    det = piv[0, 0] * piv[1, 1] - piv[0, 1] * piv[1, 0]
                    ninv = piv[::-1, ::-1].swapaxes(0, 1) * _SIGN / det
                dets.append(det)
                lo, up = lower[..., ::2], upper[..., ::2]
                alpha = mul(lower[..., 1::2], ninv[..., :-1])
                beta = mul(upper[..., 1::2], ninv[..., 1:])
                self.levels.append((ninv, lo, up, alpha, beta))
                lower = mul(alpha, lo[..., :-1])
                diag = (diag[..., 1::2] + mul(alpha, up[..., :-1])
                        + mul(beta, lo[..., 1:]))
                upper = mul(beta, up[..., 1:])
        small = floor**k
        if floor < np.inf and (np.abs(np.concatenate(dets)) < small).any():
            for level, (piv, det) in enumerate(zip(pivs, dets)):
                if np.abs(det).min() < small:  # NaN if the level has one
                    # pivot q of level l is block row 2**l * (2q + 1) - 1; a
                    # 2 x 2 pivot names its second row if its first is clear
                    q = np.flatnonzero(np.abs(det) < small)[0]
                    row = k * (2**level * (2 * q + 1) - 1) - self.pad
                    second = k > 1 and abs(piv[0, 0, q]) >= floor
                    raise SingularSystemError(int(row + second))

    def solve(self, b):
        mul = self.mul
        f = np.concatenate((np.zeros(self.pad, b.dtype), b * self.inv_p))
        rhs = [f.reshape(self.rhs_shape).T]
        for _, _, _, alpha, beta in self.levels:
            f = rhs[-1]
            rhs.append(f[..., 1::2] + mul(alpha, f[..., :-1:2])
                       + mul(beta, f[..., 2::2]))
        x = rhs.pop()
        for (ninv, lo, up, _, _), f in zip(self.levels[::-1], rhs[::-1]):
            # x fills the odd slots inside a zero border, so that the left
            # and right neighbours of the pivot rows are plain slices
            xn = np.zeros(f.shape[:-1] + (f.shape[-1] + 2,), x.dtype)
            xn[..., 2:-1:2] = x
            xn[..., 1::2] = mul(ninv, mul(lo, xn[..., :-1:2])
                                + mul(up, xn[..., 2::2]) - f[..., ::2])
            x = xn[..., 1:-1]
        return x.T.ravel()[self.pad:]


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
    u = u_n.values
    ua = u[a]
    if not np.any(ua):
        return ComplexGridFn.zeros(g), 1
    h2 = g.h**2
    agv = params.alpha * params.trunc.coupling(v_n.values[a])
    off = np.full(g.J - 3, 0.5 / h2, dtype=np.complex128)

    lap_u = (u[3:g.J + 1] - 2.0 * u[2:g.J] + u[1:g.J - 1]) / h2
    diag0 = 1j / cfg.tau - 1.0 / h2
    rhs0 = 1j / cfg.tau * ua - 0.5 * lap_u

    w = ua.copy()  # warm start: previous time level
    residuals = []
    for it in range(1, cfg.max_iter + 1):
        mid = 0.5 * (w + ua)
        q = params.beta * np.abs(mid)**2 + agv
        diag = diag0 - 0.5 * q
        rhs_vec = rhs0 + 0.5 * q * ua
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
