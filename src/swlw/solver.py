"""Fully discrete time stepper: semi-implicit Crank-Nicolson for the
short-wave equation, fully implicit Euler with Newton iteration for the
long-wave equation.

Per time step tau, with the active unknowns j = 2..J-1:

  short wave   i (w - u^n)/tau + Lap_h m = beta |m|^2 m + alpha g(v^n) m,
               m = (w + u^n)/2.  The modulus |m|^2 is frozen from the
               previous inner iterate, so each inner solve is one linear
               complex tridiagonal system.  At the fixed point the scheme
               conserves ||u||_2 exactly; in practice the per-step change
               is bounded by a small multiple of the stopping tolerance.

  long wave    (w - v^n)/tau + D3 w + lam D0 f(w) = gamma D0 (g'(w) |u^n|^2)
               solved by Newton's method with the analytic pentadiagonal
               Jacobian.  Both band systems are solved by LAPACK's band
               LU with partial pivoting, from the library numpy links.

Both inner iterations warm-start from the previous time level and stop
when the discrete L2 norm of the update increment drops below the
configured tolerance.
"""

import ctypes
from dataclasses import dataclass

import numpy as np

from .dynamics import BlowUpError, SolverFailure, State, _march
from .grid import ComplexGridFn, RealGridFn, d_cubed, d_zero, laplacian_h

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


# (prefix, suffix, integer type) of LAPACK's symbols in the library that
# numpy.linalg links; the numpy >= 2 PyPI wheels have the first (ILP64)
_LAPACK_NAMES = [("scipy_", "_64_", ctypes.c_int64),
                 ("", "_64_", ctypes.c_int64), ("", "_", ctypes.c_int32)]


def _load_lapack():
    """?gbtrf and ?gbtrs for float64 and complex128, and the integer type."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix, int_t in _LAPACK_NAMES:
        try:
            routines = {np.dtype(t): [getattr(lib, prefix + c + r + suffix)
                                      for r in ("gbtrf", "gbtrs")]
                        for c, t in (("d", np.float64), ("z", np.complex128))}
        except AttributeError:
            continue
        INT, PTR = ctypes.POINTER(int_t), ctypes.c_void_p
        for trf, trs in routines.values():
            trf.restype = trs.restype = None
            trf.argtypes = [INT, INT, INT, INT, PTR, INT, PTR, INT]
            # gbtrs ends with the hidden length of its character argument
            trs.argtypes = [PTR, INT, INT, INT, INT, PTR, INT, PTR, PTR, INT,
                            INT, ctypes.c_size_t]
        return routines, int_t
    tried = ", ".join(p + "dgbtrf" + s for p, s, _ in _LAPACK_NAMES)
    raise ImportError(f"no LAPACK band LU in {lib._name} (tried {tried})")


_GB_ROUTINES, _LAPACK_INT = _load_lapack()


class _BandLU:
    """LAPACK band LU with partial pivoting (?gbtrf, ?gbtrs) of the matrix
    with diagonals ``bands`` (offsets -k..k); inputs are copied, never
    written.  Singular: an exact zero pivot, or a U pivot below the floor
    _PIVOT_FLOOR * max |A_ij|.  The error names the first row of A whose
    entries are all at most the floor, else the first small pivot.  A
    non-finite matrix is never singular: it solves to NaN (a blow-up)."""

    def __init__(self, bands, dtype=np.float64):
        k = len(bands) // 2
        n = len(bands[k])
        dtype = np.result_type(np.float64, dtype, *bands)
        trf, self.trs = _GB_ROUTINES[dtype]
        # Fortran (3k + 1) x n storage: A[i, j] is ab[j, 2k + i - j]
        self.ab = ab = np.zeros((n, 3 * k + 1), dtype)
        for o, band in enumerate(bands, -k):
            ab[max(o, 0):n + min(o, 0), 2 * k - o] = band
        floor = _PIVOT_FLOOR * np.abs(ab).max()
        self.n, self.k, self.ld = (_LAPACK_INT(v) for v in (n, k, 3 * k + 1))
        self.ipiv, info = np.empty(n, _LAPACK_INT), _LAPACK_INT()
        trf(self.n, self.n, self.k, self.k, ab.ctypes.data, self.ld,
            self.ipiv.ctypes.data, info)
        small = np.abs(ab[:, 2 * k]) < floor
        if np.isfinite(floor) and (info.value > 0 or small.any()):
            big = np.zeros(n, bool)
            for o, band in enumerate(bands, -k):
                big[max(-o, 0):n - max(o, 0)] |= np.abs(band) > floor
            rows = np.flatnonzero(~big)
            raise SingularSystemError(int(rows[0] if len(rows)
                                          else np.argmax(small)))

    def solve(self, b):
        x, info = np.array(b, self.ab.dtype), _LAPACK_INT()
        self.trs(b"N", self.n, self.k, self.k, _LAPACK_INT(1),
                 self.ab.ctypes.data, self.ld, self.ipiv.ctypes.data,
                 x.ctypes.data, self.n, info, 1)
        return x


def solve_tridiag(system, rhs):
    """Band LU solve with partial pivoting; raises on a vanishing pivot."""
    b = np.asarray(rhs)
    if len(b) != len(system.diag):
        raise ValueError("rhs length mismatch")
    bands = (system.lower, system.diag, system.upper)
    return _BandLU([np.asarray(a) for a in bands], b.dtype).solve(b)


class Pentadiag:
    """Real pentadiagonal system (offsets -2..+2), solved by band LU.

    Diagonals are stored by offset: ``dm2[i] = A[i+2, i]``,
    ``dm1[i] = A[i+1, i]``, ``d0[i] = A[i, i]``, ``dp1[i] = A[i, i+1]``,
    ``dp2[i] = A[i, i+2]``.  ``factor`` runs LAPACK's band LU with partial
    pivoting once and caches the result.
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
        """Band LU factorization, cached; idempotent."""
        if not self.factored:
            self._lu = _BandLU(self.bands)
            self.factored = True
        return self

    def solve(self, rhs):
        if len(rhs) != self.n:
            raise ValueError("rhs length mismatch")
        return self.factor()._lu.solve(rhs)


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

    lap_u = laplacian_h(u_n)[a]
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
