"""Finite-difference solvers for the coupled Schrodinger-KdV system
modelling short-wave/long-wave resonance on a bounded interval."""

from .dynamics import (BlowUpError, ModelParams, RunDiagnostics, SolverFailure,
                       State, energy, integrate_semidiscrete, mass,
                       q_invariant, rhs, rk4_step, stability_budget)
from .grid import (ComplexGridFn, Grid, GridFn, RealGridFn, d_cubed, d_minus,
                   d_plus, d_zero, dplus_norm_p, inner, laplacian_h, norm_p,
                   sample)
from .oracle import TravelingWave, wave_speed
from .solver import (NonConvergenceError, Pentadiag, SingularSystemError,
                     SolverConfig, Tridiag, kdv_update, run,
                     schrodinger_update, solve_tridiag, step)
from .truncation import TruncationFamily

__version__ = "0.1.0"
